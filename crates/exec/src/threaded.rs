//! Thread-per-subregion parallel runner, one [`ThreadedRunner<D>`] for 2D
//! and 3D problems (see [`Dim`]).
//!
//! Each active subregion runs on its own OS thread; halo strips travel over
//! unbounded crossbeam channels — the in-process analogue of the paper's
//! TCP/IP sockets ("the TCP/IP protocol behaves as if there are two
//! first-in-first-out channels for writing data in each direction between two
//! processes", section 4.2). Communication is asynchronous and
//! first-come-first-served within an exchange stage, which is the policy the
//! paper recommends in Appendix C. The exchange runs in one stage per axis
//! (x, y, then z in 3D) so edge and corner ghosts fill transitively without
//! diagonal messages.
//!
//! Halo buffers are recycled: every data channel is paired with a return
//! channel, the receiver sends each consumed buffer back, and the sender
//! reuses it for the next message on that edge. At most two buffers circulate
//! per directed edge, so the steady-state exchange performs no heap
//! allocation; [`StepTiming`] counts messages, doubles and buffer
//! allocations/reuses so tests can assert both properties exactly.
//!
//! When the solver declares `overlapped_phase(x) == Some(p)` and its plan has
//! `Exchange(x)` immediately followed by `Compute(p)`, the worker runs the
//! pair as one *fused* schedule: it posts all halo sends, computes the
//! interior while the final exchange stage is still in flight, then unpacks
//! that stage and applies the boundary remainder. A solver that declares
//! nothing (e.g. `ScalarReference2/3`) gets the plain staged exchange
//! followed by the whole compute phase. Results are bitwise identical either
//! way; which schedule runs is a property of the solver, not an option of
//! the runner (DESIGN.md, "Compute/halo overlap", has the measurement).
//!
//! The runner also implements the synchronisation machinery of section 5 /
//! Appendix B as a *migration drill*: a monitor picks a synchronisation step
//! just past the furthest process (every process publishes its integration
//! step, the maximum plus a safety margin becomes the barrier — the
//! shared-file max-step algorithm of Appendix B), all workers run exactly to
//! that step and pause, the migrating worker saves its state to a dump file
//! and restores from it (stop on the busy host / restart on a free host), and
//! the computation resumes. The drill is bitwise transparent: a run with a
//! drill produces exactly the fields of an undisturbed run, which the
//! integration tests assert.
//!
//! Finally, [`ThreadedRunner::run_supervised`] is the crash-recovery mode:
//! the run is cut into segments of `checkpoint_interval` steps, the tiles are
//! snapshotted in memory at every segment barrier (a coordinated checkpoint),
//! and a worker that dies — a panic, or a seeded [`KillSpec`] — discards the
//! broken segment and replays it from the last snapshot. Because each segment
//! starts from a complete same-step snapshot and the solvers are
//! deterministic, a recovered run is *bitwise identical* to an undisturbed
//! one, which the fault-recovery tests assert property-style.

use crate::dim::{Dim, D2, D3};
use crate::error::{note_failure, panic_message, RunError};
use crate::gather::{GlobalFields2, GlobalFields3};
use crate::timing::StepTiming;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use subsonic_obs::{Category, FlightRecorder, TrackRecorder};
use subsonic_solvers::StepOp;

/// No synchronisation requested.
const NO_SYNC: u64 = u64::MAX;

/// Track id for the supervisor timeline (far above any real tile id).
const SUPERVISOR_TID: u32 = u32::MAX;

/// A planned mid-run migration exercise.
#[derive(Debug, Clone)]
pub struct MigrationDrill {
    /// Tile that "migrates" (its worker saves state to a dump file and
    /// restores from it while everyone is paused).
    pub tile: usize,
    /// Arm the drill once any worker has completed this many steps.
    pub arm_step: u64,
    /// Directory for the dump file.
    pub dump_dir: PathBuf,
}

/// What the drill actually did.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// The synchronisation step every process paused at.
    pub sync_step: u64,
    /// Size of the dump file in bytes.
    pub dump_bytes: u64,
    /// Path of the dump file.
    pub dump_path: PathBuf,
}

/// Supervisor policy for [`ThreadedRunner::run_supervised`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Steps between in-memory coordinated checkpoints: the supervisor runs
    /// the workers in segments of this length and snapshots every tile at the
    /// segment barrier. A crash costs at most this many steps of recompute.
    pub checkpoint_interval: u64,
    /// Restarts allowed before the supervisor gives up with
    /// [`RunError::RetriesExhausted`].
    pub max_restarts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            checkpoint_interval: 8,
            max_restarts: 2,
        }
    }
}

/// A seeded worker kill, the in-process analogue of the cluster layer's
/// host-crash fault. Fires at most once per supervised run: when the segment
/// window containing `at_step` executes for the `attempt`-th time.
#[derive(Debug, Clone)]
pub struct KillSpec {
    /// Tile whose worker dies.
    pub tile: usize,
    /// Global step at which it dies (before computing that step).
    pub at_step: u64,
    /// Which execution of the surrounding segment window the kill arms on:
    /// `0` kills the first attempt, `1` kills the *replay* of a segment that
    /// already failed once (a crash during recovery), and so on. Unsupervised
    /// segments always run at attempt 0.
    pub attempt: u32,
    /// `true`: the worker panics (unwinds mid-flight, peers see broken
    /// channels); `false`: it exits cleanly with [`RunError::Injected`].
    pub panic: bool,
}

/// Result of a threaded run (also the output of one supervised segment).
pub struct RunOutcome<D: Dim> {
    /// Final tiles, in active-id order.
    pub tiles: Vec<D::Tile>,
    /// Per-tile timing, `(tile_id, timing)`. Under supervision this counts
    /// only committed segments — work thrown away by a rollback is excluded,
    /// exactly like the cluster simulation's per-process accounting.
    pub timing: Vec<(usize, StepTiming)>,
    /// Drill report, if a drill was requested and fired.
    pub drill: Option<DrillReport>,
    /// Segment replays performed by the supervisor (0 for unsupervised runs).
    pub restarts: u32,
}

/// Result of a 2D threaded run.
pub type RunOutcome2 = RunOutcome<D2>;

/// Result of a 3D threaded run.
pub type RunOutcome3 = RunOutcome<D3>;

impl RunOutcome<D2> {
    /// Gathers the global fields from the final tiles.
    pub fn gather(&self, nx: usize, ny: usize, rho0: f64) -> GlobalFields2 {
        GlobalFields2::gather(nx, ny, rho0, self.tiles.iter())
    }
}

impl RunOutcome<D3> {
    /// Gathers the global fields from the final tiles.
    pub fn gather(&self, dims: (usize, usize, usize), rho0: f64) -> GlobalFields3 {
        GlobalFields3::gather(dims, rho0, self.tiles.iter())
    }
}

/// Published steps, the announced synchronisation step, and the pause
/// barrier of Appendix B.
struct Control {
    published: Vec<AtomicU64>,
    sync_step: AtomicU64,
    paused: Mutex<(usize, u64)>, // (paused count, resume epoch)
    cv: Condvar,
}

impl Control {
    fn new(n: usize) -> Self {
        Self {
            published: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sync_step: AtomicU64::new(NO_SYNC),
            paused: Mutex::new((0, 0)),
            cv: Condvar::new(),
        }
    }

    fn max_published(&self) -> u64 {
        self.published
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .max()
            .unwrap_or(0)
    }

    /// Worker-side: pause at the barrier until the monitor resumes everyone.
    fn pause(&self) {
        let mut st = self.paused.lock();
        let epoch = st.1;
        st.0 += 1;
        self.cv.notify_all();
        while st.1 == epoch {
            self.cv.wait(&mut st);
        }
    }

    /// Monitor-side: wait until `n` workers are paused.
    fn wait_all_paused(&self, n: usize) {
        let mut st = self.paused.lock();
        while st.0 < n {
            self.cv.wait(&mut st);
        }
    }

    /// Monitor-side: release all paused workers (the CONT signal).
    fn resume_all(&self) {
        let mut st = self.paused.lock();
        st.0 = 0;
        st.1 += 1;
        self.cv.notify_all();
        // clear the sync request so workers run freely again
        self.sync_step.store(NO_SYNC, Ordering::SeqCst);
    }
}

/// (face, data in, buffer-returns out)
type RxEdge<F> = (F, Receiver<Vec<f64>>, Sender<Vec<f64>>);
/// (face, data out, buffer-returns in)
type TxEdge<F> = (F, Sender<Vec<f64>>, Receiver<Vec<f64>>);

/// One worker's halo links: its receivers (data rx + buffer-return tx per
/// face) and its senders into each neighbour's ghost (data tx of
/// `(nb, f.opposite())` + the matching buffer-return rx).
struct Endpoints<F> {
    rx: Vec<RxEdge<F>>,
    tx: Vec<TxEdge<F>>,
}

/// One thread per subregion, channels as sockets.
pub struct ThreadedRunner<D: Dim> {
    solver: Arc<D::Solver>,
    problem: D::Problem,
    recorder: FlightRecorder,
}

/// The 2D threaded runner (trace pid 2, tracks named `threaded2`).
pub type ThreadedRunner2 = ThreadedRunner<D2>;

/// The 3D threaded runner (trace pid 3, tracks named `threaded3`).
pub type ThreadedRunner3 = ThreadedRunner<D3>;

impl<D: Dim> ThreadedRunner<D> {
    /// Creates a runner for `problem` using `solver`.
    pub fn new(solver: Arc<D::Solver>, problem: D::Problem) -> Self {
        Self {
            solver,
            problem,
            recorder: FlightRecorder::disabled(),
        }
    }

    /// Attaches a flight recorder: each worker gets a wall-clock track
    /// (compute / halo-exchange spans, checkpoint and recovery events).
    /// With a disabled recorder — the default — every record call is a
    /// no-op and the step hot path allocates nothing extra, which the
    /// buffer-recycling test pins via the alloc counters.
    pub fn with_recorder(mut self, recorder: &FlightRecorder) -> Self {
        self.recorder = recorder.clone();
        self
    }

    /// Opens a per-tile trace track (inert when the recorder is disabled;
    /// the name is only formatted when actually recording).
    fn tile_track(&self, id: usize) -> TrackRecorder {
        if self.recorder.is_enabled() {
            self.recorder
                .track(D::TRACE_PID, id as u32, D::TRACK, &format!("tile {id}"))
        } else {
            TrackRecorder::disabled()
        }
    }

    /// Runs `steps` integration steps on all active tiles in parallel.
    pub fn run(&self, steps: u64) -> Result<RunOutcome<D>, RunError> {
        self.run_with_drill(steps, None)
    }

    /// Runs `steps` steps, optionally performing a migration drill mid-run.
    pub fn run_with_drill(
        &self,
        steps: u64,
        drill: Option<MigrationDrill>,
    ) -> Result<RunOutcome<D>, RunError> {
        if let Some(d) = drill.as_ref() {
            std::fs::create_dir_all(&d.dump_dir)?;
        }
        self.run_segment(self.initial_tiles(), 0, steps, drill, Vec::new())
    }

    /// Runs `steps` steps under crash-recovery supervision: the run proceeds
    /// in segments of `cfg.checkpoint_interval` steps with an in-memory
    /// coordinated checkpoint at every segment barrier. A worker death —
    /// a panic, or the seeded `kill` — aborts the segment; the supervisor
    /// rolls back to the last checkpoint and replays, up to
    /// `cfg.max_restarts` times. The recovered result is bitwise identical
    /// to an undisturbed run.
    pub fn run_supervised(
        &self,
        steps: u64,
        cfg: &SupervisorConfig,
        kill: Option<KillSpec>,
    ) -> Result<RunOutcome<D>, RunError> {
        self.run_supervised_kills(steps, cfg, kill.as_slice())
    }

    /// Like [`run_supervised`](Self::run_supervised), but with any number of
    /// seeded kills — including kills armed on a *replay* attempt
    /// ([`KillSpec::attempt`] > 0), i.e. a crash that strikes while recovery
    /// from an earlier crash is still in flight.
    pub fn run_supervised_kills(
        &self,
        steps: u64,
        cfg: &SupervisorConfig,
        kills: &[KillSpec],
    ) -> Result<RunOutcome<D>, RunError> {
        let active = D::active_tiles(&self.problem);
        let mut snapshot = self.initial_tiles();
        let interval = cfg.checkpoint_interval.max(1);
        let mut timing: Vec<(usize, StepTiming)> = active
            .iter()
            .map(|&id| (id, StepTiming::default()))
            .collect();
        let mut restarts = 0u32;
        let mut done = 0u64;
        let mut supervisor =
            self.recorder
                .track(D::TRACE_PID, SUPERVISOR_TID, D::TRACK, "supervisor");
        let mut replaying = false;
        // How many times the *current* segment window has already failed:
        // a kill arms only when its window runs at exactly its attempt index,
        // so each spec fires at most once.
        let mut window_attempt = 0u32;
        while done < steps {
            let end = (done + interval).min(steps);
            let armed: Vec<KillSpec> = kills
                .iter()
                .filter(|kl| kl.at_step >= done && kl.at_step < end && kl.attempt == window_attempt)
                .cloned()
                .collect();
            let seg0 = Instant::now();
            match self.run_segment(snapshot.clone(), done, end, None, armed) {
                Ok(seg) => {
                    snapshot = seg.tiles;
                    for (acc, (_, t)) in timing.iter_mut().zip(seg.timing) {
                        acc.1.append(&t);
                    }
                    done = end;
                    window_attempt = 0;
                    if replaying {
                        // this segment was a rollback replay: the recompute
                        // cost of the crash, distinct from normal progress
                        supervisor.span_wall_arg(
                            Category::Recovery,
                            "replay segment",
                            seg0,
                            Instant::now(),
                            Some(("end_step", end as f64)),
                        );
                        replaying = false;
                    }
                    supervisor.instant_wall(
                        Category::Checkpoint,
                        "checkpoint commit",
                        Instant::now(),
                    );
                }
                Err(e) => {
                    supervisor.instant_wall(Category::Fault, "segment failed", Instant::now());
                    replaying = true;
                    window_attempt += 1;
                    restarts += 1;
                    if restarts > cfg.max_restarts {
                        return Err(RunError::RetriesExhausted {
                            attempts: restarts,
                            last: Box::new(e),
                        });
                    }
                    // snapshot untouched — replay the segment from the last
                    // coordinated checkpoint
                }
            }
        }
        Ok(RunOutcome {
            tiles: snapshot,
            timing,
            drill: None,
            restarts,
        })
    }

    /// Builds the step-0 tiles in active-id order.
    fn initial_tiles(&self) -> Vec<D::Tile> {
        D::active_tiles(&self.problem)
            .iter()
            .map(|&id| D::make_tile(&self.problem, &self.solver, id))
            .collect()
    }

    /// Runs global steps `start..end` from `tiles_in` (one tile per active
    /// id, in order). The whole channel fabric is rebuilt per segment; a
    /// worker failure tears it down and every survivor unwinds through
    /// [`RunError::Disconnected`].
    fn run_segment(
        &self,
        tiles_in: Vec<D::Tile>,
        start: u64,
        end: u64,
        drill: Option<MigrationDrill>,
        kills: Vec<KillSpec>,
    ) -> Result<RunOutcome<D>, RunError> {
        let active = D::active_tiles(&self.problem);
        let n = active.len();
        let index_of: HashMap<usize, usize> =
            active.iter().enumerate().map(|(k, &id)| (id, k)).collect();

        // Channels: key (receiver tile id, receiver face). Each data channel
        // is paired with a *return* channel flowing the other way: the
        // receiver hands consumed buffers back to the sender, which reuses
        // them for the next message on that edge. In steady state no halo
        // buffer is ever allocated (at most two circulate per edge).
        let mut senders: HashMap<(usize, D::Face), Sender<Vec<f64>>> = HashMap::new();
        let mut receivers: HashMap<(usize, D::Face), Receiver<Vec<f64>>> = HashMap::new();
        let mut ret_senders: HashMap<(usize, D::Face), Sender<Vec<f64>>> = HashMap::new();
        let mut ret_receivers: HashMap<(usize, D::Face), Receiver<Vec<f64>>> = HashMap::new();
        for &id in &active {
            for &f in D::FACES {
                if let Some(nb) = D::neighbor(&self.problem, id, f) {
                    if index_of.contains_key(&nb) {
                        let (s, r) = unbounded();
                        senders.insert((id, f), s);
                        receivers.insert((id, f), r);
                        let (rs, rr) = unbounded();
                        ret_senders.insert((id, f), rs);
                        ret_receivers.insert((id, f), rr);
                    }
                }
            }
        }

        let control = Arc::new(Control::new(n));
        let drill_fired: Mutex<Option<DrillReport>> = Mutex::new(None);

        let mut endpoints: Vec<Endpoints<D::Face>> = Vec::with_capacity(n);
        for &id in &active {
            let mut rx = Vec::new();
            let mut tx = Vec::new();
            for &f in D::FACES {
                if let Some(r) = receivers.remove(&(id, f)) {
                    let rs = ret_senders.remove(&(id, f)).expect("return sender missing");
                    rx.push((f, r, rs));
                }
                if let Some(nb) = D::neighbor(&self.problem, id, f) {
                    if let Some(s) = senders.get(&(nb, D::opposite(f))) {
                        let rr = ret_receivers
                            .remove(&(nb, D::opposite(f)))
                            .expect("return receiver missing");
                        tx.push((f, s.clone(), rr));
                    }
                }
            }
            endpoints.push(Endpoints { rx, tx });
        }
        drop(senders);

        let solver: &D::Solver = &self.solver;
        let plan = D::plan(solver);
        let mut results: Vec<Option<(D::Tile, StepTiming)>> = (0..n).map(|_| None).collect();
        let mut failure: Option<RunError> = None;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            let mut tiles_in = tiles_in;
            for (k, &id) in active.iter().enumerate() {
                let mut tile = tiles_in.remove(0);
                let ep = endpoints.remove(0);
                let control = Arc::clone(&control);
                let drill = drill.clone();
                let kills = kills.clone();
                let drill_fired = &drill_fired;
                let mut track = self.tile_track(id);
                handles.push(
                    scope.spawn(move || -> Result<(D::Tile, StepTiming), RunError> {
                        let mut timing = StepTiming::default();
                        // Stage-filtered halves of the halo exchange. The
                        // staged protocol forwards corners transitively:
                        // stage-1 packs read ghosts written by stage-0
                        // unpacks *and* pre-compute boundary strips, so
                        // every pack must run before the interior compute
                        // starts; only the final stage's receive may be
                        // deferred behind it.
                        let send_stage = |tile: &D::Tile,
                                          x: usize,
                                          stage: usize,
                                          timing: &mut StepTiming|
                         -> Result<Duration, RunError> {
                            let mut pack = Duration::ZERO;
                            for (f, tx, ret) in ep.tx.iter().filter(|(f, ..)| D::stage(*f) == stage)
                            {
                                let mut buf = match ret.try_recv() {
                                    Ok(mut b) => {
                                        timing.buf_reuses += 1;
                                        b.clear();
                                        b
                                    }
                                    Err(_) => {
                                        timing.buf_allocs += 1;
                                        Vec::new()
                                    }
                                };
                                let p0 = Instant::now();
                                D::pack(solver, tile, x, *f, &mut buf);
                                pack += p0.elapsed();
                                timing.msgs_sent += 1;
                                timing.doubles_sent += buf.len() as u64;
                                tx.send(buf)
                                    .map_err(|_| RunError::Disconnected { tile: id })?;
                            }
                            Ok(pack)
                        };
                        let recv_stage = |tile: &mut D::Tile,
                                          x: usize,
                                          stage: usize|
                         -> Result<(), RunError> {
                            for (f, rx, ret) in ep.rx.iter().filter(|(f, ..)| D::stage(*f) == stage)
                            {
                                let buf =
                                    rx.recv().map_err(|_| RunError::Disconnected { tile: id })?;
                                D::unpack(solver, tile, x, *f, &buf);
                                // hand the buffer back for reuse; a peer that
                                // already finished its run has dropped the
                                // other end, in which case the buffer is
                                // simply freed
                                let _ = ret.send(buf);
                            }
                            Ok(())
                        };
                        // Highest stage this tile actually has edges on: the
                        // fused schedule hides the interior compute behind
                        // that stage's receive.
                        let last_stage = ep
                            .rx
                            .iter()
                            .map(|(f, ..)| D::stage(*f))
                            .chain(ep.tx.iter().map(|(f, ..)| D::stage(*f)))
                            .max()
                            .unwrap_or(0);
                        for s in start..end {
                            control.published[k].store(s, Ordering::SeqCst);
                            // seeded fault injection: this worker dies here
                            // (the supervisor pre-filters kills by attempt)
                            if let Some(kl) =
                                kills.iter().find(|kl| kl.tile == id && kl.at_step == s)
                            {
                                if kl.panic {
                                    panic!("injected fault: tile {id} killed at step {s}");
                                }
                                return Err(RunError::Injected { tile: id, step: s });
                            }
                            // Appendix B picks the sync step with a margin so it
                            // lands in every process's future; that only holds if
                            // workers cannot outrun the monitor. Hold once, at the
                            // arm step, until the step is announced (it is cleared
                            // again at resume, so later steps must not re-gate).
                            if let Some(d) = drill.as_ref() {
                                if s == d.arm_step {
                                    while control.sync_step.load(Ordering::SeqCst) == NO_SYNC {
                                        std::thread::yield_now();
                                    }
                                }
                            }
                            // Synchronisation point of section 5: when a sync step
                            // is announced, run exactly to it and pause.
                            if control.sync_step.load(Ordering::SeqCst) == s {
                                // A failed dump must still reach the barrier
                                // (otherwise the monitor waits forever), so the
                                // error is carried across the pause.
                                let mut drill_err: Option<RunError> = None;
                                if let Some(d) = drill.as_ref() {
                                    if d.tile == id {
                                        // migrate: save state, "move host", restore
                                        let path = d
                                            .dump_dir
                                            .join(format!("{}{id}_step{s}.dump", D::DUMP_PREFIX));
                                        let d0 = Instant::now();
                                        match D::save(&tile, &path)
                                            .and_then(|bytes| Ok((bytes, D::load(&path)?)))
                                        {
                                            Ok((bytes, restored)) => {
                                                tile = restored;
                                                track.span_wall_arg(
                                                    Category::Checkpoint,
                                                    "migration dump",
                                                    d0,
                                                    Instant::now(),
                                                    Some(("bytes", bytes as f64)),
                                                );
                                                *drill_fired.lock() = Some(DrillReport {
                                                    sync_step: s,
                                                    dump_bytes: bytes,
                                                    dump_path: path,
                                                });
                                            }
                                            Err(e) => drill_err = Some(RunError::Checkpoint(e)),
                                        }
                                    }
                                }
                                control.pause();
                                if let Some(e) = drill_err {
                                    return Err(e);
                                }
                            }
                            // one integration step
                            let mut op_i = 0;
                            while op_i < plan.len() {
                                match plan[op_i] {
                                    StepOp::Compute(p) => {
                                        let t0 = Instant::now();
                                        D::compute(solver, &mut tile, p);
                                        let t1 = Instant::now();
                                        timing.t_calc += t1 - t0;
                                        track.span_wall(Category::Compute, "compute", t0, t1);
                                    }
                                    StepOp::Exchange(x) => {
                                        // Fuse `Exchange(x); Compute(p)` into the
                                        // overlapped schedule when the solver
                                        // declares the pair safe to split.
                                        let fused = D::overlapped_phase(solver, x).filter(|&p| {
                                            matches!(
                                                plan.get(op_i + 1),
                                                Some(StepOp::Compute(q)) if *q == p
                                            )
                                        });
                                        let t0 = Instant::now();
                                        // Pack time is a sub-component of the
                                        // t_com windows below; it is accumulated
                                        // into t_pack only, never added to t_com
                                        // a second time.
                                        let mut pack = Duration::ZERO;
                                        if let Some(p) = fused {
                                            // Post every send before the compute
                                            // touches the tile, then hide the
                                            // interior sweep behind the last
                                            // stage's receive.
                                            for stage in 0..last_stage {
                                                pack += send_stage(&tile, x, stage, &mut timing)?;
                                                recv_stage(&mut tile, x, stage)?;
                                            }
                                            pack += send_stage(&tile, x, last_stage, &mut timing)?;
                                            let t1 = Instant::now();
                                            timing.t_com += t1 - t0;
                                            track.span_wall(Category::Halo, "halo send", t0, t1);
                                            let c0 = Instant::now();
                                            D::compute_interior(solver, &mut tile, p);
                                            let c1 = Instant::now();
                                            timing.t_calc += c1 - c0;
                                            track.span_wall(
                                                Category::Compute,
                                                "compute interior",
                                                c0,
                                                c1,
                                            );
                                            let r0 = Instant::now();
                                            recv_stage(&mut tile, x, last_stage)?;
                                            let r1 = Instant::now();
                                            timing.t_com += r1 - r0;
                                            track.span_wall(Category::Halo, "halo recv", r0, r1);
                                            let b0 = Instant::now();
                                            D::compute_boundary(solver, &mut tile, p);
                                            let b1 = Instant::now();
                                            timing.t_calc += b1 - b0;
                                            track.span_wall(
                                                Category::Compute,
                                                "compute boundary",
                                                b0,
                                                b1,
                                            );
                                            op_i += 1; // the fused Compute is done
                                        } else {
                                            for stage in 0..=last_stage {
                                                pack += send_stage(&tile, x, stage, &mut timing)?;
                                                recv_stage(&mut tile, x, stage)?;
                                            }
                                            let t1 = Instant::now();
                                            timing.t_com += t1 - t0;
                                            track.span_wall(Category::Halo, "exchange", t0, t1);
                                        }
                                        timing.t_pack += pack;
                                    }
                                }
                                op_i += 1;
                            }
                            timing.steps += 1;
                        }
                        // final publish so the monitor sees completion
                        control.published[k].store(end, Ordering::SeqCst);
                        Ok((tile, timing))
                    }),
                );
            }

            // The monitoring program (section 4.1 / 5.1): arm the drill, pick
            // the synchronisation step, wait for global pause, "find a free
            // host", send CONT.
            if let Some(d) = drill.as_ref() {
                loop {
                    let m = control.max_published();
                    if m >= d.arm_step {
                        // Appendix B: everyone posts its step; the largest
                        // plus a margin becomes the synchronisation step
                        // (+2 covers the step in flight at read time).
                        let sync = m + 2;
                        if sync >= end {
                            // Too late in the run; announce the (unreachable)
                            // step anyway so gated workers are released.
                            control.sync_step.store(sync, Ordering::SeqCst);
                            break; // drill skipped
                        }
                        control.sync_step.store(sync, Ordering::SeqCst);
                        control.wait_all_paused(n);
                        // host selection delay would go here
                        control.resume_all();
                        break;
                    }
                    std::thread::yield_now();
                }
            }

            for (k, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(Ok(pair)) => results[k] = Some(pair),
                    Ok(Err(e)) => note_failure(&mut failure, e),
                    Err(payload) => note_failure(
                        &mut failure,
                        RunError::WorkerPanic {
                            tile: active[k],
                            message: panic_message(payload),
                        },
                    ),
                }
            }
        });

        if let Some(e) = failure {
            return Err(e);
        }
        let mut tiles = Vec::with_capacity(n);
        let mut timing = Vec::with_capacity(n);
        for (k, r) in results.into_iter().enumerate() {
            let (tile, t) = r.expect("worker result missing without a recorded failure");
            tiles.push(tile);
            timing.push((active[k], t));
        }
        Ok(RunOutcome {
            tiles,
            timing,
            drill: drill_fired.into_inner(),
            restarts: 0,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::local::LocalRunner2;
    use crate::problem::Problem2;
    use subsonic_grid::{Face2, Geometry2};
    use subsonic_solvers::{
        FiniteDifference2, FluidParams, LatticeBoltzmann2, ScalarReference2, Solver2,
    };

    fn problem(px: usize, py: usize) -> Problem2 {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        Problem2::new(Geometry2::channel(24, 16, 2), px, py, params)
            .with_init(|x, y| (1.0 + 1e-4 * ((x * 7 + y * 13) % 5) as f64, 0.0, 0.0))
    }

    /// Directed halo links between active tiles: one per (tile, face) with an
    /// active neighbour.
    pub(crate) fn directed_edges<D: Dim>(p: &D::Problem) -> u64 {
        let active = D::active_tiles(p);
        active
            .iter()
            .flat_map(|&id| D::FACES.iter().map(move |&f| D::neighbor(p, id, f)))
            .filter(|nb| nb.is_some_and(|nb| active.contains(&nb)))
            .count() as u64
    }

    /// Names of every span a traced 3-step run records (after checking that
    /// the tracks carry the dimension's process name).
    pub(crate) fn span_names<D: Dim>(
        solver: Arc<D::Solver>,
        problem: D::Problem,
    ) -> std::collections::HashSet<&'static str> {
        let rec = FlightRecorder::enabled(4096);
        ThreadedRunner::<D>::new(solver, problem)
            .with_recorder(&rec)
            .run(3)
            .unwrap();
        let tracks = rec.finished_tracks();
        assert!(tracks.iter().all(|t| t.process == D::TRACK));
        tracks
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.name))
            .collect()
    }

    #[test]
    fn threaded_matches_local_bitwise_fd() {
        let solver: Arc<dyn Solver2> = Arc::new(FiniteDifference2);
        let mut local = LocalRunner2::new(Arc::clone(&solver), problem(2, 2));
        local.run(10);
        let a = local.gather();
        let out = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run(10)
            .unwrap();
        let b = out.gather(24, 16, 1.0);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn threaded_matches_local_bitwise_lbm() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let mut local = LocalRunner2::new(Arc::clone(&solver), problem(3, 1));
        local.run(10);
        let a = local.gather();
        let out = ThreadedRunner2::new(Arc::clone(&solver), problem(3, 1))
            .run(10)
            .unwrap();
        let b = out.gather(24, 16, 1.0);
        assert_eq!(a.first_difference(&b), None);
    }

    /// The fused and the plain schedule must not differ in a single bit: the
    /// interior sweep runs off data the exchange never touches, and every
    /// pack is posted before the compute starts. The fast solvers declare an
    /// overlapped phase and run fused; `ScalarReference2` declares none and
    /// runs the plain staged exchange. Both are pinned to the serial
    /// reference.
    #[test]
    fn overlap_matches_nonoverlap_bitwise() {
        let pairs: [(Arc<dyn Solver2>, Arc<dyn Solver2>); 2] = [
            (
                Arc::new(LatticeBoltzmann2),
                Arc::new(ScalarReference2(LatticeBoltzmann2)),
            ),
            (
                Arc::new(FiniteDifference2),
                Arc::new(ScalarReference2(FiniteDifference2)),
            ),
        ];
        for (fast, scalar) in pairs {
            let mut local = LocalRunner2::new(Arc::clone(&fast), problem(2, 2));
            local.run(10);
            let a = local.gather();
            for solver in [fast, scalar] {
                let b = ThreadedRunner2::new(solver, problem(2, 2))
                    .run(10)
                    .unwrap()
                    .gather(24, 16, 1.0);
                assert_eq!(a.first_difference(&b), None);
            }
        }
    }

    /// Pins the selection rule: the schedule follows what the solver
    /// declares. A fast solver runs fused (interior/boundary spans, no plain
    /// `exchange` span); `ScalarReference2` forwards no split and runs plain.
    #[test]
    fn schedule_follows_the_solver_declaration() {
        let fused = span_names::<D2>(Arc::new(LatticeBoltzmann2), problem(2, 1));
        assert!(fused.contains("compute interior") && fused.contains("compute boundary"));
        assert!(!fused.contains("exchange"));
        let plain = span_names::<D2>(Arc::new(ScalarReference2(LatticeBoltzmann2)), problem(2, 1));
        assert!(plain.contains("exchange") && plain.contains("compute"));
        assert!(!plain.contains("compute interior") && !plain.contains("compute boundary"));
    }

    #[test]
    fn timing_is_recorded() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let out = ThreadedRunner2::new(solver, problem(2, 1)).run(5).unwrap();
        assert_eq!(out.timing.len(), 2);
        for (_, t) in &out.timing {
            assert_eq!(t.steps, 5);
            assert!(t.t_calc.as_nanos() > 0);
        }
    }

    #[test]
    fn message_volume_matches_solver_message_doubles() {
        // The new StepTiming counters must account for every double on the
        // wire: a J x K run sends exactly sum(message_doubles) per step.
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let steps = 7u64;
        let p = problem(3, 2);
        let active = p.active_tiles();
        let mut per_step = 0u64;
        let mut edges = 0u64;
        for &id in &active {
            let t = p.make_tile(solver.as_ref(), id);
            for f in Face2::ALL {
                if let Some(nb) = p.decomp.neighbor(id, f) {
                    if active.contains(&nb) {
                        edges += 1;
                        for op in solver.plan() {
                            if let StepOp::Exchange(x) = *op {
                                per_step += solver.message_doubles(&t, x, f) as u64;
                            }
                        }
                    }
                }
            }
        }
        assert!(per_step > 0 && edges > 0);

        let out = ThreadedRunner2::new(Arc::clone(&solver), problem(3, 2))
            .run(steps)
            .unwrap();
        let mut total = StepTiming::default();
        for (_, t) in &out.timing {
            total.merge(t);
        }
        let exchanges = solver
            .plan()
            .iter()
            .filter(|op| matches!(op, StepOp::Exchange(_)))
            .count() as u64;
        assert_eq!(total.doubles_sent, per_step * steps);
        assert_eq!(total.msgs_sent, edges * exchanges * steps);
    }

    #[test]
    fn halo_buffers_are_recycled() {
        // Zero steady-state allocation: at most two buffers ever circulate
        // per directed edge, no matter how many steps run.
        let solver: Arc<dyn Solver2> = Arc::new(FiniteDifference2);
        let edges = directed_edges::<D2>(&problem(2, 2));
        let out = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run(30)
            .unwrap();
        let mut total = StepTiming::default();
        for (_, t) in &out.timing {
            total.merge(t);
        }
        // every message either reused a returned buffer or allocated one
        assert_eq!(total.buf_allocs + total.buf_reuses, total.msgs_sent);
        assert!(
            total.buf_allocs <= 2 * edges,
            "pool allocated {} buffers for {} edges — recycling broken",
            total.buf_allocs,
            edges
        );
        assert!(total.buf_reuses > total.buf_allocs);
    }

    /// The acceptance pin for "zero-cost when disabled": recording must not
    /// add any allocation to the step hot path, measured with the same alloc
    /// counters the recycling test uses. The exact buf_allocs value is
    /// scheduling-dependent (a returned buffer may or may not be back in
    /// time), so the invariant is the steady-state pool bound — at most two
    /// buffers per directed edge — which must hold identically with the
    /// recorder disabled (the default) and enabled.
    #[test]
    fn recorder_adds_no_hot_path_allocations() {
        let solver: Arc<dyn Solver2> = Arc::new(FiniteDifference2);
        let edges = directed_edges::<D2>(&problem(2, 2));
        let totals = |out: &RunOutcome2| {
            let mut total = StepTiming::default();
            for (_, t) in &out.timing {
                total.merge(t);
            }
            total
        };

        let plain = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run(30)
            .unwrap();

        let rec = FlightRecorder::enabled(4096);
        let traced = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .with_recorder(&rec)
            .run(30)
            .unwrap();

        let a = totals(&plain);
        let b = totals(&traced);
        assert!(a.buf_allocs <= 2 * edges, "baseline exceeded buffer pool");
        assert!(
            b.buf_allocs <= 2 * edges,
            "recorder added hot-path allocations: {} allocs for {} edges",
            b.buf_allocs,
            edges
        );
        assert_eq!(a.msgs_sent, b.msgs_sent);
        // pack time is measured inside the t_com window, never beyond it
        assert!(
            a.t_pack <= a.t_com,
            "t_pack {:?} > t_com {:?}",
            a.t_pack,
            a.t_com
        );
        assert!(b.t_pack <= b.t_com);
        assert!(a.t_pack.as_nanos() > 0);

        // and the traced run actually produced per-tile compute/halo tracks
        let tracks = rec.finished_tracks();
        assert_eq!(tracks.len(), 4, "one track per tile");
        for t in &tracks {
            assert_eq!(t.pid, D2::TRACE_PID);
            assert!(t.events.iter().any(|e| e.cat == Category::Compute));
            assert!(t.events.iter().any(|e| e.cat == Category::Halo));
        }
        assert_eq!(rec.dropped_events(), 0);
    }

    /// A supervised run with an injected kill leaves a supervisor track with
    /// the failure instant, the rollback replay span and checkpoint commits.
    #[test]
    fn supervised_trace_shows_recovery() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let rec = FlightRecorder::enabled(4096);
        let cfg = SupervisorConfig {
            checkpoint_interval: 5,
            max_restarts: 3,
        };
        let kill = KillSpec {
            tile: 1,
            at_step: 7,
            attempt: 0,
            panic: false,
        };
        let out = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .with_recorder(&rec)
            .run_supervised(20, &cfg, Some(kill))
            .unwrap();
        assert_eq!(out.restarts, 1);
        let tracks = rec.finished_tracks();
        let sup = tracks
            .iter()
            .find(|t| t.tid == SUPERVISOR_TID)
            .expect("supervisor track missing");
        assert!(sup
            .events
            .iter()
            .any(|e| e.cat == Category::Fault && e.is_instant()));
        assert!(sup
            .events
            .iter()
            .any(|e| e.cat == Category::Recovery && !e.is_instant()));
        assert_eq!(
            sup.events
                .iter()
                .filter(|e| e.cat == Category::Checkpoint)
                .count(),
            4,
            "one commit per completed segment"
        );
    }

    #[test]
    fn migration_drill_is_transparent() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let undisturbed = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run(20)
            .unwrap();
        let a = undisturbed.gather(24, 16, 1.0);

        let dir = std::env::temp_dir().join("subsonic_drill_test");
        let drill = MigrationDrill {
            tile: 1,
            arm_step: 5,
            dump_dir: dir,
        };
        let out = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run_with_drill(20, Some(drill))
            .unwrap();
        let report = out.drill.clone().expect("drill did not fire");
        assert!(report.sync_step >= 5 && report.sync_step < 20);
        assert!(report.dump_bytes > 0);
        let b = out.gather(24, 16, 1.0);
        assert_eq!(
            a.first_difference(&b),
            None,
            "migration drill changed the results"
        );
        let _ = std::fs::remove_file(&report.dump_path);
    }

    #[test]
    fn supervised_run_without_faults_is_bit_identical() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let plain = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run(20)
            .unwrap();
        let sup = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run_supervised(
                20,
                &SupervisorConfig {
                    checkpoint_interval: 6,
                    max_restarts: 2,
                },
                None,
            )
            .unwrap();
        assert_eq!(sup.restarts, 0);
        let a = plain.gather(24, 16, 1.0);
        let b = sup.gather(24, 16, 1.0);
        assert_eq!(
            a.first_difference(&b),
            None,
            "supervision changed the results"
        );
        // committed timing covers the whole run
        for (_, t) in &sup.timing {
            assert_eq!(t.steps, 20);
        }
    }

    #[test]
    fn clean_kill_recovers_to_the_bitwise_result() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let plain = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run(20)
            .unwrap();
        let kill = KillSpec {
            tile: 1,
            at_step: 13,
            attempt: 0,
            panic: false,
        };
        let sup = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run_supervised(
                20,
                &SupervisorConfig {
                    checkpoint_interval: 6,
                    max_restarts: 2,
                },
                Some(kill),
            )
            .unwrap();
        assert_eq!(sup.restarts, 1, "the kill should cost exactly one replay");
        let a = plain.gather(24, 16, 1.0);
        let b = sup.gather(24, 16, 1.0);
        assert_eq!(
            a.first_difference(&b),
            None,
            "recovery diverged from clean run"
        );
    }

    #[test]
    fn worker_panic_recovers_to_the_bitwise_result() {
        let solver: Arc<dyn Solver2> = Arc::new(FiniteDifference2);
        let plain = ThreadedRunner2::new(Arc::clone(&solver), problem(3, 1))
            .run(15)
            .unwrap();
        // silence the default panic hook for the injected unwind
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let sup = ThreadedRunner2::new(Arc::clone(&solver), problem(3, 1)).run_supervised(
            15,
            &SupervisorConfig {
                checkpoint_interval: 4,
                max_restarts: 2,
            },
            Some(KillSpec {
                tile: 2,
                at_step: 9,
                attempt: 0,
                panic: true,
            }),
        );
        std::panic::set_hook(prev);
        let sup = sup.unwrap();
        assert_eq!(sup.restarts, 1);
        let a = plain.gather(24, 16, 1.0);
        let b = sup.gather(24, 16, 1.0);
        assert_eq!(a.first_difference(&b), None, "panic recovery diverged");
    }

    #[test]
    fn crash_during_recovery_still_recovers_bitwise() {
        // A second kill fires on the *replay* of the segment the first kill
        // aborted: recovery itself crashes, and the supervisor must roll back
        // again and still converge to the undisturbed result.
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let plain = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run(20)
            .unwrap();
        let kills = [
            KillSpec {
                tile: 1,
                at_step: 13,
                attempt: 0,
                panic: false,
            },
            KillSpec {
                tile: 2,
                at_step: 14,
                attempt: 1,
                panic: false,
            },
        ];
        let sup = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2))
            .run_supervised_kills(
                20,
                &SupervisorConfig {
                    checkpoint_interval: 6,
                    max_restarts: 3,
                },
                &kills,
            )
            .unwrap();
        assert_eq!(sup.restarts, 2, "both kills should fire exactly once");
        let a = plain.gather(24, 16, 1.0);
        let b = sup.gather(24, 16, 1.0);
        assert_eq!(
            a.first_difference(&b),
            None,
            "crash-during-recovery diverged from clean run"
        );
    }

    #[test]
    fn restart_budget_is_enforced() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let err = match ThreadedRunner2::new(Arc::clone(&solver), problem(2, 1)).run_supervised(
            10,
            &SupervisorConfig {
                checkpoint_interval: 4,
                max_restarts: 0,
            },
            Some(KillSpec {
                tile: 0,
                at_step: 2,
                attempt: 0,
                panic: false,
            }),
        ) {
            Err(e) => e,
            Ok(_) => panic!("a zero-restart budget should not survive a kill"),
        };
        match err {
            RunError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 1);
                assert!(
                    matches!(*last, RunError::Injected { tile: 0, step: 2 }),
                    "root cause should be the injected kill, got {last}"
                );
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn kill_root_cause_beats_peer_disconnects() {
        // The killed worker's neighbours die of Disconnected; the error the
        // caller sees must still be the injected kill.
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let runner = ThreadedRunner2::new(Arc::clone(&solver), problem(2, 2));
        let tiles = runner.initial_tiles();
        let err = match runner.run_segment(
            tiles,
            0,
            10,
            None,
            vec![KillSpec {
                tile: 3,
                at_step: 5,
                attempt: 0,
                panic: false,
            }],
        ) {
            Err(e) => e,
            Ok(_) => panic!("the injected kill should abort the segment"),
        };
        assert!(
            matches!(err, RunError::Injected { tile: 3, step: 5 }),
            "got {err}"
        );
    }
}
