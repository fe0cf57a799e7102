//! Thread-per-subregion parallel runner, one [`ThreadedRunner<D>`] for 2D
//! and 3D problems (see [`Dim`]).
//!
//! Each active subregion runs on its own OS thread, which wraps the one step
//! loop ([`step_tile`]) in the runner's per-step concerns: publishing its
//! step, seeded kills, and the migration drill. Halo strips travel over
//! unbounded `std::sync::mpsc` channels — the in-process analogue of the
//! paper's TCP/IP sockets ("the TCP/IP protocol behaves as if there are two
//! first-in-first-out channels for writing data in each direction between two
//! processes", section 4.2). Communication is asynchronous and
//! first-come-first-served within an exchange stage, which is the policy the
//! paper recommends in Appendix C.
//!
//! Halo buffers are recycled: every data channel is paired with a return
//! channel that carries a buffer back for every strip received, and the
//! sender refills its strip from it. The steady-state exchange performs no
//! heap allocation; [`StepTiming`] counts messages, doubles and buffer
//! allocations/reuses so tests can assert both properties exactly.
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

use crate::checkpoint::{load_tile, save_tile};
use crate::dim::{Dim, D2, D3};
use crate::error::{note_failure, panic_message, RunError};
use crate::gather::{GlobalFields2, GlobalFields3};
use crate::step::{step_tile, Halo};
use crate::timing::StepTiming;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use subsonic_obs::{Category, FlightRecorder, TrackRecorder};

/// No synchronisation requested.
const NO_SYNC: u64 = u64::MAX;

/// A worker panics only outside these locks, so poisoning is a bug.
const POISONED: &str = "drill lock poisoned";

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

/// Published steps, the announced synchronisation step, the pause barrier
/// of Appendix B, and what the migration drill did.
struct Control {
    published: Vec<AtomicU64>,
    sync_step: AtomicU64,
    paused: Mutex<(usize, u64)>, // (paused count, resume epoch)
    cv: Condvar,
    drill: Mutex<Option<DrillReport>>,
}

impl Control {
    fn new(n: usize) -> Self {
        Self {
            published: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sync_step: AtomicU64::new(NO_SYNC),
            paused: Mutex::new((0, 0)),
            cv: Condvar::new(),
            drill: Mutex::new(None),
        }
    }

    /// Worker-side: pause at the barrier until the monitor resumes everyone.
    fn pause(&self) {
        let mut st = self.paused.lock().expect(POISONED);
        let epoch = st.1;
        st.0 += 1;
        self.cv.notify_all();
        drop(self.cv.wait_while(st, |st| st.1 == epoch).expect(POISONED));
    }

    /// The monitoring program (section 4.1 / 5.1): once any worker reaches
    /// the arm step, announce the synchronisation step, wait for the global
    /// pause, "find a free host", send CONT.
    fn monitor(&self, d: &MigrationDrill, end: u64) {
        loop {
            let m = self
                .published
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .max()
                .unwrap_or(0);
            if m >= d.arm_step {
                // Appendix B: everyone posts its step; the largest plus a
                // margin becomes the synchronisation step (+2 covers the step
                // in flight at read time). Past the end of the run the drill
                // is skipped, but the step is still announced so gated
                // workers are released.
                let sync = m + 2;
                self.sync_step.store(sync, Ordering::SeqCst);
                if sync < end {
                    let all = self.published.len();
                    let st = self.paused.lock().expect(POISONED);
                    let mut st = self.cv.wait_while(st, |st| st.0 < all).expect(POISONED);
                    // host selection delay would go here; then release all
                    // paused workers and clear the request
                    st.0 = 0;
                    st.1 += 1;
                    self.cv.notify_all();
                    self.sync_step.store(NO_SYNC, Ordering::SeqCst);
                }
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Worker-side drill hook before step `s` of tile `id`: hold at the arm
    /// step until the sync step is announced (Appendix B picks it with a
    /// margin so it lands in every process's future, which only holds if
    /// workers cannot outrun the monitor; it is cleared again at resume, so
    /// later steps must not re-gate), and at the sync step pause — after
    /// saving and restoring the tile if it is the one that migrates.
    fn drill_step<D: Dim>(
        &self,
        d: &MigrationDrill,
        tile: &mut D::Tile,
        id: usize,
        s: u64,
        track: &mut TrackRecorder,
    ) -> Result<(), RunError> {
        if s == d.arm_step {
            while self.sync_step.load(Ordering::SeqCst) == NO_SYNC {
                std::thread::yield_now();
            }
        }
        if self.sync_step.load(Ordering::SeqCst) != s {
            return Ok(());
        }
        // Migrate: save the state, "move host", restore. A failed dump must
        // still reach the barrier (otherwise the monitor waits forever), so
        // the error is carried across the pause.
        let mut migrated = Ok(());
        if d.tile == id {
            let path = d
                .dump_dir
                .join(format!("{}{id}_step{s}.dump", D::DUMP_PREFIX));
            let d0 = Instant::now();
            migrated = save_tile(tile, &path).and_then(|bytes| {
                *tile = load_tile(&path)?;
                track.span_wall_arg(
                    Category::Checkpoint,
                    "migration dump",
                    d0,
                    Instant::now(),
                    Some(("bytes", bytes as f64)),
                );
                let report = DrillReport {
                    sync_step: s,
                    dump_bytes: bytes,
                    dump_path: path,
                };
                *self.drill.lock().expect(POISONED) = Some(report);
                Ok(())
            });
        }
        self.pause();
        migrated.map_err(RunError::Checkpoint)
    }
}

/// (face, data in, buffer-returns out)
type RxEdge<F> = (F, Receiver<Vec<f64>>, Sender<Vec<f64>>);
/// (face, data out, buffer-returns in)
type TxEdge<F> = (F, Sender<Vec<f64>>, Receiver<Vec<f64>>);
/// One worker's receiving and sending edges.
type Links<F> = (Vec<RxEdge<F>>, Vec<TxEdge<F>>);

/// One worker's halo links over the channel fabric: its receivers (data rx +
/// buffer-return tx per face) and its senders into each neighbour's ghost
/// (data tx + the matching buffer-return rx). A sent strip's slot is
/// refilled with a buffer its receiver handed back (a reuse) or, when none
/// has come back yet, an empty one (an allocation); a received strip's
/// predecessor goes back to that strip's sender.
struct ChannelHalo<F> {
    rx: Vec<RxEdge<F>>,
    tx: Vec<TxEdge<F>>,
    reuses: u64,
}

impl<D: Dim> Halo<D> for ChannelHalo<D::Face> {
    fn has_neighbor(&self, face: D::Face) -> bool {
        self.tx.iter().any(|e| e.0 == face)
    }

    fn send(&mut self, _xch: usize, face: D::Face, strip: &mut Vec<f64>) -> io::Result<()> {
        let (_, data, returned) = self
            .tx
            .iter()
            .find(|e| e.0 == face)
            .ok_or(io::ErrorKind::NotConnected)?;
        let refill = match returned.try_recv() {
            Ok(mut b) => {
                self.reuses += 1;
                b.clear();
                b
            }
            Err(_) => Vec::new(),
        };
        data.send(std::mem::replace(strip, refill))
            .map_err(|_| io::ErrorKind::BrokenPipe.into())
    }

    fn recv_into(&mut self, _xch: usize, face: D::Face, strip: &mut Vec<f64>) -> io::Result<()> {
        let (_, data, back) = self
            .rx
            .iter()
            .find(|e| e.0 == face)
            .ok_or(io::ErrorKind::NotConnected)?;
        let buf = data.recv().map_err(|_| io::ErrorKind::BrokenPipe)?;
        // hand the old buffer back for reuse; a peer that already finished
        // its run has dropped the other end, in which case it is simply freed
        let _ = back.send(std::mem::replace(strip, buf));
        Ok(())
    }
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

        // One data channel per directed edge, each paired with a *return*
        // channel that carries buffers back the other way.
        let mut links: Vec<Links<D::Face>> = (0..n).map(|_| Default::default()).collect();
        for (k, &id) in active.iter().enumerate() {
            for &f in D::FACES {
                let Some(&nk) = D::neighbor(&self.problem, id, f).and_then(|nb| index_of.get(&nb))
                else {
                    continue;
                };
                let (data_tx, data_rx) = channel();
                let (back_tx, back_rx) = channel();
                links[k].0.push((f, data_rx, back_tx));
                links[nk].1.push((D::opposite(f), data_tx, back_rx));
            }
        }

        let control = Control::new(n);
        let solver: &D::Solver = &self.solver;
        let mut failure: Option<RunError> = None;
        let mut tiles = Vec::with_capacity(n);
        let mut timing = Vec::with_capacity(n);

        std::thread::scope(|scope| {
            let workers = active.iter().zip(tiles_in).zip(links).enumerate();
            let handles: Vec<_> = workers
                .map(|(k, ((&id, mut tile), (rx, tx)))| {
                    let (control, drill, kills) = (&control, drill.as_ref(), &kills);
                    let mut track = self.tile_track(id);
                    scope.spawn(move || -> Result<(D::Tile, StepTiming), RunError> {
                        let (mut timing, mut strip) = (StepTiming::default(), Vec::new());
                        let mut halo = ChannelHalo { rx, tx, reuses: 0 };
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
                            if let Some(d) = drill {
                                control.drill_step::<D>(d, &mut tile, id, s, &mut track)?;
                            }
                            step_tile::<D>(
                                solver,
                                &mut tile,
                                &mut halo,
                                &mut timing,
                                &mut strip,
                                &mut track,
                            )
                            .map_err(|_| RunError::Disconnected { tile: id })?;
                        }
                        // final publish so the monitor sees completion
                        control.published[k].store(end, Ordering::SeqCst);
                        // every send not refilled from a return allocated
                        timing.buf_reuses += halo.reuses;
                        timing.buf_allocs += timing.msgs_sent - halo.reuses;
                        Ok((tile, timing))
                    })
                })
                .collect();

            if let Some(d) = drill.as_ref() {
                control.monitor(d, end);
            }

            for (h, &id) in handles.into_iter().zip(&active) {
                match h.join() {
                    Ok(Ok((tile, t))) => {
                        tiles.push(tile);
                        timing.push((id, t));
                    }
                    Ok(Err(e)) => note_failure(&mut failure, e),
                    Err(payload) => note_failure(
                        &mut failure,
                        RunError::WorkerPanic {
                            tile: id,
                            message: panic_message(payload),
                        },
                    ),
                }
            }
        });

        if let Some(e) = failure {
            return Err(e);
        }
        Ok(RunOutcome {
            tiles,
            timing,
            drill: control.drill.into_inner().expect(POISONED),
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
        FiniteDifference2, FluidParams, LatticeBoltzmann2, ScalarReference2, Solver2, StepOp,
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
