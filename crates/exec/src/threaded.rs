//! Thread-per-subregion parallel runner, one [`ThreadedRunner<D>`] for 2D
//! and 3D problems (see [`Dim`]).
//!
//! Each active subregion runs on its own OS thread, which drives the one
//! step loop ([`step_tile`]) for every step of the run. Halo strips travel
//! over unbounded `std::sync::mpsc` channels — the in-process analogue of the
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
//! A worker that dies — a panic — drops its channels, so every neighbour
//! unwinds through [`RunError::Disconnected`] and the run returns the root
//! cause, [`RunError::WorkerPanic`]. Recovery from such a death (dump files,
//! a coordinated cut, a restart) is `subsonic-net`'s supervisor, which also
//! hosts its workers as threads.

use crate::dim::{Dim, D2, D3};
use crate::error::{note_failure, panic_message, RunError};
use crate::gather::{GlobalFields2, GlobalFields3};
use crate::step::{step_tile, Halo};
use crate::timing::StepTiming;
use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use subsonic_grid::Face;
use subsonic_obs::{FlightRecorder, TrackRecorder};

/// Result of a threaded run.
pub struct RunOutcome<D: Dim> {
    /// Final tiles, in active-id order.
    pub tiles: Vec<D::Tile>,
    /// Per-tile timing, `(tile_id, timing)`.
    pub timing: Vec<(usize, StepTiming)>,
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

/// (face, data in, buffer-returns out)
type RxEdge = (Face, Receiver<Vec<f64>>, Sender<Vec<f64>>);
/// (face, data out, buffer-returns in)
type TxEdge = (Face, Sender<Vec<f64>>, Receiver<Vec<f64>>);
/// One worker's receiving and sending edges.
type Links = (Vec<RxEdge>, Vec<TxEdge>);

/// One worker's halo links over the channel fabric: its receivers (data rx +
/// buffer-return tx per face) and its senders into each neighbour's ghost
/// (data tx + the matching buffer-return rx). A sent strip's slot is
/// refilled with a buffer its receiver handed back (a reuse) or, when none
/// has come back yet, an empty one (an allocation); a received strip's
/// predecessor goes back to that strip's sender.
struct ChannelHalo {
    rx: Vec<RxEdge>,
    tx: Vec<TxEdge>,
    reuses: u64,
}

impl<D: Dim> Halo<D> for ChannelHalo {
    fn has_neighbor(&self, face: Face) -> bool {
        self.tx.iter().any(|e| e.0 == face)
    }

    fn send(&mut self, _xch: usize, face: Face, strip: &mut Vec<f64>) -> io::Result<()> {
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

    fn recv_into(&mut self, _xch: usize, face: Face, strip: &mut Vec<f64>) -> io::Result<()> {
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

    /// Attaches a flight recorder: each worker gets a wall-clock track of
    /// compute and halo-exchange spans. With a disabled recorder — the
    /// default — every record call is a no-op and the step hot path
    /// allocates nothing extra, which the buffer-recycling test pins via the
    /// alloc counters.
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

    /// Runs `steps` integration steps on all active tiles in parallel. The
    /// first worker failure tears the channel fabric down; the error
    /// returned is its root cause, not a neighbour's disconnect.
    pub fn run(&self, steps: u64) -> Result<RunOutcome<D>, RunError> {
        let active = D::active_tiles(&self.problem);
        // Tiles first, then the channel fabric, on purpose: built the other
        // way round, the large tile buffers end up at the top of the heap,
        // malloc hands them back to the OS when a finished run frees them,
        // and the next run (a benchmark round, a set-up) pays the page
        // faults again, which doubles the `threads_fd3d` set-up time.
        let tiles_in: Vec<D::Tile> = active
            .iter()
            .map(|&id| D::make_tile(&self.problem, &self.solver, id))
            .collect();
        let n = active.len();
        let index_of: HashMap<usize, usize> =
            active.iter().enumerate().map(|(k, &id)| (id, k)).collect();

        // One data channel per directed edge, each paired with a *return*
        // channel that carries buffers back the other way.
        let mut links: Vec<Links> = (0..n).map(|_| Default::default()).collect();
        for (k, &id) in active.iter().enumerate() {
            for &f in D::FACES {
                let Some(&nk) = D::neighbor(&self.problem, id, f).and_then(|nb| index_of.get(&nb))
                else {
                    continue;
                };
                let (data_tx, data_rx) = channel();
                let (back_tx, back_rx) = channel();
                links[k].0.push((f, data_rx, back_tx));
                links[nk].1.push((f.opposite(), data_tx, back_rx));
            }
        }

        let solver: &D::Solver = &self.solver;
        let mut failure: Option<RunError> = None;
        let mut tiles = Vec::with_capacity(n);
        let mut timing = Vec::with_capacity(n);

        std::thread::scope(|scope| {
            let handles: Vec<_> = active
                .iter()
                .zip(tiles_in)
                .zip(links)
                .map(|((&id, mut tile), (rx, tx))| {
                    let mut track = self.tile_track(id);
                    scope.spawn(move || -> Result<(D::Tile, StepTiming), RunError> {
                        let (mut timing, mut strip) = (StepTiming::default(), Vec::new());
                        let mut halo = ChannelHalo { rx, tx, reuses: 0 };
                        for _ in 0..steps {
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
                        // every send not refilled from a return allocated
                        timing.buf_reuses += halo.reuses;
                        timing.buf_allocs += timing.msgs_sent - halo.reuses;
                        Ok((tile, timing))
                    })
                })
                .collect();

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

        match failure {
            Some(e) => Err(e),
            None => Ok(RunOutcome { tiles, timing }),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::local::LocalRunner;
    use crate::problem::{Problem2, Problem3};
    use subsonic_grid::{Geometry2, Geometry3};
    use subsonic_obs::Category;
    use subsonic_solvers::{
        FiniteDifference2, FiniteDifference3, FluidParams, LatticeBoltzmann2, LatticeBoltzmann3,
        ScalarReference2, ScalarReference3, Solver2, Solver3, StepOp, TileState2, TileState3,
    };

    /// What the checks below need of a rank beyond [`Dim`]: a body-forced
    /// test problem, the solver's declared message size, and a bitwise
    /// comparison of a threaded run with a local one.
    trait Fixture: Dim + Sized {
        /// The problem cut into `parts` (entries past the rank are ignored).
        fn problem(parts: [usize; 3]) -> Self::Problem;
        fn message_doubles(s: &Self::Solver, t: &Self::Tile, xch: usize, f: Face) -> usize;
        fn matches(local: &LocalRunner<Self>, out: &RunOutcome<Self>) -> bool;
    }

    /// A 24×16 channel with a mildly non-uniform start.
    impl Fixture for D2 {
        fn problem([px, py, _]: [usize; 3]) -> Problem2 {
            let mut params = FluidParams::lattice_units(0.05);
            params.body_force[0] = 1e-5;
            Problem2::new(Geometry2::channel(24, 16, 2), px, py, params)
                .with_init(|x, y| (1.0 + 1e-4 * ((x * 7 + y * 13) % 5) as f64, 0.0, 0.0))
        }
        fn message_doubles(s: &dyn Solver2, t: &TileState2, xch: usize, f: Face) -> usize {
            s.message_doubles(t, xch, f)
        }
        fn matches(local: &LocalRunner<D2>, out: &RunOutcome<D2>) -> bool {
            let a = local.gather();
            a.first_difference(&out.gather(24, 16, 1.0)).is_none()
        }
    }

    /// A 12×10×10 duct with a mildly non-uniform start.
    impl Fixture for D3 {
        fn problem([px, py, pz]: [usize; 3]) -> Problem3 {
            let mut params = FluidParams::lattice_units(0.05);
            params.body_force[0] = 1e-5;
            Problem3::new(Geometry3::duct(12, 10, 10, 2), px, py, pz, params)
                .with_init(|x, y, z| (1.0 + 1e-4 * ((x + 2 * y + 3 * z) % 5) as f64, 0.0, 0.0, 0.0))
        }
        fn message_doubles(s: &dyn Solver3, t: &TileState3, xch: usize, f: Face) -> usize {
            s.message_doubles(t, xch, f)
        }
        fn matches(local: &LocalRunner<D3>, out: &RunOutcome<D3>) -> bool {
            let a = local.gather();
            a.first_difference(&out.gather((12, 10, 10), 1.0)).is_none()
        }
    }

    /// Directed halo links between active tiles: one per (tile, face) with an
    /// active neighbour.
    fn directed_edges<D: Dim>(p: &D::Problem) -> u64 {
        let active = D::active_tiles(p);
        active
            .iter()
            .flat_map(|&id| D::FACES.iter().map(move |&f| D::neighbor(p, id, f)))
            .filter(|nb| nb.is_some_and(|nb| active.contains(&nb)))
            .count() as u64
    }

    /// The timing of every tile of `out`, merged.
    fn total<D: Dim>(out: &RunOutcome<D>) -> StepTiming {
        let mut total = StepTiming::default();
        for (_, t) in &out.timing {
            total.merge(t);
        }
        total
    }

    /// Every solver in `threaded` runs bitwise what `LocalRunner` runs with
    /// `local` on the same tiles.
    fn check_matches_local<D: Fixture>(
        local: Arc<D::Solver>,
        threaded: &[Arc<D::Solver>],
        parts: [usize; 3],
        steps: u64,
    ) {
        let mut reference = LocalRunner::<D>::new(local, D::problem(parts));
        reference.run(steps as usize);
        for solver in threaded {
            let out = ThreadedRunner::<D>::new(Arc::clone(solver), D::problem(parts))
                .run(steps)
                .unwrap();
            assert!(D::matches(&reference, &out), "threaded run diverged");
        }
    }

    /// Names of every span a traced 3-step run records (after checking that
    /// the tracks carry the dimension's process name).
    fn span_names<D: Fixture>(
        solver: Arc<D::Solver>,
        parts: [usize; 3],
    ) -> std::collections::HashSet<&'static str> {
        let rec = FlightRecorder::enabled(4096);
        ThreadedRunner::<D>::new(solver, D::problem(parts))
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

    /// Pins the selection rule: the schedule follows what the solver
    /// declares. `fast` runs fused (interior/boundary spans, no plain
    /// `exchange` span); `scalar` forwards no split and runs plain.
    fn check_schedule<D: Fixture>(fast: Arc<D::Solver>, scalar: Arc<D::Solver>) {
        let fused = span_names::<D>(fast, [2, 1, 1]);
        assert!(fused.contains("compute interior") && fused.contains("compute boundary"));
        assert!(!fused.contains("exchange"));
        let plain = span_names::<D>(scalar, [2, 1, 1]);
        assert!(plain.contains("exchange") && plain.contains("compute"));
        assert!(!plain.contains("compute interior") && !plain.contains("compute boundary"));
    }

    /// The timing counters account for every double on the wire: a run
    /// sends exactly the solver's declared message size per link and
    /// exchange, every step, and recycles its halo buffers.
    fn check_message_volume<D: Fixture>(solver: Arc<D::Solver>, parts: [usize; 3], steps: u64) {
        let p = D::problem(parts);
        let active = D::active_tiles(&p);
        let mut per_step = 0u64;
        for &id in &active {
            let t = D::make_tile(&p, &solver, id);
            for &f in D::FACES {
                if D::neighbor(&p, id, f).is_some_and(|nb| active.contains(&nb)) {
                    for op in D::plan(&solver) {
                        if let StepOp::Exchange(x) = *op {
                            per_step += D::message_doubles(&solver, &t, x, f) as u64;
                        }
                    }
                }
            }
        }
        let edges = directed_edges::<D>(&p);
        assert!(per_step > 0 && edges > 0);

        let out = ThreadedRunner::<D>::new(Arc::clone(&solver), p)
            .run(steps)
            .unwrap();
        let total = total(&out);
        let exchanges = D::plan(&solver)
            .iter()
            .filter(|op| matches!(op, StepOp::Exchange(_)))
            .count() as u64;
        assert_eq!(total.doubles_sent, per_step * steps);
        assert_eq!(total.msgs_sent, edges * exchanges * steps);
        assert_eq!(total.buf_allocs + total.buf_reuses, total.msgs_sent);
        assert!(total.buf_allocs <= 2 * edges, "buffer recycling broken");
    }

    /// The acceptance pin for "zero-cost when disabled": recording must not
    /// add any allocation to the step hot path, measured with the same alloc
    /// counters the recycling test uses. The exact buf_allocs value is
    /// scheduling-dependent (a returned buffer may or may not be back in
    /// time), so the invariant is the steady-state pool bound — at most two
    /// buffers per directed edge — which must hold identically with the
    /// recorder disabled (the default) and enabled.
    fn check_recorder_allocs<D: Fixture>(solver: Arc<D::Solver>, parts: [usize; 3], steps: u64) {
        let edges = directed_edges::<D>(&D::problem(parts));
        let plain = ThreadedRunner::<D>::new(Arc::clone(&solver), D::problem(parts))
            .run(steps)
            .unwrap();
        let rec = FlightRecorder::enabled(4096);
        let traced = ThreadedRunner::<D>::new(Arc::clone(&solver), D::problem(parts))
            .with_recorder(&rec)
            .run(steps)
            .unwrap();

        let (a, b) = (total(&plain), total(&traced));
        assert!(a.buf_allocs <= 2 * edges, "baseline exceeded buffer pool");
        assert!(
            b.buf_allocs <= 2 * edges,
            "recorder added hot-path allocations: {} allocs for {} edges",
            b.buf_allocs,
            edges
        );
        assert_eq!(a.msgs_sent, b.msgs_sent);
        // pack time is measured inside the t_com window, never beyond it
        for t in [&a, &b] {
            assert!(
                t.t_pack <= t.t_com,
                "t_pack {:?} > t_com {:?}",
                t.t_pack,
                t.t_com
            );
        }
        assert!(a.t_pack.as_nanos() > 0);

        // and the traced run actually produced per-tile compute/halo tracks
        let tracks = rec.finished_tracks();
        assert_eq!(tracks.len(), traced.tiles.len(), "one track per tile");
        for t in &tracks {
            assert_eq!(t.pid, D::TRACE_PID);
            assert!(t.events.iter().any(|e| e.cat == Category::Compute));
            assert!(t.events.iter().any(|e| e.cat == Category::Halo));
        }
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn threaded_matches_local_bitwise_fd() {
        let solver: Arc<dyn Solver2> = Arc::new(FiniteDifference2);
        check_matches_local::<D2>(Arc::clone(&solver), &[solver], [2, 2, 1], 10);
    }

    #[test]
    fn threaded_matches_local_bitwise_lbm() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        check_matches_local::<D2>(Arc::clone(&solver), &[solver], [3, 1, 1], 10);
    }

    #[test]
    fn threaded3_matches_local_bitwise() {
        let solver: Arc<dyn Solver3> = Arc::new(LatticeBoltzmann3);
        check_matches_local::<D3>(Arc::clone(&solver), &[solver], [2, 1, 2], 6);
    }

    /// The fused and the plain schedule must not differ in a single bit: the
    /// interior sweep runs off data the exchange never touches, and every
    /// pack is posted before the compute starts. The fast solvers declare an
    /// overlapped phase and run fused; `ScalarReference2` declares none and
    /// runs the plain staged exchange. Both are pinned to the serial
    /// reference.
    #[test]
    fn overlap_matches_nonoverlap_bitwise() {
        let (lb, fd): (Arc<dyn Solver2>, Arc<dyn Solver2>) =
            (Arc::new(LatticeBoltzmann2), Arc::new(FiniteDifference2));
        let lb_scalar = Arc::new(ScalarReference2(LatticeBoltzmann2));
        let fd_scalar = Arc::new(ScalarReference2(FiniteDifference2));
        check_matches_local::<D2>(Arc::clone(&lb), &[lb, lb_scalar], [2, 2, 1], 10);
        check_matches_local::<D2>(Arc::clone(&fd), &[fd, fd_scalar], [2, 2, 1], 10);
    }

    /// The fused 3D schedule hides the interior slab behind the z-stage
    /// halo; `ScalarReference3` runs plain.
    #[test]
    fn overlap3_matches_nonoverlap_bitwise() {
        let (lb, fd): (Arc<dyn Solver3>, Arc<dyn Solver3>) =
            (Arc::new(LatticeBoltzmann3), Arc::new(FiniteDifference3));
        let lb_scalar = Arc::new(ScalarReference3(LatticeBoltzmann3));
        let fd_scalar = Arc::new(ScalarReference3(FiniteDifference3));
        check_matches_local::<D3>(Arc::clone(&lb), &[lb, lb_scalar], [2, 1, 2], 6);
        check_matches_local::<D3>(Arc::clone(&fd), &[fd, fd_scalar], [2, 1, 2], 6);
    }

    #[test]
    fn schedule_follows_the_solver_declaration() {
        check_schedule::<D2>(
            Arc::new(LatticeBoltzmann2),
            Arc::new(ScalarReference2(LatticeBoltzmann2)),
        );
    }

    #[test]
    fn schedule3_follows_the_solver_declaration() {
        check_schedule::<D3>(
            Arc::new(LatticeBoltzmann3),
            Arc::new(ScalarReference3(LatticeBoltzmann3)),
        );
    }

    #[test]
    fn timing_is_recorded() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let out = ThreadedRunner2::new(solver, D2::problem([2, 1, 1]))
            .run(5)
            .unwrap();
        assert_eq!(out.timing.len(), 2);
        for (_, t) in &out.timing {
            assert_eq!(t.steps, 5);
            assert!(t.t_calc.as_nanos() > 0);
        }
    }

    #[test]
    fn message_volume_matches_solver_message_doubles() {
        check_message_volume::<D2>(Arc::new(LatticeBoltzmann2), [3, 2, 1], 7);
    }

    #[test]
    fn message_volume3_matches_solver() {
        check_message_volume::<D3>(Arc::new(LatticeBoltzmann3), [2, 1, 2], 5);
    }

    /// Zero steady-state allocation: at most two buffers ever circulate per
    /// directed edge, no matter how many steps run.
    #[test]
    fn halo_buffers_are_recycled() {
        let p = D2::problem([2, 2, 1]);
        let edges = directed_edges::<D2>(&p);
        let out = ThreadedRunner2::new(Arc::new(FiniteDifference2), p)
            .run(30)
            .unwrap();
        let total = total(&out);
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

    #[test]
    fn recorder_adds_no_hot_path_allocations() {
        check_recorder_allocs::<D2>(Arc::new(FiniteDifference2), [2, 2, 1], 30);
    }

    #[test]
    fn recorder3_adds_no_hot_path_allocations() {
        check_recorder_allocs::<D3>(Arc::new(LatticeBoltzmann3), [2, 1, 2], 10);
    }

    /// Finite differences, except that tile `victim`'s worker panics when
    /// it computes step `at_step`.
    struct PanicAt {
        victim: (usize, usize),
        at_step: u64,
    }

    impl Solver2 for PanicAt {
        fn kind(&self) -> subsonic_solvers::MethodKind {
            FiniteDifference2.kind()
        }
        fn halo(&self) -> usize {
            FiniteDifference2.halo()
        }
        fn plan(&self) -> &'static [StepOp] {
            FiniteDifference2.plan()
        }
        fn compute(&self, t: &mut TileState2, phase: usize) {
            if t.offset == self.victim && t.step == self.at_step {
                panic!("tile at {:?} dies at step {}", t.offset, t.step);
            }
            FiniteDifference2.compute(t, phase);
        }
        fn pack(&self, t: &TileState2, xch: usize, face: Face, out: &mut Vec<f64>) {
            FiniteDifference2.pack(t, xch, face, out);
        }
        fn unpack(&self, t: &mut TileState2, xch: usize, face: Face, data: &[f64]) {
            FiniteDifference2.unpack(t, xch, face, data);
        }
        fn message_doubles(&self, t: &TileState2, xch: usize, face: Face) -> usize {
            FiniteDifference2.message_doubles(t, xch, face)
        }
        fn make_tile(
            &self,
            mask: subsonic_grid::PaddedGrid2<subsonic_grid::Cell>,
            params: FluidParams,
            offset: (usize, usize),
            init: &subsonic_solvers::InitialState2,
        ) -> TileState2 {
            FiniteDifference2.make_tile(mask, params, offset, init)
        }
    }

    /// A worker that dies mid-run ends the run instead of hanging it, and
    /// the error is the dead worker's panic, not one of the disconnects its
    /// neighbours see.
    #[test]
    fn kill_root_cause_beats_peer_disconnects() {
        let p = D2::problem([2, 2, 1]);
        let victim = 3;
        let solver = PanicAt {
            victim: p.make_tile(&FiniteDifference2, victim).offset,
            at_step: 5,
        };
        let err = match ThreadedRunner2::new(Arc::new(solver), p).run(10) {
            Err(e) => e,
            Ok(_) => panic!("the panicking worker should abort the run"),
        };
        assert!(
            matches!(err, RunError::WorkerPanic { tile: 3, ref message } if message.contains("dies at step 5")),
            "got {err}"
        );
    }
}
