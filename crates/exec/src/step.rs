//! The step loop: one integration step of one tile against an abstract halo
//! endpoint, written once for every substrate.
//!
//! The threaded runner drives [`step_tile`] over `std::sync::mpsc` channels
//! and the multi-process runtime (`subsonic-net`) over sockets or in-memory
//! links; each implements [`Halo<D>`] for its wire and wraps its own
//! concerns — progress, fault injection, migration, checkpoints — around the
//! call.
//!
//! The exchange runs in face stages (x, y, then z), every send of a stage
//! posted before its receives; corner ghosts forward transitively. When the
//! solver declares `overlapped_phase(x) == Some(p)` and the plan has
//! `Exchange(x)` right before `Compute(p)`, the pair runs *fused*: the
//! interior is computed while the last stage is in flight, then that stage
//! is unpacked and the boundary remainder applied. Otherwise (e.g.
//! `ScalarReference2/3`) the plain staged exchange precedes the whole phase.
//! Both are bitwise identical (DESIGN.md, "Compute/halo overlap").

use crate::dim::Dim;
use crate::timing::StepTiming;
use std::io;
use std::time::{Duration, Instant};
use subsonic_grid::Face;
use subsonic_obs::{Category, TrackRecorder};
use subsonic_solvers::StepOp;

/// One tile's view of its halo links.
///
/// `send` must not block indefinitely on a healthy peer; `recv_into` blocks
/// until the strip for `(xch, face)` arrives (frames may arrive out of order
/// on a shared link — implementations buffer and match). Both surface
/// transport death as an `io::Error`, which aborts the step.
pub trait Halo<D: Dim> {
    /// Whether this tile has a neighbour across `face`.
    fn has_neighbor(&self, face: Face) -> bool;

    /// Sends `strip`, packed across the tile's own `face` (the peer unpacks
    /// it at the opposite face). May take the strip and leave another buffer
    /// — empty, or one recycled from the peer — in its place.
    fn send(&mut self, xch: usize, face: Face, strip: &mut Vec<f64>) -> io::Result<()>;

    /// Receives the strip arriving across the tile's own `face` for `xch`
    /// into `strip`, replacing its contents.
    fn recv_into(&mut self, xch: usize, face: Face, strip: &mut Vec<f64>) -> io::Result<()>;
}

/// Runs one integration step of `solver`'s plan on `tile`, moving halo
/// strips through `halo`. Accumulates calc/com/pack wall time and message
/// counts into `timing` and records compute/halo spans on `track`. `strip`
/// is the caller's strip buffer, refilled for every strip packed and every
/// strip received (a stage's sends are all posted before its first receive,
/// so one buffer serves both); handing the same one to every step keeps the
/// loop allocation-free.
pub fn step_tile<D: Dim>(
    solver: &D::Solver,
    tile: &mut D::Tile,
    halo: &mut impl Halo<D>,
    timing: &mut StepTiming,
    strip: &mut Vec<f64>,
    track: &mut TrackRecorder,
) -> io::Result<()> {
    // the highest stage this tile has links on: the fused schedule hides the
    // interior compute behind that stage's receive
    let last = D::FACES
        .iter()
        .filter(|&&f| halo.has_neighbor(f))
        .map(|&f| f.stage())
        .max()
        .unwrap_or(0);
    let plan = D::plan(solver);
    let mut next = 0;
    while let Some(&op) = plan.get(next) {
        next += 1;
        match op {
            StepOp::Compute(p) => {
                let ((), dt) = span(track, Category::Compute, "compute", || {
                    D::compute(solver, tile, p)
                });
                timing.t_calc += dt;
            }
            StepOp::Exchange(x) => {
                let fused = D::overlapped_phase(solver, x)
                    .filter(|&p| plan.get(next) == Some(&StepOp::Compute(p)));
                // Every pack runs before any compute starts (stage-1 packs read
                // ghosts written by stage-0 unpacks *and* pre-compute boundary
                // strips); the fused schedule defers only the last stage's
                // receive, behind the interior compute.
                let name = fused.map_or("exchange", |_| "halo send");
                let (sent, dt) = span(track, Category::Halo, name, || -> io::Result<()> {
                    for s in 0..=last {
                        send_stage(solver, tile, halo, x, s, timing, strip)?;
                        if s < last || fused.is_none() {
                            recv_stage(solver, tile, halo, x, s, strip)?;
                        }
                    }
                    Ok(())
                });
                timing.t_com += dt;
                sent?;
                let Some(p) = fused else { continue };
                next += 1; // the fused Compute runs here
                let ((), dt) = span(track, Category::Compute, "compute interior", || {
                    D::compute_interior(solver, tile, p)
                });
                timing.t_calc += dt;
                let (received, dt) = span(track, Category::Halo, "halo recv", || {
                    recv_stage(solver, tile, halo, x, last, strip)
                });
                timing.t_com += dt;
                received?;
                let ((), dt) = span(track, Category::Compute, "compute boundary", || {
                    D::compute_boundary(solver, tile, p)
                });
                timing.t_calc += dt;
            }
        }
    }
    timing.steps += 1;
    Ok(())
}

/// Runs `f`, records it as span `name` and returns its result and wall time.
fn span<R>(
    track: &mut TrackRecorder,
    cat: Category,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    track.span_wall(cat, name, t0, t1);
    (r, t1 - t0)
}

/// Packs and sends every strip of exchange `x`'s `stage`. Pack time is a
/// sub-component of the enclosing `t_com` window and lands in `t_pack` only.
fn send_stage<D: Dim>(
    solver: &D::Solver,
    tile: &D::Tile,
    halo: &mut impl Halo<D>,
    x: usize,
    stage: usize,
    timing: &mut StepTiming,
    strip: &mut Vec<f64>,
) -> io::Result<()> {
    for &f in D::FACES {
        if f.stage() == stage && halo.has_neighbor(f) {
            strip.clear();
            let p0 = Instant::now();
            D::pack(solver, tile, x, f, strip);
            timing.t_pack += p0.elapsed();
            timing.msgs_sent += 1;
            timing.doubles_sent += strip.len() as u64;
            halo.send(x, f, strip)?;
        }
    }
    Ok(())
}

/// Receives and unpacks every strip of exchange `x`'s `stage`.
fn recv_stage<D: Dim>(
    solver: &D::Solver,
    tile: &mut D::Tile,
    halo: &mut impl Halo<D>,
    x: usize,
    stage: usize,
    strip: &mut Vec<f64>,
) -> io::Result<()> {
    for &f in D::FACES {
        if f.stage() == stage && halo.has_neighbor(f) {
            halo.recv_into(x, f, strip)?;
            D::unpack(solver, tile, x, f, strip);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::checkpoint::dump_tile2;
    use crate::dim::{D2, D3};
    use crate::gather::{GlobalFields2, GlobalFields3};
    use crate::local::{LocalRunner2, LocalRunner3};
    use crate::problem::{Problem2, Problem3};
    use crate::threaded::ThreadedRunner2;
    use std::collections::HashMap;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;
    use subsonic_grid::{Geometry2, Geometry3};
    use subsonic_solvers::{
        FiniteDifference2, FiniteDifference3, FluidParams, LatticeBoltzmann2, LatticeBoltzmann3,
        ScalarReference2, Solver2, Solver3,
    };

    /// A halo frame in flight: (exchange index, receiver's face, payload).
    type Frame = (usize, Face, Vec<f64>);

    /// In-memory endpoint: frames travel over mpsc channels to the receiving
    /// tile, with an inbox so interleaved frames still match.
    struct MemHalo {
        tx: HashMap<Face, Sender<Frame>>,
        rx: Receiver<Frame>,
        inbox: Vec<Frame>,
    }

    impl<D: Dim> Halo<D> for MemHalo {
        fn has_neighbor(&self, face: Face) -> bool {
            self.tx.contains_key(&face)
        }
        fn send(&mut self, xch: usize, face: Face, strip: &mut Vec<f64>) -> io::Result<()> {
            self.tx[&face]
                .send((xch, face.opposite(), std::mem::take(strip)))
                .map_err(|_| io::ErrorKind::BrokenPipe.into())
        }
        fn recv_into(&mut self, xch: usize, face: Face, strip: &mut Vec<f64>) -> io::Result<()> {
            let at = self
                .inbox
                .iter()
                .position(|(x, f, _)| *x == xch && *f == face);
            if let Some(at) = at {
                *strip = self.inbox.remove(at).2;
                return Ok(());
            }
            loop {
                let frame = self.rx.recv().map_err(|_| io::ErrorKind::UnexpectedEof)?;
                if frame.0 == xch && frame.1 == face {
                    *strip = frame.2;
                    return Ok(());
                }
                self.inbox.push(frame);
            }
        }
    }

    /// Steps every active tile of `problem` through [`step_tile`], one thread
    /// per tile over [`MemHalo`] links; returns the tiles in active-id order.
    fn step_over_mem<D: Dim>(solver: &D::Solver, problem: &D::Problem, steps: u64) -> Vec<D::Tile> {
        let active = D::active_tiles(problem);
        let (mut inboxes, mut rxs) = (HashMap::new(), Vec::new());
        for &id in &active {
            let (tx, rx) = channel();
            inboxes.insert(id, tx);
            rxs.push(rx);
        }
        let workers: Vec<_> = active
            .iter()
            .zip(rxs)
            .map(|(&id, rx)| {
                let tx = D::FACES
                    .iter()
                    .filter_map(|&f| Some((f, inboxes.get(&D::neighbor(problem, id, f)?)?.clone())))
                    .collect();
                let halo = MemHalo {
                    tx,
                    rx,
                    inbox: Vec::new(),
                };
                (D::make_tile(problem, solver, id), halo)
            })
            .collect();
        drop(inboxes);
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|(mut tile, mut halo)| {
                    scope.spawn(move || {
                        let (mut timing, mut strip) = (StepTiming::default(), Vec::new());
                        for _ in 0..steps {
                            let mut track = TrackRecorder::disabled();
                            step_tile::<D>(
                                solver,
                                &mut tile,
                                &mut halo,
                                &mut timing,
                                &mut strip,
                                &mut track,
                            )
                            .unwrap();
                        }
                        assert_eq!(timing.steps, steps);
                        assert!(timing.msgs_sent > 0);
                        tile
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn params() -> FluidParams {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1.5e-5;
        params
    }

    /// The one step loop, driven over an in-memory halo, against the serial
    /// reference in both ranks and under both schedules (the fast solvers
    /// run fused, `ScalarReference2` plain); in 2D also against the threaded
    /// runner's whole tile state — what a net worker ships in a dump must be
    /// what the threaded runner would have.
    #[test]
    fn stepper_matches_threaded_runner_bitwise() {
        let p2 = Problem2::new(Geometry2::channel(24, 16, 2), 2, 2, params())
            .with_init(|x, y| (1.0 + 1e-3 * (x as f64) + 2e-3 * (y as f64), 0.0, 0.0));
        let solvers2: [Arc<dyn Solver2>; 3] = [
            Arc::new(LatticeBoltzmann2),
            Arc::new(FiniteDifference2),
            Arc::new(ScalarReference2(LatticeBoltzmann2)),
        ];
        let steps = 12u64;
        for solver in solvers2 {
            let tiles = step_over_mem::<D2>(solver.as_ref(), &p2, steps);
            let mut local = LocalRunner2::new(Arc::clone(&solver), p2.clone());
            local.run(steps as usize);
            let b = GlobalFields2::gather(24, 16, 1.0, tiles.iter());
            assert_eq!(local.gather().first_difference(&b), None);
            let threaded = ThreadedRunner2::new(solver, p2.clone()).run(steps).unwrap();
            for (t, want) in tiles.iter().zip(&threaded.tiles) {
                assert_eq!(
                    t.step, steps,
                    "the solver's last phase counts the step, once"
                );
                assert!(dump_tile2(t) == dump_tile2(want), "dump bytes differ");
            }
        }

        let p3 = Problem3::new(Geometry3::duct(12, 10, 10, 2), 2, 1, 2, params())
            .with_init(|x, y, z| (1.0 + 1e-4 * ((x + 2 * y + 3 * z) % 5) as f64, 0.0, 0.0, 0.0));
        let solvers3: [Arc<dyn Solver3>; 2] =
            [Arc::new(LatticeBoltzmann3), Arc::new(FiniteDifference3)];
        let steps = 6u64;
        for solver in solvers3 {
            let tiles = step_over_mem::<D3>(solver.as_ref(), &p3, steps);
            let mut local = LocalRunner3::new(Arc::clone(&solver), p3.clone());
            local.run(steps as usize);
            let b = GlobalFields3::gather((12, 10, 10), 1.0, tiles.iter());
            assert_eq!(local.gather().first_difference(&b), None);
            assert!(tiles.iter().all(|t| t.step == steps));
        }
    }
}
