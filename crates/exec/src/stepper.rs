//! Runtime-agnostic tile stepping: one integration step against an abstract
//! halo endpoint.
//!
//! [`ThreadedRunner`](crate::threaded::ThreadedRunner) owns its transport:
//! crossbeam channels with buffer recycling, and a fused exchange+compute
//! schedule that needs a non-blocking send and a deferrable receive. The
//! multi-process runtime needs the *same* step semantics over TCP sockets,
//! reliable UDP, or in-memory links, so this module runs the per-step plan
//! behind the [`Halo2`] trait: a runner implements `send`/`recv_into` for its
//! wire and gets a step loop whose results are bitwise identical to the
//! threaded runner's (same staged exchange order, same compute sequence —
//! pinned by tests). Strips travel in caller-owned buffers in both
//! directions, so a step allocates nothing once its buffers have grown.
//!
//! The exchange runs in face stages (x axis, then y), posting every send of a
//! stage before receiving that stage, exactly like the plain (unfused)
//! schedule of the threaded runner. Corner ghosts are forwarded transitively
//! by the staged order, so no diagonal neighbours are needed.

use crate::timing::StepTiming;
use std::io;
use std::time::Instant;
use subsonic_grid::Face2;
use subsonic_solvers::{Solver2, StepOp, TileState2};

/// One worker's view of its halo links for a 2D tile.
///
/// `send` must not block indefinitely on a healthy peer; `recv_into` blocks
/// until the strip for `(xch, face)` arrives (frames may arrive out of order
/// on a shared link — implementations buffer and match). Both surface
/// transport death as an `io::Error`, which aborts the step cleanly.
pub trait Halo2 {
    /// Whether this tile has a neighbour across `face`.
    fn has_neighbor(&self, face: Face2) -> bool;

    /// Sends the strip packed across the tile's own `face` (the peer unpacks
    /// it at `face.opposite()`).
    fn send(&mut self, xch: usize, face: Face2, data: &[f64]) -> io::Result<()>;

    /// Receives the strip arriving across the tile's own `face` for `xch`
    /// into `strip`, replacing its contents (and free to keep its old
    /// allocation for a later strip).
    fn recv_into(&mut self, xch: usize, face: Face2, strip: &mut Vec<f64>) -> io::Result<()>;
}

/// Runs one full integration step of `solver`'s plan on `tile`, moving halo
/// strips through `halo`. Accumulates calc/com wall time and message counts
/// into `timing`. `strip` is the caller's strip buffer, refilled for every
/// strip packed and every strip received (a stage's sends are all posted
/// before its first receive, so one buffer serves both); handing the same
/// one to every step keeps the loop allocation-free.
pub fn step_tile2(
    solver: &dyn Solver2,
    tile: &mut TileState2,
    halo: &mut impl Halo2,
    timing: &mut StepTiming,
    strip: &mut Vec<f64>,
) -> io::Result<()> {
    for op in solver.plan() {
        match *op {
            StepOp::Compute(p) => {
                let t0 = Instant::now();
                solver.compute(tile, p);
                timing.t_calc += t0.elapsed();
            }
            StepOp::Exchange(x) => {
                let t0 = Instant::now();
                for stage in 0..=1 {
                    // post every send of the stage before its receives, the
                    // staged protocol of the threaded runner (corner ghosts
                    // forward transitively: stage-1 strips span stage-0 ghosts)
                    for face in Face2::ALL {
                        if face.stage() == stage && halo.has_neighbor(face) {
                            strip.clear();
                            let p0 = Instant::now();
                            solver.pack(tile, x, face, strip);
                            timing.t_pack += p0.elapsed();
                            timing.msgs_sent += 1;
                            timing.doubles_sent += strip.len() as u64;
                            halo.send(x, face, strip)?;
                        }
                    }
                    for face in Face2::ALL {
                        if face.stage() == stage && halo.has_neighbor(face) {
                            halo.recv_into(x, face, strip)?;
                            solver.unpack(tile, x, face, strip);
                        }
                    }
                }
                timing.t_com += t0.elapsed();
            }
        }
    }
    timing.steps += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::checkpoint::dump_tile2;
    use crate::problem::Problem2;
    use crate::threaded::ThreadedRunner2;
    use std::collections::HashMap;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Arc;
    use subsonic_grid::Geometry2;
    use subsonic_solvers::{FluidParams, LatticeBoltzmann2};

    /// A halo frame in flight: (exchange index, receiver's face, payload).
    type Frame = (usize, Face2, Vec<f64>);

    /// In-memory endpoint: frames travel over mpsc channels keyed by the
    /// receiver's face, with an inbox so interleaved frames still match.
    struct MemHalo {
        tx: HashMap<Face2, Sender<Frame>>,
        rx: Receiver<Frame>,
        inbox: Vec<Frame>,
    }

    impl Halo2 for MemHalo {
        fn has_neighbor(&self, face: Face2) -> bool {
            self.tx.contains_key(&face)
        }
        fn send(&mut self, xch: usize, face: Face2, data: &[f64]) -> io::Result<()> {
            self.tx[&face]
                .send((xch, face.opposite(), data.to_vec()))
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
        }
        fn recv_into(&mut self, xch: usize, face: Face2, strip: &mut Vec<f64>) -> io::Result<()> {
            if let Some(at) = self
                .inbox
                .iter()
                .position(|(x, f, _)| *x == xch && *f == face)
            {
                *strip = self.inbox.remove(at).2;
                return Ok(());
            }
            loop {
                let frame = self
                    .rx
                    .recv()
                    .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "peer gone"))?;
                if frame.0 == xch && frame.1 == face {
                    *strip = frame.2;
                    return Ok(());
                }
                self.inbox.push(frame);
            }
        }
    }

    fn problem(px: usize, py: usize) -> Problem2 {
        let geom = Geometry2::channel(24, 16, 2);
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1.5e-5;
        Problem2::new(geom, px, py, params)
            .with_init(|x, y| (1.0 + 1e-3 * (x as f64) + 2e-3 * (y as f64), 0.0, 0.0))
    }

    #[test]
    fn stepper_matches_threaded_runner_bitwise() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let p = problem(2, 2);
        let steps = 12u64;
        let reference = ThreadedRunner2::new(Arc::clone(&solver), p.clone())
            .run(steps)
            .unwrap();
        let a = reference.gather(24, 16, 1.0);

        // Drive the same decomposition through the abstract stepper, one
        // thread per tile over mpsc links.
        let active = p.active_tiles();
        let mut txs: HashMap<(usize, Face2), Sender<Frame>> = HashMap::new();
        let mut rxs: HashMap<usize, Receiver<Frame>> = HashMap::new();
        for &id in &active {
            let (tx, rx) = channel();
            rxs.insert(id, rx);
            for f in Face2::ALL {
                // the channel keyed by (receiver, its face) — senders clone it
                txs.insert((id, f), tx.clone());
            }
        }
        let mut tiles = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &id in &active {
                let mut tx = HashMap::new();
                for f in Face2::ALL {
                    if let Some(nb) = p.decomp.neighbor(id, f) {
                        tx.insert(f, txs[&(nb, f.opposite())].clone());
                    }
                }
                let rx = rxs.remove(&id).unwrap();
                let mut tile = p.make_tile(solver.as_ref(), id);
                let solver = Arc::clone(&solver);
                handles.push(scope.spawn(move || {
                    let mut halo = MemHalo {
                        tx,
                        rx,
                        inbox: Vec::new(),
                    };
                    let mut timing = StepTiming::default();
                    let mut strip = Vec::new();
                    for _ in 0..steps {
                        step_tile2(
                            solver.as_ref(),
                            &mut tile,
                            &mut halo,
                            &mut timing,
                            &mut strip,
                        )
                        .unwrap();
                    }
                    assert_eq!(timing.steps, steps);
                    assert!(timing.msgs_sent > 0);
                    tile
                }));
            }
            drop(txs);
            for h in handles {
                tiles.push(h.join().unwrap());
            }
        });
        let b = crate::gather::GlobalFields2::gather(24, 16, 1.0, tiles.iter());
        assert_eq!(
            a.first_difference(&b),
            None,
            "abstract stepper diverged from the threaded runner"
        );
        // the whole tile state, step counter included: what a net worker
        // ships in a dump must be what the threaded runner would have
        for (t, want) in tiles.iter().zip(&reference.tiles) {
            assert_eq!(
                t.step, steps,
                "the solver's last phase counts the step, once"
            );
            assert!(dump_tile2(t) == dump_tile2(want), "dump bytes differ");
        }
    }
}
