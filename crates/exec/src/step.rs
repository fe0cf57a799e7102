//! The step loop, written once for every substrate: one integration step
//! of a [`TileSet`]. Faces between two members are *local*, copied through
//! the set's own buffers; the others are *remote* and go through a
//! [`Halo<D>`]. `LocalRunner` is one set of every tile with no remote face,
//! the threaded runner a set of one per thread over channels, and
//! `subsonic-net` a set of one per process over sockets.
//!
//! The exchange runs in face stages (x, y, then z), every strip of a stage
//! packed before any is delivered, so corner ghosts forward transitively.
//! When a strip is in flight and the solver declares `overlapped_phase(x)
//! == Some(p)` with `Exchange(x)` right before `Compute(p)`, the pair runs
//! *fused*: every member's interior is computed while the last stage is in
//! flight, then that stage is delivered and every boundary applied.
//! Otherwise the plain staged exchange precedes the whole phase. Both are
//! bitwise identical (DESIGN.md, "Compute/halo overlap").

use crate::dim::Dim;
use crate::timing::StepTiming;
use std::io;
use std::time::{Duration, Instant};
use subsonic_grid::Face;
use subsonic_obs::{Category, TrackRecorder};
use subsonic_solvers::StepOp;

/// One tile set's view of its remote halo links.
///
/// `send` must not block indefinitely on a healthy peer; `recv_into` blocks
/// until the strip for `(x, tile, f)` arrives (frames may arrive out of
/// order on a shared link — implementations buffer and match). Both surface
/// transport death as an `io::Error`, which aborts the step.
pub trait Halo<D: Dim> {
    /// Whether member `tile` has a neighbour outside the set across face `f`.
    fn has_neighbor(&self, tile: usize, f: Face) -> bool;

    /// Sends the strip in `buf` for exchange `x`, packed across `tile`'s own
    /// face `f` (the peer unpacks it at the opposite face). May take the strip
    /// and leave another buffer — empty, or one recycled from the peer — in
    /// its place.
    fn send(&mut self, x: usize, tile: usize, f: Face, buf: &mut Vec<f64>) -> io::Result<()>;

    /// Receives the strip of exchange `x` arriving across `tile`'s own face
    /// `f` into `buf`, replacing its contents.
    fn recv_into(&mut self, x: usize, tile: usize, f: Face, buf: &mut Vec<f64>) -> io::Result<()>;
}

/// The halo of a set with no remote face, such as `LocalRunner`'s.
impl<D: Dim> Halo<D> for () {
    fn has_neighbor(&self, _: usize, _: Face) -> bool {
        false
    }
    fn send(&mut self, _: usize, _: usize, _: Face, _: &mut Vec<f64>) -> io::Result<()> {
        Err(io::ErrorKind::NotConnected.into())
    }
    fn recv_into(&mut self, _: usize, _: usize, _: Face, _: &mut Vec<f64>) -> io::Result<()> {
        Err(io::ErrorKind::NotConnected.into())
    }
}

/// A local face's neighbour member and the strip buffer refilled for it in
/// every step.
type Local = (usize, Vec<f64>);

/// Tiles stepped together by one plan walk.
pub struct TileSet {
    /// The members' tile ids, in the order [`step_tiles`] takes the tiles.
    pub(crate) ids: Vec<usize>,
    /// Every member face with a neighbour, as `(member, face, local)`; a
    /// remote face has no `local`.
    faces: Vec<(usize, Face, Option<Local>)>,
}

impl TileSet {
    /// The set of tiles `ids`, where `neighbor(id, face)` is the tile across
    /// `face` of tile `id`; faces to a non-member go through `halo`.
    pub fn new<D: Dim>(
        ids: Vec<usize>,
        neighbor: impl Fn(usize, Face) -> Option<usize>,
        halo: &impl Halo<D>,
    ) -> Self {
        let mut faces = Vec::new();
        for (k, &id) in ids.iter().enumerate() {
            for &f in D::FACES {
                match neighbor(id, f).and_then(|nb| ids.iter().position(|&m| m == nb)) {
                    Some(nk) => faces.push((k, f, Some((nk, Vec::new())))),
                    None if halo.has_neighbor(id, f) => faces.push((k, f, None)),
                    None => {}
                }
            }
        }
        Self { ids, faces }
    }
}

/// Runs one integration step of `solver`'s plan on the members of `set`,
/// whose tiles `tiles` holds in member order, moving remote strips through
/// `halo`. Accumulates calc/com/pack wall time and message counts into
/// `timing` and records compute/halo spans on `track`. `strip` is the
/// caller's buffer for every remote strip sent or received; handing the
/// same one to every step keeps the loop allocation-free.
pub fn step_tiles<D: Dim>(
    solver: &D::Solver,
    set: &mut TileSet,
    tiles: &mut [D::Tile],
    halo: &mut impl Halo<D>,
    timing: &mut StepTiming,
    strip: &mut Vec<f64>,
    track: &mut TrackRecorder,
) -> io::Result<()> {
    // the highest stage with a face: the fused schedule defers its delivery
    // behind the interior compute, if a strip is in flight
    let last = set.faces.iter().map(|l| l.1.stage()).max().unwrap_or(0);
    let in_flight = set.faces.iter().any(|l| l.2.is_none());
    let plan = D::plan(solver);
    let mut next = 0;
    while let Some(&op) = plan.get(next) {
        next += 1;
        match op {
            StepOp::Compute(p) => {
                let ((), dt) = span(track, Category::Compute, "compute", || {
                    tiles.iter_mut().for_each(|t| D::compute(solver, t, p))
                });
                timing.t_calc += dt;
            }
            StepOp::Exchange(x) => {
                let fused = D::overlapped_phase(solver, x)
                    .filter(|&p| in_flight && plan.get(next) == Some(&StepOp::Compute(p)));
                // Every pack runs before any compute starts (stage-1 packs read
                // ghosts written by stage-0 deliveries *and* pre-compute
                // boundary strips). Pack time is a sub-component of the
                // enclosing `t_com` window and lands in `t_pack` only.
                let name = fused.map_or("exchange", |_| "halo send");
                let (sent, dt) = span(track, Category::Halo, name, || -> io::Result<()> {
                    for s in 0..=last {
                        for (k, f, local) in set.faces.iter_mut().filter(|l| l.1.stage() == s) {
                            let buf = local.as_mut().map_or(&mut *strip, |l| &mut l.1);
                            buf.clear();
                            let p0 = Instant::now();
                            D::pack(solver, &tiles[*k], x, *f, buf);
                            timing.t_pack += p0.elapsed();
                            if local.is_none() {
                                timing.msgs_sent += 1;
                                timing.doubles_sent += strip.len() as u64;
                                halo.send(x, set.ids[*k], *f, strip)?;
                            }
                        }
                        if s < last || fused.is_none() {
                            deliver(solver, set, tiles, halo, x, s, strip)?;
                        }
                    }
                    Ok(())
                });
                timing.t_com += dt;
                sent?;
                let Some(p) = fused else { continue };
                next += 1; // the fused Compute runs here
                let ((), dt) = span(track, Category::Compute, "compute interior", || {
                    tiles
                        .iter_mut()
                        .for_each(|t| D::compute_interior(solver, t, p))
                });
                timing.t_calc += dt;
                let (received, dt) = span(track, Category::Halo, "halo recv", || {
                    deliver(solver, set, tiles, halo, x, last, strip)
                });
                timing.t_com += dt;
                received?;
                let ((), dt) = span(track, Category::Compute, "compute boundary", || {
                    tiles
                        .iter_mut()
                        .for_each(|t| D::compute_boundary(solver, t, p))
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

/// Delivers every strip of exchange `x`'s `stage`: a local one from its
/// buffer, a remote one as it arrives.
fn deliver<D: Dim>(
    solver: &D::Solver,
    set: &TileSet,
    tiles: &mut [D::Tile],
    halo: &mut impl Halo<D>,
    x: usize,
    stage: usize,
    strip: &mut Vec<f64>,
) -> io::Result<()> {
    for (k, f, local) in set.faces.iter().filter(|l| l.1.stage() == stage) {
        match local {
            Some((nk, buf)) => D::unpack(solver, &mut tiles[*nk], x, f.opposite(), buf),
            None => {
                halo.recv_into(x, set.ids[*k], *f, strip)?;
                D::unpack(solver, &mut tiles[*k], x, *f, strip);
            }
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

    /// A halo frame in flight: (exchange index, receiving tile, its face,
    /// payload).
    type Frame = (usize, usize, Face, Vec<f64>);

    /// In-memory endpoint of one tile set: frames travel over mpsc channels
    /// to the receiving set, keyed by (tile, face), with an inbox so
    /// interleaved frames still match.
    struct MemHalo {
        tx: HashMap<(usize, Face), (usize, Sender<Frame>)>,
        rx: Receiver<Frame>,
        inbox: Vec<Frame>,
    }

    impl<D: Dim> Halo<D> for MemHalo {
        fn has_neighbor(&self, tile: usize, f: Face) -> bool {
            self.tx.contains_key(&(tile, f))
        }
        fn send(&mut self, x: usize, tile: usize, f: Face, buf: &mut Vec<f64>) -> io::Result<()> {
            let (nb, tx) = &self.tx[&(tile, f)];
            tx.send((x, *nb, f.opposite(), std::mem::take(buf)))
                .map_err(|_| io::ErrorKind::BrokenPipe.into())
        }
        fn recv_into(
            &mut self,
            x: usize,
            tile: usize,
            f: Face,
            buf: &mut Vec<f64>,
        ) -> io::Result<()> {
            let want = |fr: &Frame| (fr.0, fr.1, fr.2) == (x, tile, f);
            if let Some(at) = self.inbox.iter().position(want) {
                *buf = self.inbox.remove(at).3;
                return Ok(());
            }
            loop {
                let frame = self.rx.recv().map_err(|_| io::ErrorKind::UnexpectedEof)?;
                if want(&frame) {
                    *buf = frame.3;
                    return Ok(());
                }
                self.inbox.push(frame);
            }
        }
    }

    /// Steps the active tiles of `problem` through [`step_tiles`], one thread
    /// per set of `sets` (a partition of the active ids) over [`MemHalo`]
    /// links; returns the tiles in active-id order.
    fn step_over_mem<D: Dim>(
        solver: &D::Solver,
        problem: &D::Problem,
        sets: &[&[usize]],
        steps: u64,
    ) -> Vec<D::Tile> {
        let (mut inboxes, mut rxs) = (HashMap::new(), Vec::new());
        for (k, ids) in sets.iter().enumerate() {
            let (tx, rx) = channel();
            inboxes.extend(ids.iter().map(|&id| (id, (k, tx.clone()))));
            rxs.push(rx);
        }
        let workers: Vec<_> = sets
            .iter()
            .zip(rxs)
            .enumerate()
            .map(|(k, (ids, rx))| {
                let mut tx = HashMap::new();
                for &id in ids.iter() {
                    for &f in D::FACES {
                        let Some(nb) = D::neighbor(problem, id, f) else {
                            continue;
                        };
                        match inboxes.get(&nb) {
                            Some((set, to)) if *set != k => tx.insert((id, f), (nb, to.clone())),
                            _ => None,
                        };
                    }
                }
                let halo = MemHalo {
                    tx,
                    rx,
                    inbox: Vec::new(),
                };
                let set =
                    TileSet::new::<D>(ids.to_vec(), |id, f| D::neighbor(problem, id, f), &halo);
                let tiles: Vec<_> = ids
                    .iter()
                    .map(|&id| D::make_tile(problem, solver, id))
                    .collect();
                (set, tiles, halo)
            })
            .collect();
        drop(inboxes);
        let mut out: Vec<(usize, D::Tile)> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|(mut set, mut tiles, mut halo)| {
                    scope.spawn(move || {
                        let (mut timing, mut strip) = (StepTiming::default(), Vec::new());
                        for _ in 0..steps {
                            let mut track = TrackRecorder::disabled();
                            step_tiles::<D>(
                                solver,
                                &mut set,
                                &mut tiles,
                                &mut halo,
                                &mut timing,
                                &mut strip,
                                &mut track,
                            )
                            .unwrap();
                        }
                        assert_eq!(timing.steps, steps);
                        assert!(timing.msgs_sent > 0);
                        set.ids.iter().copied().zip(tiles).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        out.sort_by_key(|(id, _)| *id);
        out.into_iter().map(|(_, t)| t).collect()
    }

    fn params() -> FluidParams {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1.5e-5;
        params
    }

    /// The one step loop, driven over an in-memory halo, against the serial
    /// reference in both ranks and under both schedules (the fast solvers
    /// run fused, `ScalarReference2` plain), once with one tile per set and
    /// once with two sets of two, whose faces between members are local; in
    /// 2D also against the threaded runner's whole tile state — what a net
    /// worker ships in a dump must be what the threaded runner would have.
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
        let partitions2: [&[&[usize]]; 2] = [&[&[0], &[1], &[2], &[3]], &[&[0, 1], &[2, 3]]];
        for solver in solvers2 {
            let mut local = LocalRunner2::new(Arc::clone(&solver), p2.clone());
            local.run(steps as usize);
            let threaded = ThreadedRunner2::new(Arc::clone(&solver), p2.clone())
                .run(steps)
                .unwrap();
            for sets in partitions2 {
                let tiles = step_over_mem::<D2>(solver.as_ref(), &p2, sets, steps);
                let b = GlobalFields2::gather(24, 16, 1.0, tiles.iter());
                assert_eq!(local.gather().first_difference(&b), None, "sets {sets:?}");
                for (t, want) in tiles.iter().zip(&threaded.tiles) {
                    assert_eq!(
                        t.step, steps,
                        "the solver's last phase counts the step, once"
                    );
                    assert!(dump_tile2(t) == dump_tile2(want), "dump bytes differ");
                }
            }
        }

        let p3 = Problem3::new(Geometry3::duct(12, 10, 10, 2), 2, 1, 2, params())
            .with_init(|x, y, z| (1.0 + 1e-4 * ((x + 2 * y + 3 * z) % 5) as f64, 0.0, 0.0, 0.0));
        let solvers3: [Arc<dyn Solver3>; 2] =
            [Arc::new(LatticeBoltzmann3), Arc::new(FiniteDifference3)];
        let steps = 6u64;
        let partitions3: [&[&[usize]]; 2] = [&[&[0], &[1], &[2], &[3]], &[&[0, 1], &[2, 3]]];
        for solver in solvers3 {
            let mut local = LocalRunner3::new(Arc::clone(&solver), p3.clone());
            local.run(steps as usize);
            for sets in partitions3 {
                let tiles = step_over_mem::<D3>(solver.as_ref(), &p3, sets, steps);
                let b = GlobalFields3::gather((12, 10, 10), 1.0, tiles.iter());
                assert_eq!(local.gather().first_difference(&b), None, "sets {sets:?}");
                assert!(tiles.iter().all(|t| t.step == steps));
            }
        }
    }
}
