//! The dimensionality of a problem as a type.
//!
//! The solvers, tiles and problems of `subsonic-solvers`/`-exec` come as
//! 2D/3D twins with identical method names but no common trait; the faces,
//! decompositions and halo codec of `subsonic-grid` are written once for
//! both ranks and need no forwarding. [`Dim`] names one such family so that
//! the step loop and the runners are written once —
//! [`step_tile<D>`](crate::step::step_tile),
//! [`ThreadedRunner<D>`](crate::threaded::ThreadedRunner),
//! [`LocalRunner<D>`](crate::local::LocalRunner) — and monomorphised per
//! dimension: dispatch stays `dyn Solver2`/`dyn Solver3`, nothing is boxed or
//! branched on at run time. The trait is sealed; [`D2`] and [`D3`] are its
//! only implementors and are never constructed.

use crate::checkpoint::DumpTile;
use crate::problem::{Problem2, Problem3};
use subsonic_grid::Face;
use subsonic_solvers::{Solver2, Solver3, StepOp, TileState2, TileState3};

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::D2 {}
    impl Sealed for super::D3 {}
}

/// Marker for 2D problems (four faces, two exchange stages).
pub enum D2 {}

/// Marker for 3D problems (six faces, three exchange stages).
pub enum D3 {}

/// One dimension's solver/tile/problem family, as the runners see it.
/// Every method forwards to the inherent or trait method of the same name.
pub trait Dim: sealed::Sealed {
    /// The solver trait object (`dyn Solver2` / `dyn Solver3`).
    type Solver: ?Sized + Send + Sync;
    /// State of one subregion (what a dump file holds).
    type Tile: Clone + Send + DumpTile;
    /// Geometry + decomposition + parameters + initial state.
    type Problem;

    /// All faces, grouped by exchange stage in stage order.
    const FACES: &'static [Face];
    /// Flight-recorder process id of the threaded runner's tracks.
    const TRACE_PID: u32;
    /// Flight-recorder process name of the threaded runner's tracks.
    const TRACK: &'static str;

    /// The solver's per-cycle plan.
    fn plan(s: &Self::Solver) -> &'static [StepOp];
    /// Runs compute phase `phase`.
    fn compute(s: &Self::Solver, t: &mut Self::Tile, phase: usize);
    /// The phase the solver lets a runner split around exchange `xch`.
    fn overlapped_phase(s: &Self::Solver, xch: usize) -> Option<usize>;
    /// Interior part of a split phase.
    fn compute_interior(s: &Self::Solver, t: &mut Self::Tile, phase: usize);
    /// Boundary remainder of a split phase.
    fn compute_boundary(s: &Self::Solver, t: &mut Self::Tile, phase: usize);
    /// Packs the strip for exchange `xch` across the tile's own face `f`.
    fn pack(s: &Self::Solver, t: &Self::Tile, xch: usize, f: Face, out: &mut Vec<f64>);
    /// Unpacks a strip received across `f` for exchange `xch`.
    fn unpack(s: &Self::Solver, t: &mut Self::Tile, xch: usize, f: Face, data: &[f64]);

    /// Subregions of the decomposition, active or not.
    fn tiles(p: &Self::Problem) -> usize;
    /// Subregions holding at least one non-wall node.
    fn active_tiles(p: &Self::Problem) -> Vec<usize>;
    /// The subregion across face `f` of subregion `id`, if any.
    fn neighbor(p: &Self::Problem, id: usize, f: Face) -> Option<usize>;
    /// Builds the step-0 tile of subregion `id`.
    fn make_tile(p: &Self::Problem, s: &Self::Solver, id: usize) -> Self::Tile;
}

/// Implements [`Dim`] for one marker by forwarding to that dimension's
/// solver, tile and problem types; the two impls differ only in those types
/// and the constants.
macro_rules! impl_dim {
    ($d:ident, $solver:ident, $tile:ident, $problem:ident,
     $rank:literal, $pid:literal, $track:literal) => {
        impl Dim for $d {
            type Solver = dyn $solver;
            type Tile = $tile;
            type Problem = $problem;

            const FACES: &'static [Face] = Face::of_rank($rank);
            const TRACE_PID: u32 = $pid;
            const TRACK: &'static str = $track;

            fn plan(s: &dyn $solver) -> &'static [StepOp] {
                s.plan()
            }
            fn compute(s: &dyn $solver, t: &mut $tile, phase: usize) {
                s.compute(t, phase);
            }
            fn overlapped_phase(s: &dyn $solver, xch: usize) -> Option<usize> {
                s.overlapped_phase(xch)
            }
            fn compute_interior(s: &dyn $solver, t: &mut $tile, phase: usize) {
                s.compute_interior(t, phase);
            }
            fn compute_boundary(s: &dyn $solver, t: &mut $tile, phase: usize) {
                s.compute_boundary(t, phase);
            }
            fn pack(s: &dyn $solver, t: &$tile, xch: usize, f: Face, out: &mut Vec<f64>) {
                s.pack(t, xch, f, out);
            }
            fn unpack(s: &dyn $solver, t: &mut $tile, xch: usize, f: Face, data: &[f64]) {
                s.unpack(t, xch, f, data);
            }

            fn tiles(p: &$problem) -> usize {
                p.decomp.tiles()
            }
            fn active_tiles(p: &$problem) -> Vec<usize> {
                p.active_tiles()
            }
            fn neighbor(p: &$problem, id: usize, f: Face) -> Option<usize> {
                p.decomp.neighbor(id, f)
            }
            fn make_tile(p: &$problem, s: &dyn $solver, id: usize) -> $tile {
                p.make_tile(s, id)
            }
        }
    };
}

impl_dim! { D2, Solver2, TileState2, Problem2, 2, 2, "threaded2" }
impl_dim! { D3, Solver3, TileState3, Problem3, 3, 3, "threaded3" }
