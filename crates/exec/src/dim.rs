//! The dimensionality of a problem as a type.
//!
//! The solvers, tiles, faces and problems of `subsonic-solvers`/`-grid` come
//! as 2D/3D twins with identical method names but no common trait. [`Dim`]
//! names one such family so that a runner is written once —
//! [`ThreadedRunner<D>`](crate::threaded::ThreadedRunner),
//! [`LocalRunner<D>`](crate::local::LocalRunner) — and monomorphised per
//! dimension: dispatch stays `dyn Solver2`/`dyn Solver3`, nothing is boxed or
//! branched on at run time. The trait is sealed; [`D2`] and [`D3`] are its
//! only implementors and are never constructed.

use crate::checkpoint::{load_tile2, save_tile2, DumpError};
use crate::checkpoint3::{load_tile3, save_tile3};
use crate::problem::{Problem2, Problem3};
use std::hash::Hash;
use std::path::Path;
use subsonic_grid::{Face2, Face3};
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

/// One dimension's solver/tile/face/problem family, as the runners see it.
/// Every method forwards to the inherent or trait method of the same name.
pub trait Dim: sealed::Sealed {
    /// The solver trait object (`dyn Solver2` / `dyn Solver3`).
    type Solver: ?Sized + Send + Sync;
    /// State of one subregion.
    type Tile: Clone + Send;
    /// A face of a subregion.
    type Face: Copy + Eq + Hash + Send + Sync + 'static;
    /// Geometry + decomposition + parameters + initial state.
    type Problem;

    /// All faces, grouped by exchange stage in stage order.
    const FACES: &'static [Self::Face];
    /// Flight-recorder process id of the threaded runner's tracks.
    const TRACE_PID: u32;
    /// Flight-recorder process name of the threaded runner's tracks.
    const TRACK: &'static str;
    /// Leading part of a migration-drill dump file name.
    const DUMP_PREFIX: &'static str;

    /// Exchange stage of a face (its axis).
    fn stage(f: Self::Face) -> usize;
    /// The face seen from the other side.
    fn opposite(f: Self::Face) -> Self::Face;

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
    fn pack(s: &Self::Solver, t: &Self::Tile, xch: usize, f: Self::Face, out: &mut Vec<f64>);
    /// Unpacks a strip received across `f` for exchange `xch`.
    fn unpack(s: &Self::Solver, t: &mut Self::Tile, xch: usize, f: Self::Face, data: &[f64]);

    /// Subregions of the decomposition, active or not.
    fn tiles(p: &Self::Problem) -> usize;
    /// Subregions holding at least one non-wall node.
    fn active_tiles(p: &Self::Problem) -> Vec<usize>;
    /// The subregion across face `f` of subregion `id`, if any.
    fn neighbor(p: &Self::Problem, id: usize, f: Self::Face) -> Option<usize>;
    /// Builds the step-0 tile of subregion `id`.
    fn make_tile(p: &Self::Problem, s: &Self::Solver, id: usize) -> Self::Tile;

    /// Writes a tile's dump file; returns its size in bytes.
    fn save(t: &Self::Tile, path: &Path) -> Result<u64, DumpError>;
    /// Reads a tile back from its dump file.
    fn load(path: &Path) -> Result<Self::Tile, DumpError>;
}

impl Dim for D2 {
    type Solver = dyn Solver2;
    type Tile = TileState2;
    type Face = Face2;
    type Problem = Problem2;

    const FACES: &'static [Face2] = &Face2::ALL;
    const TRACE_PID: u32 = 2;
    const TRACK: &'static str = "threaded2";
    const DUMP_PREFIX: &'static str = "tile";

    fn stage(f: Face2) -> usize {
        f.stage()
    }
    fn opposite(f: Face2) -> Face2 {
        f.opposite()
    }

    fn plan(s: &dyn Solver2) -> &'static [StepOp] {
        s.plan()
    }
    fn compute(s: &dyn Solver2, t: &mut TileState2, phase: usize) {
        s.compute(t, phase);
    }
    fn overlapped_phase(s: &dyn Solver2, xch: usize) -> Option<usize> {
        s.overlapped_phase(xch)
    }
    fn compute_interior(s: &dyn Solver2, t: &mut TileState2, phase: usize) {
        s.compute_interior(t, phase);
    }
    fn compute_boundary(s: &dyn Solver2, t: &mut TileState2, phase: usize) {
        s.compute_boundary(t, phase);
    }
    fn pack(s: &dyn Solver2, t: &TileState2, xch: usize, f: Face2, out: &mut Vec<f64>) {
        s.pack(t, xch, f, out);
    }
    fn unpack(s: &dyn Solver2, t: &mut TileState2, xch: usize, f: Face2, data: &[f64]) {
        s.unpack(t, xch, f, data);
    }

    fn tiles(p: &Problem2) -> usize {
        p.decomp.tiles()
    }
    fn active_tiles(p: &Problem2) -> Vec<usize> {
        p.active_tiles()
    }
    fn neighbor(p: &Problem2, id: usize, f: Face2) -> Option<usize> {
        p.decomp.neighbor(id, f)
    }
    fn make_tile(p: &Problem2, s: &dyn Solver2, id: usize) -> TileState2 {
        p.make_tile(s, id)
    }

    fn save(t: &TileState2, path: &Path) -> Result<u64, DumpError> {
        save_tile2(t, path)
    }
    fn load(path: &Path) -> Result<TileState2, DumpError> {
        load_tile2(path)
    }
}

impl Dim for D3 {
    type Solver = dyn Solver3;
    type Tile = TileState3;
    type Face = Face3;
    type Problem = Problem3;

    const FACES: &'static [Face3] = &Face3::ALL;
    const TRACE_PID: u32 = 3;
    const TRACK: &'static str = "threaded3";
    const DUMP_PREFIX: &'static str = "tile3_";

    fn stage(f: Face3) -> usize {
        f.stage()
    }
    fn opposite(f: Face3) -> Face3 {
        f.opposite()
    }

    fn plan(s: &dyn Solver3) -> &'static [StepOp] {
        s.plan()
    }
    fn compute(s: &dyn Solver3, t: &mut TileState3, phase: usize) {
        s.compute(t, phase);
    }
    fn overlapped_phase(s: &dyn Solver3, xch: usize) -> Option<usize> {
        s.overlapped_phase(xch)
    }
    fn compute_interior(s: &dyn Solver3, t: &mut TileState3, phase: usize) {
        s.compute_interior(t, phase);
    }
    fn compute_boundary(s: &dyn Solver3, t: &mut TileState3, phase: usize) {
        s.compute_boundary(t, phase);
    }
    fn pack(s: &dyn Solver3, t: &TileState3, xch: usize, f: Face3, out: &mut Vec<f64>) {
        s.pack(t, xch, f, out);
    }
    fn unpack(s: &dyn Solver3, t: &mut TileState3, xch: usize, f: Face3, data: &[f64]) {
        s.unpack(t, xch, f, data);
    }

    fn tiles(p: &Problem3) -> usize {
        p.decomp.tiles()
    }
    fn active_tiles(p: &Problem3) -> Vec<usize> {
        p.active_tiles()
    }
    fn neighbor(p: &Problem3, id: usize, f: Face3) -> Option<usize> {
        p.decomp.neighbor(id, f)
    }
    fn make_tile(p: &Problem3, s: &dyn Solver3, id: usize) -> TileState3 {
        p.make_tile(s, id)
    }

    fn save(t: &TileState3, path: &Path) -> Result<u64, DumpError> {
        save_tile3(t, path)
    }
    fn load(path: &Path) -> Result<TileState3, DumpError> {
        load_tile3(path)
    }
}
