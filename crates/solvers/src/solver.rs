//! The solver interface executed by runners.
//!
//! A solver turns the paper's per-cycle structure into data: a [`StepOp`]
//! plan, local compute phases, and pack/unpack routines for each exchange id.
//! Runners (serial, threaded, or the discrete-event cluster simulation) never
//! look inside a phase — they only schedule compute ops and move packed
//! strips, which is exactly the modularity the paper attributes to padding:
//! "the computation does not need to know anything about the communication of
//! the boundary" (section 4.2).

use crate::fields::{TileState2, TileState3};
use crate::init::{InitialState2, InitialState3};
use crate::params::{FluidParams, MethodKind};
use crate::plan::StepOp;
use subsonic_grid::{Cell, Face, PaddedGrid2, PaddedGrid3};

/// A 2D explicit method decomposed into compute phases and halo exchanges.
pub trait Solver2: Send + Sync {
    /// Which method this is (for reports).
    fn kind(&self) -> MethodKind;

    /// Ghost-layer width tiles must carry (also the exchange width).
    fn halo(&self) -> usize;

    /// The per-cycle plan.
    fn plan(&self) -> &'static [StepOp];

    /// Runs local compute phase `phase` on a tile.
    fn compute(&self, t: &mut TileState2, phase: usize);

    /// Reference variant of [`Solver2::compute`]: the original per-cell
    /// row-slice loops, serial, no run specialization. The vectorized fast
    /// paths are pinned bitwise to this by the equivalence tests; benches use
    /// it (via [`ScalarReference2`]) as the speedup baseline. Default: the
    /// solver has a single implementation.
    fn compute_scalar(&self, t: &mut TileState2, phase: usize) {
        self.compute(t, phase);
    }

    /// If `Some(p)`, compute phase `p` directly follows exchange `xch` in the
    /// plan and splits into an interior part whose inputs include no ghost
    /// data written by `xch` — so a runner may execute
    /// [`Solver2::compute_interior`] while halo messages are still in flight —
    /// and a boundary remainder ([`Solver2::compute_boundary`]) run after
    /// unpacking. The two parts together must be bitwise identical to
    /// [`Solver2::compute`] of that phase. Declaring a phase is the whole
    /// selection: the threaded runner runs `Exchange(xch); Compute(p)` fused
    /// for a solver that returns `Some(p)` here and as the plain staged
    /// exchange for one that returns `None` — it has no switch of its own.
    /// Default: no overlap.
    fn overlapped_phase(&self, _xch: usize) -> Option<usize> {
        None
    }

    /// Interior part of an overlapped phase (default: nothing — the whole
    /// phase then runs in [`Solver2::compute_boundary`]).
    fn compute_interior(&self, t: &mut TileState2, phase: usize) {
        let _ = (t, phase);
    }

    /// Boundary remainder of an overlapped phase (default: the full phase,
    /// matching the default empty interior).
    fn compute_boundary(&self, t: &mut TileState2, phase: usize) {
        self.compute(t, phase);
    }

    /// Packs the strip for exchange `xch` across the tile's own face `face`.
    fn pack(&self, t: &TileState2, xch: usize, face: Face, out: &mut Vec<f64>);

    /// Unpacks a strip received across `face` for exchange `xch`.
    fn unpack(&self, t: &mut TileState2, xch: usize, face: Face, data: &[f64]);

    /// Number of `f64`s a message for exchange `xch` across `face` carries.
    fn message_doubles(&self, t: &TileState2, xch: usize, face: Face) -> usize;

    /// Builds a tile from a padded geometry mask and an initial state given
    /// in local padded coordinates.
    fn make_tile(
        &self,
        mask: PaddedGrid2<Cell>,
        params: FluidParams,
        offset: (usize, usize),
        init: &InitialState2,
    ) -> TileState2;
}

/// A 3D explicit method decomposed into compute phases and halo exchanges.
pub trait Solver3: Send + Sync {
    /// Which method this is (for reports).
    fn kind(&self) -> MethodKind;

    /// Ghost-layer width tiles must carry (also the exchange width).
    fn halo(&self) -> usize;

    /// The per-cycle plan.
    fn plan(&self) -> &'static [StepOp];

    /// Runs local compute phase `phase` on a tile.
    fn compute(&self, t: &mut TileState3, phase: usize);

    /// Reference variant of [`Solver3::compute`]; see [`Solver2::compute_scalar`].
    fn compute_scalar(&self, t: &mut TileState3, phase: usize) {
        self.compute(t, phase);
    }

    /// Overlap split point for exchange `xch`; see [`Solver2::overlapped_phase`].
    fn overlapped_phase(&self, _xch: usize) -> Option<usize> {
        None
    }

    /// Interior part of an overlapped phase; see [`Solver2::compute_interior`].
    fn compute_interior(&self, t: &mut TileState3, phase: usize) {
        let _ = (t, phase);
    }

    /// Boundary remainder of an overlapped phase; see
    /// [`Solver2::compute_boundary`].
    fn compute_boundary(&self, t: &mut TileState3, phase: usize) {
        self.compute(t, phase);
    }

    /// Packs the strip for exchange `xch` across the tile's own face `face`.
    fn pack(&self, t: &TileState3, xch: usize, face: Face, out: &mut Vec<f64>);

    /// Unpacks a strip received across `face` for exchange `xch`.
    fn unpack(&self, t: &mut TileState3, xch: usize, face: Face, data: &[f64]);

    /// Number of `f64`s a message for exchange `xch` across `face` carries.
    fn message_doubles(&self, t: &TileState3, xch: usize, face: Face) -> usize;

    /// Builds a tile from a padded geometry mask and an initial state.
    fn make_tile(
        &self,
        mask: PaddedGrid3<Cell>,
        params: FluidParams,
        offset: (usize, usize, usize),
        init: &InitialState3,
    ) -> TileState3;
}

/// Adapter that routes [`Solver2::compute`] through the wrapped solver's
/// scalar-reference kernels, so the original row-slice loops can be driven
/// through any runner unchanged (equivalence tests, `node_rate_*_scalar`
/// ablation benches). Overlap is intentionally not forwarded: the scalar
/// reference is the plain non-overlapped schedule, and the one solver that
/// keeps the threaded runner's unfused branch under test.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarReference2<S>(pub S);

impl<S: Solver2> Solver2 for ScalarReference2<S> {
    fn kind(&self) -> MethodKind {
        self.0.kind()
    }

    fn halo(&self) -> usize {
        self.0.halo()
    }

    fn plan(&self) -> &'static [StepOp] {
        self.0.plan()
    }

    fn compute(&self, t: &mut TileState2, phase: usize) {
        self.0.compute_scalar(t, phase);
    }

    fn pack(&self, t: &TileState2, xch: usize, face: Face, out: &mut Vec<f64>) {
        self.0.pack(t, xch, face, out);
    }

    fn unpack(&self, t: &mut TileState2, xch: usize, face: Face, data: &[f64]) {
        self.0.unpack(t, xch, face, data);
    }

    fn message_doubles(&self, t: &TileState2, xch: usize, face: Face) -> usize {
        self.0.message_doubles(t, xch, face)
    }

    fn make_tile(
        &self,
        mask: PaddedGrid2<Cell>,
        params: FluidParams,
        offset: (usize, usize),
        init: &InitialState2,
    ) -> TileState2 {
        self.0.make_tile(mask, params, offset, init)
    }
}

/// 3D counterpart of [`ScalarReference2`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarReference3<S>(pub S);

impl<S: Solver3> Solver3 for ScalarReference3<S> {
    fn kind(&self) -> MethodKind {
        self.0.kind()
    }

    fn halo(&self) -> usize {
        self.0.halo()
    }

    fn plan(&self) -> &'static [StepOp] {
        self.0.plan()
    }

    fn compute(&self, t: &mut TileState3, phase: usize) {
        self.0.compute_scalar(t, phase);
    }

    fn pack(&self, t: &TileState3, xch: usize, face: Face, out: &mut Vec<f64>) {
        self.0.pack(t, xch, face, out);
    }

    fn unpack(&self, t: &mut TileState3, xch: usize, face: Face, data: &[f64]) {
        self.0.unpack(t, xch, face, data);
    }

    fn message_doubles(&self, t: &TileState3, xch: usize, face: Face) -> usize {
        self.0.message_doubles(t, xch, face)
    }

    fn make_tile(
        &self,
        mask: PaddedGrid3<Cell>,
        params: FluidParams,
        offset: (usize, usize, usize),
        init: &InitialState3,
    ) -> TileState3 {
        self.0.make_tile(mask, params, offset, init)
    }
}
