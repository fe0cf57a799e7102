//! Field storage for one subregion ("tile") of the decomposed problem.

use crate::kernels::RunTable;
use crate::params::FluidParams;
use crate::qlattice::{E2, E3, Q2, Q3};
use subsonic_grid::{Cell, PaddedGrid2, PaddedGrid3};

/// Cached bounce-back links for the 2D LB streaming step.
///
/// The geometry mask is immutable after tile creation, so the lattice links
/// whose upstream node is a wall (half-way bounce-back) form a fixed set.
/// Streaming copies only the non-wall runs of each row, so wall nodes keep
/// their populations without any fix-up; this list is the one O(boundary)
/// fix-up pass left. The cache is never serialized; it is rebuilt lazily
/// after checkpoint reload or migration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShiftLinks2 {
    /// `(q, i, j)`: a non-wall node whose upstream node is a wall, so
    /// population `q` bounces back from the opposite one.
    pub bounce: Vec<(u8, i32, i32)>,
    /// Per-step gather buffer for the `bounce` values (refilled by every
    /// streaming step; kept here so a steady-state step allocates nothing).
    pub bounce_vals: Vec<f64>,
}

impl ShiftLinks2 {
    /// Scans the streamed region `[-2, n+2)` of `mask` for bounce-back links.
    pub fn build(mask: &PaddedGrid2<Cell>) -> Self {
        let nx = mask.nx() as isize;
        let ny = mask.ny() as isize;
        let mut links = Self::default();
        for (q, &(ex, ey)) in E2.iter().enumerate().take(Q2) {
            for j in -2..(ny + 2) {
                for i in -2..(nx + 2) {
                    if !mask[(i, j)].is_wall() && mask[(i - ex, j - ey)].is_wall() {
                        links.bounce.push((q as u8, i as i32, j as i32));
                    }
                }
            }
        }
        links
    }
}

/// Cached bounce-back links for the 3D LB streaming step (see
/// [`ShiftLinks2`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShiftLinks3 {
    /// `(q, i, j, k)`: a non-wall node whose upstream node is a wall.
    pub bounce: Vec<(u8, i32, i32, i32)>,
    /// Per-step gather buffer for the `bounce` values (see
    /// [`ShiftLinks2::bounce_vals`]).
    pub bounce_vals: Vec<f64>,
}

impl ShiftLinks3 {
    /// Scans the streamed region `[-2, n+2)` of `mask` for bounce-back links.
    pub fn build(mask: &PaddedGrid3<Cell>) -> Self {
        let nx = mask.nx() as isize;
        let ny = mask.ny() as isize;
        let nz = mask.nz() as isize;
        let mut links = Self::default();
        for (q, &(ex, ey, ez)) in E3.iter().enumerate().take(Q3) {
            for k in -2..(nz + 2) {
                for j in -2..(ny + 2) {
                    for i in -2..(nx + 2) {
                        if !mask[(i, j, k)].is_wall() && mask[(i - ex, j - ey, k - ez)].is_wall() {
                            links.bounce.push((q as u8, i as i32, j as i32, k as i32));
                        }
                    }
                }
            }
        }
        links
    }
}

/// Macroscopic fields of a 2D tile: density and velocity components.
#[derive(Debug, Clone, PartialEq)]
pub struct Macro2 {
    /// Fluid density ρ.
    pub rho: PaddedGrid2<f64>,
    /// x-velocity Vx.
    pub vx: PaddedGrid2<f64>,
    /// y-velocity Vy.
    pub vy: PaddedGrid2<f64>,
}

impl Macro2 {
    /// Uniform state at rest with density `rho0`.
    pub fn uniform(nx: usize, ny: usize, halo: usize, rho0: f64) -> Self {
        Self {
            rho: PaddedGrid2::new(nx, ny, halo, rho0),
            vx: PaddedGrid2::new(nx, ny, halo, 0.0),
            vy: PaddedGrid2::new(nx, ny, halo, 0.0),
        }
    }
}

/// Macroscopic fields of a 3D tile.
#[derive(Debug, Clone, PartialEq)]
pub struct Macro3 {
    /// Fluid density ρ.
    pub rho: PaddedGrid3<f64>,
    /// x-velocity Vx.
    pub vx: PaddedGrid3<f64>,
    /// y-velocity Vy.
    pub vy: PaddedGrid3<f64>,
    /// z-velocity Vz.
    pub vz: PaddedGrid3<f64>,
}

impl Macro3 {
    /// Uniform state at rest with density `rho0`.
    pub fn uniform(nx: usize, ny: usize, nz: usize, halo: usize, rho0: f64) -> Self {
        Self {
            rho: PaddedGrid3::new(nx, ny, nz, halo, rho0),
            vx: PaddedGrid3::new(nx, ny, nz, halo, 0.0),
            vy: PaddedGrid3::new(nx, ny, nz, halo, 0.0),
            vz: PaddedGrid3::new(nx, ny, nz, halo, 0.0),
        }
    }
}

/// The full state of one 2D subregion: fields, geometry, scratch buffers.
///
/// A tile knows its own interior size, its global offset inside the problem
/// (for initial conditions and gathering), and carries everything a parallel
/// subprocess needs — this is exactly the content of the paper's "dump files"
/// ("these files contain all the information that is needed by a workstation
/// to participate in a distributed computation", section 4.1).
#[derive(Debug, Clone)]
pub struct TileState2 {
    /// Current macroscopic fields.
    pub mac: Macro2,
    /// Next-step macroscopic fields: the finite-difference double buffer.
    /// Zero-extent on lattice Boltzmann tiles, whose half-step keeps its raw
    /// and filtered rows in [`TileState2::sweep_rows`] instead (only the LB
    /// scalar oracle grows it, to hold its raw copy).
    pub mac_new: Macro2,
    /// Lattice Boltzmann populations, one padded grid per velocity
    /// (empty for finite differences). Streaming shifts these in place
    /// (ordered copies of each row's non-wall runs plus the [`ShiftLinks2`]
    /// bounce-backs), so no second population buffer is carried — halving
    /// LB tile state and checkpoints.
    pub f: Vec<PaddedGrid2<f64>>,
    /// Padded geometry mask (ghosts carry the *global* geometry).
    pub mask: PaddedGrid2<Cell>,
    /// One scratch plane between the x- and y-pass of the finite-difference
    /// filter; empty on lattice Boltzmann tiles (again bar the scalar oracle,
    /// whose streaming and filter share it).
    pub scratch: Vec<PaddedGrid2<f64>>,
    /// Solver parameters.
    pub params: FluidParams,
    /// Global offset of this tile's interior node (0,0).
    pub offset: (usize, usize),
    /// Completed integration steps.
    pub step: u64,
    /// Lazily built streaming boundary-link cache (LB only; derived from
    /// `mask`, never serialized).
    pub shift_links: Option<ShiftLinks2>,
    /// Lazily built run table of `mask`, the source of every fast-path
    /// kernel's runs (derived from `mask`, never serialized; kernels borrow
    /// it through [`TileState2::with_run_table`]).
    pub runs: Option<RunTable>,
    /// Lazily built row workspace of the LB macroscopic → filter →
    /// re-synthesis sweep, `18·nx` doubles (LB only; pure scratch, never
    /// serialized — the layout is private to `lbm2`).
    pub sweep_rows: Vec<f64>,
}

impl TileState2 {
    /// Interior width.
    pub fn nx(&self) -> usize {
        self.mac.rho.nx()
    }

    /// Interior height.
    pub fn ny(&self) -> usize {
        self.mac.rho.ny()
    }

    /// Ghost-layer width.
    pub fn halo(&self) -> usize {
        self.mac.rho.halo()
    }

    /// Interior node count (the `N` of the efficiency model).
    pub fn nodes(&self) -> usize {
        self.nx() * self.ny()
    }

    /// Runs `f` on the tile and the run table of its mask, built on first
    /// use. The table is lent to `f`, so `f` can write any field while it
    /// reads the runs; inside `f` the tile's own cache is empty.
    pub fn with_run_table<R>(&mut self, f: impl FnOnce(&mut Self, &RunTable) -> R) -> R {
        let runs = self
            .runs
            .take()
            .unwrap_or_else(|| RunTable::build2(&self.mask));
        let out = f(self, &runs);
        self.runs = Some(runs);
        out
    }
}

/// The full state of one 3D subregion.
#[derive(Debug, Clone)]
pub struct TileState3 {
    /// Current macroscopic fields.
    pub mac: Macro3,
    /// Next-step macroscopic fields (FD double buffer / filter output).
    pub mac_new: Macro3,
    /// Lattice Boltzmann populations (empty for finite differences).
    /// Shifted in place during streaming; see [`TileState2::f`].
    pub f: Vec<PaddedGrid3<f64>>,
    /// Padded geometry mask.
    pub mask: PaddedGrid3<Cell>,
    /// Scratch fields for the per-axis filter passes (the LB scalar
    /// oracle's streaming borrows the first between them).
    pub scratch: Vec<PaddedGrid3<f64>>,
    /// Solver parameters.
    pub params: FluidParams,
    /// Global offset of this tile's interior node (0,0,0).
    pub offset: (usize, usize, usize),
    /// Completed integration steps.
    pub step: u64,
    /// Lazily built streaming boundary-link cache (LB only; derived from
    /// `mask`, never serialized).
    pub shift_links: Option<ShiftLinks3>,
    /// Lazily built run table of `mask`; see [`TileState2::runs`].
    pub runs: Option<RunTable>,
}

impl TileState3 {
    /// Interior extent along x.
    pub fn nx(&self) -> usize {
        self.mac.rho.nx()
    }

    /// Interior extent along y.
    pub fn ny(&self) -> usize {
        self.mac.rho.ny()
    }

    /// Interior extent along z.
    pub fn nz(&self) -> usize {
        self.mac.rho.nz()
    }

    /// Ghost-layer width.
    pub fn halo(&self) -> usize {
        self.mac.rho.halo()
    }

    /// Interior node count.
    pub fn nodes(&self) -> usize {
        self.nx() * self.ny() * self.nz()
    }

    /// Runs `f` on the tile and the run table of its mask, built on first
    /// use; see [`TileState2::with_run_table`].
    pub fn with_run_table<R>(&mut self, f: impl FnOnce(&mut Self, &RunTable) -> R) -> R {
        let runs = self
            .runs
            .take()
            .unwrap_or_else(|| RunTable::build3(&self.mask));
        let out = f(self, &runs);
        self.runs = Some(runs);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_macro_is_at_rest() {
        let m = Macro2::uniform(5, 4, 2, 1.25);
        assert_eq!(m.rho[(0, 0)], 1.25);
        assert_eq!(m.vx[(2, 3)], 0.0);
        assert_eq!(m.rho[(-2, -2)], 1.25);
    }

    #[test]
    fn uniform_macro3() {
        let m = Macro3::uniform(3, 4, 5, 1, 0.5);
        assert_eq!(m.rho[(2, 3, 4)], 0.5);
        assert_eq!(m.vz[(0, 0, 0)], 0.0);
    }
}
