//! Explicit finite differences for the 2D Navier–Stokes equations (1)–(3).
//!
//! Spatial derivatives are centred second-order differences on the uniform
//! orthogonal grid; time integration is forward Euler. As in the paper, "for
//! the purpose of improving numerical stability, the density equation 1 is
//! updated using the values of velocity at time t + Δt" — velocities first,
//! then density from the new velocities, then the fourth-order filter.
//!
//! The cycle (section 6) is:
//!
//! ```text
//! Calculate Vx, Vy (inner)        Compute(0)
//! Communicate: send/recv Vx, Vy   Exchange(0)
//! Calculate rho (inner)           Compute(1)
//! Communicate: send/recv rho      Exchange(1)
//! Filter rho, Vx, Vy (inner)      Compute(2)
//! ```
//!
//! — two messages per neighbour per step carrying 3 field values per boundary
//! node in 2D (4 in 3D), the counts the paper uses to explain why FD
//! efficiency falls faster than LB at small subregions (Figure 7 vs 5).
//!
//! ## Ghost-ring bookkeeping
//!
//! Tiles carry a 4-deep ghost ring ([`FD2_HALO`]). Exchanges refresh the full
//! ring; the filter (and the boundary conditions) are applied not only to the
//! interior but to a 2-deep ring, so that at the next cycle every stencil that
//! reads up to ±2 nodes into the ghost band sees *post-filter* values — the
//! same values the neighbouring tile computed for its own interior. This is
//! what makes a decomposed run bitwise identical to a serial run.
//!
//! ## Kernel structure (fast vs scalar path)
//!
//! As in [`crate::lbm2`]: each row's fluid runs come from the tile's run
//! table ([`crate::kernels::RunTable`]) and go to branch-free kernels over
//! trimmed sub-slices (autovectorized), with per-cell fallback elsewhere;
//! identical expressions in identical association order, so fast and scalar
//! paths agree bitwise. The boundary fix-ups (wall density, boundary
//! conditions) visit only the cells outside those runs, and the filter takes
//! the table too, so no fast-path sweep scans the mask. Both update
//! sweeps take explicit windows, which gives the overlap split for free: the
//! density update depends on the just-exchanged velocities only in a 1-ring
//! near the tile edge, so its inner box ([`Solver2::compute_interior`]) can
//! run while the velocity halos are still in flight.

use crate::fields::{Macro2, TileState2};
use crate::filter::{filter_field2, filter_field2_scalar};
use crate::init::InitialState2;
use crate::kernels::{self, RunTable, Seg, WindowSegs};
use crate::params::{FluidParams, MethodKind};
use crate::plan::StepOp;
use crate::solver::Solver2;
use subsonic_grid::halo::{message_len, pack, unpack};
use subsonic_grid::{Cell, Face, PaddedGrid2};

/// Ghost-layer width required by the FD scheme (exchange width; the filter
/// ring of 2 plus the 2-node reach of the filter stencil).
pub const FD2_HALO: usize = 4;

static PLAN: [StepOp; 5] = [
    StepOp::Compute(0),
    StepOp::Exchange(0),
    StepOp::Compute(1),
    StepOp::Exchange(1),
    StepOp::Compute(2),
];

/// Hoisted constants for the momentum update.
#[derive(Clone, Copy)]
struct VelP {
    inv2dx: f64,
    invdx2: f64,
    cs2: f64,
    gx: f64,
    gy: f64,
    dt: f64,
    nu: f64,
}

/// Input rows for one momentum-update row: centre rows widened by one (so
/// `row[x+1]` is the centre of window cell `x`) plus the rows above/below.
struct VelRows<'a> {
    vxc: &'a [f64],
    vyc: &'a [f64],
    rhoc: &'a [f64],
    vxn: &'a [f64],
    vxs: &'a [f64],
    vyn: &'a [f64],
    vys: &'a [f64],
    rhon: &'a [f64],
    rhos: &'a [f64],
}

#[inline(always)]
fn vel_cell(
    x: usize,
    cell: Cell,
    r: &VelRows<'_>,
    out_vx: &mut [f64],
    out_vy: &mut [f64],
    p: &VelP,
) {
    if !cell.is_fluid() {
        out_vx[x] = r.vxc[x + 1];
        out_vy[x] = r.vyc[x + 1];
        return;
    }
    let vx = r.vxc[x + 1];
    let vy = r.vyc[x + 1];
    let rho = r.rhoc[x + 1];

    let vx_e = r.vxc[x + 2];
    let vx_w = r.vxc[x];
    let vx_n = r.vxn[x];
    let vx_s = r.vxs[x];
    let vy_e = r.vyc[x + 2];
    let vy_w = r.vyc[x];
    let vy_n = r.vyn[x];
    let vy_s = r.vys[x];
    let rho_e = r.rhoc[x + 2];
    let rho_w = r.rhoc[x];
    let rho_n = r.rhon[x];
    let rho_s = r.rhos[x];

    let dvx_dx = (vx_e - vx_w) * p.inv2dx;
    let dvx_dy = (vx_n - vx_s) * p.inv2dx;
    let dvy_dx = (vy_e - vy_w) * p.inv2dx;
    let dvy_dy = (vy_n - vy_s) * p.inv2dx;
    let drho_dx = (rho_e - rho_w) * p.inv2dx;
    let drho_dy = (rho_n - rho_s) * p.inv2dx;
    let lap_vx = (vx_e + vx_w + vx_n + vx_s - 4.0 * vx) * p.invdx2;
    let lap_vy = (vy_e + vy_w + vy_n + vy_s - 4.0 * vy) * p.invdx2;

    out_vx[x] =
        vx + p.dt * (-vx * dvx_dx - vy * dvx_dy - p.cs2 / rho * drho_dx + p.nu * lap_vx + p.gx);
    out_vy[x] =
        vy + p.dt * (-vx * dvy_dx - vy * dvy_dy - p.cs2 / rho * drho_dy + p.nu * lap_vy + p.gy);
}

/// Branch-free momentum update for a fluid run `x ∈ [a, b)` — the fluid arm
/// of [`vel_cell`] on trimmed sub-slices, identical expressions.
#[inline(always)]
fn vel_run(r: &VelRows<'_>, out_vx: &mut [f64], out_vy: &mut [f64], a: usize, b: usize, p: &VelP) {
    let vx_c = &r.vxc[a + 1..b + 1];
    let vx_e = &r.vxc[a + 2..b + 2];
    let vx_w = &r.vxc[a..b];
    let vx_n = &r.vxn[a..b];
    let vx_s = &r.vxs[a..b];
    let vy_c = &r.vyc[a + 1..b + 1];
    let vy_e = &r.vyc[a + 2..b + 2];
    let vy_w = &r.vyc[a..b];
    let vy_n = &r.vyn[a..b];
    let vy_s = &r.vys[a..b];
    let rho_c = &r.rhoc[a + 1..b + 1];
    let rho_e = &r.rhoc[a + 2..b + 2];
    let rho_w = &r.rhoc[a..b];
    let rho_n = &r.rhon[a..b];
    let rho_s = &r.rhos[a..b];
    let ox = &mut out_vx[a..b];
    let oy = &mut out_vy[a..b];
    for x in 0..b - a {
        let vx = vx_c[x];
        let vy = vy_c[x];
        let rho = rho_c[x];
        let dvx_dx = (vx_e[x] - vx_w[x]) * p.inv2dx;
        let dvx_dy = (vx_n[x] - vx_s[x]) * p.inv2dx;
        let dvy_dx = (vy_e[x] - vy_w[x]) * p.inv2dx;
        let dvy_dy = (vy_n[x] - vy_s[x]) * p.inv2dx;
        let drho_dx = (rho_e[x] - rho_w[x]) * p.inv2dx;
        let drho_dy = (rho_n[x] - rho_s[x]) * p.inv2dx;
        let lap_vx = (vx_e[x] + vx_w[x] + vx_n[x] + vx_s[x] - 4.0 * vx) * p.invdx2;
        let lap_vy = (vy_e[x] + vy_w[x] + vy_n[x] + vy_s[x] - 4.0 * vy) * p.invdx2;
        ox[x] =
            vx + p.dt * (-vx * dvx_dx - vy * dvx_dy - p.cs2 / rho * drho_dx + p.nu * lap_vx + p.gx);
        oy[x] =
            vy + p.dt * (-vx * dvy_dx - vy * dvy_dy - p.cs2 / rho * drho_dy + p.nu * lap_vy + p.gy);
    }
}

/// One row of the momentum update: given the row's fluid segments (the fast
/// path), runs through [`vel_run`] and other cells through [`vel_cell`];
/// without them, all per-cell.
#[inline(always)]
fn vel_row(
    mrow: &[Cell],
    segs: Option<WindowSegs<'_>>,
    r: &VelRows<'_>,
    out_vx: &mut [f64],
    out_vy: &mut [f64],
    p: &VelP,
) {
    let Some(segs) = segs else {
        for (x, &cell) in mrow.iter().enumerate() {
            vel_cell(x, cell, r, out_vx, out_vy, p);
        }
        return;
    };
    for seg in segs {
        match seg {
            Seg::Run(a, b) => vel_run(r, out_vx, out_vy, a, b, p),
            Seg::One(x) => vel_cell(x, mrow[x], r, out_vx, out_vy, p),
        }
    }
}

/// Input rows for one continuity-update row.
struct DenRows<'a> {
    rhoc: &'a [f64],
    rhon: &'a [f64],
    rhos: &'a [f64],
    nvx: &'a [f64],
    nvyn: &'a [f64],
    nvys: &'a [f64],
}

#[inline(always)]
fn den_cell(x: usize, cell: Cell, r: &DenRows<'_>, out: &mut [f64], dt: f64, inv2dx: f64) {
    if !cell.is_fluid() {
        out[x] = r.rhoc[x + 1];
        return;
    }
    let flux_x = (r.rhoc[x + 2] * r.nvx[x + 2] - r.rhoc[x] * r.nvx[x]) * inv2dx;
    let flux_y = (r.rhon[x] * r.nvyn[x] - r.rhos[x] * r.nvys[x]) * inv2dx;
    out[x] = r.rhoc[x + 1] - dt * (flux_x + flux_y);
}

#[inline(always)]
fn den_run(r: &DenRows<'_>, out: &mut [f64], a: usize, b: usize, dt: f64, inv2dx: f64) {
    let rho_c = &r.rhoc[a + 1..b + 1];
    let rho_e = &r.rhoc[a + 2..b + 2];
    let rho_w = &r.rhoc[a..b];
    let rho_n = &r.rhon[a..b];
    let rho_s = &r.rhos[a..b];
    let nvx_e = &r.nvx[a + 2..b + 2];
    let nvx_w = &r.nvx[a..b];
    let nvy_n = &r.nvyn[a..b];
    let nvy_s = &r.nvys[a..b];
    let o = &mut out[a..b];
    for x in 0..b - a {
        let flux_x = (rho_e[x] * nvx_e[x] - rho_w[x] * nvx_w[x]) * inv2dx;
        let flux_y = (rho_n[x] * nvy_n[x] - rho_s[x] * nvy_s[x]) * inv2dx;
        o[x] = rho_c[x] - dt * (flux_x + flux_y);
    }
}

/// One row of the continuity update; segments as in [`vel_row`].
#[inline(always)]
fn den_row(
    mrow: &[Cell],
    segs: Option<WindowSegs<'_>>,
    r: &DenRows<'_>,
    out: &mut [f64],
    dt: f64,
    inv2dx: f64,
) {
    let Some(segs) = segs else {
        for (x, &cell) in mrow.iter().enumerate() {
            den_cell(x, cell, r, out, dt, inv2dx);
        }
        return;
    };
    for seg in segs {
        match seg {
            Seg::Run(a, b) => den_run(r, out, a, b, dt, inv2dx),
            Seg::One(x) => den_cell(x, mrow[x], r, out, dt, inv2dx),
        }
    }
}

/// The 2D explicit finite-difference method.
#[derive(Debug, Clone, Copy, Default)]
pub struct FiniteDifference2;

impl FiniteDifference2 {
    /// Zero-normal-gradient density on wall nodes: each wall node adjacent to
    /// fluid takes the mean density of its fluid 4-neighbours, so the
    /// pressure gradient across the wall face vanishes (no-penetration). The
    /// fast path visits only the cells outside the non-wall runs.
    fn wall_rho(&self, t: &mut TileState2, runs: Option<&RunTable>) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        for j in -1..(ny + 1) {
            let row = runs.map(|r| r.active(j, 0));
            for i in kernels::cells_outside(row, -1, (nx + 2) as usize) {
                if !t.mask[(i, j)].is_wall() {
                    continue;
                }
                let mut sum = 0.0;
                let mut n = 0u32;
                for (di, dj) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                    if t.mask[(i + di, j + dj)].is_fluid() {
                        sum += t.mac.rho[(i + di, j + dj)];
                        n += 1;
                    }
                }
                if n > 0 {
                    t.mac.rho[(i, j)] = sum / n as f64;
                }
            }
        }
    }

    /// Momentum update over the window `rows × cols` (interior coordinates):
    /// forward Euler on eqs. (2)–(3).
    fn calc_velocity(
        &self,
        t: &mut TileState2,
        rows: (isize, isize),
        cols: (isize, isize),
        runs: Option<&RunTable>,
    ) {
        let p = t.params;
        let vp = VelP {
            inv2dx: 1.0 / (2.0 * p.dx),
            invdx2: 1.0 / (p.dx * p.dx),
            cs2: p.cs * p.cs,
            gx: p.body_force[0],
            gy: p.body_force[1],
            dt: p.dt,
            nu: p.nu,
        };
        let (j0, j1) = rows;
        let (i0, i1) = cols;
        let span = (i1 - i0) as usize;
        if span == 0 {
            return;
        }
        let TileState2 {
            mac, mac_new, mask, ..
        } = t;
        let rows_at = |j: isize| VelRows {
            vxc: mac.vx.row_segment(j, i0 - 1, span + 2),
            vyc: mac.vy.row_segment(j, i0 - 1, span + 2),
            rhoc: mac.rho.row_segment(j, i0 - 1, span + 2),
            vxn: mac.vx.row_segment(j + 1, i0, span),
            vxs: mac.vx.row_segment(j - 1, i0, span),
            vyn: mac.vy.row_segment(j + 1, i0, span),
            vys: mac.vy.row_segment(j - 1, i0, span),
            rhon: mac.rho.row_segment(j + 1, i0, span),
            rhos: mac.rho.row_segment(j - 1, i0, span),
        };
        for j in j0..j1 {
            let mrow = mask.row_segment(j, i0, span);
            let segs = runs.map(|rt| rt.fluid(j, 0).segs(i0, span));
            let r = rows_at(j);
            let out_vx = mac_new.vx.row_segment_mut(j, i0, span);
            let out_vy = mac_new.vy.row_segment_mut(j, i0, span);
            vel_row(mrow, segs, &r, out_vx, out_vy, &vp);
        }
    }

    /// Continuity update over the window `rows × cols`, conservative form
    /// with the *new* velocities: `ρ_new = ρ − Δt ∇·(ρ V_new)`.
    fn calc_density(
        &self,
        t: &mut TileState2,
        rows: (isize, isize),
        cols: (isize, isize),
        runs: Option<&RunTable>,
    ) {
        let p = t.params;
        let inv2dx = 1.0 / (2.0 * p.dx);
        let (j0, j1) = rows;
        let (i0, i1) = cols;
        let span = (i1 - i0) as usize;
        if span == 0 {
            return;
        }
        let TileState2 {
            mac, mac_new, mask, ..
        } = t;
        let Macro2 {
            rho: new_rho,
            vx: new_vx,
            vy: new_vy,
        } = mac_new;
        let rows_at = |j: isize| DenRows {
            rhoc: mac.rho.row_segment(j, i0 - 1, span + 2),
            rhon: mac.rho.row_segment(j + 1, i0, span),
            rhos: mac.rho.row_segment(j - 1, i0, span),
            nvx: new_vx.row_segment(j, i0 - 1, span + 2),
            nvyn: new_vy.row_segment(j + 1, i0, span),
            nvys: new_vy.row_segment(j - 1, i0, span),
        };
        for j in j0..j1 {
            let mrow = mask.row_segment(j, i0, span);
            let segs = runs.map(|rt| rt.fluid(j, 0).segs(i0, span));
            let r = rows_at(j);
            let out = new_rho.row_segment_mut(j, i0, span);
            den_row(mrow, segs, &r, out, p.dt, inv2dx);
        }
    }

    /// Boundary conditions on the new fields, over the 2-deep ghost ring
    /// (fluid cells keep theirs, so the fast path visits only the cells
    /// outside the fluid runs).
    fn apply_bcs(&self, t: &mut TileState2, runs: Option<&RunTable>) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let p = t.params;
        for j in -2..(ny + 2) {
            let row = runs.map(|r| r.fluid(j, 0));
            for i in kernels::cells_outside(row, -2, (nx + 4) as usize) {
                match t.mask[(i, j)] {
                    Cell::Fluid => {}
                    Cell::Wall => {
                        t.mac_new.vx[(i, j)] = 0.0;
                        t.mac_new.vy[(i, j)] = 0.0;
                    }
                    Cell::Inlet => {
                        t.mac_new.vx[(i, j)] = p.inlet_velocity[0];
                        t.mac_new.vy[(i, j)] = p.inlet_velocity[1];
                        t.mac_new.rho[(i, j)] = p.rho0;
                    }
                    Cell::Outlet => {
                        // Pressure release: reference density, zero-gradient
                        // velocity extrapolated from fluid neighbours.
                        t.mac_new.rho[(i, j)] = p.rho0;
                        let mut sx = 0.0;
                        let mut sy = 0.0;
                        let mut n = 0u32;
                        for (di, dj) in [(1, 0), (-1, 0), (0, 1), (0, -1)] {
                            if t.mask[(i + di, j + dj)].is_fluid() {
                                sx += t.mac_new.vx[(i + di, j + dj)];
                                sy += t.mac_new.vy[(i + di, j + dj)];
                                n += 1;
                            }
                        }
                        if n > 0 {
                            t.mac_new.vx[(i, j)] = sx / n as f64;
                            t.mac_new.vy[(i, j)] = sy / n as f64;
                        }
                    }
                }
            }
        }
    }

    fn run_phase(&self, t: &mut TileState2, phase: usize, runs: Option<&RunTable>) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        match phase {
            0 => {
                self.wall_rho(t, runs);
                self.calc_velocity(t, (0, ny), (0, nx), runs);
            }
            1 => self.calc_density(t, (0, ny), (0, nx), runs),
            2 => {
                self.apply_bcs(t, runs);
                let eps = t.params.filter_eps;
                if eps != 0.0 {
                    let TileState2 {
                        mac_new,
                        scratch,
                        mask,
                        ..
                    } = t;
                    let sx = &mut scratch[0];
                    if let Some(runs) = runs {
                        filter_field2(&mut mac_new.rho, sx, runs, eps, 2);
                        filter_field2(&mut mac_new.vx, sx, runs, eps, 2);
                        filter_field2(&mut mac_new.vy, sx, runs, eps, 2);
                    } else {
                        filter_field2_scalar(&mut mac_new.rho, sx, mask, eps, 2);
                        filter_field2_scalar(&mut mac_new.vx, sx, mask, eps, 2);
                        filter_field2_scalar(&mut mac_new.vy, sx, mask, eps, 2);
                    }
                }
                std::mem::swap(&mut t.mac, &mut t.mac_new);
                t.step += 1;
            }
            _ => unreachable!("FD2 has 3 compute phases"),
        }
    }

    /// The inner box of the density window: one ring of cells short of the
    /// interior on each side (clamped so degenerate tiles give empty boxes).
    fn inner_box(n: isize) -> (isize, isize) {
        let lo = 1.min(n);
        (lo, (n - 1).max(lo))
    }
}

impl Solver2 for FiniteDifference2 {
    fn kind(&self) -> MethodKind {
        MethodKind::FiniteDifference
    }

    fn halo(&self) -> usize {
        FD2_HALO
    }

    fn plan(&self) -> &'static [StepOp] {
        &PLAN
    }

    fn compute(&self, t: &mut TileState2, phase: usize) {
        t.with_run_table(|t, runs| self.run_phase(t, phase, Some(runs)));
    }

    fn compute_scalar(&self, t: &mut TileState2, phase: usize) {
        self.run_phase(t, phase, None);
    }

    fn overlapped_phase(&self, xch: usize) -> Option<usize> {
        // The density update after the velocity exchange reads the exchanged
        // ghost velocities only in a 1-ring near the tile edge.
        (xch == 0).then_some(1)
    }

    fn compute_interior(&self, t: &mut TileState2, phase: usize) {
        assert_eq!(phase, 1, "only the density update overlaps an exchange");
        let (r0, r1) = Self::inner_box(t.ny() as isize);
        let (c0, c1) = Self::inner_box(t.nx() as isize);
        t.with_run_table(|t, runs| self.calc_density(t, (r0, r1), (c0, c1), Some(runs)));
    }

    fn compute_boundary(&self, t: &mut TileState2, phase: usize) {
        assert_eq!(phase, 1, "only the density update overlaps an exchange");
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let (r0, r1) = Self::inner_box(ny);
        let (c0, c1) = Self::inner_box(nx);
        t.with_run_table(|t, runs| {
            let runs = Some(runs);
            self.calc_density(t, (0, r0), (0, nx), runs);
            self.calc_density(t, (r1, ny), (0, nx), runs);
            self.calc_density(t, (r0, r1), (0, c0), runs);
            self.calc_density(t, (r0, r1), (c1, nx), runs);
        });
    }

    fn pack(&self, t: &TileState2, xch: usize, face: Face, out: &mut Vec<f64>) {
        let w = FD2_HALO;
        match xch {
            0 => {
                pack(&t.mac_new.vx, face, w, out);
                pack(&t.mac_new.vy, face, w, out);
            }
            1 => pack(&t.mac_new.rho, face, w, out),
            _ => unreachable!("FD2 has 2 exchanges"),
        }
    }

    fn unpack(&self, t: &mut TileState2, xch: usize, face: Face, data: &[f64]) {
        let w = FD2_HALO;
        match xch {
            0 => {
                let used = unpack(&mut t.mac_new.vx, face, w, data);
                unpack(&mut t.mac_new.vy, face, w, &data[used..]);
            }
            1 => {
                unpack(&mut t.mac_new.rho, face, w, data);
            }
            _ => unreachable!("FD2 has 2 exchanges"),
        }
    }

    fn message_doubles(&self, t: &TileState2, xch: usize, face: Face) -> usize {
        let per_field = message_len(&[t.nx(), t.ny()], face, FD2_HALO);
        match xch {
            0 => 2 * per_field,
            1 => per_field,
            _ => unreachable!(),
        }
    }

    fn make_tile(
        &self,
        mask: PaddedGrid2<Cell>,
        params: FluidParams,
        offset: (usize, usize),
        init: &InitialState2,
    ) -> TileState2 {
        assert!(mask.halo() >= FD2_HALO, "tile mask halo too small for FD2");
        let (nx, ny, h) = (mask.nx(), mask.ny(), mask.halo());
        let mut mac = Macro2::uniform(nx, ny, h, params.rho0);
        let hi = h as isize;
        for j in -hi..(ny as isize + hi) {
            for i in -hi..(nx as isize + hi) {
                if mask[(i, j)].is_wall() {
                    continue; // walls stay at rest with reference density
                }
                let (r, vx, vy) = init.at(i, j);
                mac.rho[(i, j)] = r;
                mac.vx[(i, j)] = vx;
                mac.vy[(i, j)] = vy;
            }
        }
        let mac_new = mac.clone();
        let scratch = vec![PaddedGrid2::new(nx, ny, h, 0.0f64)];
        TileState2 {
            mac,
            mac_new,
            f: Vec::new(),
            mask,
            scratch,
            params,
            offset,
            step: 0,
            shift_links: None,
            runs: None,
            sweep_rows: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_serial(solver: &FiniteDifference2, t: &mut TileState2, wrap: bool) {
        // Minimal in-test runner: execute the plan, handling periodic-x
        // self-exchange; non-periodic edges keep their geometry-driven ghosts.
        for op in solver.plan() {
            match *op {
                StepOp::Compute(k) => solver.compute(t, k),
                StepOp::Exchange(x) => {
                    if wrap {
                        wrap_x(solver, t, x);
                    }
                }
            }
        }
    }

    fn wrap_x(solver: &FiniteDifference2, t: &mut TileState2, x: usize) {
        for face in [Face::West, Face::East] {
            let mut buf = Vec::new();
            solver.pack(t, x, face.opposite(), &mut buf);
            solver.unpack(t, x, face, &buf);
        }
    }

    fn channel_tile(nx: usize, ny: usize, params: FluidParams) -> (FiniteDifference2, TileState2) {
        let geom = subsonic_grid::Geometry2::channel(nx, ny, 2);
        let d = subsonic_grid::Decomp::with_periodicity([nx, ny], [1, 1], [true, false]);
        let mask = geom.tile_mask(&d, 0, FD2_HALO);
        let solver = FiniteDifference2;
        let init = InitialState2::uniform(params.rho0);
        let tile = solver.make_tile(mask, params, (0, 0), &init);
        (solver, tile)
    }

    #[test]
    fn uniform_rest_state_is_a_fixed_point() {
        let params = FluidParams::lattice_units(0.05);
        let (solver, mut t) = channel_tile(16, 12, params);
        for _ in 0..5 {
            step_serial(&solver, &mut t, true);
        }
        for j in 0..12 {
            for i in 0..16 {
                assert!((t.mac.rho[(i, j)] - 1.0).abs() < 1e-13, "rho drifted");
                assert!(t.mac.vx[(i, j)].abs() < 1e-13, "vx drifted");
                assert!(t.mac.vy[(i, j)].abs() < 1e-13, "vy drifted");
            }
        }
    }

    #[test]
    fn body_force_accelerates_channel_fluid() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let (solver, mut t) = channel_tile(16, 12, params);
        for _ in 0..20 {
            step_serial(&solver, &mut t, true);
        }
        // centre of the channel moves in +x, walls stay put
        assert!(t.mac.vx[(8, 6)] > 1e-6, "fluid did not accelerate");
        assert_eq!(t.mac.vx[(8, 0)], 0.0, "wall slipped");
        assert!(t.mac.vy[(8, 6)].abs() < 1e-10, "transverse flow appeared");
    }

    #[test]
    fn mass_is_conserved_in_closed_channel() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let (solver, mut t) = channel_tile(16, 12, params);
        let mass0: f64 = (0..12)
            .flat_map(|j| (0..16).map(move |i| (i, j)))
            .map(|(i, j)| t.mac.rho[(i as isize, j as isize)])
            .sum();
        for _ in 0..50 {
            step_serial(&solver, &mut t, true);
        }
        let mass1: f64 = (0..12)
            .flat_map(|j| (0..16).map(move |i| (i, j)))
            .map(|(i, j)| t.mac.rho[(i as isize, j as isize)])
            .sum();
        // conservative flux form + periodic x + impermeable walls
        assert!(
            (mass1 - mass0).abs() / mass0 < 1e-6,
            "mass drift: {mass0} -> {mass1}"
        );
    }

    #[test]
    fn plan_has_two_exchanges() {
        assert_eq!(crate::plan::exchanges_per_step(FiniteDifference2.plan()), 2);
    }

    #[test]
    fn message_sizes_follow_face_geometry() {
        let params = FluidParams::lattice_units(0.05);
        let (solver, t) = channel_tile(16, 12, params);
        // x-face message: 2 fields * halo * ny
        assert_eq!(solver.message_doubles(&t, 0, Face::West), 2 * FD2_HALO * 12);
        // rho message is half the V message
        assert_eq!(solver.message_doubles(&t, 1, Face::West), FD2_HALO * 12);
    }

    #[test]
    fn fast_and_scalar_paths_agree_bitwise() {
        let mut params = FluidParams::lattice_units(0.06);
        params.body_force[0] = 1e-5;
        let (solver, mut fast) = channel_tile(17, 11, params);
        let mut slow = fast.clone();
        for _ in 0..4 {
            for op in solver.plan() {
                match *op {
                    StepOp::Compute(k) => {
                        solver.compute(&mut fast, k);
                        solver.compute_scalar(&mut slow, k);
                    }
                    StepOp::Exchange(x) => {
                        wrap_x(&solver, &mut fast, x);
                        wrap_x(&solver, &mut slow, x);
                    }
                }
            }
        }
        assert_eq!(fast.mac.rho, slow.mac.rho);
        assert_eq!(fast.mac.vx, slow.mac.vx);
        assert_eq!(fast.mac.vy, slow.mac.vy);
    }

    #[test]
    fn interior_plus_boundary_equals_full_compute() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let (solver, mut full) = channel_tile(14, 10, params);
        for _ in 0..2 {
            step_serial(&solver, &mut full, true);
        }
        let mut split = full.clone();
        // full: the plain plan
        solver.compute(&mut full, 0);
        wrap_x(&solver, &mut full, 0);
        solver.compute(&mut full, 1);
        wrap_x(&solver, &mut full, 1);
        solver.compute(&mut full, 2);
        // split: density inner box runs *before* the velocity halo lands
        assert_eq!(solver.overlapped_phase(0), Some(1));
        solver.compute(&mut split, 0);
        solver.compute_interior(&mut split, 1);
        wrap_x(&solver, &mut split, 0);
        solver.compute_boundary(&mut split, 1);
        wrap_x(&solver, &mut split, 1);
        solver.compute(&mut split, 2);
        assert_eq!(full.mac.rho, split.mac.rho);
        assert_eq!(full.mac.vx, split.mac.vx);
        assert_eq!(full.mac.vy, split.mac.vy);
    }
}
