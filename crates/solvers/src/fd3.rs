//! Explicit finite differences in 3D (adds the Vz equation, section 6).
//!
//! Identical structure to [`crate::fd2`]: velocities first, then density from
//! the new velocities, then the filter; two messages per neighbour per step
//! carrying 4 field values per boundary node (Vx, Vy, Vz then ρ) — the
//! paper's 3D FD communication count.
//!
//! Kernel structure follows [`crate::fd2`] as well: windowed sweeps with
//! per-row fluid-run specialization off the tile's run table (branch-free
//! trimmed-slice kernels for the autovectorizer, identical association order
//! so fast == scalar bitwise), boundary fix-ups over the cells outside the
//! runs only, plane-banded multithreading within a tile, and an overlap split
//! where the inner box of the density update runs while the velocity halo
//! exchange is in flight.

use crate::fields::{Macro3, TileState3};
use crate::filter::{filter_field3, filter_field3_scalar};
use crate::init::InitialState3;
use crate::kernels::{self, RunTable, Seg, WindowSegs};
use crate::params::{FluidParams, MethodKind};
use crate::plan::StepOp;
use crate::solver::Solver3;
use subsonic_grid::halo::{message_len, pack, unpack};
use subsonic_grid::{Cell, Face, PaddedGrid3};

/// Ghost-layer width required by the 3D FD scheme.
pub const FD3_HALO: usize = 4;

static PLAN: [StepOp; 5] = [
    StepOp::Compute(0),
    StepOp::Exchange(0),
    StepOp::Compute(1),
    StepOp::Exchange(1),
    StepOp::Compute(2),
];

/// The 3D explicit finite-difference method.
#[derive(Debug, Clone, Copy, Default)]
pub struct FiniteDifference3;

const NBR6: [(isize, isize, isize); 6] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
];

/// Hoisted constants for the momentum update.
#[derive(Clone, Copy)]
struct VelP3 {
    inv2dx: f64,
    invdx2: f64,
    cs2: f64,
    g: [f64; 3],
    dt: f64,
    nu: f64,
}

/// Input rows for one momentum-update row: per field (vx, vy, vz, rho) the
/// centre row widened by one (so `cen[fi][x+1]` is the centre) and the four
/// window-width j/k-neighbour rows.
struct VelRows3<'a> {
    cen: [&'a [f64]; 4],
    rn: [&'a [f64]; 4],
    rs: [&'a [f64]; 4],
    ru: [&'a [f64]; 4],
    rd: [&'a [f64]; 4],
}

#[inline(always)]
fn vel_cell3(
    x: usize,
    cell: Cell,
    r: &VelRows3<'_>,
    out_vx: &mut [f64],
    out_vy: &mut [f64],
    out_vz: &mut [f64],
    p: &VelP3,
) {
    if !cell.is_fluid() {
        out_vx[x] = r.cen[0][x + 1];
        out_vy[x] = r.cen[1][x + 1];
        out_vz[x] = r.cen[2][x + 1];
        return;
    }
    let v = [r.cen[0][x + 1], r.cen[1][x + 1], r.cen[2][x + 1]];
    let rho = r.cen[3][x + 1];
    // gradients of each velocity component and of rho
    let mut grad = [[0.0f64; 3]; 4]; // [field][axis]
    let mut lap = [0.0f64; 3];
    for fi in 0..4 {
        let e = r.cen[fi][x + 2];
        let w = r.cen[fi][x];
        let n = r.rn[fi][x];
        let s = r.rs[fi][x];
        let u = r.ru[fi][x];
        let d = r.rd[fi][x];
        grad[fi] = [(e - w) * p.inv2dx, (n - s) * p.inv2dx, (u - d) * p.inv2dx];
        if fi < 3 {
            lap[fi] = (e + w + n + s + u + d - 6.0 * v[fi]) * p.invdx2;
        }
    }
    for a in 0..3 {
        let adv = v[0] * grad[a][0] + v[1] * grad[a][1] + v[2] * grad[a][2];
        let val = v[a] + p.dt * (-adv - p.cs2 / rho * grad[3][a] + p.nu * lap[a] + p.g[a]);
        match a {
            0 => out_vx[x] = val,
            1 => out_vy[x] = val,
            _ => out_vz[x] = val,
        }
    }
}

/// Branch-free momentum update for a fluid run `x ∈ [a, b)` — the fluid arm
/// of [`vel_cell3`] on trimmed sub-slices; the constant-bound inner loops
/// unroll and the `grad`/`lap` arrays scalarize, leaving a straight-line body
/// in exactly the association order of the scalar path.
#[inline(always)]
fn vel_run3(
    r: &VelRows3<'_>,
    out_vx: &mut [f64],
    out_vy: &mut [f64],
    out_vz: &mut [f64],
    a: usize,
    b: usize,
    p: &VelP3,
) {
    let cm: [&[f64]; 4] = std::array::from_fn(|fi| &r.cen[fi][a + 1..b + 1]);
    let ce: [&[f64]; 4] = std::array::from_fn(|fi| &r.cen[fi][a + 2..b + 2]);
    let cw: [&[f64]; 4] = std::array::from_fn(|fi| &r.cen[fi][a..b]);
    let cn: [&[f64]; 4] = std::array::from_fn(|fi| &r.rn[fi][a..b]);
    let cs: [&[f64]; 4] = std::array::from_fn(|fi| &r.rs[fi][a..b]);
    let cu: [&[f64]; 4] = std::array::from_fn(|fi| &r.ru[fi][a..b]);
    let cd: [&[f64]; 4] = std::array::from_fn(|fi| &r.rd[fi][a..b]);
    let ox = &mut out_vx[a..b];
    let oy = &mut out_vy[a..b];
    let oz = &mut out_vz[a..b];
    for x in 0..b - a {
        let v = [cm[0][x], cm[1][x], cm[2][x]];
        let rho = cm[3][x];
        let mut grad = [[0.0f64; 3]; 4];
        let mut lap = [0.0f64; 3];
        for fi in 0..4 {
            let e = ce[fi][x];
            let w = cw[fi][x];
            let n = cn[fi][x];
            let s = cs[fi][x];
            let u = cu[fi][x];
            let d = cd[fi][x];
            grad[fi] = [(e - w) * p.inv2dx, (n - s) * p.inv2dx, (u - d) * p.inv2dx];
            if fi < 3 {
                lap[fi] = (e + w + n + s + u + d - 6.0 * v[fi]) * p.invdx2;
            }
        }
        for a in 0..3 {
            let adv = v[0] * grad[a][0] + v[1] * grad[a][1] + v[2] * grad[a][2];
            let val = v[a] + p.dt * (-adv - p.cs2 / rho * grad[3][a] + p.nu * lap[a] + p.g[a]);
            match a {
                0 => ox[x] = val,
                1 => oy[x] = val,
                _ => oz[x] = val,
            }
        }
    }
}

/// One row of the momentum update: given the row's fluid segments (the fast
/// path), runs through [`vel_run3`] and other cells through [`vel_cell3`];
/// without them, all per-cell.
#[inline(always)]
fn vel_row3(
    mrow: &[Cell],
    segs: Option<WindowSegs<'_>>,
    r: &VelRows3<'_>,
    out_vx: &mut [f64],
    out_vy: &mut [f64],
    out_vz: &mut [f64],
    p: &VelP3,
) {
    let Some(segs) = segs else {
        for (x, &cell) in mrow.iter().enumerate() {
            vel_cell3(x, cell, r, out_vx, out_vy, out_vz, p);
        }
        return;
    };
    for seg in segs {
        match seg {
            Seg::Run(a, b) => vel_run3(r, out_vx, out_vy, out_vz, a, b, p),
            Seg::One(x) => vel_cell3(x, mrow[x], r, out_vx, out_vy, out_vz, p),
        }
    }
}

/// Input rows for one continuity-update row.
struct DenRows3<'a> {
    rhoc: &'a [f64],
    rhon: &'a [f64],
    rhos: &'a [f64],
    rhou: &'a [f64],
    rhod: &'a [f64],
    nvx: &'a [f64],
    nvyn: &'a [f64],
    nvys: &'a [f64],
    nvzu: &'a [f64],
    nvzd: &'a [f64],
}

#[inline(always)]
fn den_cell3(x: usize, cell: Cell, r: &DenRows3<'_>, out: &mut [f64], dt: f64, inv2dx: f64) {
    if !cell.is_fluid() {
        out[x] = r.rhoc[x + 1];
        return;
    }
    let fx = (r.rhoc[x + 2] * r.nvx[x + 2] - r.rhoc[x] * r.nvx[x]) * inv2dx;
    let fy = (r.rhon[x] * r.nvyn[x] - r.rhos[x] * r.nvys[x]) * inv2dx;
    let fz = (r.rhou[x] * r.nvzu[x] - r.rhod[x] * r.nvzd[x]) * inv2dx;
    out[x] = r.rhoc[x + 1] - dt * (fx + fy + fz);
}

#[inline(always)]
fn den_run3(r: &DenRows3<'_>, out: &mut [f64], a: usize, b: usize, dt: f64, inv2dx: f64) {
    let rho_c = &r.rhoc[a + 1..b + 1];
    let rho_e = &r.rhoc[a + 2..b + 2];
    let rho_w = &r.rhoc[a..b];
    let rho_n = &r.rhon[a..b];
    let rho_s = &r.rhos[a..b];
    let rho_u = &r.rhou[a..b];
    let rho_d = &r.rhod[a..b];
    let nvx_e = &r.nvx[a + 2..b + 2];
    let nvx_w = &r.nvx[a..b];
    let nvy_n = &r.nvyn[a..b];
    let nvy_s = &r.nvys[a..b];
    let nvz_u = &r.nvzu[a..b];
    let nvz_d = &r.nvzd[a..b];
    let o = &mut out[a..b];
    for x in 0..b - a {
        let fx = (rho_e[x] * nvx_e[x] - rho_w[x] * nvx_w[x]) * inv2dx;
        let fy = (rho_n[x] * nvy_n[x] - rho_s[x] * nvy_s[x]) * inv2dx;
        let fz = (rho_u[x] * nvz_u[x] - rho_d[x] * nvz_d[x]) * inv2dx;
        o[x] = rho_c[x] - dt * (fx + fy + fz);
    }
}

/// One row of the continuity update; segments as in [`vel_row3`].
#[inline(always)]
fn den_row3(
    mrow: &[Cell],
    segs: Option<WindowSegs<'_>>,
    r: &DenRows3<'_>,
    out: &mut [f64],
    dt: f64,
    inv2dx: f64,
) {
    let Some(segs) = segs else {
        for (x, &cell) in mrow.iter().enumerate() {
            den_cell3(x, cell, r, out, dt, inv2dx);
        }
        return;
    };
    for seg in segs {
        match seg {
            Seg::Run(a, b) => den_run3(r, out, a, b, dt, inv2dx),
            Seg::One(x) => den_cell3(x, mrow[x], r, out, dt, inv2dx),
        }
    }
}

impl FiniteDifference3 {
    /// Zero-normal-gradient wall density, as in [`crate::fd2`]; the fast
    /// path visits only the cells outside the non-wall runs.
    fn wall_rho(&self, t: &mut TileState3, runs: Option<&RunTable>) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        for k in -1..(nz + 1) {
            for j in -1..(ny + 1) {
                let row = runs.map(|r| r.active(j, k));
                for i in kernels::cells_outside(row, -1, (nx + 2) as usize) {
                    if !t.mask[(i, j, k)].is_wall() {
                        continue;
                    }
                    let mut sum = 0.0;
                    let mut n = 0u32;
                    for (di, dj, dk) in NBR6 {
                        if t.mask[(i + di, j + dj, k + dk)].is_fluid() {
                            sum += t.mac.rho[(i + di, j + dj, k + dk)];
                            n += 1;
                        }
                    }
                    if n > 0 {
                        t.mac.rho[(i, j, k)] = sum / n as f64;
                    }
                }
            }
        }
    }

    /// Momentum update over the window `planes × rows × cols` (interior
    /// coordinates).
    fn calc_velocity(
        &self,
        t: &mut TileState3,
        planes: (isize, isize),
        rows: (isize, isize),
        cols: (isize, isize),
        runs: Option<&RunTable>,
    ) {
        let p = t.params;
        let vp = VelP3 {
            inv2dx: 1.0 / (2.0 * p.dx),
            invdx2: 1.0 / (p.dx * p.dx),
            cs2: p.cs * p.cs,
            g: p.body_force,
            dt: p.dt,
            nu: p.nu,
        };
        let (k0, k1) = planes;
        let (j0, j1) = rows;
        let (i0, i1) = cols;
        let span = (i1 - i0) as usize;
        if span == 0 {
            return;
        }
        let nb = runs.map_or(1, |_| kernels::bands_for(k0, k1));
        let TileState3 {
            mac, mac_new, mask, ..
        } = t;
        let rows_at = |j: isize, k: isize| {
            let fields: [&PaddedGrid3<f64>; 4] = [&mac.vx, &mac.vy, &mac.vz, &mac.rho];
            VelRows3 {
                cen: std::array::from_fn(|fi| fields[fi].row_segment(j, k, i0 - 1, span + 2)),
                rn: std::array::from_fn(|fi| fields[fi].row_segment(j + 1, k, i0, span)),
                rs: std::array::from_fn(|fi| fields[fi].row_segment(j - 1, k, i0, span)),
                ru: std::array::from_fn(|fi| fields[fi].row_segment(j, k + 1, i0, span)),
                rd: std::array::from_fn(|fi| fields[fi].row_segment(j, k - 1, i0, span)),
            }
        };
        if nb <= 1 {
            for k in k0..k1 {
                for j in j0..j1 {
                    let mrow = mask.row_segment(j, k, i0, span);
                    let segs = runs.map(|rt| rt.fluid(j, k).segs(i0, span));
                    let r = rows_at(j, k);
                    let out_vx = mac_new.vx.row_segment_mut(j, k, i0, span);
                    let out_vy = mac_new.vy.row_segment_mut(j, k, i0, span);
                    let out_vz = mac_new.vz.row_segment_mut(j, k, i0, span);
                    vel_row3(mrow, segs, &r, out_vx, out_vy, out_vz, &vp);
                }
            }
            return;
        }
        let cuts = kernels::band_cuts(k0, k1, nb);
        let mut vx_b = mac_new.vx.plane_bands_mut(&cuts).into_iter();
        let mut vy_b = mac_new.vy.plane_bands_mut(&cuts).into_iter();
        let mut vz_b = mac_new.vz.plane_bands_mut(&cuts).into_iter();
        let mask = &*mask;
        let rows_at = &rows_at;
        std::thread::scope(|s| {
            for w in cuts.windows(2) {
                let (ka, kb) = (w[0], w[1]);
                let mut xb = vx_b.next().unwrap();
                let mut yb = vy_b.next().unwrap();
                let mut zb = vz_b.next().unwrap();
                s.spawn(move || {
                    for k in ka..kb {
                        for j in j0..j1 {
                            let mrow = mask.row_segment(j, k, i0, span);
                            let segs = runs.map(|rt| rt.fluid(j, k).segs(i0, span));
                            let r = rows_at(j, k);
                            let out_vx = xb.row_segment_mut(j, k, i0, span);
                            let out_vy = yb.row_segment_mut(j, k, i0, span);
                            let out_vz = zb.row_segment_mut(j, k, i0, span);
                            vel_row3(mrow, segs, &r, out_vx, out_vy, out_vz, &vp);
                        }
                    }
                });
            }
        });
    }

    /// Continuity update over the window `planes × rows × cols`, conservative
    /// form with the *new* velocities.
    fn calc_density(
        &self,
        t: &mut TileState3,
        planes: (isize, isize),
        rows: (isize, isize),
        cols: (isize, isize),
        runs: Option<&RunTable>,
    ) {
        let p = t.params;
        let inv2dx = 1.0 / (2.0 * p.dx);
        let (k0, k1) = planes;
        let (j0, j1) = rows;
        let (i0, i1) = cols;
        let span = (i1 - i0) as usize;
        if span == 0 {
            return;
        }
        let nb = runs.map_or(1, |_| kernels::bands_for(k0, k1));
        let TileState3 {
            mac, mac_new, mask, ..
        } = t;
        let Macro3 {
            rho: new_rho,
            vx: new_vx,
            vy: new_vy,
            vz: new_vz,
        } = mac_new;
        let rows_at = |j: isize, k: isize| DenRows3 {
            rhoc: mac.rho.row_segment(j, k, i0 - 1, span + 2),
            rhon: mac.rho.row_segment(j + 1, k, i0, span),
            rhos: mac.rho.row_segment(j - 1, k, i0, span),
            rhou: mac.rho.row_segment(j, k + 1, i0, span),
            rhod: mac.rho.row_segment(j, k - 1, i0, span),
            nvx: new_vx.row_segment(j, k, i0 - 1, span + 2),
            nvyn: new_vy.row_segment(j + 1, k, i0, span),
            nvys: new_vy.row_segment(j - 1, k, i0, span),
            nvzu: new_vz.row_segment(j, k + 1, i0, span),
            nvzd: new_vz.row_segment(j, k - 1, i0, span),
        };
        if nb <= 1 {
            for k in k0..k1 {
                for j in j0..j1 {
                    let mrow = mask.row_segment(j, k, i0, span);
                    let segs = runs.map(|rt| rt.fluid(j, k).segs(i0, span));
                    let r = rows_at(j, k);
                    let out = new_rho.row_segment_mut(j, k, i0, span);
                    den_row3(mrow, segs, &r, out, p.dt, inv2dx);
                }
            }
            return;
        }
        let cuts = kernels::band_cuts(k0, k1, nb);
        let mut rho_b = new_rho.plane_bands_mut(&cuts).into_iter();
        let mask = &*mask;
        let rows_at = &rows_at;
        std::thread::scope(|s| {
            for w in cuts.windows(2) {
                let (ka, kb) = (w[0], w[1]);
                let mut rb = rho_b.next().unwrap();
                s.spawn(move || {
                    for k in ka..kb {
                        for j in j0..j1 {
                            let mrow = mask.row_segment(j, k, i0, span);
                            let segs = runs.map(|rt| rt.fluid(j, k).segs(i0, span));
                            let r = rows_at(j, k);
                            let out = rb.row_segment_mut(j, k, i0, span);
                            den_row3(mrow, segs, &r, out, p.dt, inv2dx);
                        }
                    }
                });
            }
        });
    }

    /// Boundary conditions on the new fields over the 2-deep ghost ring; the
    /// fast path visits only the cells outside the fluid runs.
    fn apply_bcs(&self, t: &mut TileState3, runs: Option<&RunTable>) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        let p = t.params;
        for k in -2..(nz + 2) {
            for j in -2..(ny + 2) {
                let row = runs.map(|r| r.fluid(j, k));
                for i in kernels::cells_outside(row, -2, (nx + 4) as usize) {
                    match t.mask[(i, j, k)] {
                        Cell::Fluid => {}
                        Cell::Wall => {
                            t.mac_new.vx[(i, j, k)] = 0.0;
                            t.mac_new.vy[(i, j, k)] = 0.0;
                            t.mac_new.vz[(i, j, k)] = 0.0;
                        }
                        Cell::Inlet => {
                            t.mac_new.vx[(i, j, k)] = p.inlet_velocity[0];
                            t.mac_new.vy[(i, j, k)] = p.inlet_velocity[1];
                            t.mac_new.vz[(i, j, k)] = p.inlet_velocity[2];
                            t.mac_new.rho[(i, j, k)] = p.rho0;
                        }
                        Cell::Outlet => {
                            t.mac_new.rho[(i, j, k)] = p.rho0;
                            let mut s = [0.0f64; 3];
                            let mut n = 0u32;
                            for (di, dj, dk) in NBR6 {
                                if t.mask[(i + di, j + dj, k + dk)].is_fluid() {
                                    s[0] += t.mac_new.vx[(i + di, j + dj, k + dk)];
                                    s[1] += t.mac_new.vy[(i + di, j + dj, k + dk)];
                                    s[2] += t.mac_new.vz[(i + di, j + dj, k + dk)];
                                    n += 1;
                                }
                            }
                            if n > 0 {
                                t.mac_new.vx[(i, j, k)] = s[0] / n as f64;
                                t.mac_new.vy[(i, j, k)] = s[1] / n as f64;
                                t.mac_new.vz[(i, j, k)] = s[2] / n as f64;
                            }
                        }
                    }
                }
            }
        }
    }

    fn run_phase(&self, t: &mut TileState3, phase: usize, runs: Option<&RunTable>) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        match phase {
            0 => {
                self.wall_rho(t, runs);
                self.calc_velocity(t, (0, nz), (0, ny), (0, nx), runs);
            }
            1 => self.calc_density(t, (0, nz), (0, ny), (0, nx), runs),
            2 => {
                self.apply_bcs(t, runs);
                let eps = t.params.filter_eps;
                if eps != 0.0 {
                    let TileState3 {
                        mac_new,
                        scratch,
                        mask,
                        ..
                    } = t;
                    let (sx, rest) = scratch.split_at_mut(1);
                    let sx = &mut sx[0];
                    let sy = &mut rest[0];
                    if let Some(runs) = runs {
                        filter_field3(&mut mac_new.rho, sx, sy, runs, eps, 2);
                        filter_field3(&mut mac_new.vx, sx, sy, runs, eps, 2);
                        filter_field3(&mut mac_new.vy, sx, sy, runs, eps, 2);
                        filter_field3(&mut mac_new.vz, sx, sy, runs, eps, 2);
                    } else {
                        filter_field3_scalar(&mut mac_new.rho, sx, sy, mask, eps, 2);
                        filter_field3_scalar(&mut mac_new.vx, sx, sy, mask, eps, 2);
                        filter_field3_scalar(&mut mac_new.vy, sx, sy, mask, eps, 2);
                        filter_field3_scalar(&mut mac_new.vz, sx, sy, mask, eps, 2);
                    }
                }
                std::mem::swap(&mut t.mac, &mut t.mac_new);
                t.step += 1;
            }
            _ => unreachable!("FD3 has 3 compute phases"),
        }
    }

    /// The inner box of the density window along one axis (clamped so
    /// degenerate tiles give empty boxes).
    fn inner_box(n: isize) -> (isize, isize) {
        let lo = 1.min(n);
        (lo, (n - 1).max(lo))
    }
}

impl Solver3 for FiniteDifference3 {
    fn kind(&self) -> MethodKind {
        MethodKind::FiniteDifference
    }

    fn halo(&self) -> usize {
        FD3_HALO
    }

    fn plan(&self) -> &'static [StepOp] {
        &PLAN
    }

    fn compute(&self, t: &mut TileState3, phase: usize) {
        t.with_run_table(|t, runs| self.run_phase(t, phase, Some(runs)));
    }

    fn compute_scalar(&self, t: &mut TileState3, phase: usize) {
        self.run_phase(t, phase, None);
    }

    fn overlapped_phase(&self, xch: usize) -> Option<usize> {
        // The density update after the velocity exchange reads the exchanged
        // ghost velocities only in a 1-ring near the tile faces.
        (xch == 0).then_some(1)
    }

    fn compute_interior(&self, t: &mut TileState3, phase: usize) {
        assert_eq!(phase, 1, "only the density update overlaps an exchange");
        let (p0, p1) = Self::inner_box(t.nz() as isize);
        let (r0, r1) = Self::inner_box(t.ny() as isize);
        let (c0, c1) = Self::inner_box(t.nx() as isize);
        t.with_run_table(|t, runs| self.calc_density(t, (p0, p1), (r0, r1), (c0, c1), Some(runs)));
    }

    fn compute_boundary(&self, t: &mut TileState3, phase: usize) {
        assert_eq!(phase, 1, "only the density update overlaps an exchange");
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        let (p0, p1) = Self::inner_box(nz);
        let (r0, r1) = Self::inner_box(ny);
        let (c0, c1) = Self::inner_box(nx);
        t.with_run_table(|t, runs| {
            let runs = Some(runs);
            self.calc_density(t, (0, p0), (0, ny), (0, nx), runs);
            self.calc_density(t, (p1, nz), (0, ny), (0, nx), runs);
            self.calc_density(t, (p0, p1), (0, r0), (0, nx), runs);
            self.calc_density(t, (p0, p1), (r1, ny), (0, nx), runs);
            self.calc_density(t, (p0, p1), (r0, r1), (0, c0), runs);
            self.calc_density(t, (p0, p1), (r0, r1), (c1, nx), runs);
        });
    }

    fn pack(&self, t: &TileState3, xch: usize, face: Face, out: &mut Vec<f64>) {
        let w = FD3_HALO;
        match xch {
            0 => {
                pack(&t.mac_new.vx, face, w, out);
                pack(&t.mac_new.vy, face, w, out);
                pack(&t.mac_new.vz, face, w, out);
            }
            1 => pack(&t.mac_new.rho, face, w, out),
            _ => unreachable!("FD3 has 2 exchanges"),
        }
    }

    fn unpack(&self, t: &mut TileState3, xch: usize, face: Face, data: &[f64]) {
        let w = FD3_HALO;
        match xch {
            0 => {
                let mut at = unpack(&mut t.mac_new.vx, face, w, data);
                at += unpack(&mut t.mac_new.vy, face, w, &data[at..]);
                unpack(&mut t.mac_new.vz, face, w, &data[at..]);
            }
            1 => {
                unpack(&mut t.mac_new.rho, face, w, data);
            }
            _ => unreachable!("FD3 has 2 exchanges"),
        }
    }

    fn message_doubles(&self, t: &TileState3, xch: usize, face: Face) -> usize {
        let per_field = message_len(&[t.nx(), t.ny(), t.nz()], face, FD3_HALO);
        match xch {
            0 => 3 * per_field,
            1 => per_field,
            _ => unreachable!(),
        }
    }

    fn make_tile(
        &self,
        mask: PaddedGrid3<Cell>,
        params: FluidParams,
        offset: (usize, usize, usize),
        init: &InitialState3,
    ) -> TileState3 {
        assert!(mask.halo() >= FD3_HALO, "tile mask halo too small for FD3");
        let (nx, ny, nz, h) = (mask.nx(), mask.ny(), mask.nz(), mask.halo());
        let mut mac = Macro3::uniform(nx, ny, nz, h, params.rho0);
        let hi = h as isize;
        for k in -hi..(nz as isize + hi) {
            for j in -hi..(ny as isize + hi) {
                for i in -hi..(nx as isize + hi) {
                    if mask[(i, j, k)].is_wall() {
                        continue;
                    }
                    let (r, vx, vy, vz) = init.at(i, j, k);
                    mac.rho[(i, j, k)] = r;
                    mac.vx[(i, j, k)] = vx;
                    mac.vy[(i, j, k)] = vy;
                    mac.vz[(i, j, k)] = vz;
                }
            }
        }
        let mac_new = mac.clone();
        let scratch = vec![
            PaddedGrid3::new(nx, ny, nz, h, 0.0f64),
            PaddedGrid3::new(nx, ny, nz, h, 0.0f64),
        ];
        TileState3 {
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_serial(solver: &FiniteDifference3, t: &mut TileState3, wrap: bool) {
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

    fn wrap_x(solver: &FiniteDifference3, t: &mut TileState3, x: usize) {
        for face in [Face::West, Face::East] {
            let mut buf = Vec::new();
            solver.pack(t, x, face.opposite(), &mut buf);
            solver.unpack(t, x, face, &buf);
        }
    }

    fn duct_tile(
        nx: usize,
        ny: usize,
        nz: usize,
        params: FluidParams,
    ) -> (FiniteDifference3, TileState3) {
        let geom = subsonic_grid::Geometry3::duct(nx, ny, nz, 2);
        let d =
            subsonic_grid::Decomp::with_periodicity([nx, ny, nz], [1, 1, 1], [true, false, false]);
        let mask = geom.tile_mask(&d, 0, FD3_HALO);
        let solver = FiniteDifference3;
        let init = InitialState3::uniform(params.rho0);
        let tile = solver.make_tile(mask, params, (0, 0, 0), &init);
        (solver, tile)
    }

    #[test]
    fn uniform_rest_state_is_a_fixed_point() {
        let params = FluidParams::lattice_units(0.05);
        let (solver, mut t) = duct_tile(10, 9, 9, params);
        for _ in 0..3 {
            step_serial(&solver, &mut t, true);
        }
        assert!((t.mac.rho[(5, 4, 4)] - 1.0).abs() < 1e-13);
        assert!(t.mac.vx[(5, 4, 4)].abs() < 1e-13);
    }

    #[test]
    fn body_force_accelerates_duct_fluid() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let (solver, mut t) = duct_tile(10, 9, 9, params);
        for _ in 0..20 {
            step_serial(&solver, &mut t, true);
        }
        assert!(t.mac.vx[(5, 4, 4)] > 1e-6);
        assert_eq!(t.mac.vx[(5, 0, 4)], 0.0, "wall slipped");
    }

    #[test]
    fn fd3_message_counts_match_paper() {
        // FD communicates 4 variables per fluid node in 3D: Vx,Vy,Vz then rho.
        let params = FluidParams::lattice_units(0.05);
        let (solver, t) = duct_tile(10, 9, 9, params);
        let v = solver.message_doubles(&t, 0, Face::East);
        let r = solver.message_doubles(&t, 1, Face::East);
        assert_eq!(v / r, 3, "V message carries 3 fields, rho message 1");
    }

    #[test]
    fn fast_and_scalar_paths_agree_bitwise() {
        let mut params = FluidParams::lattice_units(0.06);
        params.body_force[0] = 1e-5;
        let (solver, mut fast) = duct_tile(9, 8, 7, params);
        let mut slow = fast.clone();
        for _ in 0..3 {
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
        assert_eq!(fast.mac.vz, slow.mac.vz);
    }

    #[test]
    fn interior_plus_boundary_equals_full_compute() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let (solver, mut full) = duct_tile(8, 7, 6, params);
        for _ in 0..2 {
            step_serial(&solver, &mut full, true);
        }
        let mut split = full.clone();
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
        assert_eq!(full.mac.vz, split.mac.vz);
    }

    #[test]
    fn banded_sweeps_match_serial_bitwise() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let (solver, mut serial) = duct_tile(8, 7, 9, params);
        let mut banded = serial.clone();
        for _ in 0..2 {
            crate::kernels::set_intra_threads(1);
            step_serial(&solver, &mut serial, true);
            crate::kernels::set_intra_threads(3);
            step_serial(&solver, &mut banded, true);
        }
        crate::kernels::set_intra_threads(1);
        assert_eq!(serial.mac.rho, banded.mac.rho);
        assert_eq!(serial.mac.vx, banded.mac.vx);
        assert_eq!(serial.mac.vy, banded.mac.vy);
        assert_eq!(serial.mac.vz, banded.mac.vz);
    }
}
