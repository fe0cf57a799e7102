//! The lattice Boltzmann method in 3D (D3Q15, BGK relaxation).
//!
//! Mirrors [`crate::lbm2`] — including its kernel structure: one padded f64
//! plane per population (structure-of-arrays), row runs taken from the
//! tile's run table and handed to branch-free unrolled kernels over trimmed
//! sub-slices (autovectorized across x), and in-place streaming as ordered
//! copies of each row's non-wall runs plus the cached [`ShiftLinks3`]
//! bounce-backs (the scalar oracle streams cell by cell from the mask).
//! Fast and scalar paths agree bitwise.
//!
//! One message per neighbour per step. Of the 15 populations, 5 cross a given
//! face per boundary node — the "5 variables per fluid node" of the paper's
//! 3D communication accounting (end of section 6), the origin of the 5/6
//! factor in its eq. (21).

use crate::fields::{Macro3, ShiftLinks3, TileState3};
use crate::filter::{filter_field3, filter_field3_scalar};
use crate::init::InitialState3;
use crate::kernels::{RunTable, Seg, WindowSegs};
use crate::lbm2::against;
use crate::params::{FluidParams, MethodKind};
use crate::plan::StepOp;
use crate::qlattice::{eq_poly, feq3, E3, OPP3, Q3, W3};
use crate::solver::Solver3;
use subsonic_grid::halo::{message_len, pack, unpack};
use subsonic_grid::{Cell, Face, PaddedGrid3};

/// Ghost-layer width required by the 3D LB scheme.
pub const LBM3_HALO: usize = 3;

static PLAN: [StepOp; 4] = [
    StepOp::Exchange(0),
    StepOp::Compute(0),
    StepOp::Compute(1),
    StepOp::Compute(2),
];

/// Hoisted per-sweep relaxation constants (`ta* = τ·a`, exact hoist).
#[derive(Clone, Copy)]
struct RelaxP3 {
    inv_tau: f64,
    tax: f64,
    tay: f64,
    taz: f64,
    uin: [f64; 3],
    rho0: f64,
}

impl RelaxP3 {
    fn new(p: &FluidParams) -> Self {
        let tau = p.lbm_tau();
        Self {
            inv_tau: 1.0 / tau,
            tax: tau * p.accel_to_lattice(p.body_force[0]),
            tay: tau * p.accel_to_lattice(p.body_force[1]),
            taz: tau * p.accel_to_lattice(p.body_force[2]),
            uin: [
                p.velocity_to_lattice(p.inlet_velocity[0]),
                p.velocity_to_lattice(p.inlet_velocity[1]),
                p.velocity_to_lattice(p.inlet_velocity[2]),
            ],
            rho0: p.rho0,
        }
    }
}

/// Scalar relaxation of one cell — the reference arm for every cell kind.
#[inline(always)]
fn relax_cell(x: usize, cell: Cell, frows: &mut [&mut [f64]; Q3], p: &RelaxP3) {
    match cell {
        Cell::Fluid => {
            let mut rho = 0.0;
            let mut m = [0.0f64; 3];
            for (q, fr) in frows.iter().enumerate() {
                let f = fr[x];
                rho += f;
                m[0] += f * E3[q].0 as f64;
                m[1] += f * E3[q].1 as f64;
                m[2] += f * E3[q].2 as f64;
            }
            let ux = m[0] / rho + p.tax;
            let uy = m[1] / rho + p.tay;
            let uz = m[2] / rho + p.taz;
            for (q, fr) in frows.iter_mut().enumerate() {
                let f = fr[x];
                fr[x] = f + (feq3(q, rho, ux, uy, uz) - f) * p.inv_tau;
            }
        }
        Cell::Inlet => {
            for (q, fr) in frows.iter_mut().enumerate() {
                fr[x] = feq3(q, p.rho0, p.uin[0], p.uin[1], p.uin[2]);
            }
        }
        Cell::Outlet => {
            let mut rho = 0.0;
            let mut m = [0.0f64; 3];
            for (q, fr) in frows.iter().enumerate() {
                let f = fr[x];
                rho += f;
                m[0] += f * E3[q].0 as f64;
                m[1] += f * E3[q].1 as f64;
                m[2] += f * E3[q].2 as f64;
            }
            let (ux, uy, uz) = (m[0] / rho, m[1] / rho, m[2] / rho);
            for (q, fr) in frows.iter_mut().enumerate() {
                fr[x] = feq3(q, p.rho0, ux, uy, uz);
            }
        }
        Cell::Wall => {}
    }
}

/// Branch-free relaxation of a contiguous fluid run `x ∈ [a, b)`; the
/// unrolled `Fluid` arm of [`relax_cell`] (zero moment terms dropped, e·u
/// written out per direction — see [`eq_poly`] for why both are bitwise
/// invisible; negated directions reuse the negated e·u, exact under IEEE
/// rounding symmetry).
#[inline(always)]
fn relax_run(frows: &mut [&mut [f64]; Q3], a: usize, b: usize, p: &RelaxP3) {
    let [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14] = frows.each_mut();
    let f0 = &mut f0[a..b];
    let f1 = &mut f1[a..b];
    let f2 = &mut f2[a..b];
    let f3 = &mut f3[a..b];
    let f4 = &mut f4[a..b];
    let f5 = &mut f5[a..b];
    let f6 = &mut f6[a..b];
    let f7 = &mut f7[a..b];
    let f8 = &mut f8[a..b];
    let f9 = &mut f9[a..b];
    let f10 = &mut f10[a..b];
    let f11 = &mut f11[a..b];
    let f12 = &mut f12[a..b];
    let f13 = &mut f13[a..b];
    let f14 = &mut f14[a..b];
    for x in 0..b - a {
        let g0 = f0[x];
        let g1 = f1[x];
        let g2 = f2[x];
        let g3 = f3[x];
        let g4 = f4[x];
        let g5 = f5[x];
        let g6 = f6[x];
        let g7 = f7[x];
        let g8 = f8[x];
        let g9 = f9[x];
        let g10 = f10[x];
        let g11 = f11[x];
        let g12 = f12[x];
        let g13 = f13[x];
        let g14 = f14[x];
        let rho = g0 + g1 + g2 + g3 + g4 + g5 + g6 + g7 + g8 + g9 + g10 + g11 + g12 + g13 + g14;
        let mx = g1 - g2 + g7 - g8 + g9 - g10 + g11 - g12 + g13 - g14;
        let my = g3 - g4 + g7 - g8 + g9 - g10 - g11 + g12 - g13 + g14;
        let mz = g5 - g6 + g7 - g8 - g9 + g10 + g11 - g12 - g13 + g14;
        let ux = mx / rho + p.tax;
        let uy = my / rho + p.tay;
        let uz = mz / rho + p.taz;
        let hsq = 1.5 * (ux * ux + uy * uy + uz * uz);
        let s = ux + uy;
        let d = ux - uy;
        let e7 = s + uz; // (1,1,1)
        let e9 = s - uz; // (1,1,-1)
        let e11 = d + uz; // (1,-1,1)
        let e13 = d - uz; // (1,-1,-1)
        let wc = W3[0] * rho;
        let wa = W3[1] * rho;
        let wd = W3[7] * rho;
        f0[x] = g0 + (wc * (1.0 - hsq) - g0) * p.inv_tau;
        f1[x] = g1 + (wa * eq_poly(ux, hsq) - g1) * p.inv_tau;
        f2[x] = g2 + (wa * eq_poly(-ux, hsq) - g2) * p.inv_tau;
        f3[x] = g3 + (wa * eq_poly(uy, hsq) - g3) * p.inv_tau;
        f4[x] = g4 + (wa * eq_poly(-uy, hsq) - g4) * p.inv_tau;
        f5[x] = g5 + (wa * eq_poly(uz, hsq) - g5) * p.inv_tau;
        f6[x] = g6 + (wa * eq_poly(-uz, hsq) - g6) * p.inv_tau;
        f7[x] = g7 + (wd * eq_poly(e7, hsq) - g7) * p.inv_tau;
        f8[x] = g8 + (wd * eq_poly(-e7, hsq) - g8) * p.inv_tau;
        f9[x] = g9 + (wd * eq_poly(e9, hsq) - g9) * p.inv_tau;
        f10[x] = g10 + (wd * eq_poly(-e9, hsq) - g10) * p.inv_tau;
        f11[x] = g11 + (wd * eq_poly(e11, hsq) - g11) * p.inv_tau;
        f12[x] = g12 + (wd * eq_poly(-e11, hsq) - g12) * p.inv_tau;
        f13[x] = g13 + (wd * eq_poly(e13, hsq) - g13) * p.inv_tau;
        f14[x] = g14 + (wd * eq_poly(-e13, hsq) - g14) * p.inv_tau;
    }
}

/// One row of relaxation: given the row's fluid segments (the fast path),
/// runs through the vector kernel and other cells through [`relax_cell`];
/// without them, all-scalar.
#[inline(always)]
fn relax_row(
    mrow: &[Cell],
    segs: Option<WindowSegs<'_>>,
    frows: &mut [&mut [f64]; Q3],
    p: &RelaxP3,
) {
    let Some(segs) = segs else {
        for (x, &cell) in mrow.iter().enumerate() {
            relax_cell(x, cell, frows, p);
        }
        return;
    };
    for seg in segs {
        match seg {
            Seg::Run(a, b) => relax_run(frows, a, b, p),
            Seg::One(x) => relax_cell(x, mrow[x], frows, p),
        }
    }
}

/// Hoisted constants for the macroscopic sweep.
#[derive(Clone, Copy)]
struct MacP3 {
    c: f64,
    ha: [f64; 3],
    rho0: f64,
}

/// Output rows of one macroscopic sweep row.
struct MacRows3<'a> {
    rho: &'a mut [f64],
    vx: &'a mut [f64],
    vy: &'a mut [f64],
    vz: &'a mut [f64],
}

#[inline(always)]
fn mac_cell(x: usize, cell: Cell, frows: &[&[f64]; Q3], out: &mut MacRows3<'_>, p: &MacP3) {
    if cell.is_wall() {
        out.rho[x] = p.rho0;
        out.vx[x] = 0.0;
        out.vy[x] = 0.0;
        out.vz[x] = 0.0;
        return;
    }
    let mut rho = 0.0;
    let mut m = [0.0f64; 3];
    for (q, fr) in frows.iter().enumerate() {
        let f = fr[x];
        rho += f;
        m[0] += f * E3[q].0 as f64;
        m[1] += f * E3[q].1 as f64;
        m[2] += f * E3[q].2 as f64;
    }
    out.rho[x] = rho;
    out.vx[x] = (m[0] / rho + p.ha[0]) * p.c;
    out.vy[x] = (m[1] / rho + p.ha[1]) * p.c;
    out.vz[x] = (m[2] / rho + p.ha[2]) * p.c;
}

/// Vector kernel for a non-wall run of the macroscopic sweep.
#[inline(always)]
fn mac_run(frows: &[&[f64]; Q3], out: &mut MacRows3<'_>, a: usize, b: usize, p: &MacP3) {
    let f: [&[f64]; Q3] = std::array::from_fn(|q| &frows[q][a..b]);
    let rho_o = &mut out.rho[a..b];
    let vx_o = &mut out.vx[a..b];
    let vy_o = &mut out.vy[a..b];
    let vz_o = &mut out.vz[a..b];
    for x in 0..b - a {
        let g0 = f[0][x];
        let g1 = f[1][x];
        let g2 = f[2][x];
        let g3 = f[3][x];
        let g4 = f[4][x];
        let g5 = f[5][x];
        let g6 = f[6][x];
        let g7 = f[7][x];
        let g8 = f[8][x];
        let g9 = f[9][x];
        let g10 = f[10][x];
        let g11 = f[11][x];
        let g12 = f[12][x];
        let g13 = f[13][x];
        let g14 = f[14][x];
        let rho = g0 + g1 + g2 + g3 + g4 + g5 + g6 + g7 + g8 + g9 + g10 + g11 + g12 + g13 + g14;
        let mx = g1 - g2 + g7 - g8 + g9 - g10 + g11 - g12 + g13 - g14;
        let my = g3 - g4 + g7 - g8 + g9 - g10 - g11 + g12 - g13 + g14;
        let mz = g5 - g6 + g7 - g8 - g9 + g10 + g11 - g12 - g13 + g14;
        rho_o[x] = rho;
        vx_o[x] = (mx / rho + p.ha[0]) * p.c;
        vy_o[x] = (my / rho + p.ha[1]) * p.c;
        vz_o[x] = (mz / rho + p.ha[2]) * p.c;
    }
}

/// One row of moments: given the row's non-wall segments (the fast path),
/// runs through [`mac_run`] and wall cells through [`mac_cell`]; without
/// them, all per-cell.
#[inline(always)]
fn mac_row(
    mrow: &[Cell],
    segs: Option<WindowSegs<'_>>,
    frows: &[&[f64]; Q3],
    out: &mut MacRows3<'_>,
    p: &MacP3,
) {
    let Some(segs) = segs else {
        for (x, &cell) in mrow.iter().enumerate() {
            mac_cell(x, cell, frows, out, p);
        }
        return;
    };
    for seg in segs {
        match seg {
            Seg::Run(a, b) => mac_run(frows, out, a, b, p),
            Seg::One(x) => mac_cell(x, mrow[x], frows, out, p),
        }
    }
}

/// Hoisted constants for population re-synthesis.
#[derive(Clone, Copy)]
struct ResynP3 {
    inv_c: f64,
    ha: [f64; 3],
}

/// Input rows for re-synthesis: filtered (`_f`) and raw (`_r`) macro fields.
struct ResynRows3<'a> {
    rho_f: &'a [f64],
    vx_f: &'a [f64],
    vy_f: &'a [f64],
    vz_f: &'a [f64],
    rho_r: &'a [f64],
    vx_r: &'a [f64],
    vy_r: &'a [f64],
    vz_r: &'a [f64],
}

#[inline(always)]
fn resyn_cell(
    x: usize,
    cell: Cell,
    frows: &mut [&mut [f64]; Q3],
    src: &ResynRows3<'_>,
    p: &ResynP3,
) {
    if !cell.is_fluid() {
        return;
    }
    let rho_f = src.rho_f[x];
    let uf = [
        src.vx_f[x] * p.inv_c - p.ha[0],
        src.vy_f[x] * p.inv_c - p.ha[1],
        src.vz_f[x] * p.inv_c - p.ha[2],
    ];
    let rho_r = src.rho_r[x];
    let ur = [
        src.vx_r[x] * p.inv_c - p.ha[0],
        src.vy_r[x] * p.inv_c - p.ha[1],
        src.vz_r[x] * p.inv_c - p.ha[2],
    ];
    for (q, fr) in frows.iter_mut().enumerate() {
        let fneq = fr[x] - feq3(q, rho_r, ur[0], ur[1], ur[2]);
        fr[x] = feq3(q, rho_f, uf[0], uf[1], uf[2]) + fneq;
    }
}

/// Vector kernel for a fluid run of the re-synthesis sweep:
/// `f ← f_eq(filtered) + (f − f_eq(raw))` with both equilibria unrolled.
#[inline(always)]
fn resyn_run(frows: &mut [&mut [f64]; Q3], src: &ResynRows3<'_>, a: usize, b: usize, p: &ResynP3) {
    let [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11, f12, f13, f14] = frows.each_mut();
    let f0 = &mut f0[a..b];
    let f1 = &mut f1[a..b];
    let f2 = &mut f2[a..b];
    let f3 = &mut f3[a..b];
    let f4 = &mut f4[a..b];
    let f5 = &mut f5[a..b];
    let f6 = &mut f6[a..b];
    let f7 = &mut f7[a..b];
    let f8 = &mut f8[a..b];
    let f9 = &mut f9[a..b];
    let f10 = &mut f10[a..b];
    let f11 = &mut f11[a..b];
    let f12 = &mut f12[a..b];
    let f13 = &mut f13[a..b];
    let f14 = &mut f14[a..b];
    let rho_f = &src.rho_f[a..b];
    let vx_f = &src.vx_f[a..b];
    let vy_f = &src.vy_f[a..b];
    let vz_f = &src.vz_f[a..b];
    let rho_r = &src.rho_r[a..b];
    let vx_r = &src.vx_r[a..b];
    let vy_r = &src.vy_r[a..b];
    let vz_r = &src.vz_r[a..b];
    for x in 0..b - a {
        let uxf = vx_f[x] * p.inv_c - p.ha[0];
        let uyf = vy_f[x] * p.inv_c - p.ha[1];
        let uzf = vz_f[x] * p.inv_c - p.ha[2];
        let uxr = vx_r[x] * p.inv_c - p.ha[0];
        let uyr = vy_r[x] * p.inv_c - p.ha[1];
        let uzr = vz_r[x] * p.inv_c - p.ha[2];
        let hf = 1.5 * (uxf * uxf + uyf * uyf + uzf * uzf);
        let hr = 1.5 * (uxr * uxr + uyr * uyr + uzr * uzr);
        let (sf, df) = (uxf + uyf, uxf - uyf);
        let (sr, dr) = (uxr + uyr, uxr - uyr);
        let (e7f, e9f, e11f, e13f) = (sf + uzf, sf - uzf, df + uzf, df - uzf);
        let (e7r, e9r, e11r, e13r) = (sr + uzr, sr - uzr, dr + uzr, dr - uzr);
        let wcf = W3[0] * rho_f[x];
        let waf = W3[1] * rho_f[x];
        let wdf = W3[7] * rho_f[x];
        let wcr = W3[0] * rho_r[x];
        let war = W3[1] * rho_r[x];
        let wdr = W3[7] * rho_r[x];
        f0[x] = wcf * (1.0 - hf) + (f0[x] - wcr * (1.0 - hr));
        f1[x] = waf * eq_poly(uxf, hf) + (f1[x] - war * eq_poly(uxr, hr));
        f2[x] = waf * eq_poly(-uxf, hf) + (f2[x] - war * eq_poly(-uxr, hr));
        f3[x] = waf * eq_poly(uyf, hf) + (f3[x] - war * eq_poly(uyr, hr));
        f4[x] = waf * eq_poly(-uyf, hf) + (f4[x] - war * eq_poly(-uyr, hr));
        f5[x] = waf * eq_poly(uzf, hf) + (f5[x] - war * eq_poly(uzr, hr));
        f6[x] = waf * eq_poly(-uzf, hf) + (f6[x] - war * eq_poly(-uzr, hr));
        f7[x] = wdf * eq_poly(e7f, hf) + (f7[x] - wdr * eq_poly(e7r, hr));
        f8[x] = wdf * eq_poly(-e7f, hf) + (f8[x] - wdr * eq_poly(-e7r, hr));
        f9[x] = wdf * eq_poly(e9f, hf) + (f9[x] - wdr * eq_poly(e9r, hr));
        f10[x] = wdf * eq_poly(-e9f, hf) + (f10[x] - wdr * eq_poly(-e9r, hr));
        f11[x] = wdf * eq_poly(e11f, hf) + (f11[x] - wdr * eq_poly(e11r, hr));
        f12[x] = wdf * eq_poly(-e11f, hf) + (f12[x] - wdr * eq_poly(-e11r, hr));
        f13[x] = wdf * eq_poly(e13f, hf) + (f13[x] - wdr * eq_poly(e13r, hr));
        f14[x] = wdf * eq_poly(-e13f, hf) + (f14[x] - wdr * eq_poly(-e13r, hr));
    }
}

/// One row of re-synthesis; segments as in [`relax_row`].
#[inline(always)]
fn resyn_row(
    mrow: &[Cell],
    segs: Option<WindowSegs<'_>>,
    frows: &mut [&mut [f64]; Q3],
    src: &ResynRows3<'_>,
    p: &ResynP3,
) {
    let Some(segs) = segs else {
        for (x, &cell) in mrow.iter().enumerate() {
            resyn_cell(x, cell, frows, src, p);
        }
        return;
    };
    for seg in segs {
        match seg {
            Seg::Run(a, b) => resyn_run(frows, src, a, b, p),
            Seg::One(x) => resyn_cell(x, mrow[x], frows, src, p),
        }
    }
}

/// One population plane streamed in place, cell by cell from the mask (see
/// [`crate::lbm2`]'s 2D form): non-wall nodes of `[-2, n+2)` take the value
/// upstream, or `opp`'s at the node itself when upstream is a wall; wall
/// nodes keep theirs; each axis is walked against the velocity.
fn stream_cells(
    fq: &mut PaddedGrid3<f64>,
    opp: &PaddedGrid3<f64>,
    mask: &PaddedGrid3<Cell>,
    (ex, ey, ez): (isize, isize, isize),
) {
    for k in against(mask.nz(), ez) {
        for j in against(mask.ny(), ey) {
            for i in against(mask.nx(), ex) {
                if mask[(i, j, k)].is_wall() {
                    continue;
                }
                fq[(i, j, k)] = if mask[(i - ex, j - ey, k - ez)].is_wall() {
                    opp[(i, j, k)]
                } else {
                    fq[(i - ex, j - ey, k - ez)]
                };
            }
        }
    }
}

/// The 3D lattice Boltzmann method.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatticeBoltzmann3;

impl LatticeBoltzmann3 {
    /// BGK relaxation over the window `planes × rows × cols` (pointwise, so
    /// the interior/halo overlap split is legal).
    fn relax_window(
        &self,
        t: &mut TileState3,
        planes: (isize, isize),
        rows: (isize, isize),
        cols: (isize, isize),
        runs: Option<&RunTable>,
    ) {
        let p = RelaxP3::new(&t.params);
        let (k0, k1) = planes;
        let (j0, j1) = rows;
        let (i0, i1) = cols;
        let span = (i1 - i0) as usize;
        let TileState3 { f, mask, .. } = t;
        for k in k0..k1 {
            for j in j0..j1 {
                let mrow = mask.row_segment(j, k, i0, span);
                let mut fit = f.iter_mut();
                let mut frows: [&mut [f64]; Q3] =
                    std::array::from_fn(|_| fit.next().unwrap().row_segment_mut(j, k, i0, span));
                let segs = runs.map(|r| r.fluid(j, k).segs(i0, span));
                relax_row(mrow, segs, &mut frows, &p);
            }
        }
    }

    /// In-place streaming with half-way bounce-back (see
    /// [`crate::lbm2::LatticeBoltzmann2::shift`]): gather the bounce-back
    /// values, copy only the non-wall runs of every row of each moving
    /// plane from upstream — planes descending in k when the velocity points
    /// up in z, rows ordered by the sign of e_y within an unshifted plane —
    /// so wall nodes keep their populations, then scatter the bounce-backs.
    fn shift(&self, t: &mut TileState3, runs: &RunTable) {
        let mut links = t
            .shift_links
            .take()
            .unwrap_or_else(|| ShiftLinks3::build(&t.mask));
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        let span = t.nx() + 4;
        let ShiftLinks3 {
            bounce,
            bounce_vals,
        } = &mut links;
        bounce_vals.clear();
        bounce_vals.extend(
            bounce
                .iter()
                .map(|&(q, i, j, k)| t.f[OPP3[q as usize]][(i as isize, j as isize, k as isize)]),
        );
        for (q, fq) in t.f.iter_mut().enumerate() {
            let (ex, ey, ez) = E3[q];
            if ex == 0 && ey == 0 && ez == 0 {
                continue;
            }
            let mut stream_row = |j: isize, k: isize| {
                for (a, b) in runs.active(j, k).clip(-2, span, 0) {
                    let i = a as isize - 2;
                    fq.copy_row_shifted((i, j, k), (i - ex, j - ey, k - ez), b - a);
                }
            };
            let mut stream_plane = |k: isize| {
                if ey > 0 {
                    (-2..ny + 2).rev().for_each(|j| stream_row(j, k));
                } else {
                    (-2..ny + 2).for_each(|j| stream_row(j, k));
                }
            };
            if ez > 0 {
                (-2..nz + 2).rev().for_each(&mut stream_plane);
            } else {
                (-2..nz + 2).for_each(&mut stream_plane);
            }
        }
        for (&(q, i, j, k), &v) in bounce.iter().zip(bounce_vals.iter()) {
            t.f[q as usize][(i as isize, j as isize, k as isize)] = v;
        }
        t.shift_links = Some(links);
    }

    /// Scalar oracle: in-place streaming decided cell by cell from the mask
    /// (see [`crate::lbm2::LatticeBoltzmann2::stream_scalar`]); the pre-shift
    /// copy of each pair's first plane lives in the first filter scratch
    /// field, which the filter overwrites before it reads.
    fn stream_scalar(&self, t: &mut TileState3) {
        let TileState3 {
            f, mask, scratch, ..
        } = t;
        let pre = &mut scratch[0];
        for q in (1..Q3).filter(|&q| OPP3[q] > q) {
            pre.raw_mut().copy_from_slice(f[q].raw());
            let (lo, hi) = f.split_at_mut(OPP3[q]);
            stream_cells(&mut lo[q], &hi[0], mask, E3[q]);
            stream_cells(&mut hi[0], pre, mask, E3[OPP3[q]]);
        }
    }

    fn macroscopic(&self, t: &mut TileState3, runs: Option<&RunTable>) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        let p = t.params;
        let mp = MacP3 {
            c: p.dx / p.dt,
            ha: [
                0.5 * p.accel_to_lattice(p.body_force[0]),
                0.5 * p.accel_to_lattice(p.body_force[1]),
                0.5 * p.accel_to_lattice(p.body_force[2]),
            ],
            rho0: p.rho0,
        };
        let (k0, k1) = (-2, nz + 2);
        let (j0, j1) = (-2, ny + 2);
        let i0 = -2;
        let span = (nx + 4) as usize;
        let TileState3 { mac, f, mask, .. } = t;
        for k in k0..k1 {
            for j in j0..j1 {
                let mrow = mask.row_segment(j, k, i0, span);
                let mut fit = f.iter();
                let frows: [&[f64]; Q3] =
                    std::array::from_fn(|_| fit.next().unwrap().row_segment(j, k, i0, span));
                let mut out = MacRows3 {
                    rho: mac.rho.row_segment_mut(j, k, i0, span),
                    vx: mac.vx.row_segment_mut(j, k, i0, span),
                    vy: mac.vy.row_segment_mut(j, k, i0, span),
                    vz: mac.vz.row_segment_mut(j, k, i0, span),
                };
                let segs = runs.map(|r| r.active(j, k).segs(i0, span));
                mac_row(mrow, segs, &frows, &mut out, &mp);
            }
        }
    }

    fn filter_and_resynthesize(&self, t: &mut TileState3, runs: Option<&RunTable>) {
        let p = t.params;
        {
            // keep the raw macroscopic fields for the non-equilibrium split
            let TileState3 {
                mac,
                mac_new,
                scratch,
                mask,
                ..
            } = t;
            for (dst, src) in [
                (&mut mac_new.rho, &mac.rho),
                (&mut mac_new.vx, &mac.vx),
                (&mut mac_new.vy, &mac.vy),
                (&mut mac_new.vz, &mac.vz),
            ] {
                let nz = src.nz() as isize;
                let ny = src.ny() as isize;
                for k in 0..nz {
                    for j in 0..ny {
                        dst.interior_row_mut(j, k)
                            .copy_from_slice(src.interior_row(j, k));
                    }
                }
            }
            let (sx, rest) = scratch.split_at_mut(1);
            let sx = &mut sx[0];
            let sy = &mut rest[0];
            if let Some(runs) = runs {
                filter_field3(&mut mac.rho, sx, sy, runs, p.filter_eps, 0);
                filter_field3(&mut mac.vx, sx, sy, runs, p.filter_eps, 0);
                filter_field3(&mut mac.vy, sx, sy, runs, p.filter_eps, 0);
                filter_field3(&mut mac.vz, sx, sy, runs, p.filter_eps, 0);
            } else {
                filter_field3_scalar(&mut mac.rho, sx, sy, mask, p.filter_eps, 0);
                filter_field3_scalar(&mut mac.vx, sx, sy, mask, p.filter_eps, 0);
                filter_field3_scalar(&mut mac.vy, sx, sy, mask, p.filter_eps, 0);
                filter_field3_scalar(&mut mac.vz, sx, sy, mask, p.filter_eps, 0);
            }
        }
        self.resynthesize(t, runs);
    }

    fn resynthesize(&self, t: &mut TileState3, runs: Option<&RunTable>) {
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        let p = t.params;
        let rp = ResynP3 {
            inv_c: p.dt / p.dx,
            ha: [
                0.5 * p.accel_to_lattice(p.body_force[0]),
                0.5 * p.accel_to_lattice(p.body_force[1]),
                0.5 * p.accel_to_lattice(p.body_force[2]),
            ],
        };
        let TileState3 {
            mac,
            mac_new,
            f,
            mask,
            ..
        } = t;
        let src_rows = |j: isize, k: isize| ResynRows3 {
            rho_f: mac.rho.interior_row(j, k),
            vx_f: mac.vx.interior_row(j, k),
            vy_f: mac.vy.interior_row(j, k),
            vz_f: mac.vz.interior_row(j, k),
            rho_r: mac_new.rho.interior_row(j, k),
            vx_r: mac_new.vx.interior_row(j, k),
            vy_r: mac_new.vy.interior_row(j, k),
            vz_r: mac_new.vz.interior_row(j, k),
        };
        for k in 0..nz {
            for j in 0..ny {
                let mrow = mask.interior_row(j, k);
                let src = src_rows(j, k);
                let mut fit = f.iter_mut();
                let mut frows: [&mut [f64]; Q3] =
                    std::array::from_fn(|_| fit.next().unwrap().interior_row_mut(j, k));
                let segs = runs.map(|r| r.fluid(j, k).segs(0, mrow.len()));
                resyn_row(mrow, segs, &mut frows, &src, &rp);
            }
        }
    }
}

impl LatticeBoltzmann3 {
    /// Compute phase `phase`: fast with the tile's run table, the scalar
    /// oracle without.
    fn run_phase(&self, t: &mut TileState3, phase: usize, runs: Option<&RunTable>) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        match phase {
            0 => {
                self.relax_window(t, (-3, nz + 3), (-3, ny + 3), (-3, nx + 3), runs);
                match runs {
                    Some(runs) => self.shift(t, runs),
                    None => self.stream_scalar(t),
                }
            }
            1 => self.macroscopic(t, runs),
            2 => {
                if t.params.filter_eps != 0.0 {
                    self.filter_and_resynthesize(t, runs);
                }
                t.step += 1;
            }
            _ => unreachable!("LBM3 has 3 compute phases"),
        }
    }
}

impl Solver3 for LatticeBoltzmann3 {
    fn kind(&self) -> MethodKind {
        MethodKind::LatticeBoltzmann
    }

    fn halo(&self) -> usize {
        LBM3_HALO
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
        (xch == 0).then_some(0)
    }

    fn compute_interior(&self, t: &mut TileState3, phase: usize) {
        assert_eq!(phase, 0, "only relax+shift overlaps the exchange");
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        // relaxation is pointwise, so interior nodes read no halo data
        t.with_run_table(|t, runs| self.relax_window(t, (0, nz), (0, ny), (0, nx), Some(runs)));
    }

    fn compute_boundary(&self, t: &mut TileState3, phase: usize) {
        assert_eq!(phase, 0, "only relax+shift overlaps the exchange");
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let nz = t.nz() as isize;
        // the six ghost slabs around the interior box of compute_interior
        t.with_run_table(|t, table| {
            let runs = Some(table);
            self.relax_window(t, (-3, 0), (-3, ny + 3), (-3, nx + 3), runs);
            self.relax_window(t, (nz, nz + 3), (-3, ny + 3), (-3, nx + 3), runs);
            self.relax_window(t, (0, nz), (-3, 0), (-3, nx + 3), runs);
            self.relax_window(t, (0, nz), (ny, ny + 3), (-3, nx + 3), runs);
            self.relax_window(t, (0, nz), (0, ny), (-3, 0), runs);
            self.relax_window(t, (0, nz), (0, ny), (nx, nx + 3), runs);
            self.shift(t, table);
        });
    }

    fn pack(&self, t: &TileState3, xch: usize, face: Face, out: &mut Vec<f64>) {
        assert_eq!(xch, 0, "LBM3 has a single exchange");
        for q in 0..Q3 {
            pack(&t.f[q], face, LBM3_HALO, out);
        }
    }

    fn unpack(&self, t: &mut TileState3, xch: usize, face: Face, data: &[f64]) {
        assert_eq!(xch, 0, "LBM3 has a single exchange");
        let mut at = 0;
        for q in 0..Q3 {
            at += unpack(&mut t.f[q], face, LBM3_HALO, &data[at..]);
        }
    }

    fn message_doubles(&self, t: &TileState3, xch: usize, face: Face) -> usize {
        assert_eq!(xch, 0);
        Q3 * message_len(&[t.nx(), t.ny(), t.nz()], face, LBM3_HALO)
    }

    fn make_tile(
        &self,
        mask: PaddedGrid3<Cell>,
        params: FluidParams,
        offset: (usize, usize, usize),
        init: &InitialState3,
    ) -> TileState3 {
        assert!(
            mask.halo() >= LBM3_HALO,
            "tile mask halo too small for LBM3"
        );
        let (nx, ny, nz, h) = (mask.nx(), mask.ny(), mask.nz(), mask.halo());
        let mut mac = Macro3::uniform(nx, ny, nz, h, params.rho0);
        let mut f: Vec<PaddedGrid3<f64>> = (0..Q3)
            .map(|_| PaddedGrid3::new(nx, ny, nz, h, 0.0))
            .collect();
        let hi = h as isize;
        let inv_c = params.dt / params.dx;
        for k in -hi..(nz as isize + hi) {
            for j in -hi..(ny as isize + hi) {
                for i in -hi..(nx as isize + hi) {
                    let (rho, vx, vy, vz) = if mask[(i, j, k)].is_wall() {
                        (params.rho0, 0.0, 0.0, 0.0)
                    } else {
                        init.at(i, j, k)
                    };
                    mac.rho[(i, j, k)] = rho;
                    mac.vx[(i, j, k)] = vx;
                    mac.vy[(i, j, k)] = vy;
                    mac.vz[(i, j, k)] = vz;
                    let (ux, uy, uz) = (vx * inv_c, vy * inv_c, vz * inv_c);
                    for (q, fq) in f.iter_mut().enumerate() {
                        fq[(i, j, k)] = feq3(q, rho, ux, uy, uz);
                    }
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
            f,
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
    use crate::kernels::tests::Draw;

    fn step_serial(solver: &LatticeBoltzmann3, t: &mut TileState3, wrap: bool) {
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

    fn wrap_x(solver: &LatticeBoltzmann3, t: &mut TileState3, x: usize) {
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
    ) -> (LatticeBoltzmann3, TileState3) {
        let geom = subsonic_grid::Geometry3::duct(nx, ny, nz, 2);
        let d =
            subsonic_grid::Decomp::with_periodicity([nx, ny, nz], [1, 1, 1], [true, false, false]);
        let mask = geom.tile_mask(&d, 0, LBM3_HALO);
        let solver = LatticeBoltzmann3;
        let init = InitialState3::uniform(params.rho0);
        let tile = solver.make_tile(mask, params, (0, 0, 0), &init);
        (solver, tile)
    }

    #[test]
    fn uniform_rest_state_is_a_fixed_point() {
        let params = FluidParams::lattice_units(0.05);
        let (solver, mut t) = duct_tile(8, 9, 9, params);
        for _ in 0..3 {
            step_serial(&solver, &mut t, true);
        }
        assert!((t.mac.rho[(4, 4, 4)] - 1.0).abs() < 1e-12);
        assert!(t.mac.vx[(4, 4, 4)].abs() < 1e-12);
    }

    #[test]
    fn body_force_accelerates_duct_fluid() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let (solver, mut t) = duct_tile(8, 9, 9, params);
        for _ in 0..25 {
            step_serial(&solver, &mut t, true);
        }
        assert!(t.mac.vx[(4, 4, 4)] > 1e-6, "fluid did not accelerate");
        assert_eq!(t.mac.vx[(4, 0, 4)], 0.0, "wall moved");
    }

    #[test]
    fn lbm3_message_is_q3_populations() {
        let params = FluidParams::lattice_units(0.05);
        let (solver, t) = duct_tile(8, 9, 9, params);
        assert_eq!(
            solver.message_doubles(&t, 0, Face::East),
            Q3 * LBM3_HALO * 9 * 9
        );
    }

    /// Two-buffer streaming over `[-2, n+2)`, with hold and bounce-back
    /// decided per cell from the mask (see the 2D reference).
    fn shift_reference(t: &mut TileState3) {
        let src = t.f.clone();
        let (nx, ny, nz) = (t.nx() as isize, t.ny() as isize, t.nz() as isize);
        let TileState3 { f, mask, .. } = t;
        for (q, fq) in f.iter_mut().enumerate() {
            let (ex, ey, ez) = E3[q];
            for k in -2..nz + 2 {
                for j in -2..ny + 2 {
                    for i in -2..nx + 2 {
                        fq[(i, j, k)] = if mask[(i, j, k)].is_wall() {
                            src[q][(i, j, k)]
                        } else if mask[(i - ex, j - ey, k - ez)].is_wall() {
                            src[OPP3[q]][(i, j, k)]
                        } else {
                            src[q][(i - ex, j - ey, k - ez)]
                        };
                    }
                }
            }
        }
    }

    /// A padded mask with every wall pattern a stream must get right: plane
    /// `-2` (the window's edge) and plane `nz/2` all wall; row `j = ny/2`
    /// of every plane all wall; row `j = 3` with wall runs over both ends of
    /// the streamed window, into the outer ghost ring; elsewhere, ghost ring
    /// included, 1 cell in 8 a wall and 1 in 32 each an inlet and an outlet.
    fn shift_mask(nx: usize, ny: usize, nz: usize, d: &mut Draw) -> PaddedGrid3<Cell> {
        let (w, mid_j, mid_k) = (nx as isize, ny as isize / 2, nz as isize / 2);
        PaddedGrid3::from_fn(nx, ny, nz, LBM3_HALO, |i, j, k| {
            let edges = j == 3 && (i < 1 || i >= w - 1);
            if k == -2 || k == mid_k || j == mid_j || edges {
                Cell::Wall
            } else {
                d.cell(4)
            }
        })
    }

    #[test]
    fn in_place_shift_matches_two_buffer_reference() {
        let mut params = FluidParams::lattice_units(0.06);
        params.body_force[0] = 2e-5;
        let (solver, mut duct) = duct_tile(7, 8, 6, params);
        for _ in 0..2 {
            step_serial(&solver, &mut duct, true);
        }
        let nx = duct.nx() as isize;
        let ny = duct.ny() as isize;
        let nz = duct.nz() as isize;
        let runs = RunTable::build3(&duct.mask);
        solver.relax_window(
            &mut duct,
            (-3, nz + 3),
            (-3, ny + 3),
            (-3, nx + 3),
            Some(&runs),
        );
        let mut tiles = vec![duct];
        // random masks, with a random value in every population slot
        let init = InitialState3::uniform(params.rho0);
        let mut d = Draw(43);
        for n in 0..4 {
            let (nx, ny, nz) = (7 + n % 3, 7 + n % 2, 5 + n % 3);
            let mask = shift_mask(nx, ny, nz, &mut d);
            let mut t = solver.make_tile(mask, params, (0, 0, 0), &init);
            for v in t.f.iter_mut().flat_map(|fq| fq.raw_mut()) {
                *v = d.below(1 << 40) as f64;
            }
            tiles.push(t);
        }
        for (n, t) in tiles.into_iter().enumerate() {
            let mut want = t.clone();
            shift_reference(&mut want);
            let mut fast = t.clone();
            let runs = RunTable::build3(&fast.mask);
            solver.shift(&mut fast, &runs);
            let mut scalar = t;
            solver.stream_scalar(&mut scalar);
            for q in 0..Q3 {
                assert_eq!(fast.f[q], want.f[q], "tile {n}: population {q} diverged");
                assert_eq!(scalar.f[q], want.f[q], "tile {n}: oracle population {q}");
            }
        }
    }

    #[test]
    fn shift_reuses_its_bounce_buffer() {
        let (solver, mut t) = duct_tile(8, 7, 6, FluidParams::lattice_units(0.06));
        let buffer = |t: &TileState3| {
            let links = t
                .shift_links
                .as_ref()
                .expect("the first shift builds the links");
            (links.bounce_vals.as_ptr(), links.bounce_vals.capacity())
        };
        solver.compute(&mut t, 0);
        let first = buffer(&t);
        assert!(first.1 > 0, "a duct has bounce-back links");
        for k in 1..3 {
            solver.compute(&mut t, k);
        }
        solver.compute(&mut t, 0);
        assert_eq!(buffer(&t), first, "the second shift reallocated");
    }

    #[test]
    fn fast_and_scalar_paths_agree_bitwise() {
        let mut params = FluidParams::lattice_units(0.07);
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
        for q in 0..Q3 {
            assert_eq!(fast.f[q], slow.f[q], "population {q} diverged");
        }
    }

    #[test]
    fn interior_plus_boundary_equals_full_compute() {
        let mut params = FluidParams::lattice_units(0.06);
        params.body_force[0] = 1e-5;
        let (solver, mut full) = duct_tile(8, 7, 6, params);
        for _ in 0..2 {
            step_serial(&solver, &mut full, true);
        }
        let mut split = full.clone();
        wrap_x(&solver, &mut full, 0);
        for k in 0..3 {
            solver.compute(&mut full, k);
        }
        // the overlapping runner packs and posts the sends first, then
        // relaxes the interior while the halo is in flight, then unpacks
        assert_eq!(solver.overlapped_phase(0), Some(0));
        let sends: Vec<(Face, Vec<f64>)> = [Face::West, Face::East]
            .into_iter()
            .map(|face| {
                let mut buf = Vec::new();
                solver.pack(&split, 0, face.opposite(), &mut buf);
                (face, buf)
            })
            .collect();
        solver.compute_interior(&mut split, 0);
        for (face, buf) in &sends {
            solver.unpack(&mut split, 0, *face, buf);
        }
        solver.compute_boundary(&mut split, 0);
        for k in 1..3 {
            solver.compute(&mut split, k);
        }
        assert_eq!(full.mac.rho, split.mac.rho);
        for q in 0..Q3 {
            assert_eq!(full.f[q], split.f[q], "population {q} diverged");
        }
    }
}
