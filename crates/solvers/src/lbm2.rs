//! The lattice Boltzmann method in 2D (D2Q9, BGK relaxation).
//!
//! Section 6 of the paper: "The lattice Boltzmann method uses two kinds of
//! variables to represent the fluid, the traditional fluid variables ρ, Vx,
//! Vy, and another set of variables called populations F_i. During each cycle
//! of the computation, the fluid variables are computed from the F_i, and
//! then ... used to relax the F_i. Subsequently, the relaxed populations are
//! shifted to the nearest neighbors of each fluid node, and the cycle
//! repeats":
//!
//! ```text
//! Communicate: send/recv F_i      Exchange(0)
//! Relax F_i + Shift F_i (inner)   Compute(0)
//! Calculate rho, V from F_i  \
//! Filter rho, Vx, Vy (inner)  }   Compute(1), one row-pipelined sweep
//! Re-synthesise F_i (inner)  /
//! ```
//!
//! One message per neighbour per step (vs two for FD) — the property the
//! paper uses to explain why LB efficiency degrades more slowly at small
//! subregions (Figure 5 vs Figure 7).
//!
//! Walls use half-way bounce-back (second-order accurate: the no-slip plane
//! sits half a lattice link outside the last fluid node); inlets impose the
//! equilibrium of the jet velocity; outlets re-equilibrate to the reference
//! density (pressure release). A body force `a` enters via the standard
//! velocity shift `u_eq = u + τ a`, and the macroscopic output velocity
//! carries the usual `+ a/2` half-force correction. After filtering ρ, V, the
//! populations are re-synthesised as `f = f_eq(filtered) + (f − f_eq(raw))`,
//! preserving the non-equilibrium (viscous-stress) part.
//!
//! The method works in lattice units internally; macroscopic fields are
//! stored in physical units (`Δx`, `Δt` conversions applied), so diagnostics
//! are method-agnostic.
//!
//! ## Kernel structure (fast vs scalar path)
//!
//! Each grid is one dense f64 plane per quantity (structure-of-arrays: nine
//! population planes, three macroscopic planes), so the unit-stride direction
//! of every sweep is a flat `&[f64]`. The fast path scans no mask: every
//! kernel — relaxation of any window, the moments, both filter passes and
//! re-synthesis — takes its runs from the tile's [`RunTable`], built once
//! from the mask, clipped to the kernel's window. Each run goes to a
//! branch-free straight-line kernel over trimmed sub-slices, which the
//! autovectorizer turns into SIMD lanes; the window's other cells fall back
//! to the per-cell scalar kernel. Both paths evaluate identical
//! floating-point expressions in identical association order, so `compute`
//! and [`Solver2::compute_scalar`] (which keeps its per-cell mask checks)
//! agree bitwise. Streaming is *in place*, eliminating the second
//! population buffer: each population plane copies only the non-wall runs
//! of its rows, in an order that reads every value before it is
//! overwritten, so wall nodes are never written; the cached [`ShiftLinks2`]
//! bounce-backs are the one fix-up. The scalar oracle streams cell by cell
//! from the mask instead, so the two streams check each other.
//!
//! The cycle is organised by how often it walks a plane (one pass = one plane
//! read or written once), although on this layout the step costs about the
//! same per node from L2 as from DRAM (`reproduce t1`'s anatomy table): it
//! is bound by instructions per node more than by passes.
//!
//! * `Compute(0)` relaxes in place (9 read + 9 written = 18 passes) and
//!   streams in place (8 moving planes, 16 passes, over non-wall nodes only).
//! * `Compute(1)` is a single sweep, [`HalfStep`]: the moments of row `jj`
//!   go into `mac` and, x-filtered, into a 5-row ring; row `jj-2` is then
//!   y-filtered out of the ring into a one-row buffer, its populations are
//!   re-synthesised against the still-raw `mac` row, and the buffer replaces
//!   that row. One list of stencil ranges per row serves ρ, Vx and Vy in
//!   each filter pass, and each pass copies only the cells between those
//!   ranges. From DRAM that is 9 `f` planes read, 9 written back and 3 `mac`
//!   planes written — 21 passes — because the `f` rows read for the moments
//!   are still cache-resident two rows later (ring + row set ≈ 0.4 MB at
//!   `nx = 1024`). There are no full-plane temporaries: LB tiles carry
//!   zero-extent `mac_new`/`scratch`.
//!
//! The plane-by-plane form this replaced (moments 12, raw copy 6, three
//! two-pass filters 12, re-synthesis 24 = 54 passes) survives, per cell, as
//! the scalar oracle behind [`Solver2::compute_scalar`].

use crate::fields::{Macro2, ShiftLinks2, TileState2};
use crate::filter::{filter_field2_scalar, filter_rows_across, filter_rows_x, REACH};
use crate::init::InitialState2;
use crate::kernels::{RunTable, Seg, WindowSegs};
use crate::params::{FluidParams, MethodKind};
use crate::plan::StepOp;
use crate::qlattice::{eq_poly, feq2, E2, OPP2, Q2, W2};
use crate::solver::Solver2;
use subsonic_grid::halo::{message_len, pack, unpack};
use subsonic_grid::{Cell, Face, PaddedGrid2};

/// Ghost-layer width required by the LB scheme: 1 for the shift plus 2 for
/// the filter stencil.
pub const LBM2_HALO: usize = 3;

static PLAN: [StepOp; 3] = [StepOp::Exchange(0), StepOp::Compute(0), StepOp::Compute(1)];

/// Hoisted per-sweep relaxation constants. `tax`/`tay` are `τ·a` — hoisting
/// the product out of the loop is exact (same two operands, same multiply).
#[derive(Clone, Copy)]
struct RelaxP {
    inv_tau: f64,
    tax: f64,
    tay: f64,
    uin_x: f64,
    uin_y: f64,
    rho0: f64,
}

impl RelaxP {
    fn new(p: &FluidParams) -> Self {
        let tau = p.lbm_tau();
        Self {
            inv_tau: 1.0 / tau,
            tax: tau * p.accel_to_lattice(p.body_force[0]),
            tay: tau * p.accel_to_lattice(p.body_force[1]),
            uin_x: p.velocity_to_lattice(p.inlet_velocity[0]),
            uin_y: p.velocity_to_lattice(p.inlet_velocity[1]),
            rho0: p.rho0,
        }
    }
}

/// Scalar relaxation of one cell — the reference arm for every cell kind.
#[inline(always)]
fn relax_cell(x: usize, cell: Cell, frows: &mut [&mut [f64]; Q2], p: &RelaxP) {
    match cell {
        Cell::Fluid => {
            let mut rho = 0.0;
            let mut mx = 0.0;
            let mut my = 0.0;
            for (q, fr) in frows.iter().enumerate() {
                let f = fr[x];
                rho += f;
                mx += f * E2[q].0 as f64;
                my += f * E2[q].1 as f64;
            }
            let ux = mx / rho + p.tax;
            let uy = my / rho + p.tay;
            for (q, fr) in frows.iter_mut().enumerate() {
                let f = fr[x];
                fr[x] = f + (feq2(q, rho, ux, uy) - f) * p.inv_tau;
            }
        }
        Cell::Inlet => {
            for (q, fr) in frows.iter_mut().enumerate() {
                fr[x] = feq2(q, p.rho0, p.uin_x, p.uin_y);
            }
        }
        Cell::Outlet => {
            let mut rho = 0.0;
            let mut mx = 0.0;
            let mut my = 0.0;
            for (q, fr) in frows.iter().enumerate() {
                let f = fr[x];
                rho += f;
                mx += f * E2[q].0 as f64;
                my += f * E2[q].1 as f64;
            }
            let ux = mx / rho;
            let uy = my / rho;
            for (q, fr) in frows.iter_mut().enumerate() {
                fr[x] = feq2(q, p.rho0, ux, uy);
            }
        }
        Cell::Wall => {}
    }
}

/// Branch-free relaxation of a contiguous fluid run `x ∈ [a, b)`.
///
/// This is the `Fluid` arm of [`relax_cell`] with the lattice loops unrolled
/// and the zero terms of the moment sums dropped; every expression keeps the
/// reference association order (see [`eq_poly`] for why the dropped zero
/// terms are invisible), so results are bitwise identical while the
/// straight-line body vectorizes across x.
#[inline(always)]
fn relax_run(frows: &mut [&mut [f64]; Q2], a: usize, b: usize, p: &RelaxP) {
    let [f0, f1, f2, f3, f4, f5, f6, f7, f8] = frows.each_mut();
    let f0 = &mut f0[a..b];
    let f1 = &mut f1[a..b];
    let f2 = &mut f2[a..b];
    let f3 = &mut f3[a..b];
    let f4 = &mut f4[a..b];
    let f5 = &mut f5[a..b];
    let f6 = &mut f6[a..b];
    let f7 = &mut f7[a..b];
    let f8 = &mut f8[a..b];
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
        let rho = g0 + g1 + g2 + g3 + g4 + g5 + g6 + g7 + g8;
        let mx = g1 - g2 + g5 - g6 - g7 + g8;
        let my = g3 - g4 + g5 - g6 + g7 - g8;
        let ux = mx / rho + p.tax;
        let uy = my / rho + p.tay;
        let hsq = 1.5 * (ux * ux + uy * uy);
        let s = ux + uy; // e·u for the (1,1) diagonal
        let d = uy - ux; // e·u for the (-1,1) diagonal
        let wc = W2[0] * rho;
        let wa = W2[1] * rho;
        let wd = W2[5] * rho;
        f0[x] = g0 + (wc * (1.0 - hsq) - g0) * p.inv_tau;
        f1[x] = g1 + (wa * eq_poly(ux, hsq) - g1) * p.inv_tau;
        f2[x] = g2 + (wa * eq_poly(-ux, hsq) - g2) * p.inv_tau;
        f3[x] = g3 + (wa * eq_poly(uy, hsq) - g3) * p.inv_tau;
        f4[x] = g4 + (wa * eq_poly(-uy, hsq) - g4) * p.inv_tau;
        f5[x] = g5 + (wd * eq_poly(s, hsq) - g5) * p.inv_tau;
        f6[x] = g6 + (wd * eq_poly(-s, hsq) - g6) * p.inv_tau;
        f7[x] = g7 + (wd * eq_poly(d, hsq) - g7) * p.inv_tau;
        f8[x] = g8 + (wd * eq_poly(-d, hsq) - g8) * p.inv_tau;
    }
}

/// One row of relaxation: given the row's fluid segments (the fast path),
/// runs through the vector kernel and everything else through the scalar
/// cell kernel; without them, all-scalar.
#[inline(always)]
fn relax_row(
    mrow: &[Cell],
    segs: Option<WindowSegs<'_>>,
    frows: &mut [&mut [f64]; Q2],
    p: &RelaxP,
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

/// Hoisted constants for the macroscopic moments.
#[derive(Clone, Copy)]
struct MacP {
    c: f64,
    hax: f64,
    hay: f64,
    rho0: f64,
}

impl MacP {
    fn new(p: &FluidParams) -> Self {
        Self {
            c: p.dx / p.dt,
            hax: 0.5 * p.accel_to_lattice(p.body_force[0]),
            hay: 0.5 * p.accel_to_lattice(p.body_force[1]),
            rho0: p.rho0,
        }
    }
}

/// Output rows of one macroscopic sweep row.
struct MacRows<'a> {
    rho: &'a mut [f64],
    vx: &'a mut [f64],
    vy: &'a mut [f64],
}

#[inline(always)]
fn mac_cell(x: usize, cell: Cell, frows: &[&[f64]; Q2], out: &mut MacRows<'_>, p: &MacP) {
    if cell.is_wall() {
        out.rho[x] = p.rho0;
        out.vx[x] = 0.0;
        out.vy[x] = 0.0;
        return;
    }
    let mut rho = 0.0;
    let mut mx = 0.0;
    let mut my = 0.0;
    for (q, fr) in frows.iter().enumerate() {
        let f = fr[x];
        rho += f;
        mx += f * E2[q].0 as f64;
        my += f * E2[q].1 as f64;
    }
    out.rho[x] = rho;
    out.vx[x] = (mx / rho + p.hax) * p.c;
    out.vy[x] = (my / rho + p.hay) * p.c;
}

/// Vector kernel for a non-wall run of the macroscopic sweep; moment sums in
/// the same order as [`mac_cell`] with zero terms dropped.
#[inline(always)]
fn mac_run(frows: &[&[f64]; Q2], out: &mut MacRows<'_>, a: usize, b: usize, p: &MacP) {
    let f0 = &frows[0][a..b];
    let f1 = &frows[1][a..b];
    let f2 = &frows[2][a..b];
    let f3 = &frows[3][a..b];
    let f4 = &frows[4][a..b];
    let f5 = &frows[5][a..b];
    let f6 = &frows[6][a..b];
    let f7 = &frows[7][a..b];
    let f8 = &frows[8][a..b];
    let rho_o = &mut out.rho[a..b];
    let vx_o = &mut out.vx[a..b];
    let vy_o = &mut out.vy[a..b];
    for x in 0..b - a {
        let rho = f0[x] + f1[x] + f2[x] + f3[x] + f4[x] + f5[x] + f6[x] + f7[x] + f8[x];
        let mx = f1[x] - f2[x] + f5[x] - f6[x] - f7[x] + f8[x];
        let my = f3[x] - f4[x] + f5[x] - f6[x] + f7[x] - f8[x];
        rho_o[x] = rho;
        vx_o[x] = (mx / rho + p.hax) * p.c;
        vy_o[x] = (my / rho + p.hay) * p.c;
    }
}

/// One row of macroscopic moments: the row's non-wall runs (`segs`) through
/// the vector kernel, wall cells through the scalar cell kernel.
#[inline(always)]
fn mac_row(
    mrow: &[Cell],
    segs: WindowSegs<'_>,
    frows: &[&[f64]; Q2],
    out: &mut MacRows<'_>,
    p: &MacP,
) {
    for seg in segs {
        match seg {
            Seg::Run(a, b) => mac_run(frows, out, a, b, p),
            Seg::One(x) => mac_cell(x, mrow[x], frows, out, p),
        }
    }
}

/// Hoisted constants for population re-synthesis.
#[derive(Clone, Copy)]
struct ResynP {
    inv_c: f64,
    hax: f64,
    hay: f64,
}

impl ResynP {
    fn new(p: &FluidParams) -> Self {
        Self {
            inv_c: p.dt / p.dx,
            hax: 0.5 * p.accel_to_lattice(p.body_force[0]),
            hay: 0.5 * p.accel_to_lattice(p.body_force[1]),
        }
    }
}

/// Input rows for re-synthesis: filtered (`_f`) and raw (`_r`) macro fields.
struct ResynRows<'a> {
    rho_f: &'a [f64],
    vx_f: &'a [f64],
    vy_f: &'a [f64],
    rho_r: &'a [f64],
    vx_r: &'a [f64],
    vy_r: &'a [f64],
}

#[inline(always)]
fn resyn_cell(x: usize, cell: Cell, frows: &mut [&mut [f64]; Q2], src: &ResynRows<'_>, p: &ResynP) {
    if !cell.is_fluid() {
        return;
    }
    let rho_f = src.rho_f[x];
    let ux_f = src.vx_f[x] * p.inv_c - p.hax;
    let uy_f = src.vy_f[x] * p.inv_c - p.hay;
    let rho_r = src.rho_r[x];
    let ux_r = src.vx_r[x] * p.inv_c - p.hax;
    let uy_r = src.vy_r[x] * p.inv_c - p.hay;
    for (q, fr) in frows.iter_mut().enumerate() {
        let fneq = fr[x] - feq2(q, rho_r, ux_r, uy_r);
        fr[x] = feq2(q, rho_f, ux_f, uy_f) + fneq;
    }
}

/// Vector kernel for a fluid run of the re-synthesis sweep:
/// `f ← f_eq(filtered) + (f − f_eq(raw))` with both equilibria unrolled.
#[inline(always)]
fn resyn_run(frows: &mut [&mut [f64]; Q2], src: &ResynRows<'_>, a: usize, b: usize, p: &ResynP) {
    let [f0, f1, f2, f3, f4, f5, f6, f7, f8] = frows.each_mut();
    let f0 = &mut f0[a..b];
    let f1 = &mut f1[a..b];
    let f2 = &mut f2[a..b];
    let f3 = &mut f3[a..b];
    let f4 = &mut f4[a..b];
    let f5 = &mut f5[a..b];
    let f6 = &mut f6[a..b];
    let f7 = &mut f7[a..b];
    let f8 = &mut f8[a..b];
    let rho_f = &src.rho_f[a..b];
    let vx_f = &src.vx_f[a..b];
    let vy_f = &src.vy_f[a..b];
    let rho_r = &src.rho_r[a..b];
    let vx_r = &src.vx_r[a..b];
    let vy_r = &src.vy_r[a..b];
    for x in 0..b - a {
        let ux_f = vx_f[x] * p.inv_c - p.hax;
        let uy_f = vy_f[x] * p.inv_c - p.hay;
        let ux_r = vx_r[x] * p.inv_c - p.hax;
        let uy_r = vy_r[x] * p.inv_c - p.hay;
        let hf = 1.5 * (ux_f * ux_f + uy_f * uy_f);
        let hr = 1.5 * (ux_r * ux_r + uy_r * uy_r);
        let (sf, df) = (ux_f + uy_f, uy_f - ux_f);
        let (sr, dr) = (ux_r + uy_r, uy_r - ux_r);
        let wcf = W2[0] * rho_f[x];
        let waf = W2[1] * rho_f[x];
        let wdf = W2[5] * rho_f[x];
        let wcr = W2[0] * rho_r[x];
        let war = W2[1] * rho_r[x];
        let wdr = W2[5] * rho_r[x];
        f0[x] = wcf * (1.0 - hf) + (f0[x] - wcr * (1.0 - hr));
        f1[x] = waf * eq_poly(ux_f, hf) + (f1[x] - war * eq_poly(ux_r, hr));
        f2[x] = waf * eq_poly(-ux_f, hf) + (f2[x] - war * eq_poly(-ux_r, hr));
        f3[x] = waf * eq_poly(uy_f, hf) + (f3[x] - war * eq_poly(uy_r, hr));
        f4[x] = waf * eq_poly(-uy_f, hf) + (f4[x] - war * eq_poly(-uy_r, hr));
        f5[x] = wdf * eq_poly(sf, hf) + (f5[x] - wdr * eq_poly(sr, hr));
        f6[x] = wdf * eq_poly(-sf, hf) + (f6[x] - wdr * eq_poly(-sr, hr));
        f7[x] = wdf * eq_poly(df, hf) + (f7[x] - wdr * eq_poly(dr, hr));
        f8[x] = wdf * eq_poly(-df, hf) + (f8[x] - wdr * eq_poly(-dr, hr));
    }
}

/// One row of re-synthesis: the row's fluid runs (`segs`) through the vector
/// kernel (every other cell kind keeps its populations, as in
/// [`resyn_cell`]).
#[inline(always)]
fn resyn_row(
    mrow: &[Cell],
    segs: WindowSegs<'_>,
    frows: &mut [&mut [f64]; Q2],
    src: &ResynRows<'_>,
    p: &ResynP,
) {
    for seg in segs {
        match seg {
            Seg::Run(a, b) => resyn_run(frows, src, a, b, p),
            Seg::One(x) => resyn_cell(x, mrow[x], frows, src, p),
        }
    }
}

/// One population plane `fq` of lattice velocity `(ex, ey)` streamed in
/// place, cell by cell from the mask: every non-wall node of the streamed
/// region `[-2, n+2)` takes the value upstream, or `opp`'s value at the node
/// itself when the upstream node is a wall (half-way bounce-back); wall
/// nodes keep theirs. Each axis is walked against the velocity, so every
/// upstream value is read before it is overwritten.
fn stream_cells(
    fq: &mut PaddedGrid2<f64>,
    opp: &PaddedGrid2<f64>,
    mask: &PaddedGrid2<Cell>,
    (ex, ey): (isize, isize),
) {
    for j in against(mask.ny(), ey) {
        for i in against(mask.nx(), ex) {
            if mask[(i, j)].is_wall() {
                continue;
            }
            fq[(i, j)] = if mask[(i - ex, j - ey)].is_wall() {
                opp[(i, j)]
            } else {
                fq[(i - ex, j - ey)]
            };
        }
    }
}

/// The streamed coordinates `[-2, n+2)` of one axis, descending when the
/// lattice velocity `e` points up that axis and ascending otherwise: an
/// in-place stream that walks them reads each upstream node before it
/// writes it.
pub(crate) fn against(n: usize, e: isize) -> impl Iterator<Item = isize> {
    let n = n as isize;
    (-2..n + 2).map(move |s| if e > 0 { n - 1 - s } else { s })
}

/// The 2D lattice Boltzmann method.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatticeBoltzmann2;

impl LatticeBoltzmann2 {
    /// BGK relaxation over the window `rows × cols` (pointwise — reads and
    /// writes only the cell itself, which is what makes the interior/halo
    /// overlap split of [`Solver2::compute_interior`] legal).
    fn relax_window(
        &self,
        t: &mut TileState2,
        rows: (isize, isize),
        cols: (isize, isize),
        runs: Option<&RunTable>,
    ) {
        let p = RelaxP::new(&t.params);
        let (j0, j1) = rows;
        let (i0, i1) = cols;
        let span = (i1 - i0) as usize;
        let TileState2 { f, mask, .. } = t;
        for j in j0..j1 {
            let mrow = mask.row_segment(j, i0, span);
            let mut fit = f.iter_mut();
            let mut frows: [&mut [f64]; Q2] =
                std::array::from_fn(|_| fit.next().unwrap().row_segment_mut(j, i0, span));
            let segs = runs.map(|r| r.fluid(j, 0).segs(i0, span));
            relax_row(mrow, segs, &mut frows, &p);
        }
    }

    /// In-place streaming with half-way bounce-back.
    ///
    /// The bounce-back values (the *opposite* population at the node
    /// itself) are gathered before any plane moves. Each moving plane then
    /// copies, from upstream, only the non-wall runs of every row of the
    /// streamed region `[-2, n+2)` — rows descending in j when the lattice
    /// velocity points up, ascending when down, an overlapping `memmove`
    /// within the row for horizontal links — so wall nodes are never written
    /// and keep their populations. Two runs of one row are at least a wall
    /// node apart, so no run's copy reads a node another run wrote: every
    /// value moved is its pre-shift one. The bounce-back values are
    /// scattered last. Bitwise identical to two-buffer streaming over the
    /// whole streamed region, without the second buffer.
    fn shift(&self, t: &mut TileState2, runs: &RunTable) {
        let mut links = t
            .shift_links
            .take()
            .unwrap_or_else(|| ShiftLinks2::build(&t.mask));
        let ny = t.ny() as isize;
        let span = t.nx() + 4;
        let ShiftLinks2 {
            bounce,
            bounce_vals,
        } = &mut links;
        bounce_vals.clear();
        bounce_vals.extend(
            bounce
                .iter()
                .map(|&(q, i, j)| t.f[OPP2[q as usize]][(i as isize, j as isize)]),
        );
        for (q, fq) in t.f.iter_mut().enumerate() {
            let (ex, ey) = E2[q];
            if ex == 0 && ey == 0 {
                continue;
            }
            let mut stream_row = |j: isize| {
                for (a, b) in runs.active(j, 0).clip(-2, span, 0) {
                    let i = a as isize - 2;
                    fq.copy_row_shifted((i, j), (i - ex, j - ey), b - a);
                }
            };
            if ey > 0 {
                (-2..ny + 2).rev().for_each(&mut stream_row);
            } else {
                (-2..ny + 2).for_each(&mut stream_row);
            }
        }
        for (&(q, i, j), &v) in bounce.iter().zip(bounce_vals.iter()) {
            t.f[q as usize][(i as isize, j as isize)] = v;
        }
        t.shift_links = Some(links);
    }

    /// Scalar oracle: in-place streaming with half-way bounce-back, decided
    /// cell by cell from the mask, with no run table and no link list.
    /// Opposite populations stream as a pair: a copy of the first plane's
    /// pre-shift values (in the oracle's scratch plane, which its filter
    /// reuses) is the second plane's bounce-back source, while the first
    /// bounces back from the still unshifted second.
    fn stream_scalar(&self, t: &mut TileState2) {
        if t.scratch.is_empty() {
            t.scratch = vec![PaddedGrid2::new(t.nx(), t.ny(), t.halo(), 0.0f64)];
        }
        let TileState2 {
            f, mask, scratch, ..
        } = t;
        let pre = &mut scratch[0];
        for q in (1..Q2).filter(|&q| OPP2[q] > q) {
            pre.raw_mut().copy_from_slice(f[q].raw());
            let (lo, hi) = f.split_at_mut(OPP2[q]);
            stream_cells(&mut lo[q], &hi[0], mask, E2[q]);
            stream_cells(&mut hi[0], pre, mask, E2[OPP2[q]]);
        }
    }

    /// Scalar oracle: macroscopic fields from the populations, per cell
    /// (stored in physical units, with the half-force correction on the
    /// velocity) over the streamed region `[-2, n+2)`.
    fn macroscopic(&self, t: &mut TileState2) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        let mp = MacP::new(&t.params);
        let span = (nx + 4) as usize;
        let TileState2 { mac, f, mask, .. } = t;
        for j in -2..ny + 2 {
            let mrow = mask.row_segment(j, -2, span);
            let mut fit = f.iter();
            let frows: [&[f64]; Q2] =
                std::array::from_fn(|_| fit.next().unwrap().row_segment(j, -2, span));
            let mut out = MacRows {
                rho: mac.rho.row_segment_mut(j, -2, span),
                vx: mac.vx.row_segment_mut(j, -2, span),
                vy: mac.vy.row_segment_mut(j, -2, span),
            };
            for (x, &cell) in mrow.iter().enumerate() {
                mac_cell(x, cell, &frows, &mut out, &mp);
            }
        }
    }

    /// Scalar oracle: filter ρ, V plane by plane and re-synthesise the
    /// populations on the interior. LB tiles are built without the two
    /// full-plane temporaries this needs (raw copy, filter scratch); the
    /// oracle grows them on first use and keeps them, so its rate — the
    /// baseline of the SIMD-speedup figures — pays no allocation per step.
    fn filter_and_resynthesize(&self, t: &mut TileState2) {
        let eps = t.params.filter_eps;
        if t.mac_new.rho.nx() != t.nx() {
            t.mac_new = t.mac.clone();
        }
        if t.scratch.is_empty() {
            t.scratch = vec![PaddedGrid2::new(t.nx(), t.ny(), t.halo(), 0.0f64)];
        }
        // keep the raw macroscopic fields for the non-equilibrium split
        t.mac_new.rho.copy_interior_from(&t.mac.rho);
        t.mac_new.vx.copy_interior_from(&t.mac.vx);
        t.mac_new.vy.copy_interior_from(&t.mac.vy);
        let TileState2 {
            mac, scratch, mask, ..
        } = t;
        let sx = &mut scratch[0];
        filter_field2_scalar(&mut mac.rho, sx, mask, eps, 0);
        filter_field2_scalar(&mut mac.vx, sx, mask, eps, 0);
        filter_field2_scalar(&mut mac.vy, sx, mask, eps, 0);
        self.resynthesize(t);
    }

    /// Scalar oracle: `f ← f_eq(filtered) + (f − f_eq(raw))` per interior
    /// cell, filtered = `t.mac`, raw = `t.mac_new`.
    fn resynthesize(&self, t: &mut TileState2) {
        let ny = t.ny() as isize;
        let rp = ResynP::new(&t.params);
        let TileState2 {
            mac,
            mac_new,
            f,
            mask,
            ..
        } = t;
        for j in 0..ny {
            let mrow = mask.interior_row(j);
            let src = ResynRows {
                rho_f: mac.rho.interior_row(j),
                vx_f: mac.vx.interior_row(j),
                vy_f: mac.vy.interior_row(j),
                rho_r: mac_new.rho.interior_row(j),
                vx_r: mac_new.vx.interior_row(j),
                vy_r: mac_new.vy.interior_row(j),
            };
            let mut fit = f.iter_mut();
            let mut frows: [&mut [f64]; Q2] =
                std::array::from_fn(|_| fit.next().unwrap().interior_row_mut(j));
            for (x, &cell) in mrow.iter().enumerate() {
                resyn_cell(x, cell, &mut frows, &src, &rp);
            }
        }
    }

    /// The macroscopic → filter → re-synthesis half of the cycle as one
    /// row-pipelined sweep (see [`HalfStep`]).
    fn half_step(&self, t: &mut TileState2, runs: &RunTable) {
        let hs = HalfStep {
            nx: t.nx(),
            ny: t.ny() as isize,
            mp: MacP::new(&t.params),
            rp: ResynP::new(&t.params),
            eps: t.params.filter_eps,
            mask: &t.mask,
            runs,
        };
        let rows_len = if hs.eps == 0.0 { 0 } else { hs.rows_len() };
        if t.sweep_rows.len() != rows_len {
            t.sweep_rows = vec![0.0; rows_len];
        }
        let TileState2 {
            mac, f, sweep_rows, ..
        } = t;
        let mut fit = f.iter_mut();
        hs.sweep(
            [&mut mac.rho, &mut mac.vx, &mut mac.vy],
            std::array::from_fn(|_| fit.next().expect("nine population planes")),
            sweep_rows,
        );
    }
}

/// Splits the first `3n` values of `s` into three rows of `n`.
#[inline(always)]
fn rows3(s: &[f64], n: usize) -> [&[f64]; 3] {
    [&s[..n], &s[n..2 * n], &s[2 * n..3 * n]]
}

/// Mutable form of [`rows3`].
#[inline(always)]
fn rows3_mut(s: &mut [f64], n: usize) -> [&mut [f64]; 3] {
    let (a, rest) = s.split_at_mut(n);
    let (b, rest) = rest.split_at_mut(n);
    [a, b, &mut rest[..n]]
}

/// The macroscopic → filter → re-synthesis half of the LB cycle as a row
/// pipeline over the tile.
///
/// For `jj` in `-2..ny+2` the sweep computes the moments of row `jj` from
/// `f` into `mac` and x-filters them into the ring; as soon as row `j = jj-2`
/// has its five x-filtered rows it is y-filtered into `out`, `f` row `j` is
/// re-synthesised with *raw* = the still-unfiltered `mac` row `j` and
/// *filtered* = `out`, and `out` is stored into `mac` row `j`. The cells, the
/// inputs and the floating-point expressions are those of the plane-by-plane
/// oracle (`macroscopic` → `filter_field2_scalar` ×3 → `resynthesize`); only
/// the order of rows differs, and each `f` row is re-synthesised while the
/// copy read for its moments two rows earlier is still cache-resident. Every
/// kernel takes its runs from the tile's run table; the mask is read only
/// for the per-cell kernel's cells outside them.
struct HalfStep<'a> {
    nx: usize,
    ny: isize,
    mp: MacP,
    rp: ResynP,
    eps: f64,
    mask: &'a PaddedGrid2<Cell>,
    runs: &'a RunTable,
}

impl<'a> HalfStep<'a> {
    /// Length of the row workspace ([`TileState2::sweep_rows`]): a ring of
    /// five x-filtered rows, then the y-filtered row, each three
    /// interior-width rows (ρ, Vx, Vy back to back).
    fn rows_len(&self) -> usize {
        (15 + 3) * self.nx
    }

    /// Raw moments of row `jj` over `[-2, nx+2)` from its population rows.
    #[inline(always)]
    fn moments_row(&self, jj: isize, frows: &[&[f64]; Q2], mut out: MacRows<'_>) {
        let span = self.nx + 4;
        let segs = self.runs.active(jj, 0).segs(-2, span);
        mac_row(
            self.mask.row_segment(jj, -2, span),
            segs,
            frows,
            &mut out,
            &self.mp,
        );
    }

    /// The interior cells of row `jj` that get the x-stencil.
    #[inline(always)]
    fn stencil_x(&self, jj: isize) -> impl Iterator<Item = (usize, usize)> + 'a {
        self.runs.fluid(jj, 0).clip(0, self.nx, REACH)
    }

    /// Start of row `jj`'s slot in the ring.
    #[inline(always)]
    fn slot(&self, jj: isize) -> usize {
        (jj + 2) as usize % 5 * 3 * self.nx
    }

    /// Runs the pipeline over the whole tile: moments over every padded row
    /// in `[-2, ny+2)`, filter and re-synthesis over the interior rows.
    fn sweep(
        &self,
        mut mac: [&mut PaddedGrid2<f64>; 3],
        mut f: [&mut PaddedGrid2<f64>; Q2],
        rows: &mut [f64],
    ) {
        let nx = self.nx;
        let span = nx + 4;
        let moments =
            |mac: &mut [&mut PaddedGrid2<f64>; 3], f: &[&mut PaddedGrid2<f64>; Q2], jj: isize| {
                let frows: [&[f64]; Q2] = std::array::from_fn(|q| f[q].row_segment(jj, -2, span));
                let [rho, vx, vy] = mac.each_mut().map(|g| g.row_segment_mut(jj, -2, span));
                self.moments_row(jj, &frows, MacRows { rho, vx, vy });
            };
        if self.eps == 0.0 {
            // filter disabled: the half-step is the moments alone
            for jj in -2..self.ny + 2 {
                moments(&mut mac, &f, jj);
            }
            return;
        }
        // x-filtered rows `j-2..=j+2` around the row being y-filtered, row
        // `jj` in slot `(jj + 2) % 5`; then the y-filtered row
        let (ring, out) = rows.split_at_mut(15 * nx);
        for jj in -2..self.ny + 2 {
            let at = self.slot(jj);
            moments(&mut mac, &f, jj);
            let raw = mac.each_ref().map(|g| g.row_segment(jj, -2, span));
            filter_rows_x(
                rows3_mut(&mut ring[at..], nx),
                raw,
                self.stencil_x(jj),
                self.eps,
            );
            let j = jj - 2;
            if j < 0 {
                continue;
            }
            let ring = &*ring;
            filter_rows_across(
                rows3_mut(out, nx),
                std::array::from_fn(|c| {
                    std::array::from_fn(|o| {
                        let at = self.slot(j + o as isize - 2) + c * nx;
                        &ring[at..at + nx]
                    })
                }),
                self.runs.across_y(j, 0).clip(0, nx, 0),
                self.eps,
            );
            let [rho_f, vx_f, vy_f] = rows3(out, nx);
            {
                let [rho_r, vx_r, vy_r] = mac.each_ref().map(|g| g.row_segment(j, 0, nx));
                let src = ResynRows {
                    rho_f,
                    vx_f,
                    vy_f,
                    rho_r,
                    vx_r,
                    vy_r,
                };
                let mut fit = f.iter_mut();
                let mut frows: [&mut [f64]; Q2] =
                    std::array::from_fn(|_| fit.next().unwrap().row_segment_mut(j, 0, nx));
                let segs = self.runs.fluid(j, 0).segs(0, nx);
                resyn_row(self.mask.interior_row(j), segs, &mut frows, &src, &self.rp);
            }
            for (g, filtered) in mac.iter_mut().zip([rho_f, vx_f, vy_f]) {
                g.row_segment_mut(j, 0, nx).copy_from_slice(filtered);
            }
        }
    }
}

impl Solver2 for LatticeBoltzmann2 {
    fn kind(&self) -> MethodKind {
        MethodKind::LatticeBoltzmann
    }

    fn halo(&self) -> usize {
        LBM2_HALO
    }

    fn plan(&self) -> &'static [StepOp] {
        &PLAN
    }

    fn compute(&self, t: &mut TileState2, phase: usize) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        match phase {
            0 => t.with_run_table(|t, runs| {
                self.relax_window(t, (-3, ny + 3), (-3, nx + 3), Some(runs));
                self.shift(t, runs);
            }),
            1 => {
                t.with_run_table(|t, runs| self.half_step(t, runs));
                t.step += 1;
            }
            _ => unreachable!("LBM2 has 2 compute phases"),
        }
    }

    fn compute_scalar(&self, t: &mut TileState2, phase: usize) {
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        match phase {
            0 => {
                self.relax_window(t, (-3, ny + 3), (-3, nx + 3), None);
                self.stream_scalar(t);
            }
            1 => {
                self.macroscopic(t);
                if t.params.filter_eps != 0.0 {
                    self.filter_and_resynthesize(t);
                }
                t.step += 1;
            }
            _ => unreachable!("LBM2 has 2 compute phases"),
        }
    }

    fn overlapped_phase(&self, xch: usize) -> Option<usize> {
        (xch == 0).then_some(0)
    }

    fn compute_interior(&self, t: &mut TileState2, phase: usize) {
        assert_eq!(phase, 0, "only relax+shift overlaps the exchange");
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        // relaxation is pointwise, so interior nodes read no halo data
        t.with_run_table(|t, runs| self.relax_window(t, (0, ny), (0, nx), Some(runs)));
    }

    fn compute_boundary(&self, t: &mut TileState2, phase: usize) {
        assert_eq!(phase, 0, "only relax+shift overlaps the exchange");
        let nx = t.nx() as isize;
        let ny = t.ny() as isize;
        // the ghost frame around the interior window of compute_interior
        t.with_run_table(|t, table| {
            let runs = Some(table);
            self.relax_window(t, (-3, 0), (-3, nx + 3), runs);
            self.relax_window(t, (ny, ny + 3), (-3, nx + 3), runs);
            self.relax_window(t, (0, ny), (-3, 0), runs);
            self.relax_window(t, (0, ny), (nx, nx + 3), runs);
            self.shift(t, table);
        });
    }

    fn pack(&self, t: &TileState2, xch: usize, face: Face, out: &mut Vec<f64>) {
        assert_eq!(xch, 0, "LBM2 has a single exchange");
        for q in 0..Q2 {
            pack(&t.f[q], face, LBM2_HALO, out);
        }
    }

    fn unpack(&self, t: &mut TileState2, xch: usize, face: Face, data: &[f64]) {
        assert_eq!(xch, 0, "LBM2 has a single exchange");
        let mut at = 0;
        for q in 0..Q2 {
            at += unpack(&mut t.f[q], face, LBM2_HALO, &data[at..]);
        }
    }

    fn message_doubles(&self, t: &TileState2, xch: usize, face: Face) -> usize {
        assert_eq!(xch, 0);
        Q2 * message_len(&[t.nx(), t.ny()], face, LBM2_HALO)
    }

    fn make_tile(
        &self,
        mask: PaddedGrid2<Cell>,
        params: FluidParams,
        offset: (usize, usize),
        init: &InitialState2,
    ) -> TileState2 {
        assert!(
            mask.halo() >= LBM2_HALO,
            "tile mask halo too small for LBM2"
        );
        let (nx, ny, h) = (mask.nx(), mask.ny(), mask.halo());
        let mut mac = Macro2::uniform(nx, ny, h, params.rho0);
        let mut f: Vec<PaddedGrid2<f64>> =
            (0..Q2).map(|_| PaddedGrid2::new(nx, ny, h, 0.0)).collect();
        let hi = h as isize;
        let inv_c = params.dt / params.dx;
        for j in -hi..(ny as isize + hi) {
            for i in -hi..(nx as isize + hi) {
                let (rho, vx, vy) = if mask[(i, j)].is_wall() {
                    (params.rho0, 0.0, 0.0)
                } else {
                    init.at(i, j)
                };
                mac.rho[(i, j)] = rho;
                mac.vx[(i, j)] = vx;
                mac.vy[(i, j)] = vy;
                let (ux, uy) = (vx * inv_c, vy * inv_c);
                for (q, fq) in f.iter_mut().enumerate() {
                    fq[(i, j)] = feq2(q, rho, ux, uy);
                }
            }
        }
        TileState2 {
            mac,
            // the half-step sweep needs no full-plane temporaries
            mac_new: Macro2::uniform(0, 0, 0, params.rho0),
            f,
            mask,
            scratch: Vec::new(),
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
    use crate::kernels::tests::Draw;

    fn step_serial(solver: &LatticeBoltzmann2, t: &mut TileState2, wrap_x: bool) {
        for op in solver.plan() {
            match *op {
                StepOp::Compute(k) => solver.compute(t, k),
                StepOp::Exchange(x) => {
                    if wrap_x {
                        for face in [Face::West, Face::East] {
                            let mut buf = Vec::new();
                            solver.pack(t, x, face.opposite(), &mut buf);
                            solver.unpack(t, x, face, &buf);
                        }
                    }
                }
            }
        }
    }

    fn wrap_x(solver: &LatticeBoltzmann2, t: &mut TileState2) {
        for face in [Face::West, Face::East] {
            let mut buf = Vec::new();
            solver.pack(t, 0, face.opposite(), &mut buf);
            solver.unpack(t, 0, face, &buf);
        }
    }

    fn channel_tile(nx: usize, ny: usize, params: FluidParams) -> (LatticeBoltzmann2, TileState2) {
        let geom = subsonic_grid::Geometry2::channel(nx, ny, 2);
        let d = subsonic_grid::Decomp::with_periodicity([nx, ny], [1, 1], [true, false]);
        let mask = geom.tile_mask(&d, 0, LBM2_HALO);
        let solver = LatticeBoltzmann2;
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
        for j in 2..10 {
            for i in 0..16 {
                assert!((t.mac.rho[(i, j)] - 1.0).abs() < 1e-12, "rho drifted");
                assert!(t.mac.vx[(i, j)].abs() < 1e-12, "vx drifted");
                assert!(t.mac.vy[(i, j)].abs() < 1e-12, "vy drifted");
            }
        }
    }

    #[test]
    fn body_force_accelerates_channel_fluid() {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let (solver, mut t) = channel_tile(16, 12, params);
        for _ in 0..30 {
            step_serial(&solver, &mut t, true);
        }
        assert!(t.mac.vx[(8, 6)] > 1e-6, "fluid did not accelerate");
        assert_eq!(t.mac.vx[(8, 0)], 0.0, "wall moved");
        assert!(t.mac.vy[(8, 6)].abs() < 1e-10, "transverse flow appeared");
    }

    #[test]
    fn mass_conserved_without_filter() {
        let mut params = FluidParams::lattice_units(0.08);
        params.filter_eps = 0.0;
        params.body_force[0] = 1e-5;
        let (solver, mut t) = channel_tile(12, 10, params);
        let mass = |t: &TileState2| -> f64 {
            let mut m = 0.0;
            for j in 0..10 {
                for i in 0..12 {
                    if !t.mask[(i, j)].is_wall() {
                        m += t.mac.rho[(i, j)];
                    }
                }
            }
            m
        };
        let m0 = mass(&t);
        for _ in 0..50 {
            step_serial(&solver, &mut t, true);
        }
        let m1 = mass(&t);
        assert!((m1 - m0).abs() / m0 < 1e-12, "mass drift {m0} -> {m1}");
    }

    #[test]
    fn mass_nearly_conserved_with_filter() {
        let mut params = FluidParams::lattice_units(0.08);
        params.body_force[0] = 1e-5;
        let (solver, mut t) = channel_tile(12, 10, params);
        let mass = |t: &TileState2| -> f64 {
            let mut m = 0.0;
            for j in 0..10 {
                for i in 0..12 {
                    if !t.mask[(i, j)].is_wall() {
                        m += t.mac.rho[(i, j)];
                    }
                }
            }
            m
        };
        let m0 = mass(&t);
        for _ in 0..50 {
            step_serial(&solver, &mut t, true);
        }
        let m1 = mass(&t);
        assert!((m1 - m0).abs() / m0 < 1e-6, "mass drift {m0} -> {m1}");
    }

    #[test]
    fn plan_has_one_exchange() {
        assert_eq!(crate::plan::exchanges_per_step(LatticeBoltzmann2.plan()), 1);
    }

    #[test]
    fn message_carries_all_populations() {
        let params = FluidParams::lattice_units(0.05);
        let (solver, t) = channel_tile(16, 12, params);
        assert_eq!(
            solver.message_doubles(&t, 0, Face::East),
            Q2 * LBM2_HALO * 12
        );
    }

    /// Two-buffer streaming over `[-2, n+2)`, with hold and bounce-back
    /// decided per cell from the mask: wall nodes keep their populations,
    /// a node whose upstream node is a wall takes the opposite population,
    /// every other node the upstream one.
    fn shift_reference(t: &mut TileState2) {
        let src = t.f.clone();
        let (nx, ny) = (t.nx() as isize, t.ny() as isize);
        let TileState2 { f, mask, .. } = t;
        for (q, fq) in f.iter_mut().enumerate() {
            let (ex, ey) = E2[q];
            for j in -2..ny + 2 {
                for i in -2..nx + 2 {
                    fq[(i, j)] = if mask[(i, j)].is_wall() {
                        src[q][(i, j)]
                    } else if mask[(i - ex, j - ey)].is_wall() {
                        src[OPP2[q]][(i, j)]
                    } else {
                        src[q][(i - ex, j - ey)]
                    };
                }
            }
        }
    }

    /// A padded mask with every wall pattern a stream must get right: rows
    /// `-2` (the window's edge) and `ny/2` all wall; row 3 with wall runs
    /// over both ends of the streamed window, into the outer ghost ring;
    /// elsewhere, ghost ring included, 1 cell in 8 a wall (mostly isolated)
    /// and 1 in 32 each an inlet and an outlet.
    fn shift_mask(nx: usize, ny: usize, d: &mut Draw) -> PaddedGrid2<Cell> {
        let (w, mid) = (nx as isize, ny as isize / 2);
        PaddedGrid2::from_fn(nx, ny, LBM2_HALO, |i, j| {
            let edges = j == 3 && (i < 1 || i >= w - 1);
            if j == -2 || j == mid || edges {
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
        let (solver, mut channel) = channel_tile(13, 9, params);
        // a few full steps to develop non-trivial populations
        for _ in 0..3 {
            step_serial(&solver, &mut channel, true);
        }
        let nx = channel.nx() as isize;
        let ny = channel.ny() as isize;
        let runs = RunTable::build2(&channel.mask);
        solver.relax_window(&mut channel, (-3, ny + 3), (-3, nx + 3), Some(&runs));
        let mut tiles = vec![channel];
        // random masks, with a random value in every population slot
        let init = InitialState2::uniform(params.rho0);
        let mut d = Draw(43);
        for n in 0..8 {
            let (nx, ny) = (9 + n % 5, 7 + n % 4);
            let mut t = solver.make_tile(shift_mask(nx, ny, &mut d), params, (0, 0), &init);
            for v in t.f.iter_mut().flat_map(|fq| fq.raw_mut()) {
                *v = d.below(1 << 40) as f64;
            }
            tiles.push(t);
        }
        for (n, t) in tiles.into_iter().enumerate() {
            let mut want = t.clone();
            shift_reference(&mut want);
            let mut fast = t.clone();
            let runs = RunTable::build2(&fast.mask);
            solver.shift(&mut fast, &runs);
            let mut scalar = t;
            solver.stream_scalar(&mut scalar);
            for q in 0..Q2 {
                assert_eq!(fast.f[q], want.f[q], "tile {n}: population {q} diverged");
                assert_eq!(scalar.f[q], want.f[q], "tile {n}: oracle population {q}");
            }
        }
    }

    #[test]
    fn fast_and_scalar_paths_agree_bitwise() {
        let mut params = FluidParams::lattice_units(0.07);
        params.body_force[0] = 1e-5;
        params.inlet_velocity[0] = 0.01;
        let (solver, mut fast) = channel_tile(17, 11, params);
        let mut slow = fast.clone();
        for _ in 0..4 {
            for op in solver.plan() {
                match *op {
                    StepOp::Compute(k) => {
                        solver.compute(&mut fast, k);
                        solver.compute_scalar(&mut slow, k);
                    }
                    StepOp::Exchange(_) => {
                        wrap_x(&solver, &mut fast);
                        wrap_x(&solver, &mut slow);
                    }
                }
            }
        }
        assert_eq!(fast.mac.rho, slow.mac.rho);
        assert_eq!(fast.mac.vx, slow.mac.vx);
        assert_eq!(fast.mac.vy, slow.mac.vy);
        for q in 0..Q2 {
            assert_eq!(fast.f[q], slow.f[q], "population {q} diverged");
        }
    }

    #[test]
    fn interior_plus_boundary_equals_full_compute() {
        let mut params = FluidParams::lattice_units(0.06);
        params.body_force[0] = 1e-5;
        let (solver, mut full) = channel_tile(14, 10, params);
        for _ in 0..2 {
            step_serial(&solver, &mut full, true);
        }
        let mut split = full.clone();
        // full: exchange, then whole plan
        wrap_x(&solver, &mut full);
        for k in 0..2 {
            solver.compute(&mut full, k);
        }
        // split: the overlapping runner packs and posts the sends first, then
        // relaxes the interior while the halo is in flight, then unpacks and
        // finishes the boundary
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
        solver.compute(&mut split, 1);
        assert_eq!(full.mac.rho, split.mac.rho);
        assert_eq!(full.mac.vx, split.mac.vx);
        assert_eq!(full.mac.vy, split.mac.vy);
        for q in 0..Q2 {
            assert_eq!(full.f[q], split.f[q], "population {q} diverged");
        }
    }
}
