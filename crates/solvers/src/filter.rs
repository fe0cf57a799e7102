//! The fourth-order numerical-viscosity filter (section 6 of the paper).
//!
//! "The filter ... is crucial for simulating subsonic flow at high Reynolds
//! number. ... The filter prevents the instabilities by dissipating high
//! spatial frequencies whose wavelength is comparable to the grid mesh size.
//! Our filter is based on a fourth order numerical viscosity
//! (Peyret&Taylor). We use the same filter both for the finite difference
//! method and for the lattice Boltzmann method."
//!
//! Per axis: `u ← u − ε (u₋₂ − 4u₋₁ + 6u₀ − 4u₊₁ + u₊₂)`. The biharmonic
//! stencil damps the Nyquist mode by `1 − 16ε` and leaves smooth modes nearly
//! untouched (O(k⁴) attenuation). Axes are applied as sequential passes
//! through scratch storage. Stencils touching non-fluid cells are skipped
//! (the value passes through unchanged), so the filter never reads across a
//! wall, an inlet or an outlet.
//!
//! The `ring` argument widens the output region into the ghost band by that
//! many layers; the finite-difference scheme filters a two-deep ghost ring so
//! that the next cycle's stencils read post-filter values (see `fd2`), while
//! the lattice Boltzmann scheme (which exchanges at the start of its cycle)
//! filters the interior only.
//!
//! ## Fast vs scalar path
//!
//! [`filter_field2`]/[`filter_field3`] are the production kernels. They take
//! the tile's [`RunTable`] instead of its mask and scan no mask: the cells
//! whose whole 5-wide window lies in one fluid run are the table's fluid runs
//! shrunk by the stencil reach (x-pass) or its across runs (y- and z-pass),
//! clipped to the output window. Those cells get a branch-free stencil loop
//! over trimmed sub-slices (which autovectorizes), and only the cells between
//! them are copied through. The 3D sweep is additionally cache-blocked: the
//! three axis passes are interleaved along k so the x- and y-filtered slabs
//! are consumed while still cache-resident instead of three full-volume round
//! trips (the z-pass trails the pipeline by two slabs, the stencil reach).
//! [`filter_field2_scalar`]/[`filter_field3_scalar`] keep the original
//! per-cell formulation over the mask; both paths evaluate the identical
//! stencil expression, and the equivalence tests pin them bitwise equal.
//!
//! The fast row kernels are multi-field ([`filter_rows_x`],
//! [`filter_rows_across`]): fields that share a mask share one list of
//! stencil ranges per row. The plane-level entry points above use them one
//! field at a time; the 2D lattice Boltzmann half-step calls them directly, a
//! row at a time with ρ, Vx, Vy together, out of a ring of rows instead of a
//! scratch plane.

use crate::kernels::RunTable;
use subsonic_grid::{Cell, PaddedGrid2, PaddedGrid3};

/// Damping factor applied to the Nyquist (grid-scale) mode by one pass.
pub fn nyquist_gain(eps: f64) -> f64 {
    1.0 - 16.0 * eps
}

#[inline(always)]
fn fluid5(m: impl Fn(isize) -> Cell) -> bool {
    (-2..=2).all(|d| m(d).is_fluid())
}

/// One row of the along-row (x) filter pass, per-cell reference form. `src`
/// spans `[x0-2, x0+n+2)` of the input row, `msk` the same range of the mask
/// row, `dst` spans `[x0, x0+n)` of the output row.
#[inline(always)]
fn filter_row_x(dst: &mut [f64], src: &[f64], msk: &[Cell], eps: f64) {
    for (x, d) in dst.iter_mut().enumerate() {
        let v = src[x + 2];
        let ok = fluid5(|o| msk[(x as isize + 2 + o) as usize]);
        *d = if ok {
            v - eps * (src[x] - 4.0 * src[x + 1] + 6.0 * v - 4.0 * src[x + 3] + src[x + 4])
        } else {
            v
        };
    }
}

/// One row of an across-row filter pass, per-cell reference form: the five
/// stencil inputs come from five parallel rows (offsets −2..+2 along the
/// filtered axis) at the same x.
#[inline(always)]
fn filter_row_across(dst: &mut [f64], s: [&[f64]; 5], m: [&[Cell]; 5], eps: f64) {
    for (x, d) in dst.iter_mut().enumerate() {
        let v = s[2][x];
        let ok = fluid5(|o| m[(o + 2) as usize][x]);
        *d = if ok {
            v - eps * (s[0][x] - 4.0 * s[1][x] + 6.0 * v - 4.0 * s[3][x] + s[4][x])
        } else {
            v
        };
    }
}

/// The stencil over one all-fluid run: `d[x] = s2[x] − ε·(s0 − 4s1 + 6s2 −
/// 4s3 + s4)[x]`, every slice trimmed to the run so the loop vectorizes.
#[inline(always)]
fn stencil_run(d: &mut [f64], s: [&[f64]; 5], eps: f64) {
    let n = d.len();
    let [s0, s1, s2, s3, s4] = s.map(|r| &r[..n]);
    for x in 0..n {
        let v = s2[x];
        d[x] = v - eps * (s0[x] - 4.0 * s1[x] + 6.0 * v - 4.0 * s3[x] + s4[x]);
    }
}

/// Copies passthrough cells between stencil ranges. Most such gaps are
/// empty (a fluid row's one run covers the whole window), and skipping them
/// saves a `memcpy` call per field and gap, which small tiles notice.
#[inline(always)]
fn pass_through(d: &mut [f64], s: &[f64]) {
    if !d.is_empty() {
        d.copy_from_slice(s);
    }
}

/// Cells to either side of the centre that the 5-wide stencil reads: the
/// `trim` that turns a row's fluid runs into its x-stencil ranges
/// ([`crate::kernels::RowRuns::clip`]).
pub(crate) const REACH: usize = 2;

/// Fast along-row pass over `N` fields that share one mask row. `src` spans
/// `[x0-2, x0+n+2)` of the input rows and `dst` `[x0, x0+n)` of the output
/// rows; `stencil` gives, in increasing order, the ranges of `dst` whose
/// 5-wide window lies inside one fluid run (a fluid row of the run table
/// clipped with [`REACH`]) — exactly the cells [`filter_row_x`] stencils.
/// Those get a branch-free stencil loop, and only the cells between them are
/// copied through. Each range is applied to every field in turn (the fields
/// of a tile share their geometry, so the LB half-step filters ρ, Vx, Vy of
/// a row off one run list).
#[inline(always)]
pub(crate) fn filter_rows_x<const N: usize>(
    mut dst: [&mut [f64]; N],
    src: [&[f64]; N],
    stencil: impl IntoIterator<Item = (usize, usize)>,
    eps: f64,
) {
    let mut done = 0;
    for (lo, hi) in stencil {
        for (d, s) in dst.iter_mut().zip(src) {
            pass_through(&mut d[done..lo], &s[done + 2..lo + 2]);
            stencil_run(
                &mut d[lo..hi],
                std::array::from_fn(|o| &s[lo + o..hi + o]),
                eps,
            );
        }
        done = hi;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        let n = d.len();
        pass_through(&mut d[done..], &s[done + 2..n + 2]);
    }
}

/// Fast across-row pass over `N` fields (see [`filter_rows_x`]): the window
/// is the same x in five parallel rows, and `stencil` the ranges where all
/// five mask rows are fluid (an across row of the run table, clipped).
#[inline(always)]
pub(crate) fn filter_rows_across<const N: usize>(
    mut dst: [&mut [f64]; N],
    s: [[&[f64]; 5]; N],
    stencil: impl IntoIterator<Item = (usize, usize)>,
    eps: f64,
) {
    let mut done = 0;
    for (lo, hi) in stencil {
        for (d, s) in dst.iter_mut().zip(s) {
            pass_through(&mut d[done..lo], &s[2][done..lo]);
            stencil_run(&mut d[lo..hi], s.map(|r| &r[lo..hi]), eps);
        }
        done = hi;
    }
    for (d, s) in dst.iter_mut().zip(s) {
        let n = d.len();
        pass_through(&mut d[done..], &s[2][done..n]);
    }
}

/// Single-field form of [`filter_rows_x`].
#[inline(always)]
fn filter_row_x_fast(
    dst: &mut [f64],
    src: &[f64],
    stencil: impl IntoIterator<Item = (usize, usize)>,
    eps: f64,
) {
    filter_rows_x([dst], [src], stencil, eps);
}

/// Single-field form of [`filter_rows_across`].
#[inline(always)]
fn filter_row_across_fast(
    dst: &mut [f64],
    s: [&[f64]; 5],
    stencil: impl IntoIterator<Item = (usize, usize)>,
    eps: f64,
) {
    filter_rows_across([dst], [s], stencil, eps);
}

/// Applies the two-pass 2D filter to `u` in place, using `sx` as scratch
/// (fast path: stencil ranges from the tile's run table `runs`; bitwise
/// identical to [`filter_field2_scalar`] on the mask `runs` was built from).
///
/// Output region: `[-ring, n+ring)` on both axes. Requires `u` valid on
/// `[-ring-2, n+ring+2)` and the grids' halo to be at least `ring + 2`.
pub fn filter_field2(
    u: &mut PaddedGrid2<f64>,
    sx: &mut PaddedGrid2<f64>,
    runs: &RunTable,
    eps: f64,
    ring: isize,
) {
    let nx = u.nx() as isize;
    let ny = u.ny() as isize;
    debug_assert!(
        u.halo() as isize >= ring + 2,
        "halo too small for filter ring"
    );
    let span = (nx + 2 * ring) as usize;

    // Pass 1 (x): scratch <- filtered-in-x, over a y-range widened by 2 so
    // pass 2 has valid inputs.
    let (p1lo, p1hi) = (-ring - 2, ny + ring + 2);
    for j in p1lo..p1hi {
        filter_row_x_fast(
            sx.row_segment_mut(j, -ring, span),
            u.row_segment(j, -ring - 2, span + 4),
            runs.fluid(j, 0).clip(-ring, span, REACH),
            eps,
        );
    }

    // Pass 2 (y): u <- filtered-in-y of scratch.
    let (p2lo, p2hi) = (-ring, ny + ring);
    for j in p2lo..p2hi {
        filter_row_across_fast(
            u.row_segment_mut(j, -ring, span),
            std::array::from_fn(|o| sx.row_segment(j + o as isize - 2, -ring, span)),
            runs.across_y(j, 0).clip(-ring, span, 0),
            eps,
        );
    }
}

/// The original per-cell 2D filter — scalar reference for the equivalence
/// tests and the `compute_scalar` solver path.
pub fn filter_field2_scalar(
    u: &mut PaddedGrid2<f64>,
    sx: &mut PaddedGrid2<f64>,
    mask: &PaddedGrid2<Cell>,
    eps: f64,
    ring: isize,
) {
    let nx = u.nx() as isize;
    let ny = u.ny() as isize;
    debug_assert!(
        u.halo() as isize >= ring + 2,
        "halo too small for filter ring"
    );
    let span = (nx + 2 * ring) as usize;
    for j in (-ring - 2)..(ny + ring + 2) {
        filter_row_x(
            sx.row_segment_mut(j, -ring, span),
            u.row_segment(j, -ring - 2, span + 4),
            mask.row_segment(j, -ring - 2, span + 4),
            eps,
        );
    }
    for j in -ring..(ny + ring) {
        filter_row_across(
            u.row_segment_mut(j, -ring, span),
            std::array::from_fn(|o| sx.row_segment(j + o as isize - 2, -ring, span)),
            std::array::from_fn(|o| mask.row_segment(j + o as isize - 2, -ring, span)),
            eps,
        );
    }
}

/// Applies the three-pass 3D filter to `u` in place, using `sx`/`sy` scratch
/// and the tile's run table `runs`: a k-pipelined cache-blocked sweep (see
/// module docs), bitwise identical to [`filter_field3_scalar`] on the mask
/// `runs` was built from.
///
/// Output region: `[-ring, n+ring)` on all axes. Requires `u` valid on
/// `[-ring-2, n+ring+2)` and halo at least `ring + 2`.
pub fn filter_field3(
    u: &mut PaddedGrid3<f64>,
    sx: &mut PaddedGrid3<f64>,
    sy: &mut PaddedGrid3<f64>,
    runs: &RunTable,
    eps: f64,
    ring: isize,
) {
    let nx = u.nx() as isize;
    let ny = u.ny() as isize;
    let nz = u.nz() as isize;
    debug_assert!(
        u.halo() as isize >= ring + 2,
        "halo too small for filter ring"
    );
    let span = (nx + 2 * ring) as usize;
    let (klo, khi) = (-ring - 2, nz + ring + 2);

    // Pipelined sweep: slab kk runs the x- and y-pass, then the z-pass
    // emits slab kk-2 (whose sy inputs kk-4..kk are now all ready). The
    // x-pass at kk still reads pristine u[kk]: the z-pass only overwrites
    // u two slabs behind.
    for kk in klo..khi {
        for j in (-ring - 2)..(ny + ring + 2) {
            filter_row_x_fast(
                sx.row_segment_mut(j, kk, -ring, span),
                u.row_segment(j, kk, -ring - 2, span + 4),
                runs.fluid(j, kk).clip(-ring, span, REACH),
                eps,
            );
        }
        for j in -ring..(ny + ring) {
            filter_row_across_fast(
                sy.row_segment_mut(j, kk, -ring, span),
                std::array::from_fn(|o| sx.row_segment(j + o as isize - 2, kk, -ring, span)),
                runs.across_y(j, kk).clip(-ring, span, 0),
                eps,
            );
        }
        let k = kk - 2;
        if k >= -ring {
            for j in -ring..(ny + ring) {
                filter_row_across_fast(
                    u.row_segment_mut(j, k, -ring, span),
                    std::array::from_fn(|o| sy.row_segment(j, k + o as isize - 2, -ring, span)),
                    runs.across_z(j, k).clip(-ring, span, 0),
                    eps,
                );
            }
        }
    }
}

/// The original three-full-pass per-cell 3D filter — scalar reference.
pub fn filter_field3_scalar(
    u: &mut PaddedGrid3<f64>,
    sx: &mut PaddedGrid3<f64>,
    sy: &mut PaddedGrid3<f64>,
    mask: &PaddedGrid3<Cell>,
    eps: f64,
    ring: isize,
) {
    let nx = u.nx() as isize;
    let ny = u.ny() as isize;
    let nz = u.nz() as isize;
    debug_assert!(
        u.halo() as isize >= ring + 2,
        "halo too small for filter ring"
    );
    let span = (nx + 2 * ring) as usize;

    for k in (-ring - 2)..(nz + ring + 2) {
        for j in (-ring - 2)..(ny + ring + 2) {
            filter_row_x(
                sx.row_segment_mut(j, k, -ring, span),
                u.row_segment(j, k, -ring - 2, span + 4),
                mask.row_segment(j, k, -ring - 2, span + 4),
                eps,
            );
        }
    }

    for k in (-ring - 2)..(nz + ring + 2) {
        for j in -ring..(ny + ring) {
            filter_row_across(
                sy.row_segment_mut(j, k, -ring, span),
                std::array::from_fn(|o| sx.row_segment(j + o as isize - 2, k, -ring, span)),
                std::array::from_fn(|o| mask.row_segment(j + o as isize - 2, k, -ring, span)),
                eps,
            );
        }
    }

    for k in -ring..(nz + ring) {
        for j in -ring..(ny + ring) {
            filter_row_across(
                u.row_segment_mut(j, k, -ring, span),
                std::array::from_fn(|o| sy.row_segment(j, k + o as isize - 2, -ring, span)),
                std::array::from_fn(|o| mask.row_segment(j, k + o as isize - 2, -ring, span)),
                eps,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsonic_grid::Cell;

    fn all_fluid2(nx: usize, ny: usize, halo: usize) -> PaddedGrid2<Cell> {
        PaddedGrid2::new(nx, ny, halo, Cell::Fluid)
    }

    #[test]
    fn constant_field_is_invariant() {
        let mask = all_fluid2(8, 8, 4);
        let mut u = PaddedGrid2::new(8, 8, 4, 3.25f64);
        let mut sx = u.clone();
        filter_field2(&mut u, &mut sx, &RunTable::build2(&mask), 0.02, 2);
        for j in -2..10 {
            for i in -2..10 {
                assert!((u[(i, j)] - 3.25).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn linear_field_is_invariant() {
        // The 5-point biharmonic stencil annihilates polynomials up to
        // degree 3, so a linear ramp passes through unchanged.
        let mask = all_fluid2(8, 8, 4);
        let mut u = PaddedGrid2::from_fn(8, 8, 4, |i, j| 2.0 * i as f64 - 0.5 * j as f64);
        let want = u.clone();
        let mut sx = u.clone();
        filter_field2(&mut u, &mut sx, &RunTable::build2(&mask), 0.03, 2);
        for j in 0..8 {
            for i in 0..8 {
                assert!((u[(i, j)] - want[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn nyquist_mode_is_damped() {
        let mask = all_fluid2(16, 16, 4);
        let eps = 0.02;
        let mut u = PaddedGrid2::from_fn(16, 16, 4, |i, _| if i % 2 == 0 { 1.0 } else { -1.0 });
        let mut sx = u.clone();
        filter_field2(&mut u, &mut sx, &RunTable::build2(&mask), eps, 2);
        // (-1)^i mode in x is an eigenvector with gain 1-16eps; uniform in y.
        let g = nyquist_gain(eps);
        for j in 0..16 {
            for i in 0..16 {
                let want = if i % 2 == 0 { g } else { -g };
                assert!((u[(i as isize, j as isize)] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn wall_adjacent_cells_pass_through() {
        let mut mask = all_fluid2(8, 8, 4);
        mask[(3, 3)] = Cell::Wall;
        let mut u = PaddedGrid2::from_fn(8, 8, 4, |i, j| ((i * i) as f64) * 0.1 + j as f64);
        let want = u.clone();
        let mut sx = u.clone();
        filter_field2(&mut u, &mut sx, &RunTable::build2(&mask), 0.02, 0);
        // cells whose 5-point stencils contain (3,3) keep their raw value in
        // the corresponding pass; the wall cell itself is fully unchanged
        assert_eq!(u[(3, 3)], want[(3, 3)]);
    }

    #[test]
    fn filter3_constant_invariant() {
        let mask = PaddedGrid3::new(6, 6, 6, 4, Cell::Fluid);
        let mut u = PaddedGrid3::new(6, 6, 6, 4, 1.5f64);
        let mut sx = u.clone();
        let mut sy = u.clone();
        filter_field3(&mut u, &mut sx, &mut sy, &RunTable::build3(&mask), 0.02, 2);
        for k in -2..8 {
            for j in -2..8 {
                for i in -2..8 {
                    assert!((u[(i, j, k)] - 1.5).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn filter3_nyquist_damped() {
        let mask = PaddedGrid3::new(8, 8, 8, 3, Cell::Fluid);
        let eps = 0.01;
        let mut u = PaddedGrid3::from_fn(8, 8, 8, 3, |_, j, _| if j % 2 == 0 { 1.0 } else { -1.0 });
        let mut sx = u.clone();
        let mut sy = u.clone();
        filter_field3(&mut u, &mut sx, &mut sy, &RunTable::build3(&mask), eps, 0);
        let g = nyquist_gain(eps);
        assert!((u[(4, 4, 4)] - g).abs() < 1e-12);
        assert!((u[(4, 3, 4)] + g).abs() < 1e-12);
    }

    #[test]
    fn gain_bounds() {
        assert!((nyquist_gain(1.0 / 16.0)).abs() < 1e-14);
        assert_eq!(nyquist_gain(0.0), 1.0);
    }

    /// A mask with scattered obstacles so runs, run edges and fallbacks all
    /// get exercised.
    fn obstacle_mask2() -> PaddedGrid2<Cell> {
        let mut mask = all_fluid2(19, 13, 4);
        for (i, j) in [(2, 3), (3, 3), (4, 3), (9, 7), (14, 1), (0, 11), (18, 5)] {
            mask[(i, j)] = Cell::Wall;
        }
        mask[(7, 0)] = Cell::Inlet;
        mask[(12, 12)] = Cell::Outlet;
        mask
    }

    #[test]
    fn fast_filter2_matches_scalar_bitwise() {
        let mask = obstacle_mask2();
        for ring in [0, 2] {
            let mut a =
                PaddedGrid2::from_fn(19, 13, 4, |i, j| (i as f64 * 0.37).sin() + j as f64 * 0.11);
            let mut b = a.clone();
            let mut sa = PaddedGrid2::new(19, 13, 4, 0.0f64);
            let mut sb = sa.clone();
            filter_field2(&mut a, &mut sa, &RunTable::build2(&mask), 0.0175, ring);
            filter_field2_scalar(&mut b, &mut sb, &mask, 0.0175, ring);
            assert_eq!(a, b, "ring {ring}");
        }
    }

    #[test]
    fn fast_filter3_matches_scalar_bitwise() {
        let mut mask = PaddedGrid3::new(9, 8, 7, 4, Cell::Fluid);
        for (i, j, k) in [(2, 3, 1), (3, 3, 1), (6, 6, 5), (0, 0, 0), (8, 7, 6)] {
            mask[(i, j, k)] = Cell::Wall;
        }
        for ring in [0, 2] {
            let mut a = PaddedGrid3::from_fn(9, 8, 7, 4, |i, j, k| {
                (i as f64 * 0.7).cos() + j as f64 * 0.2 - k as f64 * 0.13
            });
            let mut b = a.clone();
            let mut sxa = PaddedGrid3::new(9, 8, 7, 4, 0.0f64);
            let mut sya = sxa.clone();
            let mut sxb = sxa.clone();
            let mut syb = sxa.clone();
            filter_field3(
                &mut a,
                &mut sxa,
                &mut sya,
                &RunTable::build3(&mask),
                0.02,
                ring,
            );
            filter_field3_scalar(&mut b, &mut sxb, &mut syb, &mask, 0.02, ring);
            assert_eq!(a, b, "ring {ring}");
        }
    }
}
