//! Shared infrastructure for the vectorized solver kernels.
//!
//! Two things live here, used by every solver's fast path:
//!
//! * **The run table** ([`RunTable`]): a tile's mask never changes, so it is
//!   decomposed into runs once, on first use, and every fast-path kernel
//!   takes its runs from the table instead of rescanning mask rows each
//!   step. Per padded row it holds the maximal `Fluid` runs, the maximal
//!   non-wall runs, and the maximal runs where the five rows around it are
//!   all `Fluid` (along y, and along z in 3D) — the cells the across-row
//!   filter passes stencil. A kernel clips a row's runs to its own window
//!   (`RowRuns::segs`, `RowRuns::clip`); runs are handed to branch-free
//!   straight-line kernels operating on trimmed sub-slices (so LLVM hoists
//!   the bounds checks and vectorizes the loop body across x), and the
//!   window's leftover cells fall back to the per-cell scalar kernel. Both
//!   paths evaluate the same floating-point expressions in the same
//!   association order, so the decomposition is bitwise invisible. The
//!   cell-by-cell row scans (`fluid_segs`, `active_segs`) survive only to
//!   build the table, private to this module.
//! * **SIMD reporting** ([`simd_lanes`]): the widest f64 vector the build's
//!   ISA offers, recorded in bench metadata so rates from differently-shaped
//!   containers stay comparable.

use subsonic_grid::{Cell, PaddedGrid2, PaddedGrid3};

/// Always 1: one tile's sweeps run on one thread, and tiles are the only
/// parallel axis. Kept only because `benchmark/` reports it in its run
/// metadata; ROADMAP item 9 deletes it with the other names kept for
/// `benchmark/`.
pub const fn intra_threads() -> usize {
    1
}

/// Number of f64 lanes in the widest vector register the build's ISA offers
/// (compile-time feature flags, not runtime detection). This is an upper
/// bound on what the autovectorizer emits, not the width it uses: on
/// AVX-512 server cores LLVM's `prefer-256-bit` tuning keeps loops at 4
/// lanes (ymm) although this reports 8.
pub const fn simd_lanes() -> usize {
    #[cfg(target_feature = "avx512f")]
    {
        8
    }
    #[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
    {
        4
    }
    #[cfg(all(target_feature = "sse2", not(target_feature = "avx")))]
    {
        2
    }
    #[cfg(not(target_feature = "sse2"))]
    {
        1
    }
}

/// One segment of a scanned mask row: either a maximal run of cells matching
/// the predicate (handed to a vector kernel) or a single non-matching cell
/// (handed to the scalar fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seg {
    /// Half-open index run `[start, end)` where every cell matches.
    Run(usize, usize),
    /// A single cell that does not match.
    One(usize),
}

/// Iterator over the [`Seg`]s of a mask row, scanned cell by cell (see
/// [`fluid_segs`]): what builds a [`RunTable`], and the tests' reference.
struct Segs<'a> {
    row: &'a [Cell],
    at: usize,
    pred: fn(&Cell) -> bool,
}

impl Iterator for Segs<'_> {
    type Item = Seg;

    fn next(&mut self) -> Option<Seg> {
        let a = self.at;
        if a >= self.row.len() {
            return None;
        }
        if !(self.pred)(&self.row[a]) {
            self.at = a + 1;
            return Some(Seg::One(a));
        }
        let mut b = a + 1;
        while b < self.row.len() && (self.pred)(&self.row[b]) {
            b += 1;
        }
        self.at = b;
        Some(Seg::Run(a, b))
    }
}

fn is_fluid(c: &Cell) -> bool {
    c.is_fluid()
}

fn is_active(c: &Cell) -> bool {
    !c.is_wall()
}

/// Segments `row` into maximal [`Cell::Fluid`] runs and single other cells.
fn fluid_segs(row: &[Cell]) -> Segs<'_> {
    Segs {
        row,
        at: 0,
        pred: is_fluid,
    }
}

/// Segments `row` into maximal non-wall runs and single wall cells.
fn active_segs(row: &[Cell]) -> Segs<'_> {
    Segs {
        row,
        at: 0,
        pred: is_active,
    }
}

/// A row scan whose runs a [`RunTable`] keeps.
type Scan = fn(&[Cell]) -> Segs<'_>;

/// The run lists a [`RunTable`] keeps per padded row, in storage order.
#[derive(Clone, Copy)]
enum List {
    Fluid,
    Active,
    AcrossY,
    AcrossZ,
}

/// A tile's mask decomposed into runs once (see the module docs).
///
/// Every padded row — `j ∈ [-halo, ny+halo)`, and in 3D every padded plane
/// `k ∈ [-halo, nz+halo)`; a 2D table has the one plane `k = 0` — has these
/// lists of maximal runs `[a, b)` over the padded x range, in increasing
/// order:
///
/// * `fluid`: the cells are [`Cell::Fluid`];
/// * `active`: the cells are not walls;
/// * `across_y`: rows `j-2..=j+2` are all `Fluid` at
///   that x — empty where those five rows would leave the padded range;
/// * `across_z`, 3D only: rows `(j, k-2..=k+2)` are all
///   `Fluid`.
///
/// Storage is one flat array — each list's `[start, end)` first, then the
/// runs — sized before it is filled, so a build allocates exactly once and
/// frees nothing: no growth, no temporaries. That matters to tiles set up
/// per run, as the threaded runners set up theirs. The table is derived from
/// the mask and never serialized: a tile rebuilds it lazily after a
/// checkpoint reload or a migration, like its streaming links, and lends it
/// to its kernels ([`crate::TileState2::with_run_table`]).
#[derive(Debug, Clone)]
pub struct RunTable {
    halo: usize,
    /// Padded rows per plane (`ny + 2·halo`).
    rows_y: usize,
    /// Padded planes below `k = 0`: the halo in 3D, none in 2D.
    below: usize,
    /// Padded rows of the tile, every plane.
    rows: usize,
    data: Vec<[u32; 2]>,
}

impl RunTable {
    /// The table of a 2D tile mask.
    pub fn build2(mask: &PaddedGrid2<Cell>) -> Self {
        let h = mask.halo();
        let rows_y = mask.ny() + 2 * h;
        Self::build(h, rows_y, 0, &[(1, rows_y)], |r| {
            mask.padded_row(r as isize - h as isize)
        })
    }

    /// The table of a 3D tile mask.
    pub fn build3(mask: &PaddedGrid3<Cell>) -> Self {
        let h = mask.halo();
        let rows_y = mask.ny() + 2 * h;
        let planes = mask.nz() + 2 * h;
        Self::build(h, rows_y, h, &[(1, rows_y), (rows_y, planes)], |r| {
            mask.padded_row(
                (r % rows_y) as isize - h as isize,
                (r / rows_y) as isize - h as isize,
            )
        })
    }

    /// `axes` lists `(row stride, padded extent)` per across axis, y first
    /// and the outermost last; `row(r)` is padded row `r` of the mask,
    /// plane-major.
    fn build<'m>(
        halo: usize,
        rows_y: usize,
        below: usize,
        axes: &[(usize, usize)],
        row: impl Fn(usize) -> &'m [Cell],
    ) -> Self {
        let (stride, extent) = axes[axes.len() - 1];
        let rows = stride * extent;
        let runs = |s: Seg| match s {
            Seg::Run(a, b) => Some([a as u32, b as u32]),
            Seg::One(_) => None,
        };
        let scans = [
            (List::Fluid, fluid_segs as Scan),
            (List::Active, active_segs),
        ];
        // An across list has at most as many runs as the five fluid lists it
        // intersects have together, so each axis needs at most five times the
        // fluid runs: with that bound the table is sized before it is filled.
        let count = |scan: Scan| -> usize {
            (0..rows)
                .map(|r| scan(row(r)).filter_map(runs).count())
                .sum()
        };
        let (fluid, active) = (count(fluid_segs), count(active_segs));
        let headers = (2 + axes.len()) * rows;
        let mut data = Vec::with_capacity(headers + fluid + active + 5 * fluid * axes.len());
        data.resize(headers, [0, 0]);
        let capacity = data.capacity();
        for (list, scan) in scans {
            for r in 0..rows {
                let start = data.len() as u32;
                data.extend(scan(row(r)).filter_map(runs));
                data[list as usize * rows + r] = [start, data.len() as u32];
            }
        }
        // A row's across runs are the intersection of the fluid runs of the
        // five rows around it along that axis: a merge that takes the overlap
        // of the five current runs and steps past whichever ends first. The
        // fluid runs of one row are never adjacent, so neither are the pieces.
        for (n, &(stride, extent)) in axes.iter().enumerate() {
            for r in 0..rows {
                let start = data.len() as u32;
                let at = r / stride % extent;
                if at >= 2 && at + 2 < extent {
                    // [next, end) of each of the five fluid lists
                    let mut five: [[u32; 2]; 5] =
                        std::array::from_fn(|d| data[r + d * stride - 2 * stride]);
                    while five.iter().all(|&[i, e]| i < e) {
                        let run = |i: u32| data[i as usize];
                        let lo = five.iter().fold(0, |lo, &[i, _]| lo.max(run(i)[0]));
                        let hi = five.iter().fold(u32::MAX, |hi, &[i, _]| hi.min(run(i)[1]));
                        for [i, _] in &mut five {
                            if run(*i)[1] == hi {
                                *i += 1;
                            }
                        }
                        if lo < hi {
                            data.push([lo, hi]);
                        }
                    }
                }
                data[(List::AcrossY as usize + n) * rows + r] = [start, data.len() as u32];
            }
        }
        debug_assert_eq!(data.capacity(), capacity, "the table outgrew its bound");
        Self {
            halo,
            rows_y,
            below,
            rows,
            data,
        }
    }

    #[inline]
    fn list(&self, list: List, j: isize, k: isize) -> RowRuns<'_> {
        let jj = j + self.halo as isize;
        let kk = k + self.below as isize;
        debug_assert!(
            (0..self.rows_y as isize).contains(&jj) && kk >= 0,
            "row ({j}, {k}) outside the padded range"
        );
        let r = kk as usize * self.rows_y + jj as usize;
        debug_assert!(r < self.rows, "plane {k} outside the padded range");
        let [s, e] = self.data[list as usize * self.rows + r];
        RowRuns {
            runs: &self.data[s as usize..e as usize],
            halo: self.halo,
        }
    }

    /// Maximal `Fluid` runs of row `(j, k)`.
    #[inline]
    pub(crate) fn fluid(&self, j: isize, k: isize) -> RowRuns<'_> {
        self.list(List::Fluid, j, k)
    }

    /// Maximal non-wall runs of row `(j, k)`.
    #[inline]
    pub(crate) fn active(&self, j: isize, k: isize) -> RowRuns<'_> {
        self.list(List::Active, j, k)
    }

    /// Maximal runs where rows `(j-2..=j+2, k)` are all `Fluid`.
    #[inline]
    pub(crate) fn across_y(&self, j: isize, k: isize) -> RowRuns<'_> {
        self.list(List::AcrossY, j, k)
    }

    /// Maximal runs where rows `(j, k-2..=k+2)` are all `Fluid` (3D only).
    #[inline]
    pub(crate) fn across_z(&self, j: isize, k: isize) -> RowRuns<'_> {
        // the first list starts right after the headers: four lists per row
        debug_assert_eq!(
            self.data[0][0] as usize,
            4 * self.rows,
            "a 2D table has no z lists"
        );
        self.list(List::AcrossZ, j, k)
    }
}

/// The runs of one padded mask row, taken from a [`RunTable`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowRuns<'a> {
    runs: &'a [[u32; 2]],
    halo: usize,
}

impl<'a> RowRuns<'a> {
    /// Padded x range of the window `i ∈ [i0, i0+len)`.
    #[inline]
    fn window(&self, i0: isize, len: usize) -> (usize, usize) {
        debug_assert!(i0 >= -(self.halo as isize), "window starts outside the row");
        let w0 = (i0 + self.halo as isize) as usize;
        (w0, w0 + len)
    }

    /// The window `i ∈ [i0, i0+len)` as [`Seg`]s indexed from `i0` — what
    /// scanning the window's own mask slice gives: every run clipped to the
    /// window, then each other cell of the window on its own.
    #[inline]
    pub(crate) fn segs(self, i0: isize, len: usize) -> WindowSegs<'a> {
        let (w0, w1) = self.window(i0, len);
        let skip = self
            .runs
            .iter()
            .take_while(|&&[_, b]| b as usize <= w0)
            .count();
        WindowSegs {
            runs: &self.runs[skip..],
            at: w0,
            end: w1,
            base: w0,
        }
    }

    /// The runs shrunk by `trim` cells at each end and clipped to the window
    /// `i ∈ [i0, i0+len)`, as non-empty ranges indexed from `i0`. With
    /// `trim = 2` on a [`RunTable::fluid`] row these are the cells whose
    /// 5-wide x-stencil lies inside one fluid run; with `trim = 0` on an
    /// across row, the cells whose five rows are all fluid.
    pub(crate) fn clip(
        self,
        i0: isize,
        len: usize,
        trim: usize,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        let (w0, w1) = self.window(i0, len);
        self.runs
            .iter()
            .map(move |&[a, b]| {
                let lo = (a as usize + trim).max(w0);
                (lo, (b as usize).saturating_sub(trim).min(w1))
            })
            .take_while(move |&(lo, _)| lo < w1)
            .filter(|&(lo, hi)| lo < hi)
            .map(move |(lo, hi)| (lo - w0, hi - w0))
    }
}

/// The cells `i` of the window `[i0, i0+len)` outside the row's runs — the
/// [`Seg::One`] cells of [`RowRuns::segs`] — or, with no runs (a scalar
/// oracle, which checks every cell itself), the whole window.
pub(crate) fn cells_outside(
    runs: Option<RowRuns<'_>>,
    i0: isize,
    len: usize,
) -> impl Iterator<Item = isize> + '_ {
    let every = if runs.is_some() { 0..0 } else { 0..len };
    let others = runs
        .into_iter()
        .flat_map(move |r| r.segs(i0, len))
        .filter_map(|s| match s {
            Seg::One(x) => Some(x),
            Seg::Run(..) => None,
        });
    others.chain(every).map(move |x| i0 + x as isize)
}

/// Iterator over the [`Seg`]s of one window of a row (see [`RowRuns::segs`]).
pub(crate) struct WindowSegs<'a> {
    /// The runs not yet passed, in padded x: the first one ends after `at`.
    runs: &'a [[u32; 2]],
    at: usize,
    end: usize,
    base: usize,
}

impl Iterator for WindowSegs<'_> {
    type Item = Seg;

    #[inline]
    fn next(&mut self) -> Option<Seg> {
        let at = self.at;
        if at >= self.end {
            return None;
        }
        match self.runs {
            [[a, b], rest @ ..] if *a as usize <= at => {
                // the window or the run ends here; either way the run is done
                let hi = (*b as usize).min(self.end);
                self.at = hi;
                self.runs = rest;
                Some(Seg::Run(at - self.base, hi - self.base))
            }
            // the next run, if any, starts after `at`, so it ends after `at + 1`
            _ => {
                self.at = at + 1;
                Some(Seg::One(at - self.base))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Cell::{Fluid, Wall};

    #[test]
    fn fluid_segs_decompose_a_mixed_row() {
        let row = [Wall, Fluid, Fluid, Fluid, Wall, Wall, Fluid];
        let segs: Vec<Seg> = fluid_segs(&row).collect();
        assert_eq!(
            segs,
            vec![
                Seg::One(0),
                Seg::Run(1, 4),
                Seg::One(4),
                Seg::One(5),
                Seg::Run(6, 7)
            ]
        );
    }

    #[test]
    fn segs_cover_every_index_exactly_once() {
        let row = [Fluid, Wall, Fluid, Cell::Inlet, Fluid, Fluid];
        let mut seen = vec![0u32; row.len()];
        for seg in fluid_segs(&row) {
            match seg {
                Seg::Run(a, b) => (a..b).for_each(|x| seen[x] += 1),
                Seg::One(x) => seen[x] += 1,
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // active_segs treats Inlet as part of a run
        let active: Vec<Seg> = active_segs(&row).collect();
        assert_eq!(active, vec![Seg::Run(0, 1), Seg::One(1), Seg::Run(2, 6)]);
    }

    #[test]
    fn lane_width_is_a_power_of_two() {
        let l = simd_lanes();
        assert!(l.is_power_of_two() && l <= 8);
    }

    /// SplitMix64: the deterministic draws of the run-table properties.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// One cell in 32 an inlet, one an outlet, `walls` in 32 a wall.
        fn cell(&mut self, walls: usize) -> Cell {
            match self.below(32) {
                0 => Cell::Inlet,
                1 => Cell::Outlet,
                x if x < 2 + walls => Wall,
                _ => Fluid,
            }
        }

        /// A window `(i0, len)`, possibly empty, of a padded row over
        /// `[-halo, n+halo)` that leaves `reach` cells free at both ends.
        fn window(&mut self, n: usize, halo: usize, reach: usize) -> (isize, usize) {
            let room = n + 2 * (halo - reach);
            let start = self.below(room);
            let len = self.below(room - start + 1);
            ((start + reach) as isize - halo as isize, len)
        }
    }

    /// The x-filter's former walk over a window widened by the stencil
    /// reach: window cell `x` is stencilled iff `msk[x..x+5]` lies in one
    /// fluid run.
    fn walk_x(msk: &[Cell]) -> Vec<(usize, usize)> {
        let n = msk.len() - 4;
        let mut out = Vec::new();
        let mut a = 0;
        while a < n + 4 {
            if !msk[a].is_fluid() {
                a += 1;
                continue;
            }
            let mut b = a + 1;
            while b < n + 4 && msk[b].is_fluid() {
                b += 1;
            }
            let hi = b.saturating_sub(4).min(n);
            if a < hi {
                out.push((a, hi));
            }
            a = b;
        }
        out
    }

    /// The across filters' former walk: maximal runs where all five mask
    /// rows are fluid.
    fn walk_across(m: [&[Cell]; 5]) -> Vec<(usize, usize)> {
        let all_fluid = |x: usize| m.iter().all(|r| r[x].is_fluid());
        let n = m[2].len();
        let mut out = Vec::new();
        let mut a = 0;
        while a < n {
            if !all_fluid(a) {
                a += 1;
                continue;
            }
            let mut b = a + 1;
            while b < n && all_fluid(b) {
                b += 1;
            }
            out.push((a, b));
            a = b;
        }
        out
    }

    /// `runs` on the window `slice` starts at `i0` against scanning `slice`
    /// itself: the same segments, and the same cells outside the runs.
    fn assert_segs(runs: RowRuns<'_>, scan: fn(&[Cell]) -> Segs<'_>, slice: &[Cell], i0: isize) {
        let want: Vec<Seg> = scan(slice).collect();
        assert_eq!(runs.segs(i0, slice.len()).collect::<Vec<_>>(), want);
        let ones = want.iter().filter_map(|s| match *s {
            Seg::One(x) => Some(i0 + x as isize),
            Seg::Run(..) => None,
        });
        assert!(cells_outside(Some(runs), i0, slice.len()).eq(ones));
    }

    fn ranges(it: impl Iterator<Item = (usize, usize)>) -> Vec<(usize, usize)> {
        it.collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The 2D table clipped to random windows gives exactly what the
        /// kernels' on-the-fly scans gave: `fluid_segs`/`active_segs` on the
        /// window, the x-filter's walk, and the y-filter's five-row walk —
        /// over masks with walls anywhere, ghosts included, and inlet/outlet
        /// cells.
        #[test]
        fn run_table2_matches_rescanning(
            nx in 1usize..24,
            ny in 1usize..10,
            halo in 2usize..5,
            walls in 0usize..10,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut d = Draw(seed);
            let mask = PaddedGrid2::from_fn(nx, ny, halo, |_, _| d.cell(walls));
            let t = RunTable::build2(&mask);
            let h = halo as isize;
            for j in -h..ny as isize + h {
                for _ in 0..4 {
                    let (i0, len) = d.window(nx, halo, 0);
                    let slice = mask.row_segment(j, i0, len);
                    assert_segs(t.fluid(j, 0), fluid_segs, slice, i0);
                    assert_segs(t.active(j, 0), active_segs, slice, i0);
                    let (i0, len) = d.window(nx, halo, 2);
                    let wide = mask.row_segment(j, i0 - 2, len + 4);
                    assert_eq!(ranges(t.fluid(j, 0).clip(i0, len, 2)), walk_x(wide));
                    if (2 - h..ny as isize + h - 2).contains(&j) {
                        let (i0, len) = d.window(nx, halo, 0);
                        let m = std::array::from_fn(|o| mask.row_segment(j + o as isize - 2, i0, len));
                        assert_eq!(ranges(t.across_y(j, 0).clip(i0, len, 0)), walk_across(m));
                    }
                }
            }
        }

        /// 3D counterpart: the same three checks on every padded row, plus the
        /// z-filter's five-plane walk.
        #[test]
        fn run_table3_matches_rescanning(
            nx in 1usize..12,
            ny in 1usize..6,
            nz in 1usize..6,
            halo in 2usize..5,
            walls in 0usize..10,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut d = Draw(seed);
            let mask = PaddedGrid3::from_fn(nx, ny, nz, halo, |_, _, _| d.cell(walls));
            let t = RunTable::build3(&mask);
            let h = halo as isize;
            for k in -h..nz as isize + h {
                for j in -h..ny as isize + h {
                    let (i0, len) = d.window(nx, halo, 0);
                    let slice = mask.row_segment(j, k, i0, len);
                    assert_segs(t.fluid(j, k), fluid_segs, slice, i0);
                    assert_segs(t.active(j, k), active_segs, slice, i0);
                    let (i0, len) = d.window(nx, halo, 2);
                    let wide = mask.row_segment(j, k, i0 - 2, len + 4);
                    assert_eq!(ranges(t.fluid(j, k).clip(i0, len, 2)), walk_x(wide));
                    let (i0, len) = d.window(nx, halo, 0);
                    if (2 - h..ny as isize + h - 2).contains(&j) {
                        let m = std::array::from_fn(|o| mask.row_segment(j + o as isize - 2, k, i0, len));
                        assert_eq!(ranges(t.across_y(j, k).clip(i0, len, 0)), walk_across(m));
                    }
                    if (2 - h..nz as isize + h - 2).contains(&k) {
                        let m = std::array::from_fn(|o| mask.row_segment(j, k + o as isize - 2, i0, len));
                        assert_eq!(ranges(t.across_z(j, k).clip(i0, len, 0)), walk_across(m));
                    }
                }
            }
        }
    }
}
