//! Fields padded with ghost ("padding") layers, section 4.2 of the paper.
//!
//! A [`PaddedGrid2`] stores an `nx × ny` interior surrounded by `halo` extra
//! layers on every side. Interior coordinates are used throughout: `(0, 0)` is
//! the first interior node and ghost nodes have negative coordinates or
//! coordinates `>= nx`. This matches the paper's description: "we pad each
//! subregion with one or more layers of extra nodes on the outside. ... Once
//! we copy the data from one subregion onto the padded area of a neighboring
//! subregion, the boundary values are available locally during the current
//! cycle of the computation."

use crate::array::{Array2, Array3, StridePolicy};

/// A 2D field with `halo` ghost layers around an `nx × ny` interior.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedGrid2<T> {
    nx: usize,
    ny: usize,
    halo: usize,
    storage: Array2<T>,
}

impl<T: Clone> PaddedGrid2<T> {
    /// Creates a padded grid with every node (interior and ghost) set to `fill`.
    pub fn new(nx: usize, ny: usize, halo: usize, fill: T) -> Self {
        Self::with_policy(nx, ny, halo, fill, StridePolicy::Tight)
    }

    /// Creates a padded grid whose storage stride follows `policy`
    /// (see [`StridePolicy::AvoidPageMultiples`] for the Appendix-E pad).
    pub fn with_policy(nx: usize, ny: usize, halo: usize, fill: T, policy: StridePolicy) -> Self {
        let storage = Array2::with_policy(nx + 2 * halo, ny + 2 * halo, fill, policy);
        Self {
            nx,
            ny,
            halo,
            storage,
        }
    }

    /// Fills every node, interior and ghost, with `v`.
    pub fn fill(&mut self, v: T) {
        self.storage.raw_mut().fill(v);
    }

    /// Builds a padded grid by evaluating `f(i, j)` over the *whole* padded
    /// region, `i ∈ [-halo, nx+halo)`, `j ∈ [-halo, ny+halo)`.
    pub fn from_fn(nx: usize, ny: usize, halo: usize, mut f: impl FnMut(isize, isize) -> T) -> Self
    where
        T: Default,
    {
        let mut g = Self::new(nx, ny, halo, T::default());
        let h = halo as isize;
        for j in -h..(ny as isize + h) {
            for i in -h..(nx as isize + h) {
                g[(i, j)] = f(i, j);
            }
        }
        g
    }
}

impl<T> PaddedGrid2<T> {
    /// Interior width.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Interior height.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Ghost-layer width.
    #[inline]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Number of interior nodes.
    #[inline]
    pub fn interior_len(&self) -> usize {
        self.nx * self.ny
    }

    /// Flat storage index of interior coordinate `(i, j)`
    /// (`i ∈ [-halo, nx+halo)`).
    #[inline(always)]
    pub fn idx(&self, i: isize, j: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(
            i >= -h && i < self.nx as isize + h,
            "i={i} out of halo range"
        );
        debug_assert!(
            j >= -h && j < self.ny as isize + h,
            "j={j} out of halo range"
        );
        ((j + h) as usize) * self.storage.stride() + (i + h) as usize
    }

    /// Storage stride between consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.storage.stride()
    }

    /// Raw storage, including ghosts and stride padding.
    #[inline]
    pub fn raw(&self) -> &[T] {
        self.storage.raw()
    }

    /// Mutable raw storage, including ghosts and stride padding.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [T] {
        self.storage.raw_mut()
    }

    /// A row segment `i ∈ [i0, i0+len)` at row `j`, in interior coordinates.
    #[inline]
    pub fn row_segment(&self, j: isize, i0: isize, len: usize) -> &[T] {
        let base = self.idx(i0, j);
        &self.storage.raw()[base..base + len]
    }

    /// Mutable row segment `i ∈ [i0, i0+len)` at row `j`.
    #[inline]
    pub fn row_segment_mut(&mut self, j: isize, i0: isize, len: usize) -> &mut [T] {
        let base = self.idx(i0, j);
        &mut self.storage.raw_mut()[base..base + len]
    }

    /// Interior row `j` as a slice, `i ∈ [0, nx)`.
    #[inline]
    pub fn interior_row(&self, j: isize) -> &[T] {
        self.row_segment(j, 0, self.nx)
    }

    /// Interior row `j` as a mutable slice, `i ∈ [0, nx)`.
    #[inline]
    pub fn interior_row_mut(&mut self, j: isize) -> &mut [T] {
        let nx = self.nx;
        self.row_segment_mut(j, 0, nx)
    }

    /// The whole padded row `j` as a slice, `i ∈ [-halo, nx+halo)`.
    #[inline]
    pub fn padded_row(&self, j: isize) -> &[T] {
        let h = self.halo;
        self.row_segment(j, -(h as isize), self.nx + 2 * h)
    }

    /// The whole padded row `j` as a mutable slice, `i ∈ [-halo, nx+halo)`.
    #[inline]
    pub fn padded_row_mut(&mut self, j: isize) -> &mut [T] {
        let h = self.halo;
        let len = self.nx + 2 * h;
        self.row_segment_mut(j, -(h as isize), len)
    }

    /// Split-borrow row pair: a mutable segment of row `j_dst` together with
    /// a shared segment of a *different* row `j_src`, both `i ∈ [i0, i0+len)`.
    /// Enables in-place row-to-row copies (e.g. axis shifts) without going
    /// through per-element indexing.
    ///
    /// Panics if `j_dst == j_src` or `len > stride` (the segments would
    /// alias).
    #[inline]
    pub fn row_pair_mut(
        &mut self,
        j_dst: isize,
        j_src: isize,
        i0: isize,
        len: usize,
    ) -> (&mut [T], &[T]) {
        assert_ne!(j_dst, j_src, "row_pair_mut: aliasing rows");
        assert!(
            len <= self.storage.stride(),
            "row_pair_mut: segment spans rows"
        );
        let bd = self.idx(i0, j_dst);
        let bs = self.idx(i0, j_src);
        let raw = self.storage.raw_mut();
        if bd < bs {
            let (lo, hi) = raw.split_at_mut(bs);
            (&mut lo[bd..bd + len], &hi[..len])
        } else {
            let (lo, hi) = raw.split_at_mut(bd);
            (&mut hi[..len], &lo[bs..bs + len])
        }
    }

    /// Copies `len` cells from row `j_src` starting at `i_src` onto row
    /// `j_dst` starting at `i_dst`, with memmove semantics: overlapping
    /// source and destination (including the same row) are handled as if
    /// through a temporary. This is the primitive behind the swap-free
    /// lattice Boltzmann streaming step.
    #[inline]
    pub fn copy_row_shifted(
        &mut self,
        (i_dst, j_dst): (isize, isize),
        (i_src, j_src): (isize, isize),
        len: usize,
    ) where
        T: Copy,
    {
        let d = self.idx(i_dst, j_dst);
        let s = self.idx(i_src, j_src);
        if d == s {
            return;
        }
        self.storage.raw_mut().copy_within(s..s + len, d);
    }

    /// Splits the grid into disjoint mutable row bands at the given cut rows:
    /// `cuts = [j0, j1, ..., jn]` yields `n` bands covering `[j_k, j_{k+1})`.
    /// Cuts must be strictly increasing and lie in `[-halo, ny+halo]`.
    ///
    /// Bands of the same grid borrow disjoint storage, so handing one band
    /// per worker thread gives safe intra-tile row parallelism.
    pub fn row_bands_mut(&mut self, cuts: &[isize]) -> Vec<RowBand2<'_, T>> {
        let h = self.halo as isize;
        assert!(cuts.len() >= 2, "row_bands_mut: need at least one band");
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "row_bands_mut: cuts must be increasing"
        );
        assert!(
            cuts[0] >= -h && *cuts.last().unwrap() <= self.ny as isize + h,
            "row_bands_mut: cuts out of padded range"
        );
        let stride = self.storage.stride();
        let start = (cuts[0] + h) as usize * stride;
        let mut rest = &mut self.storage.raw_mut()[start..];
        let mut out = Vec::with_capacity(cuts.len() - 1);
        for w in cuts.windows(2) {
            let rows = (w[1] - w[0]) as usize;
            let (band, tail) = rest.split_at_mut(rows * stride);
            rest = tail;
            out.push(RowBand2 {
                slice: band,
                j0: w[0],
                i_lo: -h,
                stride,
            });
        }
        out
    }

    /// Copies the interior of `src` into our interior (shapes must match).
    pub fn copy_interior_from(&mut self, src: &PaddedGrid2<T>)
    where
        T: Copy,
    {
        assert_eq!((self.nx, self.ny), (src.nx, src.ny));
        for j in 0..self.ny as isize {
            let s = src.row_segment(j, 0, src.nx);
            // Split borrow: compute base first.
            let base = self.idx(0, j);
            let nx = self.nx;
            self.storage.raw_mut()[base..base + nx].copy_from_slice(s);
        }
    }
}

/// A mutable view of the contiguous padded-row band `j ∈ [j0, j1)` of a
/// [`PaddedGrid2`], produced by [`PaddedGrid2::row_bands_mut`].
pub struct RowBand2<'a, T> {
    slice: &'a mut [T],
    j0: isize,
    i_lo: isize,
    stride: usize,
}

impl<T> RowBand2<'_, T> {
    /// First row of the band.
    #[inline]
    pub fn j0(&self) -> isize {
        self.j0
    }

    /// Mutable row segment `i ∈ [i0, i0+len)` at row `j` (must lie in the
    /// band).
    #[inline]
    pub fn row_segment_mut(&mut self, j: isize, i0: isize, len: usize) -> &mut [T] {
        debug_assert!(j >= self.j0, "row below band");
        let base = (j - self.j0) as usize * self.stride + (i0 - self.i_lo) as usize;
        &mut self.slice[base..base + len]
    }
}

impl<T> std::ops::Index<(isize, isize)> for PaddedGrid2<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (isize, isize)) -> &T {
        &self.storage.raw()[self.idx(i, j)]
    }
}

impl<T> std::ops::IndexMut<(isize, isize)> for PaddedGrid2<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (isize, isize)) -> &mut T {
        let k = self.idx(i, j);
        &mut self.storage.raw_mut()[k]
    }
}

/// A 3D field with `halo` ghost layers around an `nx × ny × nz` interior.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedGrid3<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
    storage: Array3<T>,
}

impl<T: Clone> PaddedGrid3<T> {
    /// Creates a padded grid with every node set to `fill`.
    pub fn new(nx: usize, ny: usize, nz: usize, halo: usize, fill: T) -> Self {
        let storage = Array3::new(nx + 2 * halo, ny + 2 * halo, nz + 2 * halo, fill);
        Self {
            nx,
            ny,
            nz,
            halo,
            storage,
        }
    }

    /// Fills every node, interior and ghost, with `v`.
    pub fn fill(&mut self, v: T) {
        self.storage.raw_mut().fill(v);
    }

    /// Builds a padded grid by evaluating `f(i, j, k)` over the whole padded
    /// region.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        halo: usize,
        mut f: impl FnMut(isize, isize, isize) -> T,
    ) -> Self
    where
        T: Default,
    {
        let mut g = Self::new(nx, ny, nz, halo, T::default());
        let h = halo as isize;
        for k in -h..(nz as isize + h) {
            for j in -h..(ny as isize + h) {
                for i in -h..(nx as isize + h) {
                    g[(i, j, k)] = f(i, j, k);
                }
            }
        }
        g
    }
}

impl<T> PaddedGrid3<T> {
    /// Interior extent along x.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Interior extent along y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Interior extent along z.
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Ghost-layer width.
    #[inline]
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Number of interior nodes.
    #[inline]
    pub fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Flat storage index of interior coordinate `(i, j, k)`.
    #[inline(always)]
    pub fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(i >= -h && i < self.nx as isize + h);
        debug_assert!(j >= -h && j < self.ny as isize + h);
        debug_assert!(k >= -h && k < self.nz as isize + h);
        let py = (j + h) as usize;
        let pz = (k + h) as usize;
        (pz * (self.ny + 2 * self.halo) + py) * self.storage.stride() + (i + h) as usize
    }

    /// Storage stride between consecutive x-rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.storage.stride()
    }

    /// Raw storage, including ghosts.
    #[inline]
    pub fn raw(&self) -> &[T] {
        self.storage.raw()
    }

    /// Mutable raw storage, including ghosts.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [T] {
        self.storage.raw_mut()
    }

    /// A row segment `i ∈ [i0, i0+len)` at `(j, k)`.
    #[inline]
    pub fn row_segment(&self, j: isize, k: isize, i0: isize, len: usize) -> &[T] {
        let base = self.idx(i0, j, k);
        &self.storage.raw()[base..base + len]
    }

    /// Mutable row segment `i ∈ [i0, i0+len)` at `(j, k)`.
    #[inline]
    pub fn row_segment_mut(&mut self, j: isize, k: isize, i0: isize, len: usize) -> &mut [T] {
        let base = self.idx(i0, j, k);
        &mut self.storage.raw_mut()[base..base + len]
    }

    /// Interior x-row at `(j, k)` as a slice, `i ∈ [0, nx)`.
    #[inline]
    pub fn interior_row(&self, j: isize, k: isize) -> &[T] {
        self.row_segment(j, k, 0, self.nx)
    }

    /// Interior x-row at `(j, k)` as a mutable slice, `i ∈ [0, nx)`.
    #[inline]
    pub fn interior_row_mut(&mut self, j: isize, k: isize) -> &mut [T] {
        let nx = self.nx;
        self.row_segment_mut(j, k, 0, nx)
    }

    /// The whole padded x-row at `(j, k)` as a slice, `i ∈ [-halo, nx+halo)`.
    #[inline]
    pub fn padded_row(&self, j: isize, k: isize) -> &[T] {
        let h = self.halo;
        self.row_segment(j, k, -(h as isize), self.nx + 2 * h)
    }

    /// The whole padded x-row at `(j, k)` as a mutable slice.
    #[inline]
    pub fn padded_row_mut(&mut self, j: isize, k: isize) -> &mut [T] {
        let h = self.halo;
        let len = self.nx + 2 * h;
        self.row_segment_mut(j, k, -(h as isize), len)
    }

    /// Split-borrow row pair: a mutable segment of row `(j_dst, k_dst)` and a
    /// shared segment of a *different* row `(j_src, k_src)`, both
    /// `i ∈ [i0, i0+len)`. See [`PaddedGrid2::row_pair_mut`].
    ///
    /// Panics if the rows coincide or `len > stride`.
    #[inline]
    pub fn row_pair_mut(
        &mut self,
        (j_dst, k_dst): (isize, isize),
        (j_src, k_src): (isize, isize),
        i0: isize,
        len: usize,
    ) -> (&mut [T], &[T]) {
        assert!(
            (j_dst, k_dst) != (j_src, k_src),
            "row_pair_mut: aliasing rows"
        );
        assert!(
            len <= self.storage.stride(),
            "row_pair_mut: segment spans rows"
        );
        let bd = self.idx(i0, j_dst, k_dst);
        let bs = self.idx(i0, j_src, k_src);
        let raw = self.storage.raw_mut();
        if bd < bs {
            let (lo, hi) = raw.split_at_mut(bs);
            (&mut lo[bd..bd + len], &hi[..len])
        } else {
            let (lo, hi) = raw.split_at_mut(bd);
            (&mut hi[..len], &lo[bs..bs + len])
        }
    }

    /// Copies `len` cells from row `(j_src, k_src)` starting at `i_src` onto
    /// row `(j_dst, k_dst)` starting at `i_dst`, with memmove semantics
    /// (see [`PaddedGrid2::copy_row_shifted`]).
    #[inline]
    pub fn copy_row_shifted(
        &mut self,
        (i_dst, j_dst, k_dst): (isize, isize, isize),
        (i_src, j_src, k_src): (isize, isize, isize),
        len: usize,
    ) where
        T: Copy,
    {
        let d = self.idx(i_dst, j_dst, k_dst);
        let s = self.idx(i_src, j_src, k_src);
        if d == s {
            return;
        }
        self.storage.raw_mut().copy_within(s..s + len, d);
    }

    /// Splits the grid into disjoint mutable plane bands at the given cut
    /// planes: `cuts = [k0, k1, ..., kn]` yields `n` bands covering
    /// `[k_m, k_{m+1})`. Cuts must be strictly increasing and lie in
    /// `[-halo, nz+halo]`. See [`PaddedGrid2::row_bands_mut`].
    pub fn plane_bands_mut(&mut self, cuts: &[isize]) -> Vec<PlaneBand3<'_, T>> {
        let h = self.halo as isize;
        assert!(cuts.len() >= 2, "plane_bands_mut: need at least one band");
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1]),
            "plane_bands_mut: cuts must be increasing"
        );
        assert!(
            cuts[0] >= -h && *cuts.last().unwrap() <= self.nz as isize + h,
            "plane_bands_mut: cuts out of padded range"
        );
        let stride = self.storage.stride();
        let plane = (self.ny + 2 * self.halo) * stride;
        let start = (cuts[0] + h) as usize * plane;
        let mut rest = &mut self.storage.raw_mut()[start..];
        let mut out = Vec::with_capacity(cuts.len() - 1);
        for w in cuts.windows(2) {
            let planes = (w[1] - w[0]) as usize;
            let (band, tail) = rest.split_at_mut(planes * plane);
            rest = tail;
            out.push(PlaneBand3 {
                slice: band,
                k0: w[0],
                lo: -h,
                stride,
                plane,
            });
        }
        out
    }
}

/// A mutable view of the contiguous padded-plane band `k ∈ [k0, k1)` of a
/// [`PaddedGrid3`], produced by [`PaddedGrid3::plane_bands_mut`].
pub struct PlaneBand3<'a, T> {
    slice: &'a mut [T],
    k0: isize,
    lo: isize,
    stride: usize,
    plane: usize,
}

impl<T> PlaneBand3<'_, T> {
    /// First plane of the band.
    #[inline]
    pub fn k0(&self) -> isize {
        self.k0
    }

    /// Mutable row segment `i ∈ [i0, i0+len)` at `(j, k)` (plane `k` must lie
    /// in the band).
    #[inline]
    pub fn row_segment_mut(&mut self, j: isize, k: isize, i0: isize, len: usize) -> &mut [T] {
        debug_assert!(k >= self.k0, "plane below band");
        let base = (k - self.k0) as usize * self.plane
            + (j - self.lo) as usize * self.stride
            + (i0 - self.lo) as usize;
        &mut self.slice[base..base + len]
    }
}

impl<T> std::ops::Index<(isize, isize, isize)> for PaddedGrid3<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j, k): (isize, isize, isize)) -> &T {
        &self.storage.raw()[self.idx(i, j, k)]
    }
}

impl<T> std::ops::IndexMut<(isize, isize, isize)> for PaddedGrid3<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j, k): (isize, isize, isize)) -> &mut T {
        let n = self.idx(i, j, k);
        &mut self.storage.raw_mut()[n]
    }
}

/// The storage shape of a padded grid as the halo and dump codecs read it:
/// x-rows `stride` elements apart, y after x, then z. A 2D grid is a 3D one
/// with `n[2] == 1` and no z ghosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLayout {
    /// Interior extent per axis.
    pub n: [usize; 3],
    /// Ghost layers per axis.
    pub halo: [usize; 3],
    /// Storage stride between consecutive x-rows.
    pub stride: usize,
}

impl RowLayout {
    /// Flat storage index of interior coordinate `(i, j, k)`.
    #[inline]
    pub(crate) fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let [hx, hy, hz] = self.halo.map(|h| h as isize);
        let rows = self.n[1] + 2 * self.halo[1];
        ((k + hz) as usize * rows + (j + hy) as usize) * self.stride + (i + hx) as usize
    }

    /// Storage distance between consecutive z-planes.
    #[inline]
    pub(crate) fn plane_stride(&self) -> usize {
        (self.n[1] + 2 * self.halo[1]) * self.stride
    }
}

/// A padded grid's storage, row by row: all the halo codec
/// ([`crate::halo`]) and the dump codec need of [`PaddedGrid2`] and
/// [`PaddedGrid3`].
pub trait PaddedRows<T> {
    /// The storage shape.
    fn layout(&self) -> RowLayout;
    /// Raw storage, including ghosts and stride padding.
    fn raw(&self) -> &[T];
    /// Mutable raw storage, including ghosts and stride padding.
    fn raw_mut(&mut self) -> &mut [T];

    /// The padded x-rows (`i ∈ [-halo, nx+halo)`), in storage order, without
    /// the stride padding.
    fn rows<'a>(&'a self) -> impl Iterator<Item = &'a [T]>
    where
        T: 'a,
    {
        let l = self.layout();
        let width = l.n[0] + 2 * l.halo[0];
        // a zero-width grid has no storage, hence no rows
        let stride = l.stride.max(1);
        self.raw().chunks_exact(stride).map(move |r| &r[..width])
    }

    /// The padded x-rows, mutably, in storage order.
    fn rows_mut<'a>(&'a mut self) -> impl Iterator<Item = &'a mut [T]>
    where
        T: 'a,
    {
        let l = self.layout();
        let width = l.n[0] + 2 * l.halo[0];
        let stride = l.stride.max(1);
        self.raw_mut()
            .chunks_exact_mut(stride)
            .map(move |r| &mut r[..width])
    }
}

impl<T> PaddedRows<T> for PaddedGrid2<T> {
    fn layout(&self) -> RowLayout {
        RowLayout {
            n: [self.nx, self.ny, 1],
            halo: [self.halo, self.halo, 0],
            stride: self.stride(),
        }
    }
    fn raw(&self) -> &[T] {
        self.storage.raw()
    }
    fn raw_mut(&mut self) -> &mut [T] {
        self.storage.raw_mut()
    }
}

impl<T> PaddedRows<T> for PaddedGrid3<T> {
    fn layout(&self) -> RowLayout {
        RowLayout {
            n: [self.nx, self.ny, self.nz],
            halo: [self.halo; 3],
            stride: self.stride(),
        }
    }
    fn raw(&self) -> &[T] {
        self.storage.raw()
    }
    fn raw_mut(&mut self) -> &mut [T] {
        self.storage.raw_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded2_ghosts_are_addressable() {
        let mut g = PaddedGrid2::new(4, 3, 2, 0.0f64);
        g[(-2, -2)] = 1.0;
        g[(5, 4)] = 2.0;
        g[(0, 0)] = 3.0;
        assert_eq!(g[(-2, -2)], 1.0);
        assert_eq!(g[(5, 4)], 2.0);
        assert_eq!(g[(0, 0)], 3.0);
    }

    #[test]
    fn padded2_row_segments() {
        let g = PaddedGrid2::from_fn(3, 2, 1, |i, j| (i + 10 * j) as f64);
        assert_eq!(g.row_segment(0, 0, 3), &[0.0, 1.0, 2.0]);
        assert_eq!(g.row_segment(0, -1, 5), &[-1.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn padded2_copy_interior() {
        let src = PaddedGrid2::from_fn(3, 3, 2, |i, j| (i * 100 + j) as f64);
        let mut dst = PaddedGrid2::new(3, 3, 2, -1.0f64);
        dst.copy_interior_from(&src);
        assert_eq!(dst[(2, 2)], 202.0);
        // ghosts untouched
        assert_eq!(dst[(-1, 0)], -1.0);
    }

    #[test]
    fn padded3_roundtrip() {
        let mut g = PaddedGrid3::new(3, 4, 5, 2, 0i64);
        g[(-2, -2, -2)] = 5;
        g[(4, 5, 6)] = 6;
        assert_eq!(g[(-2, -2, -2)], 5);
        assert_eq!(g[(4, 5, 6)], 6);
        assert_eq!(g.interior_len(), 60);
    }

    #[test]
    fn padded2_row_accessors_and_pair() {
        let mut g = PaddedGrid2::from_fn(3, 2, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(g.interior_row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(g.padded_row(0), &[-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
        let (dst, src) = g.row_pair_mut(1, 0, -1, 4);
        assert_eq!(src, &[-1.0, 0.0, 1.0, 2.0]);
        dst.copy_from_slice(src);
        assert_eq!(g[(0, 1)], 0.0);
        // reversed order (dst below src) splits the other way
        let (dst, src) = g.row_pair_mut(-1, 2, 0, 3);
        dst.copy_from_slice(src);
        assert_eq!(g[(2, -1)], 22.0);
    }

    #[test]
    fn padded2_fill_covers_ghosts() {
        let mut g = PaddedGrid2::from_fn(3, 2, 2, |i, j| (i + 10 * j) as f64);
        g.fill(7.5);
        assert_eq!(g[(-2, -2)], 7.5);
        assert_eq!(g[(4, 3)], 7.5);
    }

    #[test]
    fn padded3_row_pair() {
        let mut g = PaddedGrid3::from_fn(3, 2, 2, 1, |i, j, k| (i + 10 * j + 100 * k) as f64);
        let (dst, src) = g.row_pair_mut((0, 1), (1, 0), 0, 3);
        assert_eq!(src, &[10.0, 11.0, 12.0]);
        dst.copy_from_slice(src);
        assert_eq!(g[(0, 0, 1)], 10.0);
    }

    #[test]
    fn copy_row_shifted_matches_two_buffer_copy() {
        // same-row overlapping shift behaves like a copy through a temporary
        let mut g = PaddedGrid2::from_fn(6, 3, 2, |i, j| (i + 10 * j) as f64);
        let want: Vec<f64> = (0..6).map(|i| (i - 1 + 10) as f64).collect();
        g.copy_row_shifted((0, 1), (-1, 1), 6);
        assert_eq!(g.interior_row(1), &want[..]);
        // cross-row shifted copy
        let mut g = PaddedGrid2::from_fn(6, 3, 2, |i, j| (i + 10 * j) as f64);
        g.copy_row_shifted((0, 2), (1, 0), 4);
        assert_eq!(g.row_segment(2, 0, 4), &[1.0, 2.0, 3.0, 4.0]);
        // degenerate zero shift is a no-op
        let mut g3 = PaddedGrid3::from_fn(3, 2, 2, 1, |i, j, k| (i + 10 * j + 100 * k) as f64);
        g3.copy_row_shifted((0, 1, 1), (0, 1, 0), 3);
        assert_eq!(g3.row_segment(1, 1, 0, 3), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn row_bands_cover_disjoint_rows() {
        let mut g = PaddedGrid2::from_fn(4, 6, 2, |_, _| 0.0f64);
        let mut bands = g.row_bands_mut(&[-2, 1, 4, 8]);
        assert_eq!(bands.len(), 3);
        assert_eq!(bands[0].j0(), -2);
        for (v, band) in bands.iter_mut().enumerate() {
            let j0 = band.j0();
            band.row_segment_mut(j0, -2, 8).fill(v as f64 + 1.0);
        }
        drop(bands);
        assert_eq!(g[(0, -2)], 1.0);
        assert_eq!(g[(0, 1)], 2.0);
        assert_eq!(g[(0, 4)], 3.0);
        assert_eq!(g[(0, 0)], 0.0);
    }

    #[test]
    fn plane_bands_cover_disjoint_planes() {
        let mut g = PaddedGrid3::from_fn(3, 3, 6, 1, |_, _, _| 0.0f64);
        let mut bands = g.plane_bands_mut(&[-1, 2, 7]);
        assert_eq!(bands.len(), 2);
        for (v, band) in bands.iter_mut().enumerate() {
            let k0 = band.k0();
            band.row_segment_mut(0, k0, 0, 3).fill(v as f64 + 1.0);
        }
        drop(bands);
        assert_eq!(g[(0, 0, -1)], 1.0);
        assert_eq!(g[(0, 0, 2)], 2.0);
        assert_eq!(g[(0, 0, 3)], 0.0);
    }

    #[test]
    fn padded3_row_segment() {
        let g = PaddedGrid3::from_fn(3, 2, 2, 1, |i, j, k| (i + 10 * j + 100 * k) as f64);
        assert_eq!(g.row_segment(1, 1, -1, 3), &[109.0, 110.0, 111.0]);
    }
}
