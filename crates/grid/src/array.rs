//! Dense row-major 2D/3D arrays with an optional row-stride pad.
//!
//! The stride pad reproduces the Appendix-E workaround of the paper: on the
//! HP9000/700 the performance "can degrade dramatically ... when the length of
//! the arrays in the program is a near multiple of 4096 bytes", and the fix is
//! to lengthen the arrays by 200–300 bytes. [`StridePolicy::AvoidPageMultiples`]
//! implements exactly that rule; the `page_stride` benchmark measures its
//! effect on modern hardware.

/// Bytes per virtual-memory page assumed by the Appendix-E workaround.
pub const PAGE_BYTES: usize = 4096;

/// How row storage lengths are chosen relative to the logical row length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StridePolicy {
    /// Rows are stored back-to-back: stride == logical width.
    #[default]
    Tight,
    /// If a row's byte length lands within `slack` bytes of a multiple of the
    /// 4096-byte page size, pad the stride by `pad` elements (Appendix E of
    /// the paper used 200–300 bytes; we pad by 32 `f64`s = 256 bytes).
    AvoidPageMultiples,
    /// Always pad the stride by the given number of elements (for ablations).
    FixedPad(usize),
}

impl StridePolicy {
    /// Computes the storage stride (in elements) for a logical row of `width`
    /// elements of `elem_bytes` bytes each.
    pub fn stride_for(&self, width: usize, elem_bytes: usize) -> usize {
        match *self {
            StridePolicy::Tight => width,
            StridePolicy::FixedPad(pad) => width + pad,
            StridePolicy::AvoidPageMultiples => {
                let bytes = width * elem_bytes;
                let rem = bytes % PAGE_BYTES;
                let near = !(64..=PAGE_BYTES - 64).contains(&rem);
                if near {
                    // 256 bytes of pad, in elements (at least one element).
                    width + (256 / elem_bytes).max(1)
                } else {
                    width
                }
            }
        }
    }
}

/// A dense 2D array stored row-major with x contiguous: `data[y * stride + x]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Array2<T> {
    nx: usize,
    ny: usize,
    stride: usize,
    data: Vec<T>,
}

impl<T: Clone> Array2<T> {
    /// Creates an `nx × ny` array filled with `fill`, using a tight stride.
    pub fn new(nx: usize, ny: usize, fill: T) -> Self {
        Self::with_policy(nx, ny, fill, StridePolicy::Tight)
    }

    /// Creates an array whose row stride is chosen by `policy`.
    pub fn with_policy(nx: usize, ny: usize, fill: T, policy: StridePolicy) -> Self {
        let stride = policy.stride_for(nx, std::mem::size_of::<T>());
        Self {
            nx,
            ny,
            stride,
            data: vec![fill; stride * ny],
        }
    }

    /// Builds an array by evaluating `f(x, y)` at every node.
    pub fn from_fn(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> T) -> Self
    where
        T: Default,
    {
        let mut a = Self::new(nx, ny, T::default());
        for y in 0..ny {
            for x in 0..nx {
                a[(x, y)] = f(x, y);
            }
        }
        a
    }
}

impl<T> Array2<T> {
    /// Logical width (number of nodes along x).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Logical height (number of nodes along y).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Storage stride between consecutive rows, in elements.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total number of logical nodes (`nx * ny`).
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// True when the array has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat storage index of `(x, y)`.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(
            x < self.nx && y < self.ny,
            "({x},{y}) out of {}x{}",
            self.nx,
            self.ny
        );
        y * self.stride + x
    }

    /// Row `y` as a logical-width slice.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        let base = y * self.stride;
        &self.data[base..base + self.nx]
    }

    /// Row `y` as a mutable logical-width slice.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        let base = y * self.stride;
        &mut self.data[base..base + self.nx]
    }

    /// Raw storage (includes stride padding).
    #[inline]
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage (includes stride padding).
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterates over all logical nodes in row-major order as `(x, y, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        (0..self.ny).flat_map(move |y| self.row(y).iter().enumerate().map(move |(x, v)| (x, y, v)))
    }
}

impl<T> std::ops::Index<(usize, usize)> for Array2<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        &self.data[self.idx(x, y)]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Array2<T> {
    #[inline(always)]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        let i = self.idx(x, y);
        &mut self.data[i]
    }
}

/// A dense 3D array stored with x contiguous: `data[(z * ny + y) * stride + x]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Array3<T> {
    nx: usize,
    ny: usize,
    nz: usize,
    stride: usize,
    data: Vec<T>,
}

impl<T: Clone> Array3<T> {
    /// Creates an `nx × ny × nz` array filled with `fill`, tight stride.
    pub fn new(nx: usize, ny: usize, nz: usize, fill: T) -> Self {
        Self::with_policy(nx, ny, nz, fill, StridePolicy::Tight)
    }

    /// Creates an array whose row stride is chosen by `policy`.
    pub fn with_policy(nx: usize, ny: usize, nz: usize, fill: T, policy: StridePolicy) -> Self {
        let stride = policy.stride_for(nx, std::mem::size_of::<T>());
        Self {
            nx,
            ny,
            nz,
            stride,
            data: vec![fill; stride * ny * nz],
        }
    }

    /// Builds an array by evaluating `f(x, y, z)` at every node.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self
    where
        T: Default,
    {
        let mut a = Self::new(nx, ny, nz, T::default());
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    a[(x, y, z)] = f(x, y, z);
                }
            }
        }
        a
    }
}

impl<T> Array3<T> {
    /// Logical extent along x.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Logical extent along y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Logical extent along z.
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Storage stride between consecutive x-rows, in elements.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total number of logical nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when the array has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat storage index of `(x, y, z)`.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.stride + x
    }

    /// The x-row at `(y, z)` as a logical-width slice.
    #[inline]
    pub fn row(&self, y: usize, z: usize) -> &[T] {
        let base = (z * self.ny + y) * self.stride;
        &self.data[base..base + self.nx]
    }

    /// The x-row at `(y, z)` as a mutable logical-width slice.
    #[inline]
    pub fn row_mut(&mut self, y: usize, z: usize) -> &mut [T] {
        let base = (z * self.ny + y) * self.stride;
        &mut self.data[base..base + self.nx]
    }

    /// Raw storage (includes stride padding).
    #[inline]
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage (includes stride padding).
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> std::ops::Index<(usize, usize, usize)> for Array3<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (x, y, z): (usize, usize, usize)) -> &T {
        &self.data[self.idx(x, y, z)]
    }
}

impl<T> std::ops::IndexMut<(usize, usize, usize)> for Array3<T> {
    #[inline(always)]
    fn index_mut(&mut self, (x, y, z): (usize, usize, usize)) -> &mut T {
        let i = self.idx(x, y, z);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array2_roundtrip() {
        let mut a = Array2::new(4, 3, 0i32);
        a[(2, 1)] = 7;
        assert_eq!(a[(2, 1)], 7);
        assert_eq!(a[(0, 0)], 0);
        assert_eq!(a.len(), 12);
    }

    #[test]
    fn array2_from_fn_rows() {
        let a = Array2::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        assert_eq!(a.row(0), &[0, 1, 2]);
        assert_eq!(a.row(1), &[10, 11, 12]);
    }

    #[test]
    fn array2_iter_order() {
        let a = Array2::from_fn(2, 2, |x, y| (x, y));
        let visited: Vec<_> = a.iter().map(|(x, y, _)| (x, y)).collect();
        assert_eq!(visited, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn array3_roundtrip() {
        let mut a = Array3::new(3, 4, 5, 0.0f64);
        a[(2, 3, 4)] = 1.5;
        assert_eq!(a[(2, 3, 4)], 1.5);
        assert_eq!(a.len(), 60);
        assert_eq!(a.row(3, 4)[2], 1.5);
    }

    #[test]
    fn stride_policy_tight() {
        assert_eq!(StridePolicy::Tight.stride_for(512, 8), 512);
    }

    #[test]
    fn stride_policy_avoids_page_multiple() {
        // 512 f64 = 4096 bytes: exactly one page -> padded by 32 elements.
        let s = StridePolicy::AvoidPageMultiples.stride_for(512, 8);
        assert_eq!(s, 512 + 32);
        // 500 f64 = 4000 bytes: 96 bytes away from the page size -> unchanged.
        let s = StridePolicy::AvoidPageMultiples.stride_for(500, 8);
        assert_eq!(s, 500);
        // near multiple from below: 1022 f64 = 8176 bytes, 16 short of 2 pages.
        let s = StridePolicy::AvoidPageMultiples.stride_for(1022, 8);
        assert_eq!(s, 1022 + 32);
    }

    #[test]
    fn stride_policy_fixed_pad() {
        assert_eq!(StridePolicy::FixedPad(3).stride_for(10, 8), 13);
    }

    #[test]
    fn padded_stride_keeps_rows_logical() {
        let mut a = Array2::with_policy(512, 4, 0u64, StridePolicy::AvoidPageMultiples);
        assert_eq!(a.stride(), 544);
        a.row_mut(2)[511] = 9;
        assert_eq!(a[(511, 2)], 9);
        assert_eq!(a.row(2).len(), 512);
    }
}
