//! One-dimensional extents and even splitting of grid axes across processors.

/// A half-open interval `[start, start + len)` of global grid indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// First global index covered by this extent.
    pub start: usize,
    /// Number of indices covered.
    pub len: usize,
}

impl Extent {
    /// Creates an extent from its start and length.
    pub fn new(start: usize, len: usize) -> Self {
        Self { start, len }
    }

    /// One past the last index covered.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// Whether `i` falls inside the extent.
    pub fn contains(&self, i: usize) -> bool {
        i >= self.start && i < self.end()
    }
}

/// Splits an axis of `n` nodes into `p` contiguous, nearly equal extents.
///
/// The first `n % p` extents receive one extra node, so lengths differ by at
/// most one. This is the uniform decomposition the paper uses ("we prefer to
/// use uniform decompositions and identical-shaped subregions ... for the sake
/// of simplicity", section 2); exact equality holds whenever `p` divides `n`,
/// which is the case for all the grid sizes used in the evaluation.
///
/// # Panics
/// Panics if `p == 0` or `p > n`.
pub fn split_even(n: usize, p: usize) -> Vec<Extent> {
    assert!(p > 0, "cannot split an axis across zero processors");
    assert!(p <= n, "more processors ({p}) than nodes ({n}) on an axis");
    let base = n / p;
    let extra = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for k in 0..p {
        let len = base + usize::from(k < extra);
        out.push(Extent::new(start, len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_exact() {
        let parts = split_even(100, 4);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|e| e.len == 25));
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[3].end(), 100);
    }

    #[test]
    fn split_uneven_differs_by_at_most_one() {
        let parts = split_even(10, 3);
        let lens: Vec<_> = parts.iter().map(|e| e.len).collect();
        assert_eq!(lens, vec![4, 3, 3]);
        // contiguous cover
        for w in parts.windows(2) {
            assert_eq!(w[0].end(), w[1].start);
        }
    }

    #[test]
    fn split_single() {
        let parts = split_even(7, 1);
        assert_eq!(parts, vec![Extent::new(0, 7)]);
    }

    #[test]
    fn extent_contains() {
        let e = Extent::new(5, 3);
        assert!(!e.contains(4));
        assert!(e.contains(5));
        assert!(e.contains(7));
        assert!(!e.contains(8));
    }

    #[test]
    #[should_panic]
    fn split_zero_processors_panics() {
        split_even(10, 0);
    }

    #[test]
    #[should_panic]
    fn split_more_procs_than_nodes_panics() {
        split_even(3, 4);
    }
}
