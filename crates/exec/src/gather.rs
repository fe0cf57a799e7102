//! Gathering tile interiors back into global fields.

use subsonic_grid::Array2;
use subsonic_solvers::{TileState2, TileState3};

/// Gathered global 2D fields.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalFields2 {
    /// Density.
    pub rho: Array2<f64>,
    /// x-velocity.
    pub vx: Array2<f64>,
    /// y-velocity.
    pub vy: Array2<f64>,
}

impl GlobalFields2 {
    /// Assembles global fields of size `nx × ny` from tile interiors; nodes
    /// not covered by any tile (inactive, all-solid subregions) read as
    /// `(rho0, 0, 0)`.
    pub fn gather<'a>(
        nx: usize,
        ny: usize,
        rho0: f64,
        tiles: impl IntoIterator<Item = &'a TileState2>,
    ) -> Self {
        let mut rho = Array2::new(nx, ny, rho0);
        let mut vx = Array2::new(nx, ny, 0.0);
        let mut vy = Array2::new(nx, ny, 0.0);
        for t in tiles {
            let (ox, oy) = t.offset;
            for j in 0..t.ny() {
                for i in 0..t.nx() {
                    let (gi, gj) = (ox + i, oy + j);
                    rho[(gi, gj)] = t.mac.rho[(i as isize, j as isize)];
                    vx[(gi, gj)] = t.mac.vx[(i as isize, j as isize)];
                    vy[(gi, gj)] = t.mac.vy[(i as isize, j as isize)];
                }
            }
        }
        Self { rho, vx, vy }
    }

    /// Bitwise equality check against another gather (used by the
    /// serial/parallel equivalence tests). Returns the first differing node.
    pub fn first_difference(&self, other: &Self) -> Option<(usize, usize, f64, f64)> {
        for y in 0..self.rho.ny() {
            for x in 0..self.rho.nx() {
                for (a, b) in [
                    (&self.rho, &other.rho),
                    (&self.vx, &other.vx),
                    (&self.vy, &other.vy),
                ] {
                    if a[(x, y)].to_bits() != b[(x, y)].to_bits() {
                        return Some((x, y, a[(x, y)], b[(x, y)]));
                    }
                }
            }
        }
        None
    }
}

/// Gathered global 3D fields (flattened storage via `Array2` per z-slab would
/// be awkward; we keep plain vectors indexed `(z·ny + y)·nx + x`).
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalFields3 {
    /// Grid extents.
    pub dims: (usize, usize, usize),
    /// Density, row-major x-fastest.
    pub rho: Vec<f64>,
    /// x-velocity.
    pub vx: Vec<f64>,
    /// y-velocity.
    pub vy: Vec<f64>,
    /// z-velocity.
    pub vz: Vec<f64>,
}

impl GlobalFields3 {
    /// Flat index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.dims.1 + y) * self.dims.0 + x
    }

    /// Assembles global fields from tile interiors.
    pub fn gather<'a>(
        dims: (usize, usize, usize),
        rho0: f64,
        tiles: impl IntoIterator<Item = &'a TileState3>,
    ) -> Self {
        let n = dims.0 * dims.1 * dims.2;
        let mut out = Self {
            dims,
            rho: vec![rho0; n],
            vx: vec![0.0; n],
            vy: vec![0.0; n],
            vz: vec![0.0; n],
        };
        for t in tiles {
            let (ox, oy, oz) = t.offset;
            for k in 0..t.nz() {
                for j in 0..t.ny() {
                    for i in 0..t.nx() {
                        let g = out.idx(ox + i, oy + j, oz + k);
                        let l = (i as isize, j as isize, k as isize);
                        out.rho[g] = t.mac.rho[l];
                        out.vx[g] = t.mac.vx[l];
                        out.vy[g] = t.mac.vy[l];
                        out.vz[g] = t.mac.vz[l];
                    }
                }
            }
        }
        out
    }

    /// Returns the first node where the two gathers differ bitwise.
    pub fn first_difference(&self, other: &Self) -> Option<usize> {
        [
            (&self.rho, &other.rho),
            (&self.vx, &other.vx),
            (&self.vy, &other.vy),
            (&self.vz, &other.vz),
        ]
        .into_iter()
        .find_map(|(a, b)| {
            a.iter()
                .zip(b)
                .position(|(x, y)| x.to_bits() != y.to_bits())
        })
    }
}
