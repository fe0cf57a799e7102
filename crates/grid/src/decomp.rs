//! Rectangular domain decompositions (section 3 of the paper).
//!
//! A global grid of `nx × ny` nodes is decomposed into `px × py` rectangular
//! subregions ("tiles"); each tile is assigned to one parallel subprocess. The
//! decomposition also carries the neighbour topology (with optional periodic
//! wrap per axis) and the communication-surface accounting that feeds the
//! section-8 efficiency model: for a subregion of `N` nodes the number of
//! communicating nodes is `N_c = m·N^(1/2)` in 2D and `m·N^(2/3)` in 3D, where
//! `m` depends on the decomposition geometry.

use crate::face::{Face2, Face3};
use crate::range::{split_even, Extent};

/// The box of global indices covered by one 2D tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileBox2 {
    /// Tile coordinate along x (column), `0..px`.
    pub tx: usize,
    /// Tile coordinate along y (row), `0..py`.
    pub ty: usize,
    /// Global x-extent covered.
    pub x: Extent,
    /// Global y-extent covered.
    pub y: Extent,
}

impl TileBox2 {
    /// Number of nodes in the tile.
    pub fn nodes(&self) -> usize {
        self.x.len * self.y.len
    }

    /// Number of nodes on the face `f` (the strip that is communicated).
    pub fn face_nodes(&self, f: Face2) -> usize {
        match f.axis() {
            0 => self.y.len,
            _ => self.x.len,
        }
    }
}

/// The box of global indices covered by one 3D tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileBox3 {
    /// Tile coordinate along x.
    pub tx: usize,
    /// Tile coordinate along y.
    pub ty: usize,
    /// Tile coordinate along z.
    pub tz: usize,
    /// Global x-extent covered.
    pub x: Extent,
    /// Global y-extent covered.
    pub y: Extent,
    /// Global z-extent covered.
    pub z: Extent,
}

impl TileBox3 {
    /// Number of nodes in the tile.
    pub fn nodes(&self) -> usize {
        self.x.len * self.y.len * self.z.len
    }

    /// Number of nodes on the face `f`.
    pub fn face_nodes(&self, f: Face3) -> usize {
        match f.axis() {
            0 => self.y.len * self.z.len,
            1 => self.x.len * self.z.len,
            _ => self.x.len * self.y.len,
        }
    }
}

/// Geometry factor `m` of the section-8 efficiency model, with the statistics
/// our implementation can measure exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MFactor {
    /// Mean number of communicating faces per tile.
    pub mean_faces: f64,
    /// Maximum number of communicating faces over all tiles.
    pub max_faces: usize,
    /// The value the paper's table uses for this decomposition, when listed.
    ///
    /// The paper (section 8) tabulates `m` for the decompositions used in its
    /// measurements: `P×1 → 2`, `2×2 → 2`, `3×3 → 3`, `4×4 → 4`, `5×4 → 4`.
    /// For decompositions outside that table this falls back to `max_faces`,
    /// which reproduces the paper's entries for `P×1`, `2×2`, `4×4` and `5×4`
    /// (the `3×3` entry is the paper's rounding of the mean, 2.67 → 3).
    pub paper: f64,
}

/// A `px × py` decomposition of an `nx × ny` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomp2 {
    nx: usize,
    ny: usize,
    px: usize,
    py: usize,
    periodic_x: bool,
    periodic_y: bool,
    xs: Vec<Extent>,
    ys: Vec<Extent>,
}

impl Decomp2 {
    /// Decomposes an `nx × ny` grid into `px × py` tiles, non-periodic.
    pub fn new(nx: usize, ny: usize, px: usize, py: usize) -> Self {
        Self::with_periodicity(nx, ny, px, py, false, false)
    }

    /// Decomposes with the given per-axis periodicity.
    ///
    /// # Panics
    /// Panics if any axis has more tiles than nodes, or zero tiles.
    pub fn with_periodicity(
        nx: usize,
        ny: usize,
        px: usize,
        py: usize,
        periodic_x: bool,
        periodic_y: bool,
    ) -> Self {
        let xs = split_even(nx, px);
        let ys = split_even(ny, py);
        Self {
            nx,
            ny,
            px,
            py,
            periodic_x,
            periodic_y,
            xs,
            ys,
        }
    }

    /// Global grid width.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Global grid height.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Tiles along x.
    pub fn px(&self) -> usize {
        self.px
    }

    /// Tiles along y.
    pub fn py(&self) -> usize {
        self.py
    }

    /// Whether the x axis wraps.
    pub fn periodic_x(&self) -> bool {
        self.periodic_x
    }

    /// Whether the y axis wraps.
    pub fn periodic_y(&self) -> bool {
        self.periodic_y
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> usize {
        self.px * self.py
    }

    /// Linear tile id for tile coordinate `(tx, ty)`: row-major, `ty*px + tx`.
    pub fn tile_id(&self, tx: usize, ty: usize) -> usize {
        debug_assert!(tx < self.px && ty < self.py);
        ty * self.px + tx
    }

    /// Tile coordinate of a linear tile id.
    pub fn tile_coord(&self, id: usize) -> (usize, usize) {
        debug_assert!(id < self.tiles());
        (id % self.px, id / self.px)
    }

    /// The box of global indices covered by tile `id`.
    pub fn tile_box(&self, id: usize) -> TileBox2 {
        let (tx, ty) = self.tile_coord(id);
        TileBox2 {
            tx,
            ty,
            x: self.xs[tx],
            y: self.ys[ty],
        }
    }

    /// All tile boxes in tile-id order.
    pub fn tile_boxes(&self) -> Vec<TileBox2> {
        (0..self.tiles()).map(|id| self.tile_box(id)).collect()
    }

    /// The tile id owning global node `(x, y)`.
    pub fn owner(&self, x: usize, y: usize) -> usize {
        let tx = self
            .xs
            .iter()
            .position(|e| e.contains(x))
            .expect("x inside grid");
        let ty = self
            .ys
            .iter()
            .position(|e| e.contains(y))
            .expect("y inside grid");
        self.tile_id(tx, ty)
    }

    /// Neighbour tile across face `f`, honouring periodicity.
    ///
    /// Returns `None` at a non-periodic domain edge. When an axis has a single
    /// tile and is periodic, the tile is its own neighbour (self-exchange).
    pub fn neighbor(&self, id: usize, f: Face2) -> Option<usize> {
        let (tx, ty) = self.tile_coord(id);
        let (dx, dy) = f.delta();
        let step = |t: usize, d: isize, p: usize, periodic: bool| -> Option<usize> {
            let n = t as isize + d;
            if n < 0 || n >= p as isize {
                if periodic {
                    Some(((n + p as isize) % p as isize) as usize)
                } else {
                    None
                }
            } else {
                Some(n as usize)
            }
        };
        let ntx = step(tx, dx, self.px, self.periodic_x)?;
        let nty = step(ty, dy, self.py, self.periodic_y)?;
        Some(self.tile_id(ntx, nty))
    }

    /// Faces of tile `id` that have a neighbour (i.e. that communicate).
    pub fn communicating_faces(&self, id: usize) -> Vec<Face2> {
        Face2::ALL
            .iter()
            .copied()
            .filter(|&f| self.neighbor(id, f).is_some())
            .collect()
    }

    /// Number of communicating (surface) nodes of tile `id`: the sum of face
    /// lengths over faces with a neighbour. This is the `N_c` of eq. (14).
    pub fn surface_nodes(&self, id: usize) -> usize {
        let b = self.tile_box(id);
        self.communicating_faces(id)
            .iter()
            .map(|&f| b.face_nodes(f))
            .sum()
    }

    /// The geometry factor `m` (see [`MFactor`]).
    pub fn m_factor(&self) -> MFactor {
        let tiles = self.tiles();
        let mut total = 0usize;
        let mut max = 0usize;
        for id in 0..tiles {
            let n = self.communicating_faces(id).len();
            total += n;
            max = max.max(n);
        }
        let mean = total as f64 / tiles as f64;
        let paper = match (self.px, self.py) {
            (_, 1) | (1, _) => 2.0,
            (2, 2) => 2.0,
            (3, 3) => 3.0,
            (4, 4) => 4.0,
            (5, 4) | (4, 5) => 4.0,
            _ => max as f64,
        };
        MFactor {
            mean_faces: mean,
            max_faces: max,
            paper,
        }
    }
}

/// A `px × py × pz` decomposition of an `nx × ny × nz` grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomp3 {
    nx: usize,
    ny: usize,
    nz: usize,
    px: usize,
    py: usize,
    pz: usize,
    periodic: [bool; 3],
    xs: Vec<Extent>,
    ys: Vec<Extent>,
    zs: Vec<Extent>,
}

impl Decomp3 {
    /// Decomposes an `nx × ny × nz` grid into `px × py × pz` tiles,
    /// non-periodic.
    pub fn new(nx: usize, ny: usize, nz: usize, px: usize, py: usize, pz: usize) -> Self {
        Self::with_periodicity(nx, ny, nz, px, py, pz, [false; 3])
    }

    /// Decomposes with the given per-axis periodicity `[x, y, z]`.
    pub fn with_periodicity(
        nx: usize,
        ny: usize,
        nz: usize,
        px: usize,
        py: usize,
        pz: usize,
        periodic: [bool; 3],
    ) -> Self {
        let xs = split_even(nx, px);
        let ys = split_even(ny, py);
        let zs = split_even(nz, pz);
        Self {
            nx,
            ny,
            nz,
            px,
            py,
            pz,
            periodic,
            xs,
            ys,
            zs,
        }
    }

    /// Global extents.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Tile counts per axis.
    pub fn parts(&self) -> (usize, usize, usize) {
        (self.px, self.py, self.pz)
    }

    /// Per-axis periodicity `[x, y, z]`.
    pub fn periodic(&self) -> [bool; 3] {
        self.periodic
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> usize {
        self.px * self.py * self.pz
    }

    /// Linear tile id for `(tx, ty, tz)`.
    pub fn tile_id(&self, tx: usize, ty: usize, tz: usize) -> usize {
        debug_assert!(tx < self.px && ty < self.py && tz < self.pz);
        (tz * self.py + ty) * self.px + tx
    }

    /// Tile coordinate of a linear id.
    pub fn tile_coord(&self, id: usize) -> (usize, usize, usize) {
        debug_assert!(id < self.tiles());
        let tx = id % self.px;
        let ty = (id / self.px) % self.py;
        let tz = id / (self.px * self.py);
        (tx, ty, tz)
    }

    /// The box of global indices covered by tile `id`.
    pub fn tile_box(&self, id: usize) -> TileBox3 {
        let (tx, ty, tz) = self.tile_coord(id);
        TileBox3 {
            tx,
            ty,
            tz,
            x: self.xs[tx],
            y: self.ys[ty],
            z: self.zs[tz],
        }
    }

    /// Neighbour tile across face `f`, honouring periodicity.
    pub fn neighbor(&self, id: usize, f: Face3) -> Option<usize> {
        let (tx, ty, tz) = self.tile_coord(id);
        let (dx, dy, dz) = f.delta();
        let parts = [self.px, self.py, self.pz];
        let coords = [tx as isize, ty as isize, tz as isize];
        let deltas = [dx, dy, dz];
        let mut out = [0usize; 3];
        for a in 0..3 {
            let n = coords[a] + deltas[a];
            let p = parts[a] as isize;
            if n < 0 || n >= p {
                if self.periodic[a] {
                    out[a] = ((n + p) % p) as usize;
                } else {
                    return None;
                }
            } else {
                out[a] = n as usize;
            }
        }
        Some(self.tile_id(out[0], out[1], out[2]))
    }

    /// Faces of tile `id` that have a neighbour.
    pub fn communicating_faces(&self, id: usize) -> Vec<Face3> {
        Face3::ALL
            .iter()
            .copied()
            .filter(|&f| self.neighbor(id, f).is_some())
            .collect()
    }

    /// Number of communicating (surface) nodes of tile `id`.
    pub fn surface_nodes(&self, id: usize) -> usize {
        let b = self.tile_box(id);
        self.communicating_faces(id)
            .iter()
            .map(|&f| b.face_nodes(f))
            .sum()
    }

    /// The geometry factor `m` (mean/max faces; `paper` follows the same
    /// convention as [`Decomp2::m_factor`]; the paper's 3D scaled-problem
    /// experiment uses `(P×1×1)` with `m = 2`).
    pub fn m_factor(&self) -> MFactor {
        let tiles = self.tiles();
        let mut total = 0usize;
        let mut max = 0usize;
        for id in 0..tiles {
            let n = self.communicating_faces(id).len();
            total += n;
            max = max.max(n);
        }
        let mean = total as f64 / tiles as f64;
        let mut sorted = [self.px, self.py, self.pz];
        sorted.sort_unstable();
        let paper = if sorted[0] == 1 && sorted[1] == 1 {
            2.0
        } else {
            max as f64
        };
        MFactor {
            mean_faces: mean,
            max_faces: max,
            paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_ids_roundtrip_2d() {
        let d = Decomp2::new(100, 80, 5, 4);
        for id in 0..d.tiles() {
            let (tx, ty) = d.tile_coord(id);
            assert_eq!(d.tile_id(tx, ty), id);
        }
        assert_eq!(d.tiles(), 20);
    }

    #[test]
    fn boxes_tile_the_grid_2d() {
        let d = Decomp2::new(101, 79, 5, 4);
        let mut covered = vec![false; 101 * 79];
        for b in d.tile_boxes() {
            for y in b.y.start..b.y.end() {
                for x in b.x.start..b.x.end() {
                    let k = y * 101 + x;
                    assert!(!covered[k], "node covered twice");
                    covered[k] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn owner_is_consistent_with_boxes() {
        let d = Decomp2::new(30, 20, 3, 2);
        for id in 0..d.tiles() {
            let b = d.tile_box(id);
            assert_eq!(d.owner(b.x.start, b.y.start), id);
            assert_eq!(d.owner(b.x.end() - 1, b.y.end() - 1), id);
        }
    }

    #[test]
    fn neighbors_non_periodic() {
        let d = Decomp2::new(40, 40, 2, 2);
        // Tile 0 = (0,0): has East and North neighbours only.
        assert_eq!(d.neighbor(0, Face2::West), None);
        assert_eq!(d.neighbor(0, Face2::South), None);
        assert_eq!(d.neighbor(0, Face2::East), Some(1));
        assert_eq!(d.neighbor(0, Face2::North), Some(2));
    }

    #[test]
    fn neighbors_periodic_wrap() {
        let d = Decomp2::with_periodicity(40, 40, 2, 2, true, false);
        assert_eq!(d.neighbor(0, Face2::West), Some(1));
        assert_eq!(d.neighbor(1, Face2::East), Some(0));
        assert_eq!(d.neighbor(0, Face2::South), None);
    }

    #[test]
    fn periodic_single_tile_is_self_neighbor() {
        let d = Decomp2::with_periodicity(40, 40, 1, 1, true, true);
        assert_eq!(d.neighbor(0, Face2::West), Some(0));
        assert_eq!(d.neighbor(0, Face2::North), Some(0));
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let d = Decomp2::with_periodicity(60, 60, 3, 3, true, false);
        for id in 0..d.tiles() {
            for f in Face2::ALL {
                if let Some(n) = d.neighbor(id, f) {
                    assert_eq!(d.neighbor(n, f.opposite()), Some(id));
                }
            }
        }
    }

    #[test]
    fn m_factor_matches_paper_table() {
        // Paper section 8 table: P×1 → 2, 2×2 → 2, 3×3 → 3, 4×4 → 4, 5×4 → 4.
        assert_eq!(Decomp2::new(80, 10, 8, 1).m_factor().paper, 2.0);
        assert_eq!(Decomp2::new(40, 40, 2, 2).m_factor().paper, 2.0);
        assert_eq!(Decomp2::new(60, 60, 3, 3).m_factor().paper, 3.0);
        assert_eq!(Decomp2::new(80, 80, 4, 4).m_factor().paper, 4.0);
        assert_eq!(Decomp2::new(100, 80, 5, 4).m_factor().paper, 4.0);
    }

    #[test]
    fn m_factor_statistics() {
        let d = Decomp2::new(60, 60, 3, 3);
        let m = d.m_factor();
        // 4 corners with 2 faces, 4 edges with 3, 1 centre with 4.
        assert_eq!(m.max_faces, 4);
        assert!((m.mean_faces - 24.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn surface_nodes_2d() {
        let d = Decomp2::new(40, 40, 2, 2);
        // Each 20×20 tile communicates across 2 faces of 20 nodes.
        assert_eq!(d.surface_nodes(0), 40);
    }

    #[test]
    fn tile_ids_roundtrip_3d() {
        let d = Decomp3::new(30, 20, 10, 3, 2, 2);
        for id in 0..d.tiles() {
            let (tx, ty, tz) = d.tile_coord(id);
            assert_eq!(d.tile_id(tx, ty, tz), id);
        }
    }

    #[test]
    fn boxes_tile_the_grid_3d() {
        let d = Decomp3::new(13, 7, 5, 3, 2, 2);
        let mut count = 0usize;
        for id in 0..d.tiles() {
            count += d.tile_box(id).nodes();
        }
        assert_eq!(count, 13 * 7 * 5);
    }

    #[test]
    fn pipeline_3d_m_factor() {
        let d = Decomp3::new(100, 25, 25, 4, 1, 1);
        assert_eq!(d.m_factor().paper, 2.0);
        assert_eq!(d.m_factor().max_faces, 2);
    }

    #[test]
    fn face_nodes_3d() {
        let d = Decomp3::new(20, 30, 40, 2, 1, 1);
        let b = d.tile_box(0);
        assert_eq!(b.face_nodes(Face3::East), 30 * 40);
        assert_eq!(b.face_nodes(Face3::North), 10 * 40);
        assert_eq!(b.face_nodes(Face3::Up), 10 * 30);
    }
}
