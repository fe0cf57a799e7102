//! Rectangular domain decompositions (section 3 of the paper).
//!
//! A global grid of `nx × ny` (or `nx × ny × nz`) nodes is decomposed into
//! `px × py` (`× pz`) rectangular subregions ("tiles"); each tile is assigned
//! to one parallel subprocess. [`Decomp<R>`] is one such decomposition of
//! rank `R`, written once for 2D and 3D. It also carries the neighbour
//! topology (with optional periodic wrap per axis) and the
//! communication-surface accounting that feeds the section-8 efficiency
//! model: for a subregion of `N` nodes the number of communicating nodes is
//! `N_c = m·N^((d−1)/d)`, where `m` depends on the decomposition geometry.

use crate::face::Face;
use crate::range::{split_even, Extent};

/// The box of global indices covered by one tile of a rank-`R`
/// decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileBox<const R: usize> {
    /// Tile coordinate per axis, `0..parts[a]`.
    pub coord: [usize; R],
    /// Global extent covered per axis.
    pub ext: [Extent; R],
}

impl<const R: usize> TileBox<R> {
    /// Number of nodes in the tile.
    pub fn nodes(&self) -> usize {
        self.ext.iter().map(|e| e.len).product()
    }

    /// Number of nodes on the face `f` (the strip that is communicated).
    pub fn face_nodes(&self, f: Face) -> usize {
        (0..R)
            .filter(|&a| a != f.axis())
            .map(|a| self.ext[a].len)
            .product()
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
    /// measurements: `P×1 → 2`, `2×2 → 2`, `3×3 → 3`, `4×4 → 4`, `5×4 → 4`,
    /// and its 3D scaled-problem experiment uses `P×1×1` with `m = 2`.
    /// For decompositions outside that table this falls back to `max_faces`,
    /// which reproduces the paper's entries for `P×1`, `2×2`, `4×4` and `5×4`
    /// (the `3×3` entry is the paper's rounding of the mean, 2.67 → 3).
    pub paper: f64,
}

/// The paper's section-8 table of `m`: a pipeline (at most one axis cut,
/// `P×1` or `P×1×1`) has `m = 2`; the 2D decompositions it measured have
/// their listed values.
fn paper_m(parts: &[usize]) -> Option<f64> {
    const TABLE_2D: [([usize; 2], f64); 5] = [
        ([2, 2], 2.0),
        ([3, 3], 3.0),
        ([4, 4], 4.0),
        ([5, 4], 4.0),
        ([4, 5], 4.0),
    ];
    if parts.iter().filter(|&&p| p > 1).count() <= 1 {
        return Some(2.0);
    }
    TABLE_2D
        .iter()
        .find(|(p, _)| p[..] == *parts)
        .map(|&(_, m)| m)
}

/// A decomposition of a rank-`R` grid of `dims` nodes into `parts` tiles per
/// axis. Tile ids are row-major with x fastest: `(tz·py + ty)·px + tx`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomp<const R: usize> {
    dims: [usize; R],
    parts: [usize; R],
    periodic: [bool; R],
    exts: [Vec<Extent>; R],
}

impl<const R: usize> Decomp<R> {
    /// Decomposes a `dims` grid into `parts` tiles per axis, non-periodic.
    pub fn new(dims: [usize; R], parts: [usize; R]) -> Self {
        Self::with_periodicity(dims, parts, [false; R])
    }

    /// Decomposes with the given per-axis periodicity.
    ///
    /// # Panics
    /// Panics if any axis has more tiles than nodes, or zero tiles.
    pub fn with_periodicity(dims: [usize; R], parts: [usize; R], periodic: [bool; R]) -> Self {
        Self {
            dims,
            parts,
            periodic,
            exts: std::array::from_fn(|a| split_even(dims[a], parts[a])),
        }
    }

    /// Global grid extent per axis.
    pub fn dims(&self) -> [usize; R] {
        self.dims
    }

    /// Tiles per axis.
    pub fn parts(&self) -> [usize; R] {
        self.parts
    }

    /// Whether each axis wraps.
    pub fn periodic(&self) -> [bool; R] {
        self.periodic
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> usize {
        self.parts.iter().product()
    }

    /// Linear tile id of tile coordinate `c`.
    pub fn tile_id(&self, c: [usize; R]) -> usize {
        debug_assert!(c.iter().zip(&self.parts).all(|(c, p)| c < p));
        (0..R).rev().fold(0, |id, a| id * self.parts[a] + c[a])
    }

    /// Tile coordinate of a linear tile id.
    pub fn tile_coord(&self, id: usize) -> [usize; R] {
        debug_assert!(id < self.tiles());
        let mut rest = id;
        std::array::from_fn(|a| {
            let c = rest % self.parts[a];
            rest /= self.parts[a];
            c
        })
    }

    /// The box of global indices covered by tile `id`.
    pub fn tile_box(&self, id: usize) -> TileBox<R> {
        let coord = self.tile_coord(id);
        TileBox {
            coord,
            ext: std::array::from_fn(|a| self.exts[a][coord[a]]),
        }
    }

    /// The tile id owning global node `x`.
    pub fn owner(&self, x: [usize; R]) -> usize {
        self.tile_id(std::array::from_fn(|a| {
            self.exts[a]
                .iter()
                .position(|e| e.contains(x[a]))
                .expect("node inside grid")
        }))
    }

    /// Neighbour tile across face `f`, honouring periodicity.
    ///
    /// Returns `None` at a non-periodic domain edge. When an axis has a single
    /// tile and is periodic, the tile is its own neighbour (self-exchange).
    pub fn neighbor(&self, id: usize, f: Face) -> Option<usize> {
        let mut c = self.tile_coord(id);
        let a = f.axis();
        let p = self.parts[a] as isize;
        let n = c[a] as isize + f.sign();
        c[a] = if (0..p).contains(&n) {
            n as usize
        } else if self.periodic[a] {
            n.rem_euclid(p) as usize
        } else {
            return None;
        };
        Some(self.tile_id(c))
    }

    /// Faces of tile `id` that have a neighbour (i.e. that communicate).
    pub fn communicating_faces(&self, id: usize) -> Vec<Face> {
        Face::of_rank(R)
            .iter()
            .copied()
            .filter(|&f| self.neighbor(id, f).is_some())
            .collect()
    }

    /// Number of communicating (surface) nodes of tile `id`: the sum of face
    /// sizes over faces with a neighbour. This is the `N_c` of eq. (14).
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
        MFactor {
            mean_faces: total as f64 / tiles as f64,
            max_faces: max,
            paper: paper_m(&self.parts).unwrap_or(max as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::{Face2, Face3};

    /// One decomposition's section-8 numbers, as the pins below record them:
    /// `m_factor` (mean and paper as bits), `surface_nodes` per tile, and
    /// every tile's neighbour per face in stage order (`-` for none).
    fn pin_of(
        dims: &[usize],
        parts: &[usize],
        periodic: bool,
    ) -> (u64, usize, u64, Vec<usize>, String) {
        fn render(n: Option<usize>) -> String {
            n.map_or("-".into(), |n| n.to_string())
        }
        fn numbers<const R: usize>(d: &Decomp<R>) -> (MFactor, Vec<usize>, Vec<String>) {
            let tiles = 0..d.tiles();
            (
                d.m_factor(),
                tiles.clone().map(|id| d.surface_nodes(id)).collect(),
                tiles
                    .map(|id| {
                        let faces = Face::of_rank(R).iter();
                        let nbs: Vec<_> = faces.map(|&f| render(d.neighbor(id, f))).collect();
                        nbs.join(",")
                    })
                    .collect(),
            )
        }
        let (m, surface, neighbors) = match dims.len() {
            2 => numbers(&Decomp::with_periodicity(
                [dims[0], dims[1]],
                [parts[0], parts[1]],
                [periodic; 2],
            )),
            _ => numbers(&Decomp::with_periodicity(
                [dims[0], dims[1], dims[2]],
                [parts[0], parts[1], parts[2]],
                [periodic; 3],
            )),
        };
        (
            m.mean_faces.to_bits(),
            m.max_faces,
            m.paper.to_bits(),
            surface,
            neighbors.join(" "),
        )
    }

    /// One decomposition's section-8 numbers, pinned exactly: `m_factor` as
    /// `(mean bits, max, paper bits)`, `surface_nodes` per tile, and every
    /// tile's neighbour per face in stage order (`-` for none; tiles apart by
    /// spaces).
    struct Pin {
        dims: &'static [usize],
        parts: &'static [usize],
        periodic: bool,
        m: (u64, usize, u64),
        surface: &'static [usize],
        neighbors: &'static str,
    }

    /// The paper's decompositions (`P×1`, `2×2`, `3×3`, `4×4`, `5×4`; in 3D
    /// `P×1×1` and `2×2×2`) on uneven grids, closed and periodic on every
    /// axis.
    const PINS: &[Pin] = &[
        Pin {
            dims: &[53, 7],
            parts: &[4, 1],
            periodic: false,
            m: (0x3ff8000000000000, 2, 0x4000000000000000),
            surface: &[7, 14, 14, 7],
            neighbors: "-,1,-,- 0,2,-,- 1,3,-,- 2,-,-,-",
        },
        Pin {
            dims: &[53, 7],
            parts: &[4, 1],
            periodic: true,
            m: (0x4010000000000000, 4, 0x4000000000000000),
            surface: &[42, 40, 40, 40],
            neighbors: "3,1,0,0 0,2,1,1 1,3,2,2 2,0,3,3",
        },
        Pin {
            dims: &[41, 23],
            parts: &[2, 2],
            periodic: false,
            m: (0x4000000000000000, 2, 0x4000000000000000),
            surface: &[33, 32, 32, 31],
            neighbors: "-,1,-,2 0,-,-,3 -,3,0,- 2,-,1,-",
        },
        Pin {
            dims: &[41, 23],
            parts: &[2, 2],
            periodic: true,
            m: (0x4010000000000000, 4, 0x4000000000000000),
            surface: &[66, 64, 64, 62],
            neighbors: "1,1,2,2 0,0,3,3 3,3,0,0 2,2,1,1",
        },
        Pin {
            dims: &[50, 31],
            parts: &[3, 3],
            periodic: false,
            m: (0x4005555555555555, 4, 0x4008000000000000),
            surface: &[28, 39, 27, 44, 54, 42, 27, 37, 26],
            neighbors: "-,1,-,3 0,2,-,4 1,-,-,5 -,4,0,6 3,5,1,7 4,-,2,8 -,7,3,- 6,8,4,- 7,-,5,-",
        },
        Pin {
            dims: &[50, 31],
            parts: &[3, 3],
            periodic: true,
            m: (0x4010000000000000, 4, 0x4008000000000000),
            surface: &[56, 56, 54, 54, 54, 52, 54, 54, 52],
            neighbors: "2,1,6,3 0,2,7,4 1,0,8,5 5,4,0,6 3,5,1,7 4,3,2,8 8,7,3,0 6,8,4,1 7,6,5,2",
        },
        Pin {
            dims: &[67, 45],
            parts: &[4, 4],
            periodic: false,
            m: (0x4008000000000000, 4, 0x4010000000000000),
            surface: &[29, 41, 41, 28, 45, 56, 56, 43, 45, 56, 56, 43, 28, 39, 39, 27],
            neighbors: "-,1,-,4 0,2,-,5 1,3,-,6 2,-,-,7 -,5,0,8 4,6,1,9 5,7,2,10 6,-,3,11 -,9,4,12 8,10,5,13 9,11,6,14 10,-,7,15 -,13,8,- 12,14,9,- 13,15,10,- 14,-,11,-",
        },
        Pin {
            dims: &[67, 45],
            parts: &[4, 4],
            periodic: true,
            m: (0x4010000000000000, 4, 0x4010000000000000),
            surface: &[58, 58, 58, 56, 56, 56, 56, 54, 56, 56, 56, 54, 56, 56, 56, 54],
            neighbors: "3,1,12,4 0,2,13,5 1,3,14,6 2,0,15,7 7,5,0,8 4,6,1,9 5,7,2,10 6,4,3,11 11,9,4,12 8,10,5,13 9,11,6,14 10,8,7,15 15,13,8,0 12,14,9,1 13,15,10,2 14,12,11,3",
        },
        Pin {
            dims: &[101, 79],
            parts: &[5, 4],
            periodic: false,
            m: (0x4008cccccccccccd, 4, 0x4010000000000000),
            surface: &[41, 60, 60, 60, 40, 62, 80, 80, 80, 60, 62, 80, 80, 80, 60, 40, 58, 58, 58, 39],
            neighbors: "-,1,-,5 0,2,-,6 1,3,-,7 2,4,-,8 3,-,-,9 -,6,0,10 5,7,1,11 6,8,2,12 7,9,3,13 8,-,4,14 -,11,5,15 10,12,6,16 11,13,7,17 12,14,8,18 13,-,9,19 -,16,10,- 15,17,11,- 16,18,12,- 17,19,13,- 18,-,14,-",
        },
        Pin {
            dims: &[101, 79],
            parts: &[5, 4],
            periodic: true,
            m: (0x4010000000000000, 4, 0x4010000000000000),
            surface: &[82, 80, 80, 80, 80, 82, 80, 80, 80, 80, 82, 80, 80, 80, 80, 80, 78, 78, 78, 78],
            neighbors: "4,1,15,5 0,2,16,6 1,3,17,7 2,4,18,8 3,0,19,9 9,6,0,10 5,7,1,11 6,8,2,12 7,9,3,13 8,5,4,14 14,11,5,15 10,12,6,16 11,13,7,17 12,14,8,18 13,10,9,19 19,16,10,0 15,17,11,1 16,18,12,2 17,19,13,3 18,15,14,4",
        },
        Pin {
            dims: &[37, 9, 11],
            parts: &[3, 1, 1],
            periodic: false,
            m: (0x3ff5555555555555, 2, 0x4000000000000000),
            surface: &[99, 198, 99],
            neighbors: "-,1,-,-,-,- 0,2,-,-,-,- 1,-,-,-,-,-",
        },
        Pin {
            dims: &[37, 9, 11],
            parts: &[3, 1, 1],
            periodic: true,
            m: (0x4018000000000000, 6, 0x4000000000000000),
            surface: &[718, 678, 678],
            neighbors: "2,1,0,0,0,0 0,2,1,1,1,1 1,0,2,2,2,2",
        },
        Pin {
            dims: &[19, 13, 11],
            parts: &[2, 2, 2],
            periodic: false,
            m: (0x4008000000000000, 3, 0x4008000000000000),
            surface: &[172, 159, 156, 144, 155, 143, 140, 129],
            neighbors: "-,1,-,2,-,4 0,-,-,3,-,5 -,3,0,-,-,6 2,-,1,-,-,7 -,5,-,6,0,- 4,-,-,7,1,- -,7,4,-,2,- 6,-,5,-,3,-",
        },
        Pin {
            dims: &[19, 13, 11],
            parts: &[2, 2, 2],
            periodic: true,
            m: (0x4018000000000000, 6, 0x4018000000000000),
            surface: &[344, 318, 312, 288, 310, 286, 280, 258],
            neighbors: "1,1,2,2,4,4 0,0,3,3,5,5 3,3,0,0,6,6 2,2,1,1,7,7 5,5,6,6,0,0 4,4,7,7,1,1 7,7,4,4,2,2 6,6,5,5,3,3",
        },
    ];

    #[test]
    fn section8_numbers_match_the_pins() {
        for pin in PINS {
            let (mean, max, paper, surface, neighbors) = pin_of(pin.dims, pin.parts, pin.periodic);
            let at = format!("{:?} / {:?} periodic {}", pin.dims, pin.parts, pin.periodic);
            assert_eq!((mean, max, paper), pin.m, "m_factor {at}");
            assert_eq!(surface, pin.surface, "surface_nodes {at}");
            assert_eq!(neighbors, pin.neighbors, "neighbor {at}");
        }
    }

    #[test]
    fn tile_ids_roundtrip_2d() {
        let d = Decomp::new([100, 80], [5, 4]);
        for id in 0..d.tiles() {
            assert_eq!(d.tile_id(d.tile_coord(id)), id);
        }
        assert_eq!(d.tiles(), 20);
    }

    #[test]
    fn boxes_tile_the_grid_2d() {
        let d = Decomp::new([101, 79], [5, 4]);
        let mut covered = vec![false; 101 * 79];
        for b in (0..d.tiles()).map(|id| d.tile_box(id)) {
            for y in b.ext[1].start..b.ext[1].end() {
                for x in b.ext[0].start..b.ext[0].end() {
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
        let d = Decomp::new([30, 20], [3, 2]);
        for id in 0..d.tiles() {
            let b = d.tile_box(id);
            assert_eq!(d.owner(b.ext.map(|e| e.start)), id);
            assert_eq!(d.owner(b.ext.map(|e| e.end() - 1)), id);
        }
    }

    #[test]
    fn neighbors_non_periodic() {
        let d = Decomp::new([40, 40], [2, 2]);
        // Tile 0 = (0,0): has East and North neighbours only.
        assert_eq!(d.neighbor(0, Face2::West), None);
        assert_eq!(d.neighbor(0, Face2::South), None);
        assert_eq!(d.neighbor(0, Face2::East), Some(1));
        assert_eq!(d.neighbor(0, Face2::North), Some(2));
    }

    #[test]
    fn neighbors_periodic_wrap() {
        let d = Decomp::with_periodicity([40, 40], [2, 2], [true, false]);
        assert_eq!(d.neighbor(0, Face2::West), Some(1));
        assert_eq!(d.neighbor(1, Face2::East), Some(0));
        assert_eq!(d.neighbor(0, Face2::South), None);
    }

    #[test]
    fn periodic_single_tile_is_self_neighbor() {
        let d = Decomp::with_periodicity([40, 40], [1, 1], [true, true]);
        assert_eq!(d.neighbor(0, Face2::West), Some(0));
        assert_eq!(d.neighbor(0, Face2::North), Some(0));
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let d = Decomp::with_periodicity([60, 60], [3, 3], [true, false]);
        for id in 0..d.tiles() {
            for &f in Face::of_rank(2) {
                if let Some(n) = d.neighbor(id, f) {
                    assert_eq!(d.neighbor(n, f.opposite()), Some(id));
                }
            }
        }
    }

    #[test]
    fn m_factor_matches_paper_table() {
        // Paper section 8 table: P×1 → 2, 2×2 → 2, 3×3 → 3, 4×4 → 4, 5×4 → 4.
        assert_eq!(Decomp::new([80, 10], [8, 1]).m_factor().paper, 2.0);
        assert_eq!(Decomp::new([40, 40], [2, 2]).m_factor().paper, 2.0);
        assert_eq!(Decomp::new([60, 60], [3, 3]).m_factor().paper, 3.0);
        assert_eq!(Decomp::new([80, 80], [4, 4]).m_factor().paper, 4.0);
        assert_eq!(Decomp::new([100, 80], [5, 4]).m_factor().paper, 4.0);
    }

    #[test]
    fn m_factor_statistics() {
        let d = Decomp::new([60, 60], [3, 3]);
        let m = d.m_factor();
        // 4 corners with 2 faces, 4 edges with 3, 1 centre with 4.
        assert_eq!(m.max_faces, 4);
        assert!((m.mean_faces - 24.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn surface_nodes_2d() {
        let d = Decomp::new([40, 40], [2, 2]);
        // Each 20×20 tile communicates across 2 faces of 20 nodes.
        assert_eq!(d.surface_nodes(0), 40);
    }

    #[test]
    fn tile_ids_roundtrip_3d() {
        let d = Decomp::new([30, 20, 10], [3, 2, 2]);
        for id in 0..d.tiles() {
            assert_eq!(d.tile_id(d.tile_coord(id)), id);
        }
    }

    #[test]
    fn boxes_tile_the_grid_3d() {
        let d = Decomp::new([13, 7, 5], [3, 2, 2]);
        let mut count = 0usize;
        for id in 0..d.tiles() {
            count += d.tile_box(id).nodes();
        }
        assert_eq!(count, 13 * 7 * 5);
    }

    #[test]
    fn pipeline_3d_m_factor() {
        let d = Decomp::new([100, 25, 25], [4, 1, 1]);
        assert_eq!(d.m_factor().paper, 2.0);
        assert_eq!(d.m_factor().max_faces, 2);
    }

    #[test]
    fn face_nodes_3d() {
        let d = Decomp::new([20, 30, 40], [2, 1, 1]);
        let b = d.tile_box(0);
        assert_eq!(b.face_nodes(Face3::East), 30 * 40);
        assert_eq!(b.face_nodes(Face3::North), 10 * 40);
        assert_eq!(b.face_nodes(Face3::Up), 10 * 30);
    }
}
