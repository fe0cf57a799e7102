//! Cell-level geometry: fluid, walls, inlets and outlets.
//!
//! The paper's simulations are driven by geometry masks: "The gray areas are
//! walls, and the dark-gray areas are walls that enclose the simulated region
//! and demarcate the inlet and the outlet" (section 2). We represent geometry
//! as a dense mask of [`Cell`] values plus per-axis periodicity, and provide
//! builders for the enclosed box, the Poiseuille channel/duct, and schematic
//! versions of the flue-pipe configurations of Figures 1 and 2 — including the
//! Figure-2 property that entire subregions are solid wall and need not be
//! assigned to any workstation.

use crate::array::{Array2, Array3};
use crate::decomp::{Decomp2, Decomp3};
use crate::padded::{PaddedGrid2, PaddedGrid3};

/// The role a grid node plays in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Cell {
    /// Ordinary fluid node, updated by the solver.
    #[default]
    Fluid,
    /// Solid wall node (no-slip; lattice Boltzmann bounce-back).
    Wall,
    /// Inflow node with a prescribed velocity (the jet of air).
    Inlet,
    /// Outflow node held at the reference density (pressure release).
    Outlet,
}

impl Cell {
    /// Whether the solver updates this node with the interior scheme.
    #[inline(always)]
    pub fn is_fluid(self) -> bool {
        matches!(self, Cell::Fluid)
    }

    /// Whether the node is solid wall.
    #[inline(always)]
    pub fn is_wall(self) -> bool {
        matches!(self, Cell::Wall)
    }
}

/// A 2D geometry: cell mask plus per-axis periodicity.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry2 {
    mask: Array2<Cell>,
    periodic_x: bool,
    periodic_y: bool,
}

impl Geometry2 {
    /// An all-fluid `nx × ny` geometry with the given periodicity.
    pub fn open(nx: usize, ny: usize, periodic_x: bool, periodic_y: bool) -> Self {
        Self {
            mask: Array2::new(nx, ny, Cell::Fluid),
            periodic_x,
            periodic_y,
        }
    }

    /// An `nx × ny` region fully enclosed by walls of the given thickness
    /// (the paper's dark-gray enclosing walls). Non-periodic.
    pub fn enclosed_box(nx: usize, ny: usize, wall: usize) -> Self {
        let mut g = Self::open(nx, ny, false, false);
        g.fill_border(wall);
        g
    }

    /// A Poiseuille channel: walls along the bottom and top rows, periodic in
    /// x. `wall` rows at each of y = 0 and y = ny−1 are solid.
    pub fn channel(nx: usize, ny: usize, wall: usize) -> Self {
        let mut g = Self::open(nx, ny, true, false);
        for y in 0..wall {
            for x in 0..nx {
                g.mask[(x, y)] = Cell::Wall;
                g.mask[(x, ny - 1 - y)] = Cell::Wall;
            }
        }
        g
    }

    /// Grid width.
    pub fn nx(&self) -> usize {
        self.mask.nx()
    }

    /// Grid height.
    pub fn ny(&self) -> usize {
        self.mask.ny()
    }

    /// Whether the x axis wraps.
    pub fn periodic_x(&self) -> bool {
        self.periodic_x
    }

    /// Whether the y axis wraps.
    pub fn periodic_y(&self) -> bool {
        self.periodic_y
    }

    /// Cell at `(x, y)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> Cell {
        self.mask[(x, y)]
    }

    /// Sets the cell at `(x, y)`.
    pub fn set(&mut self, x: usize, y: usize, c: Cell) {
        self.mask[(x, y)] = c;
    }

    /// Cell at a possibly out-of-domain coordinate: periodic axes wrap,
    /// everything beyond a non-periodic edge is solid wall.
    pub fn at_wrapped(&self, x: isize, y: isize) -> Cell {
        let nx = self.nx() as isize;
        let ny = self.ny() as isize;
        let xi = if self.periodic_x {
            x.rem_euclid(nx)
        } else if x < 0 || x >= nx {
            return Cell::Wall;
        } else {
            x
        };
        let yi = if self.periodic_y {
            y.rem_euclid(ny)
        } else if y < 0 || y >= ny {
            return Cell::Wall;
        } else {
            y
        };
        self.mask[(xi as usize, yi as usize)]
    }

    /// Fills a rectangle `[x0, x1) × [y0, y1)` (clipped to the domain).
    pub fn fill_rect(&mut self, x0: usize, x1: usize, y0: usize, y1: usize, c: Cell) {
        for y in y0..y1.min(self.ny()) {
            for x in x0..x1.min(self.nx()) {
                self.mask[(x, y)] = c;
            }
        }
    }

    /// Surrounds the domain with `wall` layers of solid wall.
    pub fn fill_border(&mut self, wall: usize) {
        let (nx, ny) = (self.nx(), self.ny());
        self.fill_rect(0, nx, 0, wall, Cell::Wall);
        self.fill_rect(0, nx, ny - wall, ny, Cell::Wall);
        self.fill_rect(0, wall, 0, ny, Cell::Wall);
        self.fill_rect(nx - wall, nx, 0, ny, Cell::Wall);
    }

    /// Number of fluid (updatable) nodes.
    pub fn fluid_nodes(&self) -> usize {
        self.mask.iter().filter(|(_, _, c)| c.is_fluid()).count()
    }

    /// Extracts the padded mask of one tile of `d`: ghost nodes take their
    /// value from the global mask (wrapping on periodic axes, wall beyond
    /// non-periodic edges), so every tile sees exactly the geometry the serial
    /// run sees.
    pub fn tile_mask(&self, d: &Decomp2, id: usize, halo: usize) -> PaddedGrid2<Cell> {
        let b = d.tile_box(id);
        PaddedGrid2::from_fn(b.x.len, b.y.len, halo, |i, j| {
            self.at_wrapped(b.x.start as isize + i, b.y.start as isize + j)
        })
    }

    /// Tiles of `d` containing at least one non-wall node. The Figure-2
    /// optimisation: all-solid subregions "do not need to be assigned to any
    /// workstation".
    pub fn active_tiles(&self, d: &Decomp2) -> Vec<usize> {
        (0..d.tiles())
            .filter(|&id| {
                let b = d.tile_box(id);
                (b.y.start..b.y.end())
                    .any(|y| (b.x.start..b.x.end()).any(|x| !self.at(x, y).is_wall()))
            })
            .collect()
    }
}

/// Parameters of the schematic flue-pipe geometries of Figures 1 and 2.
///
/// The builder reproduces the structural elements the paper describes: a jet
/// of air entering "from an opening on the left wall", impinging "the sharp
/// edge in front of it", a resonant pipe "at the bottom part of the picture",
/// and an outlet opening. All lengths scale with the domain so small test
/// domains and paper-scale (800×500) domains share the same shape.
#[derive(Debug, Clone, Copy)]
pub struct FluePipeSpec {
    /// Domain width in nodes.
    pub nx: usize,
    /// Domain height in nodes.
    pub ny: usize,
    /// Thickness of the enclosing walls.
    pub wall: usize,
    /// Include the long entry channel of Figure 2 (jet passes through a
    /// channel before the edge) and move the outlet to the top.
    pub figure2: bool,
}

impl FluePipeSpec {
    /// Figure-1 style geometry at the given size.
    pub fn figure1(nx: usize, ny: usize) -> Self {
        Self {
            nx,
            ny,
            wall: 2,
            figure2: false,
        }
    }

    /// Figure-2 style geometry at the given size.
    pub fn figure2(nx: usize, ny: usize) -> Self {
        Self {
            nx,
            ny,
            wall: 2,
            figure2: true,
        }
    }

    /// Height of the jet axis (centre of the inlet opening).
    pub fn jet_axis(&self) -> usize {
        (self.ny * 3) / 5
    }

    /// Half-height of the inlet opening.
    pub fn jet_half_width(&self) -> usize {
        (self.ny / 16).max(3)
    }

    /// x position of the tip of the sharp edge (labium). Flue pipes keep the
    /// mouth (flue-exit-to-labium distance) short relative to the pipe.
    pub fn edge_x(&self) -> usize {
        (self.nx * 3) / 10
    }

    /// Builds the geometry mask.
    pub fn build(&self) -> Geometry2 {
        let (nx, ny, w) = (self.nx, self.ny, self.wall);
        assert!(
            nx >= 40 && ny >= 40,
            "flue pipe domain too small to resolve"
        );
        let mut g = Geometry2::enclosed_box(nx, ny, w);
        let jet_y = self.jet_axis();
        let jh = self.jet_half_width();
        let edge_x = self.edge_x();

        // Inlet opening on the left wall.
        for y in (jet_y - jh)..=(jet_y + jh) {
            for x in 0..w {
                g.set(x, y, Cell::Inlet);
            }
        }

        // Sharp edge (labium): a wedge of wall pointing left, its apex on the
        // jet axis at x = edge_x, opening to the right with slope 1/3.
        let edge_len = nx / 6;
        for x in edge_x..(edge_x + edge_len).min(nx) {
            let half = (x - edge_x) / 3;
            let lo = jet_y.saturating_sub(half + jh / 2 + 1);
            let hi = (jet_y + half.min(1)).min(ny - 1);
            // The wedge hangs below the jet axis: flue-pipe labia deflect the
            // jet alternately above and below the edge.
            g.fill_rect(x, x + 1, lo, hi + 1, Cell::Wall);
        }

        // Resonant pipe: a cavity below the jet, bounded by a horizontal wall
        // slab, open on its left end near the edge.
        let pipe_top = jet_y.saturating_sub(ny / 4);
        let pipe_mouth_x = edge_x + nx / 20;
        g.fill_rect(pipe_mouth_x, nx - w, pipe_top, pipe_top + w, Cell::Wall);

        if self.figure2 {
            // Long entry channel from the inlet to near the edge.
            let ch_gap = jh + 2;
            let ch_end = edge_x.saturating_sub(nx / 20);
            g.fill_rect(w, ch_end, jet_y + ch_gap, jet_y + ch_gap + w, Cell::Wall);
            g.fill_rect(w, ch_end, jet_y - ch_gap - w, jet_y - ch_gap, Cell::Wall);
            // Outlet at the top of the picture.
            let ox0 = (nx * 3) / 5;
            let ox1 = ox0 + nx / 10;
            for x in ox0..ox1 {
                for y in (ny - w)..ny {
                    g.set(x, y, Cell::Outlet);
                }
            }
            // Figure 2 devotes much of the rectangle to solid wall ("there
            // are subregions that are entirely gray"): everything left of
            // the pipe mouth below the channel floor, and everything above
            // the channel ceiling left of the outlet region, is solid.
            g.fill_rect(0, pipe_mouth_x, 0, jet_y - ch_gap - w, Cell::Wall);
            g.fill_rect(0, ox0 - nx / 20, jet_y + ch_gap + w, ny, Cell::Wall);
        } else {
            // Outlet opening on the right part of the picture.
            let oy0 = jet_y;
            let oy1 = (jet_y + ny / 8).min(ny - w);
            for y in oy0..oy1 {
                for x in (nx - w)..nx {
                    g.set(x, y, Cell::Outlet);
                }
            }
        }
        g
    }
}

/// A 3D geometry: cell mask plus per-axis periodicity.
#[derive(Debug, Clone, PartialEq)]
pub struct Geometry3 {
    mask: Array3<Cell>,
    periodic: [bool; 3],
}

impl Geometry3 {
    /// An all-fluid geometry with the given periodicity `[x, y, z]`.
    pub fn open(nx: usize, ny: usize, nz: usize, periodic: [bool; 3]) -> Self {
        Self {
            mask: Array3::new(nx, ny, nz, Cell::Fluid),
            periodic,
        }
    }

    /// A rectangular duct: walls on the y and z boundaries, periodic in x
    /// (3D Hagen–Poiseuille flow, the paper's performance test problem).
    pub fn duct(nx: usize, ny: usize, nz: usize, wall: usize) -> Self {
        let mut g = Self::open(nx, ny, nz, [true, false, false]);
        for z in 0..nz {
            for y in 0..ny {
                let on_wall = y < wall || y >= ny - wall || z < wall || z >= nz - wall;
                if on_wall {
                    for x in 0..nx {
                        g.mask[(x, y, z)] = Cell::Wall;
                    }
                }
            }
        }
        g
    }

    /// A box fully enclosed by walls.
    pub fn enclosed_box(nx: usize, ny: usize, nz: usize, wall: usize) -> Self {
        let mut g = Self::open(nx, ny, nz, [false; 3]);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let border = x < wall
                        || x >= nx - wall
                        || y < wall
                        || y >= ny - wall
                        || z < wall
                        || z >= nz - wall;
                    if border {
                        g.mask[(x, y, z)] = Cell::Wall;
                    }
                }
            }
        }
        g
    }

    /// Grid extents.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.mask.nx(), self.mask.ny(), self.mask.nz())
    }

    /// Per-axis periodicity.
    pub fn periodic(&self) -> [bool; 3] {
        self.periodic
    }

    /// Cell at `(x, y, z)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> Cell {
        self.mask[(x, y, z)]
    }

    /// Sets the cell at `(x, y, z)`.
    pub fn set(&mut self, x: usize, y: usize, z: usize, c: Cell) {
        self.mask[(x, y, z)] = c;
    }

    /// Cell at a possibly out-of-domain coordinate (wrap or wall).
    pub fn at_wrapped(&self, x: isize, y: isize, z: isize) -> Cell {
        let (nx, ny, nz) = self.dims();
        let dims = [nx as isize, ny as isize, nz as isize];
        let mut c = [x, y, z];
        for a in 0..3 {
            if self.periodic[a] {
                c[a] = c[a].rem_euclid(dims[a]);
            } else if c[a] < 0 || c[a] >= dims[a] {
                return Cell::Wall;
            }
        }
        self.mask[(c[0] as usize, c[1] as usize, c[2] as usize)]
    }

    /// Number of fluid nodes.
    pub fn fluid_nodes(&self) -> usize {
        let (nx, ny, nz) = self.dims();
        let mut n = 0;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if self.mask[(x, y, z)].is_fluid() {
                        n += 1;
                    }
                }
            }
        }
        n
    }

    /// Extracts the padded mask of one tile of `d` (see
    /// [`Geometry2::tile_mask`]).
    pub fn tile_mask(&self, d: &Decomp3, id: usize, halo: usize) -> PaddedGrid3<Cell> {
        let b = d.tile_box(id);
        PaddedGrid3::from_fn(b.x.len, b.y.len, b.z.len, halo, |i, j, k| {
            self.at_wrapped(
                b.x.start as isize + i,
                b.y.start as isize + j,
                b.z.start as isize + k,
            )
        })
    }

    /// Tiles of `d` containing at least one non-wall node.
    pub fn active_tiles(&self, d: &Decomp3) -> Vec<usize> {
        (0..d.tiles())
            .filter(|&id| {
                let b = d.tile_box(id);
                (b.z.start..b.z.end()).any(|z| {
                    (b.y.start..b.y.end())
                        .any(|y| (b.x.start..b.x.end()).any(|x| !self.at(x, y, z).is_wall()))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enclosed_box_has_wall_border() {
        let g = Geometry2::enclosed_box(20, 10, 2);
        assert!(g.at(0, 0).is_wall());
        assert!(g.at(19, 9).is_wall());
        assert!(g.at(1, 5).is_wall());
        assert!(g.at(10, 5).is_fluid());
        assert_eq!(g.fluid_nodes(), 16 * 6);
    }

    #[test]
    fn channel_walls_and_periodicity() {
        let g = Geometry2::channel(16, 9, 1);
        assert!(g.periodic_x());
        assert!(!g.periodic_y());
        assert!(g.at(3, 0).is_wall());
        assert!(g.at(3, 8).is_wall());
        assert!(g.at(3, 4).is_fluid());
        // beyond a periodic edge wraps; beyond a wall edge is wall
        assert_eq!(g.at_wrapped(-1, 4), g.at(15, 4));
        assert_eq!(g.at_wrapped(3, -1), Cell::Wall);
    }

    #[test]
    fn tile_mask_sees_global_geometry() {
        let g = Geometry2::channel(16, 12, 2);
        let d = Decomp2::with_periodicity(16, 12, 2, 2, true, false);
        let m = g.tile_mask(&d, 0, 2);
        // interior node (0,0) of tile 0 is global (0,0): wall row
        assert!(m[(0, 0)].is_wall());
        // ghost west of tile 0 wraps to x=15
        assert_eq!(m[(-1, 5)], g.at(15, 5));
        // ghost south is beyond the wall edge -> wall
        assert_eq!(m[(3, -1)], Cell::Wall);
    }

    #[test]
    fn flue_pipe_fig1_has_all_elements() {
        let g = FluePipeSpec::figure1(120, 80).build();
        let mut inlets = 0;
        let mut outlets = 0;
        for y in 0..80 {
            for x in 0..120 {
                match g.at(x, y) {
                    Cell::Inlet => inlets += 1,
                    Cell::Outlet => outlets += 1,
                    _ => {}
                }
            }
        }
        assert!(inlets > 0, "no inlet");
        assert!(outlets > 0, "no outlet");
        // the sharp edge exists: a wall cell strictly inside the domain
        let spec = FluePipeSpec::figure1(120, 80);
        assert!(g.at(spec.edge_x() + 3, spec.jet_axis() - 2).is_wall());
        // and fluid surrounds it
        assert!(g.fluid_nodes() > 120 * 80 / 2);
    }

    #[test]
    fn flue_pipe_fig2_has_inactive_subregions() {
        let g = FluePipeSpec::figure2(240, 160).build();
        let d = Decomp2::new(240, 160, 6, 4);
        let active = g.active_tiles(&d);
        assert!(
            active.len() < d.tiles(),
            "figure-2 geometry should leave some subregions all-solid"
        );
        // all-fluid geometry keeps every tile active
        let open = Geometry2::open(240, 160, false, false);
        assert_eq!(open.active_tiles(&d).len(), 24);
    }

    #[test]
    fn duct_3d_walls() {
        let g = Geometry3::duct(8, 7, 6, 1);
        assert!(g.at(0, 0, 0).is_wall());
        assert!(g.at(4, 3, 3).is_fluid());
        assert!(g.at(4, 0, 3).is_wall());
        assert!(g.at(4, 3, 5).is_wall());
        // periodic in x
        assert_eq!(g.at_wrapped(-1, 3, 3), g.at(7, 3, 3));
        assert_eq!(g.at_wrapped(4, -1, 3), Cell::Wall);
    }

    #[test]
    fn box_3d_fluid_count() {
        let g = Geometry3::enclosed_box(6, 6, 6, 1);
        assert_eq!(g.fluid_nodes(), 4 * 4 * 4);
    }
}
