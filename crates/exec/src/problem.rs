//! Problem descriptors: geometry + decomposition + parameters + initial state.
//!
//! A `Problem` plays the role of the paper's *initialization* and
//! *decomposition* programs (section 4.1): it produces the initial state "as
//! if there was only one workstation" and slices it into per-subregion tiles,
//! each carrying everything a parallel subprocess needs.

use std::sync::Arc;
use subsonic_grid::{Decomp, Geometry2, Geometry3};
use subsonic_solvers::{
    FluidParams, InitialState2, InitialState3, Solver2, Solver3, TileState2, TileState3,
};

/// Global initial condition for 2D problems: node `(x, y)` → `(ρ, vx, vy)`.
pub type GlobalInit2 = Arc<dyn Fn(usize, usize) -> (f64, f64, f64) + Send + Sync>;

/// Global initial condition for 3D problems.
pub type GlobalInit3 = Arc<dyn Fn(usize, usize, usize) -> (f64, f64, f64, f64) + Send + Sync>;

/// A decomposed 2D flow problem.
#[derive(Clone)]
pub struct Problem2 {
    /// Global geometry (also defines periodicity).
    pub geom: Arc<Geometry2>,
    /// The rectangular decomposition. Periodicity must match the geometry.
    pub decomp: Decomp<2>,
    /// Fluid and numerical parameters.
    pub params: FluidParams,
    /// Global initial condition.
    pub init: GlobalInit2,
}

impl Problem2 {
    /// Creates a problem over `geom` decomposed `px × py`, at rest with the
    /// reference density unless a custom init is supplied later.
    pub fn new(geom: Geometry2, px: usize, py: usize, params: FluidParams) -> Self {
        let decomp = Decomp::with_periodicity(
            [geom.nx(), geom.ny()],
            [px, py],
            [geom.periodic_x(), geom.periodic_y()],
        );
        let rho0 = params.rho0;
        Self {
            geom: Arc::new(geom),
            decomp,
            params,
            init: Arc::new(move |_, _| (rho0, 0.0, 0.0)),
        }
    }

    /// Replaces the initial condition.
    pub fn with_init(
        mut self,
        f: impl Fn(usize, usize) -> (f64, f64, f64) + Send + Sync + 'static,
    ) -> Self {
        self.init = Arc::new(f);
        self
    }

    /// Tiles that contain at least one non-wall node (Figure-2 optimisation:
    /// all-solid subregions are not assigned to any worker).
    pub fn active_tiles(&self) -> Vec<usize> {
        self.geom.active_tiles(&self.decomp)
    }

    /// Builds the tile for subregion `id` with the solver's halo width,
    /// evaluating the global init through periodic wrap where applicable.
    ///
    /// # Panics
    /// Panics if the tile is thinner than the solver's halo in any direction
    /// (the exchange packs interior strips of halo width, so a subregion must
    /// be at least that wide — decompose more coarsely otherwise).
    pub fn make_tile(&self, solver: &dyn Solver2, id: usize) -> TileState2 {
        let [x, y] = self.decomp.tile_box(id).ext;
        assert!(
            x.len >= solver.halo() && y.len >= solver.halo(),
            "tile {id} ({}x{}) thinner than the solver halo ({}); use fewer subregions",
            x.len,
            y.len,
            solver.halo()
        );
        let mask = self.geom.tile_mask(&self.decomp, id, solver.halo());
        let geom = Arc::clone(&self.geom);
        let init_fn = Arc::clone(&self.init);
        let (nx, ny) = (geom.nx() as isize, geom.ny() as isize);
        let (px, py) = (geom.periodic_x(), geom.periodic_y());
        let (ox, oy) = (x.start as isize, y.start as isize);
        let local = InitialState2::from_fn(move |i, j| {
            let gx = if px {
                (ox + i).rem_euclid(nx)
            } else {
                (ox + i).clamp(0, nx - 1)
            };
            let gy = if py {
                (oy + j).rem_euclid(ny)
            } else {
                (oy + j).clamp(0, ny - 1)
            };
            init_fn(gx as usize, gy as usize)
        });
        solver.make_tile(mask, self.params, (x.start, y.start), &local)
    }

    /// Total fluid nodes in the problem.
    pub fn fluid_nodes(&self) -> usize {
        self.geom.fluid_nodes()
    }
}

/// A decomposed 3D flow problem.
#[derive(Clone)]
pub struct Problem3 {
    /// Global geometry (also defines periodicity).
    pub geom: Arc<Geometry3>,
    /// The rectangular decomposition.
    pub decomp: Decomp<3>,
    /// Fluid and numerical parameters.
    pub params: FluidParams,
    /// Global initial condition.
    pub init: GlobalInit3,
}

impl Problem3 {
    /// Creates a problem over `geom` decomposed `px × py × pz`, at rest.
    pub fn new(geom: Geometry3, px: usize, py: usize, pz: usize, params: FluidParams) -> Self {
        let (nx, ny, nz) = geom.dims();
        let decomp = Decomp::with_periodicity([nx, ny, nz], [px, py, pz], geom.periodic());
        let rho0 = params.rho0;
        Self {
            geom: Arc::new(geom),
            decomp,
            params,
            init: Arc::new(move |_, _, _| (rho0, 0.0, 0.0, 0.0)),
        }
    }

    /// Replaces the initial condition.
    pub fn with_init(
        mut self,
        f: impl Fn(usize, usize, usize) -> (f64, f64, f64, f64) + Send + Sync + 'static,
    ) -> Self {
        self.init = Arc::new(f);
        self
    }

    /// Tiles containing at least one non-wall node.
    pub fn active_tiles(&self) -> Vec<usize> {
        self.geom.active_tiles(&self.decomp)
    }

    /// Builds the tile for subregion `id`.
    ///
    /// # Panics
    /// Panics if the tile is thinner than the solver's halo in any direction.
    pub fn make_tile(&self, solver: &dyn Solver3, id: usize) -> TileState3 {
        let [x, y, z] = self.decomp.tile_box(id).ext;
        assert!(
            x.len >= solver.halo() && y.len >= solver.halo() && z.len >= solver.halo(),
            "tile {id} ({}x{}x{}) thinner than the solver halo ({}); use fewer subregions",
            x.len,
            y.len,
            z.len,
            solver.halo()
        );
        let mask = self.geom.tile_mask(&self.decomp, id, solver.halo());
        let geom = Arc::clone(&self.geom);
        let init_fn = Arc::clone(&self.init);
        let (nx, ny, nz) = geom.dims();
        let (nx, ny, nz) = (nx as isize, ny as isize, nz as isize);
        let per = geom.periodic();
        let (ox, oy, oz) = (x.start as isize, y.start as isize, z.start as isize);
        let local = InitialState3::from_fn(move |i, j, k| {
            let wrap = |v: isize, n: isize, p: bool| {
                if p {
                    v.rem_euclid(n)
                } else {
                    v.clamp(0, n - 1)
                }
            };
            let gx = wrap(ox + i, nx, per[0]);
            let gy = wrap(oy + j, ny, per[1]);
            let gz = wrap(oz + k, nz, per[2]);
            init_fn(gx as usize, gy as usize, gz as usize)
        });
        solver.make_tile(mask, self.params, (x.start, y.start, z.start), &local)
    }

    /// Total fluid nodes in the problem.
    pub fn fluid_nodes(&self) -> usize {
        self.geom.fluid_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsonic_solvers::{FiniteDifference2, LatticeBoltzmann3};

    #[test]
    fn tiles_inherit_global_init() {
        let geom = Geometry2::channel(24, 12, 2);
        let p = Problem2::new(geom, 3, 1, FluidParams::lattice_units(0.05))
            .with_init(|x, y| (1.0 + 0.001 * x as f64, 0.0, 0.001 * y as f64));
        let solver = FiniteDifference2;
        let t1 = p.make_tile(&solver, 1);
        // tile 1 covers x in [8, 16); its local (0, 5) is global (8, 5)
        assert_eq!(t1.offset, (8, 0));
        assert!((t1.mac.rho[(0, 5)] - 1.008).abs() < 1e-12);
        assert!((t1.mac.vy[(0, 5)] - 0.005).abs() < 1e-12);
        // its west ghost (-1, 5) is global (7, 5)
        assert!((t1.mac.rho[(-1, 5)] - 1.007).abs() < 1e-12);
    }

    #[test]
    fn periodic_wrap_in_init() {
        let geom = Geometry2::channel(16, 10, 2);
        let p = Problem2::new(geom, 2, 1, FluidParams::lattice_units(0.05))
            .with_init(|x, _| (1.0 + x as f64, 0.0, 0.0));
        let solver = FiniteDifference2;
        let t0 = p.make_tile(&solver, 0);
        // west ghost of tile 0 wraps to x = 15
        assert!((t0.mac.rho[(-1, 5)] - 16.0).abs() < 1e-12);
    }

    #[test]
    fn active_tiles_all_fluid() {
        let geom = Geometry2::channel(24, 12, 2);
        let p = Problem2::new(geom, 3, 2, FluidParams::lattice_units(0.05));
        assert_eq!(p.active_tiles().len(), 6);
    }

    #[test]
    #[should_panic(expected = "thinner than the solver halo")]
    fn over_decomposition_is_rejected() {
        // 16 columns over 8 tiles: 2-wide tiles cannot carry a 4-wide halo
        let geom = Geometry2::channel(16, 12, 2);
        let p = Problem2::new(geom, 8, 1, FluidParams::lattice_units(0.05));
        let _ = p.make_tile(&FiniteDifference2, 0);
    }

    #[test]
    fn problem3_tile_offsets() {
        let geom = Geometry3::duct(12, 9, 9, 2);
        let p = Problem3::new(geom, 2, 1, 1, FluidParams::lattice_units(0.05));
        let solver = LatticeBoltzmann3;
        let t1 = p.make_tile(&solver, 1);
        assert_eq!(t1.offset, (6, 0, 0));
        assert_eq!(t1.nx(), 6);
    }
}
