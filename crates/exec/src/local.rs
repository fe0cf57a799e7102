//! Single-threaded runners: all tiles stepped in one thread.
//!
//! With a `1×1` decomposition this is the serial program of the paper ("we
//! have developed a fluid dynamics code which can produce either a parallel
//! program or a serial program", section 4.2). With more tiles it executes
//! the identical decomposed computation without threads, as one [`TileSet`]
//! whose faces are all local. It is the `T_1` measurement and the reference
//! of the equivalence tests; the oracle seals of `tests/conformance.rs` and
//! the `ScalarReference2/3` solvers pin it in turn.

use crate::dim::{Dim, D2, D3};
use crate::gather::{GlobalFields2, GlobalFields3};
use crate::step::{step_tiles, TileSet};
use crate::timing::StepTiming;
use std::sync::Arc;
use subsonic_obs::TrackRecorder;

/// Sequential multi-tile runner, one type for 2D and 3D problems.
pub struct LocalRunner<D: Dim> {
    solver: Arc<D::Solver>,
    problem: D::Problem,
    /// Every active tile, as one set.
    set: TileSet,
    /// The members' tiles, in `set`'s order.
    tiles: Vec<D::Tile>,
}

/// Sequential multi-tile runner for 2D problems.
pub type LocalRunner2 = LocalRunner<D2>;

/// Sequential multi-tile runner for 3D problems.
pub type LocalRunner3 = LocalRunner<D3>;

impl<D: Dim> LocalRunner<D> {
    /// Builds all active tiles of `problem`.
    pub fn new(solver: Arc<D::Solver>, problem: D::Problem) -> Self {
        let active = D::active_tiles(&problem);
        let tiles = active
            .iter()
            .map(|&id| D::make_tile(&problem, &solver, id))
            .collect();
        let set = TileSet::new::<D>(active, |id, f| D::neighbor(&problem, id, f), &());
        Self {
            solver,
            problem,
            set,
            tiles,
        }
    }

    /// Tile ids being integrated.
    pub fn active(&self) -> &[usize] {
        &self.set.ids
    }

    /// Immutable access to a tile.
    pub fn tile(&self, id: usize) -> Option<&D::Tile> {
        let k = self.set.ids.iter().position(|&m| m == id)?;
        self.tiles.get(k)
    }

    /// Mutable access to a tile (e.g. to inject a perturbation in tests).
    pub fn tile_mut(&mut self, id: usize) -> Option<&mut D::Tile> {
        let k = self.set.ids.iter().position(|&m| m == id)?;
        self.tiles.get_mut(k)
    }

    /// Runs one integration step on every active tile.
    pub fn step(&mut self) {
        step_tiles::<D>(
            &self.solver,
            &mut self.set,
            &mut self.tiles,
            &mut (),
            &mut StepTiming::default(),
            &mut Vec::new(),
            &mut TrackRecorder::disabled(),
        )
        .expect("a set of every tile has no remote face");
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }
}

impl LocalRunner<D2> {
    /// Gathers the global fields.
    pub fn gather(&self) -> GlobalFields2 {
        let (geom, rho0) = (&self.problem.geom, self.problem.params.rho0);
        GlobalFields2::gather(geom.nx(), geom.ny(), rho0, self.tiles.iter())
    }
}

impl LocalRunner<D3> {
    /// Gathers the global fields.
    pub fn gather(&self) -> GlobalFields3 {
        let (geom, rho0) = (&self.problem.geom, self.problem.params.rho0);
        GlobalFields3::gather(geom.dims(), rho0, self.tiles.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem2;
    use subsonic_grid::Geometry2;
    use subsonic_solvers::{FiniteDifference2, FluidParams, LatticeBoltzmann2, Solver2};

    fn poiseuille_problem(nx: usize, ny: usize, px: usize, py: usize) -> Problem2 {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        Problem2::new(Geometry2::channel(nx, ny, 2), px, py, params)
    }

    #[test]
    fn decomposed_fd_matches_serial_bitwise() {
        let solver: Arc<dyn Solver2> = Arc::new(FiniteDifference2);
        let mut serial = LocalRunner2::new(Arc::clone(&solver), poiseuille_problem(24, 16, 1, 1));
        let mut tiled = LocalRunner2::new(Arc::clone(&solver), poiseuille_problem(24, 16, 3, 2));
        serial.run(15);
        tiled.run(15);
        let a = serial.gather();
        let b = tiled.gather();
        assert_eq!(
            a.first_difference(&b),
            None,
            "FD decomposed run diverged from serial"
        );
    }

    #[test]
    fn decomposed_lbm_matches_serial_bitwise() {
        let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
        let mut serial = LocalRunner2::new(Arc::clone(&solver), poiseuille_problem(24, 16, 1, 1));
        let mut tiled = LocalRunner2::new(Arc::clone(&solver), poiseuille_problem(24, 16, 2, 2));
        serial.run(15);
        tiled.run(15);
        let a = serial.gather();
        let b = tiled.gather();
        assert_eq!(
            a.first_difference(&b),
            None,
            "LBM decomposed run diverged from serial"
        );
    }

    #[test]
    fn inactive_tiles_are_skipped() {
        use subsonic_grid::Cell;
        // channel whose right half is entirely wall: the right tiles go idle
        let mut geom = Geometry2::channel(24, 12, 2);
        geom.fill_rect(12, 24, 0, 12, Cell::Wall);
        let params = FluidParams::lattice_units(0.05);
        let problem = Problem2::new(geom, 2, 1, params);
        let runner = LocalRunner2::new(Arc::new(FiniteDifference2), problem);
        assert_eq!(runner.active(), &[0]);
    }
}
