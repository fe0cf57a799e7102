//! Single-threaded runners: all tiles stepped sequentially.
//!
//! With a `1×1` decomposition this is the serial program of the paper ("we
//! have developed a fluid dynamics code which can produce either a parallel
//! program or a serial program", section 4.2). With more tiles it executes
//! the identical decomposed computation without threads — the reference
//! implementation for equivalence tests, and the `T_1` measurement.

use crate::dim::{Dim, D2, D3};
use crate::gather::{GlobalFields2, GlobalFields3};
use std::sync::Arc;
use subsonic_grid::Face;
use subsonic_solvers::StepOp;

/// Sequential multi-tile runner, one type for 2D and 3D problems.
pub struct LocalRunner<D: Dim> {
    solver: Arc<D::Solver>,
    problem: D::Problem,
    active: Vec<usize>,
    tiles: Vec<Option<D::Tile>>,
    /// Exchange messages `(receiver, face, strip)` of one stage, kept across
    /// steps so the strips are refilled in place instead of reallocated.
    msgs: Vec<(usize, Face, Vec<f64>)>,
}

/// Sequential multi-tile runner for 2D problems.
pub type LocalRunner2 = LocalRunner<D2>;

/// Sequential multi-tile runner for 3D problems.
pub type LocalRunner3 = LocalRunner<D3>;

impl<D: Dim> LocalRunner<D> {
    /// Builds all active tiles of `problem`.
    pub fn new(solver: Arc<D::Solver>, problem: D::Problem) -> Self {
        let active = D::active_tiles(&problem);
        let mut tiles: Vec<Option<D::Tile>> = (0..D::tiles(&problem)).map(|_| None).collect();
        for &id in &active {
            tiles[id] = Some(D::make_tile(&problem, &solver, id));
        }
        Self {
            solver,
            problem,
            active,
            tiles,
            msgs: Vec::new(),
        }
    }

    /// Tile ids being integrated.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Immutable access to a tile.
    pub fn tile(&self, id: usize) -> Option<&D::Tile> {
        self.tiles[id].as_ref()
    }

    /// Mutable access to a tile (e.g. to inject a perturbation in tests).
    pub fn tile_mut(&mut self, id: usize) -> Option<&mut D::Tile> {
        self.tiles[id].as_mut()
    }

    /// Runs one integration step on every active tile.
    pub fn step(&mut self) {
        for op in D::plan(&self.solver) {
            match *op {
                StepOp::Compute(k) => {
                    for &id in &self.active {
                        D::compute(
                            &self.solver,
                            self.tiles[id].as_mut().expect("active tile missing"),
                            k,
                        );
                    }
                }
                StepOp::Exchange(x) => self.exchange(x),
            }
        }
    }

    fn exchange(&mut self, xch: usize) {
        // one stage per axis: `FACES` lists each stage's faces contiguously
        for stage in D::FACES.chunk_by(|&a, &b| a.stage() == b.stage()) {
            // pack (immutably), then deliver (mutably)
            let mut sent = 0;
            for &id in &self.active {
                for &f in stage {
                    if let Some(nb) = D::neighbor(&self.problem, id, f) {
                        if let Some(nb_tile) = self.tiles[nb].as_ref() {
                            if sent == self.msgs.len() {
                                self.msgs.push((id, f, Vec::new()));
                            }
                            let msg = &mut self.msgs[sent];
                            (msg.0, msg.1) = (id, f);
                            msg.2.clear();
                            D::pack(&self.solver, nb_tile, xch, f.opposite(), &mut msg.2);
                            sent += 1;
                        }
                    }
                }
            }
            for (id, f, buf) in &self.msgs[..sent] {
                D::unpack(
                    &self.solver,
                    self.tiles[*id].as_mut().expect("active tile missing"),
                    xch,
                    *f,
                    buf,
                );
            }
        }
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The active tiles, in id order.
    fn active_tile_refs(&self) -> impl Iterator<Item = &D::Tile> {
        self.active
            .iter()
            .map(|&id| self.tiles[id].as_ref().expect("active tile missing"))
    }

    /// Consumes the runner, returning the active tiles.
    pub fn into_tiles(self) -> Vec<D::Tile> {
        self.tiles.into_iter().flatten().collect()
    }
}

impl LocalRunner<D2> {
    /// Gathers the global fields.
    pub fn gather(&self) -> GlobalFields2 {
        let (geom, rho0) = (&self.problem.geom, self.problem.params.rho0);
        GlobalFields2::gather(geom.nx(), geom.ny(), rho0, self.active_tile_refs())
    }
}

impl LocalRunner<D3> {
    /// Gathers the global fields.
    pub fn gather(&self) -> GlobalFields3 {
        let (geom, rho0) = (&self.problem.geom, self.problem.params.rho0);
        GlobalFields3::gather(geom.dims(), rho0, self.active_tile_refs())
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
