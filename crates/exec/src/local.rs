//! Single-threaded runners: all tiles stepped sequentially.
//!
//! With a `1×1` decomposition this is the serial program of the paper ("we
//! have developed a fluid dynamics code which can produce either a parallel
//! program or a serial program", section 4.2). With more tiles it executes
//! the identical decomposed computation without threads — the reference
//! implementation for equivalence tests, and the `T_1` measurement.

use crate::gather::{GlobalFields2, GlobalFields3};
use crate::problem::{Problem2, Problem3};
use std::sync::Arc;
use subsonic_grid::{Face2, Face3};
use subsonic_solvers::{Solver2, Solver3, StepOp, TileState2, TileState3};

/// Sequential multi-tile runner for 2D problems.
pub struct LocalRunner2 {
    solver: Arc<dyn Solver2>,
    problem: Problem2,
    active: Vec<usize>,
    tiles: Vec<Option<TileState2>>,
    /// Exchange messages `(receiver, face, strip)` of one stage, kept across
    /// steps so the strips are refilled in place instead of reallocated.
    msgs: Vec<(usize, Face2, Vec<f64>)>,
}

impl LocalRunner2 {
    /// Builds all active tiles of `problem`.
    pub fn new(solver: Arc<dyn Solver2>, problem: Problem2) -> Self {
        let active = problem.active_tiles();
        let mut tiles: Vec<Option<TileState2>> =
            (0..problem.decomp.tiles()).map(|_| None).collect();
        for &id in &active {
            tiles[id] = Some(problem.make_tile(solver.as_ref(), id));
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
    pub fn tile(&self, id: usize) -> Option<&TileState2> {
        self.tiles[id].as_ref()
    }

    /// Mutable access to a tile (e.g. to inject a perturbation in tests).
    pub fn tile_mut(&mut self, id: usize) -> Option<&mut TileState2> {
        self.tiles[id].as_mut()
    }

    /// Runs one integration step on every active tile.
    pub fn step(&mut self) {
        let plan = self.solver.plan();
        for op in plan {
            match *op {
                StepOp::Compute(k) => {
                    for &id in &self.active {
                        self.solver
                            .compute(self.tiles[id].as_mut().expect("active tile missing"), k);
                    }
                }
                StepOp::Exchange(x) => self.exchange(x),
            }
        }
    }

    fn exchange(&mut self, xch: usize) {
        let d = &self.problem.decomp;
        for stage in 0..2 {
            // pack (immutably), then deliver (mutably)
            let mut sent = 0;
            for &id in &self.active {
                for f in Face2::ALL.iter().copied().filter(|f| f.stage() == stage) {
                    if let Some(nb) = d.neighbor(id, f) {
                        if let Some(nb_tile) = self.tiles[nb].as_ref() {
                            if sent == self.msgs.len() {
                                self.msgs.push((id, f, Vec::new()));
                            }
                            let msg = &mut self.msgs[sent];
                            (msg.0, msg.1) = (id, f);
                            msg.2.clear();
                            self.solver.pack(nb_tile, xch, f.opposite(), &mut msg.2);
                            sent += 1;
                        }
                    }
                }
            }
            for (id, f, buf) in &self.msgs[..sent] {
                self.solver.unpack(
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

    /// Gathers the global fields.
    pub fn gather(&self) -> GlobalFields2 {
        GlobalFields2::gather(
            self.problem.geom.nx(),
            self.problem.geom.ny(),
            self.problem.params.rho0,
            self.active
                .iter()
                .map(|&id| self.tiles[id].as_ref().expect("active tile missing")),
        )
    }

    /// Consumes the runner, returning the active tiles.
    pub fn into_tiles(self) -> Vec<TileState2> {
        self.tiles.into_iter().flatten().collect()
    }
}

/// Sequential multi-tile runner for 3D problems.
pub struct LocalRunner3 {
    solver: Arc<dyn Solver3>,
    problem: Problem3,
    active: Vec<usize>,
    tiles: Vec<Option<TileState3>>,
}

impl LocalRunner3 {
    /// Builds all active tiles of `problem`.
    pub fn new(solver: Arc<dyn Solver3>, problem: Problem3) -> Self {
        let active = problem.active_tiles();
        let mut tiles: Vec<Option<TileState3>> =
            (0..problem.decomp.tiles()).map(|_| None).collect();
        for &id in &active {
            tiles[id] = Some(problem.make_tile(solver.as_ref(), id));
        }
        Self {
            solver,
            problem,
            active,
            tiles,
        }
    }

    /// Tile ids being integrated.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Immutable access to a tile.
    pub fn tile(&self, id: usize) -> Option<&TileState3> {
        self.tiles[id].as_ref()
    }

    /// Runs one integration step on every active tile.
    pub fn step(&mut self) {
        let plan = self.solver.plan();
        for op in plan {
            match *op {
                StepOp::Compute(k) => {
                    for &id in &self.active {
                        self.solver
                            .compute(self.tiles[id].as_mut().expect("active tile missing"), k);
                    }
                }
                StepOp::Exchange(x) => self.exchange(x),
            }
        }
    }

    fn exchange(&mut self, xch: usize) {
        let d = &self.problem.decomp;
        for stage in 0..3 {
            let mut msgs: Vec<(usize, Face3, Vec<f64>)> = Vec::new();
            for &id in &self.active {
                for f in Face3::ALL.iter().copied().filter(|f| f.stage() == stage) {
                    if let Some(nb) = d.neighbor(id, f) {
                        if let Some(nb_tile) = self.tiles[nb].as_ref() {
                            let mut buf = Vec::new();
                            self.solver.pack(nb_tile, xch, f.opposite(), &mut buf);
                            msgs.push((id, f, buf));
                        }
                    }
                }
            }
            for (id, f, buf) in msgs {
                self.solver.unpack(
                    self.tiles[id].as_mut().expect("active tile missing"),
                    xch,
                    f,
                    &buf,
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

    /// Gathers the global fields.
    pub fn gather(&self) -> GlobalFields3 {
        GlobalFields3::gather(
            self.problem.geom.dims(),
            self.problem.params.rho0,
            self.active
                .iter()
                .map(|&id| self.tiles[id].as_ref().expect("active tile missing")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsonic_grid::Geometry2;
    use subsonic_solvers::{FiniteDifference2, FluidParams, LatticeBoltzmann2};

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
