//! Workload specifications: what each parallel subprocess does per step.
//!
//! A workload is the *skeleton* of the real solvers' step plans: compute
//! phases expressed as fractions of the per-step node work, and exchanges
//! expressed as bytes per neighbour message. Byte counts follow the paper's
//! accounting (section 6): both methods move 3 field values (double
//! precision) per boundary node in 2D; in 3D, FD moves 4 and LB moves 5.
//! Message counts also follow the paper: FD sends two messages per neighbour
//! per step, LB one.

use subsonic_grid::{Decomp2, Decomp3, Face2, Face3};
use subsonic_solvers::MethodKind;

/// One phase of the per-step plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseSpec {
    /// Local computation covering this fraction of the step's node work.
    Compute {
        /// Fraction of `nodes` worth of work (fractions sum to 1 per step).
        fraction: f64,
    },
    /// Halo exchange with every neighbour (send one message each, wait for
    /// one from each).
    Exchange {
        /// Exchange id (indexes [`WorkloadTile::neighbors`]).
        xch: usize,
    },
}

/// Per-process workload: subregion size and neighbour links.
#[derive(Debug, Clone)]
pub struct WorkloadTile {
    /// Interior nodes `N` of the subregion.
    pub nodes: usize,
    /// For each exchange id, the `(peer process index, message bytes)` links.
    pub neighbors: Vec<Vec<(usize, f64)>>,
}

/// The full decomposed workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Numerical method (sets speeds and byte counts).
    pub method: MethodKind,
    /// 3D problem?
    pub three_d: bool,
    /// The per-step plan (same shape as the real solver plans).
    pub plan: Vec<PhaseSpec>,
    /// One entry per parallel process.
    pub tiles: Vec<WorkloadTile>,
    /// Total nodes across all processes (for `T_1`).
    pub total_nodes: usize,
    /// Human-readable decomposition label, e.g. `"(5x4)"`.
    pub label: String,
}

/// Field values (f64) per boundary node for `(method, dim, exchange)`,
/// from the paper's communication accounting.
pub fn vars_per_node(method: MethodKind, three_d: bool, xch: usize) -> f64 {
    match (method, three_d, xch) {
        (MethodKind::FiniteDifference, false, 0) => 2.0, // Vx, Vy
        (MethodKind::FiniteDifference, false, 1) => 1.0, // rho
        (MethodKind::FiniteDifference, true, 0) => 3.0,  // Vx, Vy, Vz
        (MethodKind::FiniteDifference, true, 1) => 1.0,  // rho
        (MethodKind::LatticeBoltzmann, false, 0) => 3.0, // 3 crossing populations
        (MethodKind::LatticeBoltzmann, true, 0) => 5.0,  // 5 crossing populations
        _ => panic!("no such exchange for this method"),
    }
}

/// The per-step plan skeleton for a method (compute fractions are nominal
/// splits of the step work around the paper's exchange points).
pub fn plan_for(method: MethodKind) -> Vec<PhaseSpec> {
    match method {
        MethodKind::FiniteDifference => vec![
            PhaseSpec::Compute { fraction: 0.5 },  // calc Vx, Vy
            PhaseSpec::Exchange { xch: 0 },        // send/recv V
            PhaseSpec::Compute { fraction: 0.25 }, // calc rho
            PhaseSpec::Exchange { xch: 1 },        // send/recv rho
            PhaseSpec::Compute { fraction: 0.25 }, // filter
        ],
        MethodKind::LatticeBoltzmann => vec![
            PhaseSpec::Exchange { xch: 0 },       // send/recv F_i
            PhaseSpec::Compute { fraction: 1.0 }, // relax, shift, macro, filter
        ],
    }
}

impl WorkloadSpec {
    /// 2D workload over an `nx × ny` grid decomposed `(px × py)`,
    /// non-periodic (the paper's Hagen–Poiseuille test rig).
    pub fn new_2d(method: MethodKind, nx: usize, ny: usize, px: usize, py: usize) -> Self {
        let d = Decomp2::new(nx, ny, px, py);
        Self::from_decomp2(method, &d, &(0..d.tiles()).collect::<Vec<_>>())
    }

    /// 2D workload restricted to the given active tiles (Figure-2 style
    /// all-solid subregions omitted).
    pub fn from_decomp2(method: MethodKind, d: &Decomp2, active: &[usize]) -> Self {
        let n_x = plan_for(method)
            .iter()
            .filter(|p| matches!(p, PhaseSpec::Exchange { .. }))
            .count();
        let index_of = |id: usize| active.iter().position(|&a| a == id);
        let mut tiles = Vec::with_capacity(active.len());
        let mut total = 0usize;
        for &id in active {
            let b = d.tile_box(id);
            total += b.nodes();
            let mut neighbors = vec![Vec::new(); n_x];
            for (x, links) in neighbors.iter_mut().enumerate() {
                for f in Face2::ALL {
                    if let Some(nb) = d.neighbor(id, f) {
                        if let Some(peer) = index_of(nb) {
                            let bytes =
                                b.face_nodes(f) as f64 * vars_per_node(method, false, x) * 8.0;
                            links.push((peer, bytes));
                        }
                    }
                }
            }
            tiles.push(WorkloadTile {
                nodes: b.nodes(),
                neighbors,
            });
        }
        Self {
            method,
            three_d: false,
            plan: plan_for(method),
            tiles,
            total_nodes: total,
            label: format!("({}x{})", d.px(), d.py()),
        }
    }

    /// Adds diagonal-neighbour links to a 2D workload: the *full stencil* of
    /// the paper's Figure 4, where "neighbors depend on each other along the
    /// diagonal direction". Each diagonal message carries the small corner
    /// block (`w²` nodes of `vars` values with halo width `w`).
    ///
    /// Our real solvers avoid diagonal messages by staging the exchange per
    /// axis, so this variant exists to reproduce Appendix A's eq. (22) skew
    /// bound, which assumes direct diagonal dependence.
    pub fn with_diagonals_2d(mut self, d: &Decomp2, halo: usize) -> Self {
        assert!(!self.three_d, "with_diagonals_2d needs a 2D workload");
        assert_eq!(
            self.tiles.len(),
            d.tiles(),
            "diagonal links require the full (all-tiles-active) decomposition"
        );
        let n_x = self.exchanges_per_step();
        for id in 0..d.tiles() {
            let (tx, ty) = d.tile_coord(id);
            for (dx, dy) in [(-1isize, -1isize), (1, -1), (-1, 1), (1, 1)] {
                let ntx = tx as isize + dx;
                let nty = ty as isize + dy;
                if ntx < 0 || nty < 0 || ntx >= d.px() as isize || nty >= d.py() as isize {
                    continue;
                }
                let nb = d.tile_id(ntx as usize, nty as usize);
                for x in 0..n_x {
                    let bytes = (halo * halo) as f64 * vars_per_node(self.method, false, x) * 8.0;
                    self.tiles[id].neighbors[x].push((nb, bytes));
                }
            }
        }
        self.label.push_str("+diag");
        self
    }

    /// 3D workload over an `nx × ny × nz` grid decomposed `(px × py × pz)`.
    pub fn new_3d(
        method: MethodKind,
        dims: (usize, usize, usize),
        parts: (usize, usize, usize),
    ) -> Self {
        let d = Decomp3::new(dims.0, dims.1, dims.2, parts.0, parts.1, parts.2);
        let n_x = plan_for(method)
            .iter()
            .filter(|p| matches!(p, PhaseSpec::Exchange { .. }))
            .count();
        let mut tiles = Vec::with_capacity(d.tiles());
        for id in 0..d.tiles() {
            let b = d.tile_box(id);
            let mut neighbors = vec![Vec::new(); n_x];
            for (x, links) in neighbors.iter_mut().enumerate() {
                for f in Face3::ALL {
                    if let Some(nb) = d.neighbor(id, f) {
                        let bytes = b.face_nodes(f) as f64 * vars_per_node(method, true, x) * 8.0;
                        links.push((nb, bytes));
                    }
                }
            }
            tiles.push(WorkloadTile {
                nodes: b.nodes(),
                neighbors,
            });
        }
        Self {
            method,
            three_d: true,
            plan: plan_for(method),
            tiles,
            total_nodes: dims.0 * dims.1 * dims.2,
            label: format!("({}x{}x{})", parts.0, parts.1, parts.2),
        }
    }

    /// Number of parallel processes.
    pub fn processes(&self) -> usize {
        self.tiles.len()
    }

    /// Exchanges per step (2 for FD, 1 for LB).
    pub fn exchanges_per_step(&self) -> usize {
        self.plan
            .iter()
            .filter(|p| matches!(p, PhaseSpec::Exchange { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_message_counts_match_paper() {
        assert_eq!(
            WorkloadSpec::new_2d(MethodKind::FiniteDifference, 100, 100, 2, 2).exchanges_per_step(),
            2
        );
        assert_eq!(
            WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 100, 100, 2, 2).exchanges_per_step(),
            1
        );
    }

    #[test]
    fn compute_fractions_sum_to_one() {
        for m in [MethodKind::FiniteDifference, MethodKind::LatticeBoltzmann] {
            let s: f64 = plan_for(m)
                .iter()
                .map(|p| match p {
                    PhaseSpec::Compute { fraction } => *fraction,
                    _ => 0.0,
                })
                .sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bytes_per_step_match_paper_accounting_2d() {
        // 100x100 subregions in a (2x1): each tile sends 1 face of 100 nodes.
        let lb = WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 200, 100, 2, 1);
        let tile = &lb.tiles[0];
        assert_eq!(tile.neighbors.len(), 1);
        assert_eq!(tile.neighbors[0].len(), 1);
        let (_, bytes) = tile.neighbors[0][0];
        assert_eq!(bytes, 100.0 * 3.0 * 8.0);

        let fd = WorkloadSpec::new_2d(MethodKind::FiniteDifference, 200, 100, 2, 1);
        let t = &fd.tiles[0];
        assert_eq!(t.neighbors.len(), 2);
        assert_eq!(t.neighbors[0][0].1, 100.0 * 2.0 * 8.0); // V message
        assert_eq!(t.neighbors[1][0].1, 100.0 * 1.0 * 8.0); // rho message
                                                            // total per step equals LB's single message: 3 values/node in 2D
        assert_eq!(
            t.neighbors[0][0].1 + t.neighbors[1][0].1,
            tile.neighbors[0][0].1
        );
    }

    #[test]
    fn bytes_per_step_match_paper_accounting_3d() {
        let lb = WorkloadSpec::new_3d(MethodKind::LatticeBoltzmann, (50, 25, 25), (2, 1, 1));
        let (_, bytes) = lb.tiles[0].neighbors[0][0];
        assert_eq!(bytes, (25.0 * 25.0) * 5.0 * 8.0);
        let fd = WorkloadSpec::new_3d(MethodKind::FiniteDifference, (50, 25, 25), (2, 1, 1));
        let total: f64 = fd.tiles[0].neighbors.iter().map(|l| l[0].1).sum();
        assert_eq!(total, (25.0 * 25.0) * 4.0 * 8.0);
    }

    #[test]
    fn interior_tiles_have_four_neighbors() {
        let w = WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 300, 300, 3, 3);
        // centre tile of a (3x3)
        assert_eq!(w.tiles[4].neighbors[0].len(), 4);
        // corner tile
        assert_eq!(w.tiles[0].neighbors[0].len(), 2);
        assert_eq!(w.total_nodes, 300 * 300);
    }

    #[test]
    fn diagonal_links_form_the_full_stencil() {
        let d = Decomp2::new(90, 90, 3, 3);
        let w = WorkloadSpec::from_decomp2(
            MethodKind::LatticeBoltzmann,
            &d,
            &(0..9).collect::<Vec<_>>(),
        )
        .with_diagonals_2d(&d, 3);
        // centre tile: 4 faces + 4 diagonals
        assert_eq!(w.tiles[4].neighbors[0].len(), 8);
        // corner tile: 2 faces + 1 diagonal
        assert_eq!(w.tiles[0].neighbors[0].len(), 3);
        assert!(w.label.ends_with("+diag"));
        // diagonal messages are small: halo^2 * vars * 8 bytes
        let diag_bytes = w.tiles[0].neighbors[0].last().unwrap().1;
        assert_eq!(diag_bytes, 9.0 * 3.0 * 8.0);
    }

    #[test]
    fn inactive_tiles_drop_links() {
        let d = Decomp2::new(100, 100, 2, 2);
        // only tiles 0 and 1 active: the links to 2 and 3 must vanish
        let w = WorkloadSpec::from_decomp2(MethodKind::LatticeBoltzmann, &d, &[0, 1]);
        assert_eq!(w.processes(), 2);
        for t in &w.tiles {
            assert_eq!(t.neighbors[0].len(), 1, "only the horizontal link remains");
        }
        assert_eq!(w.total_nodes, 5000);
    }
}
