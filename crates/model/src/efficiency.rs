//! Equations (5)–(21): parallel efficiency of local-interaction problems.

/// How the network serialises traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// Shared-bus Ethernet: all processors share the wire, so the per-step
    /// communication time scales with `(P − 1)` (eq. 19).
    SharedBus,
    /// Point-to-point (switched) links: `T_com` is independent of `P`
    /// (eq. 14 with a constant `U_com`) — the paper's outlook for "Ethernet
    /// switches, FDDI and ATM networks".
    PointToPoint,
}

/// Efficiency from raw per-step times (eq. 12): `f = (1 + T_com/T_calc)^-1`.
pub fn efficiency_from_times(t_calc: f64, t_com: f64) -> f64 {
    1.0 / (1.0 + t_com / t_calc)
}

/// Speedup implied by an efficiency at `p` processors (eq. 5): `S = f P`.
pub fn speedup(efficiency: f64, p: usize) -> f64 {
    efficiency * p as f64
}

/// Eq. (20): 2D efficiency on a shared bus.
///
/// `f = (1 + N^{-1/2} (P−1) m U_calc/V_com)^{-1}` for subregions of `N`
/// nodes, `P` processors, decomposition factor `m` and the fitted speed ratio
/// `U_calc/V_com`.
pub fn efficiency_2d_bus(n: f64, p: usize, m: f64, ucalc_over_vcom: f64) -> f64 {
    let t_ratio = n.powf(-0.5) * (p as f64 - 1.0) * m * ucalc_over_vcom;
    1.0 / (1.0 + t_ratio)
}

/// Eq. (21): 3D efficiency on a shared bus, with the paper's 5/6 prefactor
/// (3D computes at half the 2D speed and moves 5/3 the data per node, while
/// the fitted ratio is the 2D one).
pub fn efficiency_3d_bus(n: f64, p: usize, m: f64, ucalc_over_vcom: f64) -> f64 {
    let t_ratio = (5.0 / 6.0) * n.powf(-1.0 / 3.0) * (p as f64 - 1.0) * m * ucalc_over_vcom;
    1.0 / (1.0 + t_ratio)
}

/// Eqs. (17)–(18): efficiency with a point-to-point network (no `(P−1)`
/// contention factor). `dim` must be 2 or 3.
pub fn efficiency_point_to_point(n: f64, m: f64, ucalc_over_ucom: f64, dim: u32) -> f64 {
    let exponent = match dim {
        2 => -0.5,
        3 => -1.0 / 3.0,
        _ => panic!("dim must be 2 or 3"),
    };
    1.0 / (1.0 + n.powf(exponent) * m * ucalc_over_ucom)
}

/// The full parametric model, including the small-message-overhead extension
/// the paper leaves as future work.
#[derive(Debug, Clone, Copy)]
pub struct EfficiencyModel {
    /// Problem dimensionality (2 or 3).
    pub dim: u32,
    /// Decomposition geometry factor `m`.
    pub m: f64,
    /// Number of processors.
    pub p: usize,
    /// Computational speed `U_calc` in nodes/second.
    pub u_calc: f64,
    /// Two-processor communication speed `V_com` in boundary nodes/second.
    pub v_com: f64,
    /// Network kind (bus contention or point-to-point).
    pub network: NetworkKind,
    /// Messages sent per neighbour per step (2 for FD, 1 for LB).
    pub messages_per_step: f64,
    /// Fixed per-message overhead in seconds (0 recovers the paper's model).
    pub message_overhead: f64,
}

impl EfficiencyModel {
    /// The paper's 2D lattice Boltzmann model with the fitted constants
    /// (`U_calc/V_com = 2/3`), no overhead term.
    pub fn paper_2d(p: usize, m: f64) -> Self {
        let c = crate::constants::PaperConstants::default();
        Self {
            dim: 2,
            m,
            p,
            u_calc: c.u_calc_lb2d,
            v_com: c.v_com(),
            network: NetworkKind::SharedBus,
            messages_per_step: 1.0,
            message_overhead: 0.0,
        }
    }

    /// The paper's 3D model (eq. 21): half the computational speed, 5/3 the
    /// data per node.
    pub fn paper_3d(p: usize, m: f64) -> Self {
        let c = crate::constants::PaperConstants::default();
        Self {
            dim: 3,
            m,
            p,
            u_calc: c.u_calc_lb2d / 2.0,
            v_com: c.v_com() / (5.0 / 3.0),
            network: NetworkKind::SharedBus,
            messages_per_step: 1.0,
            message_overhead: 0.0,
        }
    }

    /// Surface nodes `N_c = m N^{1−1/dim}` (eqs. 15–16).
    pub fn surface_nodes(&self, n: f64) -> f64 {
        self.m * n.powf(1.0 - 1.0 / self.dim as f64)
    }

    /// Per-step computation time `T_calc = N / U_calc` (eq. 13).
    pub fn t_calc(&self, n: f64) -> f64 {
        n / self.u_calc
    }

    /// Per-step communication time: eq. (14) or (19) depending on the
    /// network, plus the per-message overhead extension. The overhead term is
    /// `messages_per_step × faces × overhead`, with `faces = m` as the
    /// per-processor message count, and it too contends for the bus.
    pub fn t_com(&self, n: f64) -> f64 {
        let contention = match self.network {
            NetworkKind::SharedBus => (self.p as f64 - 1.0).max(1.0),
            NetworkKind::PointToPoint => 1.0,
        };
        let volume = self.surface_nodes(n) / self.v_com;
        let overhead = self.messages_per_step * self.m * self.message_overhead;
        (volume + overhead) * contention
    }

    /// Parallel efficiency `f` (eq. 12 with the chosen `T_com`).
    pub fn efficiency(&self, n: f64) -> f64 {
        efficiency_from_times(self.t_calc(n), self.t_com(n))
    }

    /// Section-7 heterogeneous-pool step time: the per-step dependency
    /// coupling pins every process to the *slowest* machine's compute time
    /// (each step needs the previous step's boundary from every neighbour),
    /// so a pool whose slowest member runs at `rel_min ≤ 1` times the
    /// reference speed steps in `T_p = T_calc/rel_min + T_com`. With the
    /// paper's pool this reproduces the measured t16 = 0.728 s
    /// (`rel_min = 1`, sixteen 715/50s) and t20 = 0.863 s (`rel_min = 0.86`
    /// once the 720s join).
    pub fn t_step_hetero(&self, n: f64, rel_min: f64) -> f64 {
        assert!(rel_min > 0.0 && rel_min <= 1.0, "rel_min must be in (0, 1]");
        self.t_calc(n) / rel_min + self.t_com(n)
    }

    /// Efficiency of the heterogeneous pool referenced to the reference
    /// processor (the paper normalises speedup to the 715/50, eq. 5):
    /// `f = (N/U_calc) / T_p`.
    pub fn efficiency_hetero(&self, n: f64, rel_min: f64) -> f64 {
        self.t_calc(n) / self.t_step_hetero(n, rel_min)
    }

    /// Speedup `S = f P`.
    pub fn speedup(&self, n: f64) -> f64 {
        speedup(self.efficiency(n), self.p)
    }

    /// Smallest subregion (nodes) achieving the target efficiency, by
    /// bisection over `N` (inverse problem: how coarse must the grain be).
    pub fn min_nodes_for_efficiency(&self, target: f64) -> f64 {
        assert!((0.0..1.0).contains(&target));
        let (mut lo, mut hi) = (1.0f64, 1.0e15f64);
        if self.efficiency(hi) < target {
            return f64::INFINITY;
        }
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if self.efficiency(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq20_matches_direct_formula() {
        let m = EfficiencyModel::paper_2d(20, 4.0);
        let n = 150.0 * 150.0;
        let direct = efficiency_2d_bus(n, 20, 4.0, 2.0 / 3.0);
        assert!((m.efficiency(n) - direct).abs() < 1e-12);
    }

    #[test]
    fn eq21_matches_direct_formula() {
        let m = EfficiencyModel::paper_3d(10, 2.0);
        let n = 25.0f64.powi(3);
        let direct = efficiency_3d_bus(n, 10, 2.0, 2.0 / 3.0);
        assert!(
            (m.efficiency(n) - direct).abs() < 1e-12,
            "{} vs {direct}",
            m.efficiency(n)
        );
    }

    #[test]
    fn paper_operating_point_reaches_eighty_percent() {
        // Headline claim: ~80% efficiency with 20 workstations at the
        // typical operating point (subregions >= 150^2 in a (5x4) decomp).
        let f = efficiency_2d_bus(160.0 * 160.0, 20, 4.0, 2.0 / 3.0);
        assert!(f > 0.75 && f < 0.95, "f = {f}");
    }

    #[test]
    fn efficiency_increases_with_grain_size() {
        let m = EfficiencyModel::paper_2d(16, 4.0);
        let mut prev = 0.0;
        for side in [20.0, 50.0, 100.0, 200.0, 300.0] {
            let f = m.efficiency(side * side);
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn three_d_needs_much_larger_subregions() {
        // paper: "the size of the subregion N must increase much faster in 3D
        // than in 2D to achieve similar improvements in efficiency"
        let m2 = EfficiencyModel::paper_2d(12, 2.0);
        let m3 = EfficiencyModel::paper_3d(12, 2.0);
        let n2 = m2.min_nodes_for_efficiency(0.8);
        let n3 = m3.min_nodes_for_efficiency(0.8);
        assert!(n3 > 10.0 * n2, "N2 = {n2}, N3 = {n3}");
    }

    #[test]
    fn point_to_point_beats_bus() {
        let bus = EfficiencyModel::paper_3d(20, 2.0);
        let mut sw = bus;
        sw.network = NetworkKind::PointToPoint;
        let n = 25.0f64.powi(3);
        assert!(sw.efficiency(n) > bus.efficiency(n) + 0.2);
    }

    #[test]
    fn overhead_hurts_small_subregions_most() {
        let clean = EfficiencyModel::paper_2d(9, 3.0);
        let mut noisy = clean;
        noisy.message_overhead = 2.0e-3;
        noisy.messages_per_step = 2.0;
        let small = 30.0 * 30.0;
        let large = 300.0 * 300.0;
        let drop_small = clean.efficiency(small) - noisy.efficiency(small);
        let drop_large = clean.efficiency(large) - noisy.efficiency(large);
        assert!(
            drop_small > 4.0 * drop_large,
            "{drop_small} vs {drop_large}"
        );
    }

    #[test]
    fn speedup_saturates_on_bus_in_3d() {
        // Figure 11: "the speedup does not improve when finer decompositions
        // are employed because the network is the bottleneck" — at a FIXED
        // total problem size, halving the subregion while doubling P barely
        // moves the speedup.
        let total = 32.0f64.powi(3);
        let s8 = EfficiencyModel::paper_3d(8, 4.0).speedup(total / 8.0);
        let s16 = EfficiencyModel::paper_3d(16, 4.0).speedup(total / 16.0);
        assert!(s16 < s8 * 1.2, "s8 = {s8}, s16 = {s16}");
        // ... whereas in 2D the same doubling still helps substantially
        let total2 = 480.0 * 480.0;
        let t8 = EfficiencyModel::paper_2d(8, 4.0).speedup(total2 / 8.0);
        let t16 = EfficiencyModel::paper_2d(16, 4.0).speedup(total2 / 16.0);
        assert!(t16 > t8 * 1.3, "t8 = {t8}, t16 = {t16}");
    }

    #[test]
    fn hetero_model_reproduces_section_seven_step_times() {
        // 150^2 subregions: sixteen 715/50s step in 0.728 s; adding the
        // 0.86-relative 720s stretches the step to 0.863 s (ratio 1.185).
        let n = 150.0 * 150.0;
        let m16 = EfficiencyModel::paper_2d(16, 4.0);
        let m20 = EfficiencyModel::paper_2d(20, 4.0);
        let t16 = m16.t_step_hetero(n, 1.0);
        let t20 = m20.t_step_hetero(n, 0.86);
        assert!((t16 - 0.728).abs() < 0.01, "t16 = {t16}");
        assert!((t20 - 0.863).abs() < 0.01, "t20 = {t20}");
        assert!((1.10..1.25).contains(&(t20 / t16)), "ratio {}", t20 / t16);
        // homogeneous pools recover the plain model
        assert!((m16.t_step_hetero(n, 1.0) - (m16.t_calc(n) + m16.t_com(n))).abs() < 1e-12);
    }

    #[test]
    fn hetero_efficiency_is_referenced_to_the_fast_machine() {
        let n = 150.0 * 150.0;
        let m20 = EfficiencyModel::paper_2d(20, 4.0);
        let f = m20.efficiency_hetero(n, 0.86);
        assert!(f < m20.efficiency(n), "slow hosts must cost efficiency");
        assert!((f - 0.666).abs() < 0.01, "f = {f}");
    }

    #[test]
    fn min_nodes_bisection_is_consistent() {
        let m = EfficiencyModel::paper_2d(20, 4.0);
        let n = m.min_nodes_for_efficiency(0.8);
        assert!(m.efficiency(n) >= 0.8);
        assert!(m.efficiency(n * 0.9) < 0.8);
    }

    #[test]
    fn single_processor_is_fully_efficient() {
        // P = 1 on a bus: the (P-1) factor floors at 1 in t_com, but with no
        // neighbours m = 0 so T_com = 0 and f = 1.
        let mut m = EfficiencyModel::paper_2d(1, 0.0);
        m.m = 0.0;
        assert_eq!(m.efficiency(10_000.0), 1.0);
    }
}
