//! Efficiency measurement harness — the section-7 methodology.
//!
//! "We measure the times T_p and T_1 for integrating a problem by averaging
//! over 20 consecutive integration steps ... In our graphs of parallel
//! speedup and efficiency, we use the 715/50 workstation to represent the
//! single processor performance."

use crate::host::HostKind;
use crate::sim::{ClusterConfig, ClusterSim};
use crate::stats::ClusterStats;
use crate::workload::WorkloadSpec;

/// Measurement parameters.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// The decomposed workload to time.
    pub workload: WorkloadSpec,
    /// Steps to average over (paper: 20).
    pub steps: u64,
    /// Cluster configuration template (network, hosts).
    pub cluster: ClusterConfig,
}

impl MeasureConfig {
    /// Default section-7 conditions: quiet paper cluster, 20 steps.
    pub fn paper(workload: WorkloadSpec) -> Self {
        let cluster = ClusterConfig::measurement(workload.clone());
        Self {
            workload,
            steps: 20,
            cluster,
        }
    }
}

/// One efficiency measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Number of processors.
    pub p: usize,
    /// Subregion size (nodes per processor, largest tile).
    pub nodes_per_proc: usize,
    /// Measured elapsed time per integration step, seconds.
    pub t_step: f64,
    /// Reference serial time per step on a 715/50, seconds.
    pub t1_step: f64,
    /// Speedup `S = T_1 / T_p` (eq. 5).
    pub speedup: f64,
    /// Efficiency `f = S / P`.
    pub efficiency: f64,
    /// Mean utilisation `g` from the per-process clocks (should ≈ `f`).
    pub utilization: f64,
    /// Mean per-step compute time over processes (`T_calc / steps`).
    pub t_step_calc: f64,
    /// Mean per-step time blocked on halo receives (`T_com / steps`).
    pub t_step_blocked: f64,
    /// Bus busy time per step (cluster-wide, not per process).
    pub t_step_bus: f64,
    /// Network errors observed (the 3D failure mode of section 7).
    pub net_errors: u64,
    /// Raw statistics of the run.
    pub stats: ClusterStats,
}

impl Measurement {
    /// Publishes the headline efficiency numbers (and the underlying run
    /// stats) into a [`subsonic_obs::MetricsRegistry`] under `{prefix}.`.
    pub fn publish(&self, reg: &subsonic_obs::MetricsRegistry, prefix: &str) {
        reg.gauge_set(&format!("{prefix}.p"), self.p as f64, "procs");
        reg.gauge_set(
            &format!("{prefix}.nodes_per_proc"),
            self.nodes_per_proc as f64,
            "nodes",
        );
        reg.gauge_set(&format!("{prefix}.t_step"), self.t_step, "s");
        reg.gauge_set(&format!("{prefix}.t1_step"), self.t1_step, "s");
        reg.gauge_set(&format!("{prefix}.speedup"), self.speedup, "x");
        reg.gauge_set(&format!("{prefix}.efficiency"), self.efficiency, "ratio");
        reg.gauge_set(&format!("{prefix}.utilization"), self.utilization, "ratio");
        reg.gauge_set(&format!("{prefix}.t_step_calc"), self.t_step_calc, "s");
        reg.gauge_set(
            &format!("{prefix}.t_step_blocked"),
            self.t_step_blocked,
            "s",
        );
        reg.gauge_set(&format!("{prefix}.t_step_bus"), self.t_step_bus, "s");
        self.stats.publish(reg, prefix);
    }
}

/// Runs the workload on the simulated cluster and measures efficiency.
pub fn measure_efficiency(cfg: MeasureConfig) -> Measurement {
    let steps = cfg.steps;
    let p = cfg.workload.processes();
    let nodes_per_proc = cfg
        .workload
        .tiles
        .iter()
        .map(|t| t.nodes)
        .max()
        .unwrap_or(0);
    let u_ref = HostKind::Hp715_50.node_rate(cfg.workload.method, cfg.workload.three_d);
    let t1_step = cfg.workload.total_nodes as f64 / u_ref;

    let mut sim = ClusterSim::new(cfg.cluster);
    let stats = sim.run(f64::INFINITY, Some(steps));
    let t_step = stats.finished_at / steps as f64;
    let speedup = t1_step / t_step;
    let denom = (p as u64 * steps) as f64;
    let t_step_calc = stats.procs.iter().map(|pr| pr.t_calc).sum::<f64>() / denom;
    let t_step_blocked = stats.procs.iter().map(|pr| pr.t_com).sum::<f64>() / denom;
    let t_step_bus = stats.net_busy / steps as f64;
    Measurement {
        p,
        nodes_per_proc,
        t_step,
        t1_step,
        speedup,
        efficiency: speedup / p as f64,
        utilization: stats.mean_utilization(),
        t_step_calc,
        t_step_blocked,
        t_step_bus,
        net_errors: stats.net_errors,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsonic_solvers::MethodKind;

    fn measure_2d(method: MethodKind, side: usize, px: usize, py: usize) -> Measurement {
        let w = WorkloadSpec::new_2d(method, side * px, side * py, px, py);
        measure_efficiency(MeasureConfig::paper(w))
    }

    #[test]
    fn large_2d_subregions_reach_paper_efficiency() {
        // Figure 5's headline is ~80% efficiency with 20 workstations, but a
        // 20-process run drafts the four slower 720/710 machines into the
        // pool and the step time tracks the slowest host (section 7's
        // heterogeneity penalty): t_model = n/u_min + comm gives f ≈ 0.67
        // when efficiency is referenced to the 715/50. Homogeneous 16-way
        // runs on 715/50s still reach ~0.76 (see the cluster_protocols
        // integration tests).
        let m = measure_2d(MethodKind::LatticeBoltzmann, 150, 5, 4);
        assert_eq!(m.p, 20);
        assert!(
            m.efficiency > 0.6 && m.efficiency < 0.8,
            "efficiency {}",
            m.efficiency
        );
    }

    #[test]
    fn small_2d_subregions_lose_efficiency() {
        let big = measure_2d(MethodKind::LatticeBoltzmann, 200, 4, 4);
        let small = measure_2d(MethodKind::LatticeBoltzmann, 30, 4, 4);
        assert!(
            small.efficiency < big.efficiency - 0.15,
            "small {} vs big {}",
            small.efficiency,
            big.efficiency
        );
    }

    #[test]
    fn fd_efficiency_falls_faster_than_lb_at_small_subregions() {
        // Figure 7 vs Figure 5: FD computes faster per step and sends two
        // messages, so its efficiency decreases more rapidly.
        let lb = measure_2d(MethodKind::LatticeBoltzmann, 40, 4, 4);
        let fd = measure_2d(MethodKind::FiniteDifference, 40, 4, 4);
        assert!(
            fd.efficiency < lb.efficiency,
            "FD {} should trail LB {}",
            fd.efficiency,
            lb.efficiency
        );
    }

    #[test]
    fn three_d_efficiency_collapses_on_the_bus() {
        // Figure 9: 2D stays high, 3D decays quickly with P. At P = 15 the
        // simulated gap is ~0.17 (the event simulation allows some
        // compute/communication overlap the paper's no-overlap model
        // excludes, so the 3D collapse is slightly milder than measured).
        let p = 15;
        let w2 = WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 120 * p, 120, p, 1);
        let m2 = measure_efficiency(MeasureConfig::paper(w2));
        let w3 = WorkloadSpec::new_3d(MethodKind::LatticeBoltzmann, (25 * p, 25, 25), (p, 1, 1));
        let m3 = measure_efficiency(MeasureConfig::paper(w3));
        assert!(
            m2.efficiency > 0.78,
            "2D should stay high: {}",
            m2.efficiency
        );
        assert!(m3.efficiency < 0.72, "3D should degrade: {}", m3.efficiency);
        assert!(
            m3.efficiency < m2.efficiency - 0.12,
            "3D {} should collapse vs 2D {}",
            m3.efficiency,
            m2.efficiency
        );
    }

    #[test]
    fn switched_network_rescues_3d() {
        // Section 9's outlook: switches make 3D practical.
        let w = WorkloadSpec::new_3d(MethodKind::LatticeBoltzmann, (25 * 10, 25, 25), (10, 1, 1));
        let bus = measure_efficiency(MeasureConfig::paper(w.clone()));
        let mut cfg = MeasureConfig::paper(w);
        cfg.cluster.net = cfg.cluster.net.switched();
        let sw = measure_efficiency(cfg);
        assert!(
            sw.efficiency > bus.efficiency + 0.2,
            "switch {} vs bus {}",
            sw.efficiency,
            bus.efficiency
        );
    }

    #[test]
    fn utilization_approximates_efficiency() {
        let m = measure_2d(MethodKind::LatticeBoltzmann, 120, 3, 3);
        assert!(
            (m.utilization - m.efficiency).abs() < 0.15,
            "g = {}, f = {}",
            m.utilization,
            m.efficiency
        );
    }
}
