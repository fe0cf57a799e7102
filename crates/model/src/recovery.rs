//! Closed-form cost model for checkpointing and crash recovery.
//!
//! The paper saves the whole computation "automatically every 10–20 minutes"
//! so that a crashed run can restart from the last dump (section 4.1). This
//! module prices that policy: the steady-state overhead of a periodic
//! coordinated checkpoint follows Young's first-order model,
//!
//! ```text
//! overhead(I) = C / I  +  (I/2 + D + R) / MTBF
//! ```
//!
//! where `I` is the checkpoint interval, `C` the cost of one coordinated
//! round, `D` the failure-detection latency, `R` the restart cost (search for
//! a free host, reload the dump, handshake), and `MTBF` the mean time between
//! failures of the pool. The first term is what checkpoints cost when nothing
//! fails; the second is the expected recompute (half an interval on average)
//! plus downtime per failure. The optimum is Young's square-root rule,
//! `I* = sqrt(2 C · MTBF)`.
//!
//! A third term prices detector *false positives*: a congestion-starved
//! heartbeat schedule can declare a live process dead and trigger a needless
//! rollback. Each spurious declaration costs the expected recompute `I/2`
//! plus the restart `R` (the detection latency is not an extra loss — the
//! "victim" was computing the whole time), at a rate `f` of false positives
//! per second:
//!
//! ```text
//! overhead(I) = C / I  +  (I/2 + D + R) / MTBF  +  (I/2 + R) · f
//! ```
//!
//! which shifts the optimum to `I* = sqrt(2 C / (1/MTBF + f))`: a trigger-
//! happy detector demands *tighter* checkpoints, quantifying how detector
//! quality and checkpoint policy trade against each other.
//!
//! Alongside the stochastic model there is a deterministic single-fault
//! predictor used to validate the event simulation: given the exact crash
//! time of an injected fault, it predicts the extra wall-clock the run pays,
//! which the `faults` experiment compares against the simulated runs.

/// Calibrated inputs of the recovery-cost model.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryModel {
    /// Wall-clock cost of one coordinated checkpoint round, seconds (`C`).
    pub checkpoint_cost_s: f64,
    /// Failure-detection latency, seconds (`D`) — the heartbeat schedule's
    /// worst case from loss to declaration.
    pub detection_s: f64,
    /// Restart cost, seconds (`R`): host search + dump reload + handshake.
    pub restart_s: f64,
    /// Mean time between failures of the whole pool, seconds.
    pub mtbf_s: f64,
    /// Detector false positives per second (`f`): how often congestion alone
    /// convicts a live process and forces a spurious rollback. Zero for an
    /// accrual detector whose proof-of-life probes ride a healthy control
    /// link; potentially large for a fixed-timeout detector under load.
    pub fp_rate_per_s: f64,
}

impl RecoveryModel {
    /// Fractional overhead of checkpointing every `interval_s` seconds:
    /// Young's `C/I + (I/2 + D + R)/MTBF` plus the false-positive term
    /// `(I/2 + R) · f`.
    pub fn overhead_rate(&self, interval_s: f64) -> f64 {
        self.checkpoint_cost_s / interval_s
            + (interval_s / 2.0 + self.detection_s + self.restart_s) / self.mtbf_s
            + (interval_s / 2.0 + self.restart_s) * self.fp_rate_per_s
    }

    /// The overhead-minimising interval `sqrt(2 C / (1/MTBF + f))` — Young's
    /// `sqrt(2 C · MTBF)` when the detector never lies (`f = 0`).
    pub fn optimal_interval_s(&self) -> f64 {
        (2.0 * self.checkpoint_cost_s / (1.0 / self.mtbf_s + self.fp_rate_per_s)).sqrt()
    }

    /// Fraction of wall-clock doing useful work at `interval_s`
    /// (`1 / (1 + overhead)`).
    pub fn availability(&self, interval_s: f64) -> f64 {
        1.0 / (1.0 + self.overhead_rate(interval_s))
    }

    /// Deterministic predictor for a *single* injected crash: the extra
    /// wall-clock a run pays, given the time `since_checkpoint_s` elapsed
    /// between the last completed checkpoint round and the fault.
    ///
    /// The run loses the recompute back to the checkpoint plus the detection
    /// and restart latencies; checkpoint rounds themselves are priced
    /// separately by the `C/I` term.
    pub fn single_fault_cost_s(&self, since_checkpoint_s: f64) -> f64 {
        since_checkpoint_s + self.detection_s + self.restart_s
    }

    /// Total predicted wall-clock for a run of `faultless_s` seconds of pure
    /// computation, checkpointing every `interval_s`, hit by `n_faults`
    /// crashes each losing `since_checkpoint_s` of work.
    pub fn predicted_runtime_s(
        &self,
        faultless_s: f64,
        interval_s: f64,
        n_faults: u64,
        since_checkpoint_s: f64,
    ) -> f64 {
        let rounds = (faultless_s / interval_s).floor();
        faultless_s
            + rounds * self.checkpoint_cost_s
            + n_faults as f64 * self.single_fault_cost_s(since_checkpoint_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RecoveryModel {
        RecoveryModel {
            checkpoint_cost_s: 12.0,
            detection_s: 35.0,
            restart_s: 20.0,
            mtbf_s: 8.0 * 3600.0,
            fp_rate_per_s: 0.0,
        }
    }

    #[test]
    fn optimal_interval_minimises_the_overhead() {
        let m = model();
        let i_star = m.optimal_interval_s();
        assert!((i_star - (2.0_f64 * 12.0 * 8.0 * 3600.0).sqrt()).abs() < 1e-9);
        let at_opt = m.overhead_rate(i_star);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            assert!(
                at_opt < m.overhead_rate(i_star * factor),
                "overhead not minimal at I* (factor {factor})"
            );
        }
    }

    #[test]
    fn overhead_has_the_two_young_terms() {
        let m = model();
        // very frequent checkpoints: dominated by C/I
        assert!(m.overhead_rate(24.0) > 0.5 * (12.0 / 24.0));
        // very rare checkpoints: dominated by lost work I/2/MTBF
        let rare = m.overhead_rate(4.0 * 3600.0);
        assert!((rare - (12.0 / 14400.0 + (7200.0 + 55.0) / 28800.0)).abs() < 1e-12);
        // availability is the reciprocal mapping
        let i = 600.0;
        assert!((m.availability(i) - 1.0 / (1.0 + m.overhead_rate(i))).abs() < 1e-15);
    }

    #[test]
    fn single_fault_predictor_is_linear_in_lost_work() {
        let m = model();
        assert_eq!(m.single_fault_cost_s(0.0), 55.0);
        assert_eq!(m.single_fault_cost_s(100.0), 155.0);
        let base = m.predicted_runtime_s(1000.0, 250.0, 0, 0.0);
        assert!((base - (1000.0 + 4.0 * 12.0)).abs() < 1e-9);
        let faulted = m.predicted_runtime_s(1000.0, 250.0, 1, 80.0);
        assert!((faulted - base - 135.0).abs() < 1e-9);
    }

    #[test]
    fn false_positives_raise_overhead_and_tighten_the_optimum() {
        let honest = model();
        let jumpy = RecoveryModel {
            fp_rate_per_s: 1.0 / 1800.0, // one spurious conviction per 30 min
            ..honest
        };
        let i = 600.0;
        let extra = jumpy.overhead_rate(i) - honest.overhead_rate(i);
        assert!(
            (extra - (i / 2.0 + 20.0) / 1800.0).abs() < 1e-12,
            "fp term is (I/2 + R) · f"
        );
        assert!(
            jumpy.optimal_interval_s() < honest.optimal_interval_s(),
            "a lying detector demands tighter checkpoints"
        );
        // f = 0 reduces exactly to Young's rule
        assert!(
            (honest.optimal_interval_s() - (2.0_f64 * 12.0 * 8.0 * 3600.0).sqrt()).abs() < 1e-9
        );
        // the optimum still minimises the fp-aware overhead
        let i_star = jumpy.optimal_interval_s();
        for factor in [0.5, 2.0] {
            assert!(jumpy.overhead_rate(i_star) < jumpy.overhead_rate(i_star * factor));
        }
    }
}
