//! Stochastic model of the regular users and background jobs.
//!
//! The paper classifies workstation utilisation into three cases
//! (section 5.1): idle, interactive user (fast response, few cycles), and a
//! competing full-time process. We model each host independently:
//!
//! * the console user alternates between *active* and *idle* periods with
//!   exponential durations (interactive use costs the nice'd subprocess
//!   nothing, but disqualifies the host from the idle-user preference tier);
//! * full-time CPU-bound jobs arrive as a Poisson process and run for an
//!   exponential duration — these are what trigger migration.
//!
//! Defaults are calibrated so that a 20-of-25-host computation sees roughly
//! one migration every 45 minutes, the paper's observed rate.

use rand::Rng;

/// Parameters of the per-host user/job model.
#[derive(Debug, Clone, Copy)]
pub struct UserModelConfig {
    /// Whether the model runs at all (performance measurements use a quiet
    /// cluster, "to avoid situations where the Ethernet network is
    /// overloaded ... we repeat each measurement twice and select the best").
    pub enabled: bool,
    /// Mean length of an active console session, seconds.
    pub mean_active_s: f64,
    /// Mean length of an idle period, seconds.
    pub mean_idle_s: f64,
    /// Poisson rate of full-time job arrivals per host, per second.
    pub job_rate_per_s: f64,
    /// Mean duration of a full-time job, seconds.
    pub mean_job_s: f64,
}

impl Default for UserModelConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            mean_active_s: 30.0 * 60.0,
            mean_idle_s: 90.0 * 60.0,
            // ~1 migration per 45 min across 20 busy hosts: a job landing on
            // a busy host triggers one migration, so the per-host rate is
            // roughly 1 / (45 min × 20) ≈ 1 / 54000 s (plus a margin for
            // jobs on unused hosts, which trigger nothing).
            job_rate_per_s: 1.0 / 50_000.0,
            mean_job_s: 40.0 * 60.0,
        }
    }
}

impl UserModelConfig {
    /// A silent cluster (no users, no jobs) for performance measurement.
    pub fn quiet() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Samples an exponential duration with the given mean.
pub fn exp_sample(rng: &mut impl Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1.0e-12..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_sample_mean() {
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let mean = 300.0;
        let sum: f64 = (0..n).map(|_| exp_sample(&mut rng, mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() / mean < 0.05, "estimated mean {est}");
    }

    #[test]
    fn samples_are_positive() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(exp_sample(&mut rng, 10.0) > 0.0);
        }
    }

    #[test]
    fn default_rates_target_the_paper_migration_frequency() {
        let c = UserModelConfig::default();
        // expected job arrivals on 20 busy hosts over 45 minutes ≈ 1
        let expected = c.job_rate_per_s * 20.0 * 45.0 * 60.0;
        assert!((expected - 1.0).abs() < 0.3, "expected {expected}");
    }
}
