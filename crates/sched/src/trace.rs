//! Trace-driven arrival generation: synthetic heavy-traffic job streams.
//!
//! A trace is a time-ordered list of [`Job`]s across multiple tenants. Each
//! tenant submits an independent Poisson stream (exponential inter-arrival
//! times at its configured rate); each job is a whole solver decomposition —
//! `procs` subprocesses of `nodes_per_proc` fluid nodes each, integrated for
//! `steps` steps — exactly the unit the paper's submit program places onto
//! the cluster. Widths and step counts are drawn log-uniformly, the
//! heavy-tailed shape cluster traces (e.g. the Alibaba and Google public
//! traces) show: many narrow short jobs, a few wide long ones.
//!
//! Generation is deterministic given the seed: per-tenant RNG streams are
//! salted with the tenant index, so adding a tenant never perturbs the
//! others' draws, and the k-way merge across tenants breaks submit-time ties
//! by tenant index. [`JobTrace::fingerprint`] hashes every field of every
//! job, so two traces are interchangeable iff their fingerprints match.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use subsonic_solvers::MethodKind;

/// Seed salt separating tenant `i`'s arrival stream from tenant `j`'s (and
/// from every RNG stream of the cluster simulation).
pub const TRACE_STREAM_SALT: u64 = 0x5CED_0123_4567_89AB;

/// One tenant's statistical job profile.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Fair-share weight (higher = entitled to more of the cluster).
    pub weight: f64,
    /// Mean job submissions per second (Poisson arrivals).
    pub arrival_rate: f64,
    /// Smallest job width (subprocesses), inclusive.
    pub min_procs: u32,
    /// Largest job width (subprocesses), inclusive.
    pub max_procs: u32,
    /// Smallest integration-step count, inclusive.
    pub min_steps: u64,
    /// Largest integration-step count, inclusive.
    pub max_steps: u64,
    /// Subregion size per subprocess, fluid nodes.
    pub nodes_per_proc: f64,
    /// Numerical method of this tenant's solver jobs.
    pub method: MethodKind,
}

impl TenantSpec {
    /// A balanced interactive tenant: narrow, short jobs at a given rate.
    pub fn light(arrival_rate: f64) -> Self {
        Self {
            weight: 1.0,
            arrival_rate,
            min_procs: 1,
            max_procs: 4,
            min_steps: 50,
            max_steps: 400,
            nodes_per_proc: 2500.0,
            method: MethodKind::LatticeBoltzmann,
        }
    }

    /// A batch tenant: wide, long decompositions (the paper's overnight
    /// production runs), submitted aggressively.
    pub fn batch(arrival_rate: f64) -> Self {
        Self {
            weight: 1.0,
            arrival_rate,
            min_procs: 4,
            max_procs: 20,
            min_steps: 400,
            max_steps: 4000,
            nodes_per_proc: 2500.0,
            method: MethodKind::LatticeBoltzmann,
        }
    }
}

/// Trace generator configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Tenant profiles (index = tenant id).
    pub tenants: Vec<TenantSpec>,
    /// Total jobs to generate across all tenants.
    pub jobs: usize,
    /// RNG seed; identical seeds yield bit-identical traces.
    pub seed: u64,
}

/// One submitted solver job: a whole decomposition to place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Trace-wide id (also the submit order).
    pub id: u32,
    /// Owning tenant (index into the config's tenant list).
    pub tenant: u16,
    /// Submission time, seconds.
    pub submit_s: f64,
    /// Width: number of subprocesses (one host each).
    pub procs: u32,
    /// Fluid nodes per subprocess.
    pub nodes_per_proc: f64,
    /// Integration steps.
    pub steps: u64,
    /// Numerical method.
    pub method: MethodKind,
}

/// A generated, time-ordered job stream.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Jobs sorted by `(submit_s, tenant)`.
    pub jobs: Vec<Job>,
    /// Tenant profiles the trace was drawn from.
    pub tenants: Vec<TenantSpec>,
    /// Seed the trace was drawn with.
    pub seed: u64,
}

/// FNV-1a over a byte stream — the workspace's dependency-free stable hash.
pub use subsonic_obs::codec::Fnv1a;

/// Log-uniform integer in `[lo, hi]`: `exp(U(ln lo, ln(hi+1)))` floored —
/// heavy-tailed toward small values, every bucket reachable.
fn log_uniform(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    if lo >= hi {
        return lo;
    }
    let (a, b) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    let v = (rng.gen_range(a..b)).exp() as u64;
    v.clamp(lo, hi)
}

/// Exponential inter-arrival sample with the given rate (events/second).
fn exp_interarrival(rng: &mut SmallRng, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen::<f64>();
    // 1 − u ∈ (0, 1]: ln never sees zero
    -(1.0 - u).ln() / rate
}

impl JobTrace {
    /// Generates the trace: per-tenant Poisson streams merged in time order.
    pub fn generate(cfg: &TraceConfig) -> Self {
        assert!(!cfg.tenants.is_empty(), "a trace needs at least one tenant");
        // Per-tenant generator state: independent salted RNG + next arrival.
        let mut rngs: Vec<SmallRng> = (0..cfg.tenants.len())
            .map(|t| {
                SmallRng::seed_from_u64(
                    cfg.seed ^ TRACE_STREAM_SALT.wrapping_add(t as u64 * 0x9E37),
                )
            })
            .collect();
        let mut next_at: Vec<f64> = cfg
            .tenants
            .iter()
            .zip(rngs.iter_mut())
            .map(|(t, rng)| exp_interarrival(rng, t.arrival_rate))
            .collect();
        let mut jobs = Vec::with_capacity(cfg.jobs);
        while jobs.len() < cfg.jobs {
            // k-way merge: earliest next arrival, ties to the lower tenant id
            let t = (0..cfg.tenants.len())
                .min_by(|&a, &b| next_at[a].total_cmp(&next_at[b]).then(a.cmp(&b)))
                .expect("non-empty tenant list");
            let spec = &cfg.tenants[t];
            let rng = &mut rngs[t];
            let procs = log_uniform(rng, spec.min_procs as u64, spec.max_procs as u64) as u32;
            let steps = log_uniform(rng, spec.min_steps, spec.max_steps);
            jobs.push(Job {
                id: jobs.len() as u32,
                tenant: t as u16,
                submit_s: next_at[t],
                procs,
                nodes_per_proc: spec.nodes_per_proc,
                steps,
                method: spec.method,
            });
            next_at[t] += exp_interarrival(rng, spec.arrival_rate);
        }
        Self {
            jobs,
            tenants: cfg.tenants.clone(),
            seed: cfg.seed,
        }
    }

    /// Number of tenants in the trace.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Stable digest over every field of every job: two traces replay
    /// identically iff their fingerprints match.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.seed);
        h.write_u64(self.jobs.len() as u64);
        for j in &self.jobs {
            h.write_u64(j.id as u64);
            h.write_u64(j.tenant as u64);
            h.write_f64(j.submit_s);
            h.write_u64(j.procs as u64);
            h.write_f64(j.nodes_per_proc);
            h.write_u64(j.steps);
            h.write_u64(matches!(j.method, MethodKind::FiniteDifference) as u64);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> TraceConfig {
        TraceConfig {
            tenants: vec![TenantSpec::light(0.05), TenantSpec::batch(0.01)],
            jobs: 500,
            seed,
        }
    }

    #[test]
    fn trace_is_time_ordered_and_complete() {
        let t = JobTrace::generate(&small_cfg(7));
        assert_eq!(t.jobs.len(), 500);
        for w in t.jobs.windows(2) {
            assert!(w[0].submit_s <= w[1].submit_s, "out of order");
        }
        for (i, j) in t.jobs.iter().enumerate() {
            assert_eq!(j.id as usize, i);
            assert!(j.procs >= 1 && j.steps >= 1);
            assert!(j.submit_s.is_finite() && j.submit_s > 0.0);
        }
        // both tenants contribute
        assert!(t.jobs.iter().any(|j| j.tenant == 0));
        assert!(t.jobs.iter().any(|j| j.tenant == 1));
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = JobTrace::generate(&small_cfg(42));
        let b = JobTrace::generate(&small_cfg(42));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.jobs, b.jobs);
        let c = JobTrace::generate(&small_cfg(43));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn widths_respect_tenant_bounds() {
        let t = JobTrace::generate(&small_cfg(9));
        for j in &t.jobs {
            let spec = &t.tenants[j.tenant as usize];
            assert!(j.procs >= spec.min_procs && j.procs <= spec.max_procs);
            assert!(j.steps >= spec.min_steps && j.steps <= spec.max_steps);
        }
    }

    #[test]
    fn log_uniform_is_heavy_tailed_toward_small() {
        let mut rng = SmallRng::seed_from_u64(1);
        let draws: Vec<u64> = (0..4000).map(|_| log_uniform(&mut rng, 1, 64)).collect();
        let small = draws.iter().filter(|&&v| v <= 8).count();
        let large = draws.iter().filter(|&&v| v > 32).count();
        assert!(small > large, "log-uniform should favour small widths");
        assert!(draws.iter().all(|&v| (1..=64).contains(&v)));
    }
}
