//! E-sched: multi-tenant job-stream scheduling over the simulated cluster.
//!
//! The paper operates one parallel computation at a time; this experiment
//! runs the cluster as a *service*: a fixed synthetic heavy-traffic trace
//! (tens of thousands of solver decompositions from three tenants — an
//! interactive tenant with 4× fair-share weight, a standard interactive
//! tenant, and a batch tenant submitting the paper's wide overnight runs) is
//! replayed under every queue discipline of `subsonic-sched`, and the
//! schedules are compared on makespan, utilization, queue wait and
//! per-tenant slowdown.
//!
//! Verdicts pinned by checks:
//! * EASY backfill strictly beats FIFO on makespan and mean wait (it fills
//!   the holes a blocked wide head leaves, and provably never delays that
//!   head, so it can only win).
//! * Weighted fair share bounds the worst tenant's slowdown below FIFO's
//!   (arrival order lets the batch tenant's wide jobs starve the
//!   interactive tenants; virtual-time service does not).
//! * The replay is deterministic: running the identical trace + seed twice
//!   yields bit-identical schedule hashes for every policy.

use crate::experiments::ObsSession;
use crate::report::{Check, ExperimentResult, Table};
use std::time::Instant;
use subsonic_sched::{
    publish, record_tracks, run, JobTrace, PolicyKind, SchedConfig, SchedOutcome, TenantSpec,
    TraceConfig,
};

/// Fixed seed of the replayed trace (part of the experiment's identity:
/// changing it changes every number in the table).
const TRACE_SEED: u64 = 0x5EED_0009;

/// The experiment's three-tenant heavy-traffic mix.
fn trace_config(jobs: usize) -> TraceConfig {
    // an interactive tenant paying for 4x weight, a standard one, and a
    // batch tenant whose wide jobs dominate the load
    let premium = TenantSpec {
        weight: 4.0,
        ..TenantSpec::light(0.05)
    };
    let standard = TenantSpec::light(0.03);
    // offered batch load alone exceeds the 25-host pool's capacity, so the
    // queue stays backlogged and makespan measures packing efficiency —
    // exactly the regime where the disciplines separate
    let batch = TenantSpec::batch(0.014);
    TraceConfig {
        tenants: vec![premium, standard, batch],
        jobs,
        seed: TRACE_SEED,
    }
}

/// Worst per-tenant mean stretch — the fairness headline.
fn worst_tenant_stretch(out: &SchedOutcome) -> f64 {
    out.tenants
        .iter()
        .filter(|t| t.jobs > 0)
        .map(|t| t.mean_stretch)
        .fold(0.0, f64::max)
}

/// E-sched driver (see the module docs). `obs` receives `sched.<policy>.*`
/// metrics and one per-tenant timeline track per policy.
pub fn e_sched_obs(quick: bool, obs: Option<&ObsSession>) -> ExperimentResult {
    let mut r = ExperimentResult::new("sched", "Multi-tenant job-stream scheduling");
    let jobs = if quick { 2_000 } else { 20_000 };
    let trace = JobTrace::generate(&trace_config(jobs));
    r.notes.push(format!(
        "trace: {} jobs, {} tenants, seed {:#x}, fingerprint {:#018x}",
        trace.jobs.len(),
        trace.tenant_count(),
        trace.seed,
        trace.fingerprint()
    ));

    let mut table = Table::new(
        "E-sched policy comparison (identical trace)",
        &[
            "policy",
            "makespan (h)",
            "util",
            "mean wait (s)",
            "mean stretch",
            "worst-tenant stretch",
            "backfills",
            "migrations",
            "schedule hash",
            "replay (jobs/s)",
        ],
    );
    let mut outcomes: Vec<SchedOutcome> = Vec::new();
    for policy in PolicyKind::ALL {
        let cfg = SchedConfig::paper_pool(policy, 1);
        let t0 = Instant::now();
        let out = run(&trace, &cfg);
        let jobs_per_s = trace.jobs.len() as f64 / t0.elapsed().as_secs_f64();
        // determinism verdict: the identical trace + config must reproduce
        // the schedule bit-for-bit
        let again = run(&trace, &cfg);
        r.checks.push(Check::new(
            format!("{} replay is bit-identical", policy.name()),
            out.schedule_hash == again.schedule_hash
                && out.trace_fingerprint == again.trace_fingerprint,
            format!("hash {:#018x}", out.schedule_hash),
        ));
        r.checks.push(Check::new(
            format!("{} conserves jobs and capacity", policy.name()),
            out.completed + out.rejected == trace.jobs.len() as u64
                && out.peak_busy_hosts <= out.pool_hosts,
            format!(
                "{} completed + {} rejected of {}, peak {}/{} hosts",
                out.completed,
                out.rejected,
                trace.jobs.len(),
                out.peak_busy_hosts,
                out.pool_hosts
            ),
        ));
        table.push_row(vec![
            policy.name().to_string(),
            format!("{:.2}", out.makespan_s / 3600.0),
            format!("{:.3}", out.utilization),
            format!("{:.1}", out.mean_wait_s),
            format!("{:.2}", out.mean_stretch),
            format!("{:.2}", worst_tenant_stretch(&out)),
            out.backfills.to_string(),
            out.migrations.len().to_string(),
            format!("{:#018x}", out.schedule_hash),
            format!("{jobs_per_s:.0}"),
        ]);
        if let Some(obs) = obs {
            publish(&out, &obs.metrics);
            record_tracks(&out, &obs.recorder);
        }
        outcomes.push(out);
    }
    let by = |p: PolicyKind| {
        outcomes
            .iter()
            .find(|o| o.policy == p)
            .expect("all policies ran")
    };
    let fifo = by(PolicyKind::Fifo);
    let fair = by(PolicyKind::FairShare);
    let backfill = by(PolicyKind::EasyBackfill);

    // heavy traffic really happened: FIFO queues must be material
    r.checks.push(Check::new(
        "trace drives the cluster into heavy traffic under FIFO",
        fifo.utilization > 0.3 && fifo.mean_wait_s > 10.0,
        format!(
            "FIFO utilization {:.3}, mean wait {:.1} s",
            fifo.utilization, fifo.mean_wait_s
        ),
    ));
    r.checks.push(Check::new(
        "EASY backfill beats FIFO on makespan",
        backfill.makespan_s < fifo.makespan_s,
        format!(
            "{:.2} h vs {:.2} h ({} backfills)",
            backfill.makespan_s / 3600.0,
            fifo.makespan_s / 3600.0,
            backfill.backfills
        ),
    ));
    r.checks.push(Check::new(
        "EASY backfill cuts FIFO's mean queue wait",
        backfill.mean_wait_s < fifo.mean_wait_s,
        format!("{:.1} s vs {:.1} s", backfill.mean_wait_s, fifo.mean_wait_s),
    ));
    r.checks.push(Check::new(
        "fair share bounds the worst tenant's slowdown below FIFO's",
        worst_tenant_stretch(fair) < worst_tenant_stretch(fifo),
        format!(
            "worst-tenant mean stretch {:.2} vs {:.2}",
            worst_tenant_stretch(fair),
            worst_tenant_stretch(fifo)
        ),
    ));
    r.checks.push(Check::new(
        "fair share honours the premium tenant's 4x weight",
        fair.tenants[0].mean_wait_s <= fair.tenants[1].mean_wait_s,
        format!(
            "premium mean wait {:.1} s vs standard {:.1} s",
            fair.tenants[0].mean_wait_s, fair.tenants[1].mean_wait_s
        ),
    ));

    // per-tenant fairness detail for the two headline policies
    let mut fairness = Table::new(
        "E-sched per-tenant fairness (FIFO vs fair share)",
        &[
            "tenant",
            "weight",
            "jobs",
            "fifo wait (s)",
            "fair wait (s)",
            "fifo stretch",
            "fair stretch",
        ],
    );
    let names = ["premium", "standard", "batch"];
    for (i, name) in names.iter().enumerate() {
        fairness.push_row(vec![
            (*name).to_string(),
            format!("{:.0}", trace.tenants[i].weight),
            fair.tenants[i].jobs.to_string(),
            format!("{:.1}", fifo.tenants[i].mean_wait_s),
            format!("{:.1}", fair.tenants[i].mean_wait_s),
            format!("{:.2}", fifo.tenants[i].mean_stretch),
            format!("{:.2}", fair.tenants[i].mean_stretch),
        ]);
    }
    r.tables.push(table);
    r.tables.push(fairness);
    r.notes.push(
        "The replay column is the wall-clock rate of the replay engine on this \
         machine; it is reported, not checked."
            .into(),
    );
    r
}

/// E-sched without observability plumbing.
pub fn e_sched(quick: bool) -> ExperimentResult {
    e_sched_obs(quick, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_quick() {
        let r = e_sched(true);
        assert!(r.all_pass(), "{:#?}", r.checks);
        assert!(r.tables.len() == 2 && r.tables[0].rows.len() == 4);
    }

    #[test]
    fn sched_quick_publishes_metrics_and_tracks() {
        let obs = ObsSession::tracing();
        let r = e_sched_obs(true, Some(&obs));
        assert!(r.all_pass());
        assert!(obs.metrics.counter("sched.fifo.jobs_completed").is_some());
        assert!(obs.metrics.gauge("sched.backfill.makespan_s").is_some());
        // one track per tenant per policy
        assert_eq!(obs.recorder.finished_tracks().len(), 3 * 4);
    }
}
