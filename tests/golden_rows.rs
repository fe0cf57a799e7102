//! Exact pins for deterministic figures of the simulated cluster: the
//! recovery-cost sweep of `reproduce faults`, the crash-detection latencies
//! of `reproduce partition` and the FIFO / EASY-backfill makespans of the
//! scheduler. All of them are simulated seconds, not wall-clock timings, so
//! any change to them is a change of behaviour: of the event engine, the
//! recovery model, the failure detectors or a queue discipline.
//!
//! Each value is pinned as `f64::to_bits` of the quick-mode run; the
//! `test` and `release` profiles produce the same bits. A deliberate
//! behaviour change re-derives the pins from the failure messages, which
//! print the new bits.

use subsonic::experiments::{partition_study, recovery_sweep};
use subsonic_sched::{run, JobTrace, PolicyKind, SchedConfig, TenantSpec, TraceConfig};

fn assert_bits(label: &str, got: f64, pinned: u64) {
    assert_eq!(
        got.to_bits(),
        pinned,
        "{label}: got {got:e} ({:#018x}), pinned {:e}",
        got.to_bits(),
        f64::from_bits(pinned)
    );
}

#[test]
fn recovery_sweep_is_pinned() {
    let sweep = recovery_sweep(true);
    // (interval_s, sim_extra_s), tightest interval first
    let pinned = [
        ("tight", 0x4032_089c_5ece_cb13, 0x4050_98ae_874b_75ca),
        ("mid", 0x4042_089c_5ece_cb13, 0x4055_8b1a_c6d3_ac20),
        ("loose", 0x4052_089c_5ece_cb13, 0x4055_5dd4_fef0_6248),
    ];
    assert_eq!(sweep.points.len(), pinned.len());
    for (p, (label, interval, cost)) in sweep.points.iter().zip(pinned) {
        assert_bits(&format!("{label} interval_s"), p.interval_s, interval);
        assert_bits(&format!("{label} sim_extra_s"), p.sim_extra_s, cost);
    }
    assert_bits("max_rel_err", sweep.max_rel_err(), 0x3fc0_8353_4199_6eb7);
    assert_bits(
        "optimal_interval_s",
        sweep.model.optimal_interval_s(),
        0x4067_b26a_214f_2c6a,
    );
}

#[test]
fn crash_detection_latencies_are_pinned() {
    let study = partition_study(true);
    assert_bits(
        "fixed_detect_s",
        study.fixed_detect_s,
        0x4041_8000_0000_0000,
    );
    assert_bits(
        "accrual_detect_s",
        study.accrual_detect_s,
        0x4044_0000_0000_0000,
    );
}

#[test]
fn sched_makespans_are_pinned() {
    // the `sched` experiment's three-tenant mix at its quick size
    let trace = JobTrace::generate(&TraceConfig {
        tenants: vec![
            TenantSpec {
                weight: 4.0,
                ..TenantSpec::light(0.05)
            },
            TenantSpec::light(0.03),
            TenantSpec::batch(0.014),
        ],
        jobs: 2_000,
        seed: 0x5EED_0009,
    });
    let makespan = |p: PolicyKind| run(&trace, &SchedConfig::paper_pool(p, 1)).makespan_s;
    assert_bits("fifo", makespan(PolicyKind::Fifo), 0x40d6_6cd6_0970_f1e3);
    assert_bits(
        "easy backfill",
        makespan(PolicyKind::EasyBackfill),
        0x40d5_57ba_e4f9_5564,
    );
}
