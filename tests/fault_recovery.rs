//! Fault injection and crash recovery in the cluster simulation.
//!
//! Two contracts are pinned here:
//!
//! 1. **Determinism** — the fault layer draws from its own salted RNG stream
//!    and an empty [`FaultPlan`] schedules nothing, so every seeded result of
//!    the previous PRs is bit-identical with the layer compiled in. The pin
//!    test asserts the section-7 heterogeneous-pool step times *to the digit*.
//! 2. **Recovery correctness** — a crashed subprocess is detected by the
//!    heartbeat schedule, re-submitted to a fresh host, and the computation
//!    rolls back to the last coordinated checkpoint and completes.
//!
//! A real runtime's recovery from a killed worker — bitwise identical to an
//! undisturbed run, kills during recovery included — is a column of the
//! substrate table in `tests/conformance.rs`, run on `subsonic-net`'s
//! supervisor.

// the determinism pins below spell out every digit of the captured values
#![allow(clippy::excessive_precision)]

use subsonic::prelude::*;
use subsonic_cluster::{DetectorPolicy, FaultPlan};

fn lb_workload(px: usize, py: usize, side: usize) -> WorkloadSpec {
    WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, side * px, side * py, px, py)
}

// ---------------------------------------------------------------------------
// determinism pins
// ---------------------------------------------------------------------------

/// The heterogeneous-pool measurements, pinned to the digit. Any drift means
/// something consumed an RNG draw or perturbed the event sequencing on the
/// no-fault path. Captured under the PR 7 engine: the virtual-service-time
/// bus accumulates bandwidth shares in a different float order than the old
/// per-transfer residual subtraction, which legitimately moves completion
/// times by ulps (the 20-proc values shifted in the 13th digit; the 16-proc
/// run amplified that chaotically through the user/load model). The
/// PR 6-vs-PR 7 model agreement itself is pinned by
/// `tests/engine_equivalence.rs`, not by these digits.
#[test]
fn empty_fault_plan_preserves_seeded_results_to_the_digit() {
    let m16 = measure_efficiency(MeasureConfig::paper(lb_workload(4, 4, 150)));
    let m20 = measure_efficiency(MeasureConfig::paper(lb_workload(5, 4, 150)));
    assert_eq!(m16.t_step, 7.530_349_387_348_684_86e-1, "t16 drifted");
    assert_eq!(m20.t_step, 8.719_828_655_457_961_82e-1, "t20 drifted");
    assert_eq!(m16.efficiency, 7.635_462_464_543_140_15e-1, "eff16 drifted");
    assert_eq!(m20.efficiency, 6.593_902_513_899_404_52e-1, "eff20 drifted");
}

// ---------------------------------------------------------------------------
// cluster-level crash recovery
// ---------------------------------------------------------------------------

/// Builds a sim once to learn the (deterministic) placement, so a fault can
/// target the host a given process actually runs on.
fn host_of(cfg: &ClusterConfig, pid: usize) -> usize {
    ClusterSim::new(cfg.clone()).placements()[pid]
}

#[test]
fn crash_recovery_restores_lockstep_and_finishes() {
    // 6 processes, periodic checkpoints, one host dies mid-run with no
    // reboot: the runtime must detect, re-submit, roll back and complete.
    let mut cfg = ClusterConfig::measurement(lb_workload(3, 2, 60));
    cfg.checkpoint_period_s = Some(60.0);
    cfg.checkpoint_gap_s = 2.0;
    let victim = host_of(&cfg, 2);
    cfg.faults = FaultPlan::empty().crash(victim, 150.0, None);
    let mut sim = ClusterSim::new(cfg.clone());
    let stats = sim.run(1.0e4, Some(1500));
    assert_eq!(stats.host_crashes, 1);
    assert_eq!(stats.recoveries.len(), 1, "exactly one recovery");
    let r = &stats.recoveries[0];
    assert_eq!(r.proc_id, 2);
    assert_eq!(r.from_host, victim);
    assert_ne!(r.to_host, victim);
    assert!(!r.false_positive);
    // rollback is a completed checkpoint round, not the initial dump
    assert!(
        r.rollback_step > 0,
        "a checkpoint round should have completed"
    );
    assert!(r.lost_steps > 0, "the victim was ahead of the checkpoint");
    // downtime = detection + search + dump reload + handshake: tens of
    // seconds on the paper's constants, not minutes
    assert!(
        r.downtime() > cfg.detector.detection_latency() && r.downtime() < 120.0,
        "downtime {}",
        r.downtime()
    );
    // every process completed the full run despite the crash
    assert_eq!(sim.steps(), vec![1500; 6]);
}

#[test]
fn detection_latency_follows_the_probe_schedule() {
    let mut cfg = ClusterConfig::measurement(lb_workload(2, 1, 60));
    cfg.detector = DetectorPolicy {
        enabled: true,
        timeout_s: 3.0,
        backoff: 2.0,
        max_misses: 4,
        ..DetectorPolicy::default()
    };
    let victim = host_of(&cfg, 0);
    cfg.faults = FaultPlan::empty().crash(victim, 40.0, None);
    let mut sim = ClusterSim::new(cfg.clone());
    let stats = sim.run(2000.0, None);
    assert_eq!(stats.recoveries.len(), 1);
    // 3·(1+2+4+8) = 45 s from heartbeat loss to declaration
    let expected = cfg.detector.detection_latency();
    assert!((expected - 45.0).abs() < 1e-12);
    assert!(
        (stats.recoveries[0].detection_latency() - expected).abs() < 1e-9,
        "latency {} vs schedule {}",
        stats.recoveries[0].detection_latency(),
        expected
    );
}

#[test]
fn disabled_detector_never_recovers() {
    let mut cfg = ClusterConfig::measurement(lb_workload(2, 1, 60));
    cfg.detector.enabled = false;
    let victim = host_of(&cfg, 0);
    cfg.faults = FaultPlan::empty().crash(victim, 20.0, None);
    let mut sim = ClusterSim::new(cfg);
    let stats = sim.run(2000.0, None);
    assert_eq!(stats.host_crashes, 1);
    assert!(stats.recoveries.is_empty(), "no detector, no recovery");
    // the survivor blocks on the dead peer's halo: the computation hangs,
    // which is exactly what the paper's runtime without monitoring would do
    let steps = sim.steps();
    assert!(steps[1] < 2000, "survivor should be blocked, got {steps:?}");
}

#[test]
fn checkpoint_interval_bounds_lost_work() {
    // Tighter checkpoint intervals mean fewer lost steps when the crash
    // hits — the fundamental trade Young's formula prices.
    let run = |period: f64| {
        let mut cfg = ClusterConfig::measurement(lb_workload(3, 2, 60));
        cfg.checkpoint_period_s = Some(period);
        cfg.checkpoint_gap_s = 2.0;
        let victim = host_of(&cfg, 0);
        cfg.faults = FaultPlan::empty().crash(victim, 120.0, None);
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(1.0e4, Some(2000));
        assert_eq!(stats.recoveries.len(), 1, "period {period}");
        stats.recoveries[0].lost_steps
    };
    let tight = run(40.0);
    let loose = run(240.0);
    assert!(
        tight < loose,
        "tight checkpoints should lose less work: {tight} vs {loose}"
    );
}

#[test]
fn bus_burst_and_freeze_do_not_break_completion() {
    let mut cfg = ClusterConfig::measurement(lb_workload(3, 1, 60));
    let victim = host_of(&cfg, 1);
    cfg.faults = FaultPlan::empty()
        .freeze(victim, 20.0, 8.0) // short stall: survives the detector
        .bus_burst(40.0, 5.0);
    let mut sim = ClusterSim::new(cfg);
    let stats = sim.run(1.0e4, Some(500));
    assert_eq!(stats.host_freezes, 1);
    assert_eq!(stats.bus_bursts, 1);
    assert!(
        stats.recoveries.is_empty(),
        "neither fault should trigger a restart"
    );
    assert_eq!(sim.steps(), vec![500; 3]);
}

#[test]
fn generated_plans_drive_production_runs_to_completion() {
    // A seeded random fault plan over a production-style run: whatever the
    // draw, the runtime keeps the computation alive and in lockstep.
    use subsonic_cluster::FaultSpec;
    let w = lb_workload(3, 2, 60);
    let horizon = 4000.0;
    let mut spec = FaultSpec::quiet(25, horizon);
    spec.crash_mtbf_s = 30.0 * 3600.0; // ~a couple of crashes over the pool
    spec.freeze_mtbf_s = 20.0 * 3600.0;
    spec.burst_mtbf_s = 2.0 * 3600.0;
    let mut cfg = ClusterConfig::measurement(w);
    cfg.checkpoint_period_s = Some(120.0);
    cfg.checkpoint_gap_s = 2.0;
    cfg.seed = 11;
    cfg.faults = FaultPlan::generate(cfg.seed, &spec);
    assert!(!cfg.faults.is_empty(), "seed 11 should draw some faults");
    let mut sim = ClusterSim::new(cfg);
    let stats = sim.run(horizon, None);
    let steps = sim.steps();
    let spread = steps.iter().max().unwrap() - steps.iter().min().unwrap();
    assert!(spread <= 1, "cluster out of lockstep: {steps:?}");
    assert!(steps.iter().all(|&s| s > 100), "no progress: {steps:?}");
    // determinism: the same seed reproduces the same run, recoveries and all
    let mut cfg2 = ClusterConfig::measurement(lb_workload(3, 2, 60));
    cfg2.checkpoint_period_s = Some(120.0);
    cfg2.checkpoint_gap_s = 2.0;
    cfg2.seed = 11;
    cfg2.faults = FaultPlan::generate(cfg2.seed, &spec);
    let stats2 = ClusterSim::new(cfg2).run(horizon, None);
    assert_eq!(stats.finished_at, stats2.finished_at);
    assert_eq!(stats.recoveries.len(), stats2.recoveries.len());
    assert_eq!(stats.net_messages, stats2.net_messages);
}
