//! Cross-module tests: the correctness gates count a corrupted reference as
//! a failed operation, and the build settings match the repository's.

use crate::harness::{run_rounds, Meter};
use crate::run::contract_line;
use crate::workloads::{threads_fd3d, threads_lb2d_fine, Case, SerialLb2d, Sim};
use subsonic_obs::FlightRecorder;

#[test]
fn corrupted_reference_is_counted_as_failed_operations() {
    let mut case = threads_lb2d_fine(7, 20);
    let off = FlightRecorder::disabled();
    let mut meter = Meter::untraced();
    let good = run_rounds(0.0, &mut meter, |_, m| case.round(m, &off));
    assert!(good.failures.is_empty(), "{:?}", good.failures);
    assert_eq!(
        good.rounds.len() as u64 + 1,
        good.attempted,
        "one warm-up, the rest timed"
    );

    // flip one bit of one reference value: every round must now fail
    let mut bad = case.reference().clone();
    let x = bad.vx.raw_mut();
    x[x.len() / 2] = f64::from_bits(x[x.len() / 2].to_bits() ^ 1);
    case.set_reference(bad);
    let rounds = run_rounds(0.0, &mut meter, |_, m| case.round(m, &off));
    assert!(rounds.rounds.is_empty());
    assert_eq!(rounds.failures.len() as u64, rounds.attempted);
    assert!(rounds.failures[0].contains("differ from the serial reference"));
    let line = contract_line(
        rounds.failures.is_empty(),
        rounds.attempted,
        rounds.failures.len() as u64,
        std::iter::empty(),
    );
    assert_eq!(line.get("correct"), Some(&crate::json::Value::Bool(false)));
    assert_eq!(
        line.get("failed").and_then(crate::json::Value::as_f64),
        Some(rounds.attempted as f64)
    );
}

#[test]
fn three_d_rounds_verify_and_non_finite_fields_fail() {
    let mut case = threads_fd3d(3, 4);
    let off = FlightRecorder::disabled();
    let mut meter = Meter::untraced();
    let round = case
        .round(&mut meter, &off)
        .expect("3D round verifies against LocalRunner3");
    assert_eq!(round.steps, 4);
    assert_eq!(round.timing.len(), 2, "one StepTiming per tile");
    let mut bad = case.reference().clone();
    bad.rho[0] = f64::NAN;
    case.set_reference(bad);
    assert!(case.round(&mut meter, &off).is_err());
}

#[test]
fn serial_gate_rejects_a_scalar_reference_that_disagrees() {
    let dims = (32, 16);
    let ok = SerialLb2d::new(5, dims, 2);
    assert!(ok.is_ok());
    let problem_fields = |steps| {
        crate::fluid::d2::serial_fields(
            std::sync::Arc::new(subsonic_solvers::LatticeBoltzmann2),
            crate::workloads::channel2(dims.0, dims.1, 1, 1, 5),
            steps,
        )
    };
    let simd = problem_fields(8);
    let drifted = problem_fields(9);
    let err = SerialLb2d::with_reference(5, dims, 2, &simd, &drifted)
        .err()
        .expect("mismatch must fail");
    assert!(err.contains("ScalarReference2"), "{err}");
    assert!(
        crate::fluid::d2::check_fields(&simd, &problem_fields(8)).is_ok(),
        "same seed, same fields"
    );
}

#[test]
fn sim_rounds_repeat_exactly_and_production_covers_its_faults() {
    let off = FlightRecorder::disabled();
    let mut meter = Meter::untraced();
    let mut production = Sim::production20(11, 1500);
    let a = production
        .round(&mut meter, &off)
        .expect("production round");
    let b = production
        .round(&mut meter, &off)
        .expect("production round");
    assert_eq!(a.counts, b.counts, "same seed, same events");
    let count = |name: &str| {
        a.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .expect(name)
    };
    assert!(count("cluster.migrations") >= 1.0);
    assert!(count("cluster.recoveries") >= 1.0);
    assert!(count("cluster.retransmits") >= 1.0);
    let other = Sim::production20(12, 1500)
        .round(&mut meter, &off)
        .expect("another seed");
    assert_ne!(a.counts, other.counts, "the seed reaches the simulator");
}

#[test]
fn unit_fault_plans_inject_the_same_count_for_every_seed() {
    use crate::workloads::{unit_fault_plan, UDP_FAULTS};
    use subsonic_cluster::FaultEvent;
    let total = UDP_FAULTS.loss_steps + UDP_FAULTS.dup_steps + UDP_FAULTS.reorder_steps;
    let mut placements = std::collections::BTreeSet::new();
    for seed in 0..20 {
        let plan = unit_fault_plan(seed, 300, 100..150, &UDP_FAULTS);
        assert_eq!(plan.events.len(), total);
        let mut steps = std::collections::BTreeSet::new();
        let (mut loss, mut dup, mut reorder) = (0, 0, 0);
        for ev in &plan.events {
            let FaultEvent::MsgFault {
                at,
                duration,
                loss: l,
                dup: d,
                reorder: r,
                from_proc,
                ..
            } = ev
            else {
                panic!("only message faults expected");
            };
            assert!(*at >= 1.0 && *at < 300.0 && *duration == 1.0 && from_proc.is_some());
            assert!(
                !(100.0..150.0).contains(at),
                "a window in the replayed steps would fire twice"
            );
            assert!(steps.insert(*at as u64), "two windows on one step");
            loss += usize::from(*l == 1.0);
            dup += usize::from(*d == 1.0);
            reorder += usize::from(*r == 1.0);
        }
        assert_eq!(
            (loss, dup, reorder),
            (
                UDP_FAULTS.loss_steps,
                UDP_FAULTS.dup_steps,
                UDP_FAULTS.reorder_steps
            )
        );
        placements.insert(steps);
        assert_eq!(
            plan,
            unit_fault_plan(seed, 300, 100..150, &UDP_FAULTS),
            "same seed, same plan"
        );
    }
    assert!(placements.len() > 15, "seeds must move the windows");
}

/// `[profile.release]` of a manifest, as trimmed `key = value` lines.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_matches_root() {
    let here = env!("CARGO_MANIFEST_DIR");
    let root = std::fs::read_to_string(format!("{here}/../Cargo.toml")).expect("root manifest");
    let own = std::fs::read_to_string(format!("{here}/Cargo.toml")).expect("own manifest");
    let want = release_profile(&root);
    assert!(!want.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(
        release_profile(&own),
        want,
        "benchmark/Cargo.toml must copy the root [profile.release] verbatim"
    );
    assert!(
        own.lines().any(|l| l.trim() == "[workspace]"),
        "the benchmark is a workspace of its own"
    );
}

#[test]
fn every_seed_yields_a_production_plan_whose_round_verifies() {
    // about one raw draw in seven crashes an empty host or wedges the
    // simulated job (seed 1995 among them); the redraw must absorb that
    let off = FlightRecorder::disabled();
    let mut meter = Meter::untraced();
    for seed in (0..12).chain([27, 32, 68, 119, 163, 1995]) {
        let mut sim = Sim::production20(seed, Sim::PRODUCTION_STEPS);
        let round = sim.round(&mut meter, &off);
        assert!(round.is_ok(), "seed {seed}: {:?}", round.err());
    }
}
