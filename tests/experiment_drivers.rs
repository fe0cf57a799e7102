//! Smoke-level runs of every experiment driver (quick mode): each must
//! produce tables and pass its own shape checks.

use subsonic::experiments::{run_experiment, ALL_IDS};

fn run_and_check(id: &str) {
    let r = run_experiment(id, true).unwrap_or_else(|| panic!("unknown id {id}"));
    assert_eq!(r.id, id);
    assert!(!r.tables.is_empty(), "{id}: no tables produced");
    for c in &r.checks {
        assert!(c.pass, "{id}: check '{}' failed: {}", c.name, c.detail);
    }
    // every table renders
    for t in &r.tables {
        assert!(!t.to_csv().is_empty());
        assert!(!t.to_markdown().is_empty());
    }
}

#[test]
fn t1_runs() {
    // hardware-speed check tolerated in debug builds: only structure here
    let r = run_experiment("t1", true).unwrap();
    assert_eq!(r.tables.len(), 3);
    assert!(r.checks[0].pass, "{:?}", r.checks[0]);
}

#[test]
fn fig5_runs() {
    run_and_check("fig5");
}

#[test]
fn fig6_runs() {
    run_and_check("fig6");
}

#[test]
fn fig7_runs() {
    run_and_check("fig7");
}

#[test]
fn fig8_runs() {
    run_and_check("fig8");
}

#[test]
fn fig9_runs() {
    run_and_check("fig9");
}

#[test]
fn fig10_runs() {
    run_and_check("fig10");
}

#[test]
fn fig11_runs() {
    run_and_check("fig11");
}

#[test]
fn fig12_runs() {
    run_and_check("fig12");
}

#[test]
fn fig13_runs() {
    run_and_check("fig13");
}

#[test]
fn hetero_runs() {
    run_and_check("hetero");
}

#[test]
fn mig_runs() {
    run_and_check("mig");
}

#[test]
fn skew_runs() {
    run_and_check("skew");
}

#[test]
fn order_runs() {
    run_and_check("order");
}

#[test]
fn solid_runs() {
    run_and_check("solid");
}

#[test]
fn net_runs() {
    run_and_check("net");
}

#[test]
fn udp_runs() {
    run_and_check("udp");
}

#[test]
fn conv_runs() {
    run_and_check("conv");
}

#[test]
fn acoustic_runs() {
    run_and_check("acoustic");
}

#[test]
fn pipe_runs() {
    run_and_check("pipe");
}

#[test]
fn real_runs() {
    run_and_check("real");
}

#[test]
fn faults_runs() {
    run_and_check("faults");
}

#[test]
fn partition_runs() {
    run_and_check("partition");
}

#[test]
fn scale_runs() {
    run_and_check("scale");
}

#[test]
fn dist_runs() {
    run_and_check("dist");
}

#[test]
fn sched_runs() {
    run_and_check("sched");
}

// "chaos" is registered but not smoke-run here: its soak spins up ~23 real
// runtime meshes and gets a dedicated release-mode stage in scripts/check.sh.

#[test]
fn registry_is_complete() {
    assert_eq!(ALL_IDS.len(), 27);
    assert!(run_experiment("bogus", true).is_none());
}
