//! End-to-end tests of the distributed runtime: clean runs, kills with
//! checkpoint-shipping recovery, UDP loss, record/replay, and the real
//! thing — OS processes over loopback TCP with a SIGKILL mid-run.
//!
//! Every test asserts *bitwise* equality of the gathered global fields
//! against a single-process `ThreadedRunner2` reference: recovery that is
//! merely "close" is a failed recovery.

use std::path::PathBuf;
use std::sync::Arc;
use subsonic_cluster::fault::FaultPlan;
use subsonic_exec::{Problem2, ThreadedRunner2};
use subsonic_grid::Geometry2;
use subsonic_net::supervisor::{replay, ProcessHost};
use subsonic_net::{run_problem, NetConfig, NetKill, NetMigration, ThreadHost, TransportKind};
use subsonic_obs::FlightRecorder;
use subsonic_solvers::{FluidParams, LatticeBoltzmann2, Solver2};

const NX: usize = 24;
const NY: usize = 16;

fn problem(px: usize, py: usize) -> Problem2 {
    let geom = Geometry2::channel(NX, NY, 2);
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1.5e-5;
    Problem2::new(geom, px, py, params)
        .with_init(|x, y| (1.0 + 1e-3 * (x as f64) + 2e-3 * (y as f64), 0.0, 0.0))
}

fn reference(p: &Problem2, steps: u64) -> subsonic_exec::GlobalFields2 {
    let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
    ThreadedRunner2::new(solver, p.clone())
        .run(steps)
        .expect("reference run")
        .gather(NX, NY, 1.0)
}

fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("subsonic-net-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_threaded(
    p: &Problem2,
    cfg: &NetConfig,
) -> Result<subsonic_net::supervisor::NetOutcome, subsonic_net::NetError> {
    let mut host = ThreadHost::new();
    let recorder = FlightRecorder::disabled();
    run_problem(p, cfg, &mut host, &recorder)
}

#[test]
fn mem_clean_run_matches_threaded_runner_bitwise() {
    let p = problem(2, 2);
    let steps = 12;
    let want = reference(&p, steps);
    let cfg = NetConfig::new(TransportKind::Mem, steps, 4, run_dir("mem-clean"));
    let out = run_threaded(&p, &cfg).expect("clean mem run");
    assert_eq!(out.restarts, 0);
    assert_eq!(want.first_difference(&out.fields), None);
}

#[test]
fn tcp_kill_recovers_bitwise() {
    let p = problem(2, 2);
    let steps = 12;
    let want = reference(&p, steps);
    let mut cfg = NetConfig::new(TransportKind::Tcp, steps, 4, run_dir("tcp-kill"));
    cfg.kills = vec![NetKill {
        worker: 1,
        at_step: 6,
        attempt: 0,
    }];
    let out = run_threaded(&p, &cfg).expect("tcp run with kill");
    assert_eq!(out.restarts, 1);
    assert_eq!(out.faults.len(), 1);
    assert_eq!(out.faults[0].rollback_step, 4);
    assert_eq!(out.recovery_latency.len(), 1);
    assert_eq!(want.first_difference(&out.fields), None);
}

#[test]
fn kill_during_recovery_recovers_bitwise() {
    // the second kill fires on attempt 1 — while the job is replaying the
    // very window the first kill voided
    let p = problem(2, 2);
    let steps = 12;
    let want = reference(&p, steps);
    let mut cfg = NetConfig::new(TransportKind::Tcp, steps, 4, run_dir("tcp-kill2"));
    cfg.kills = vec![
        NetKill {
            worker: 1,
            at_step: 6,
            attempt: 0,
        },
        NetKill {
            worker: 2,
            at_step: 5,
            attempt: 1,
        },
    ];
    let out = run_threaded(&p, &cfg).expect("tcp run with crash during recovery");
    assert_eq!(out.restarts, 2);
    assert_eq!(out.faults.len(), 2);
    assert_eq!(want.first_difference(&out.fields), None);
}

#[test]
fn udp_with_injected_drops_matches_bitwise() {
    let p = problem(2, 2);
    let steps = 8;
    let want = reference(&p, steps);
    let mut cfg = NetConfig::new(TransportKind::Udp, steps, 4, run_dir("udp-drop"));
    // ~every 3rd first transmission vanishes, on every link, for the whole run
    cfg.faults = FaultPlan::empty().msg_fault(None, None, 0.0, 1e12, 0.34, 0.0, 0.0);
    cfg.chaos_seed = 0x5eed;
    let out = run_threaded(&p, &cfg).expect("udp run with drops");
    assert_eq!(out.restarts, 0, "loss must not look like a death");
    assert!(out.chaos[0] > 0, "the loss plan never fired");
    assert_eq!(want.first_difference(&out.fields), None);
}

#[test]
fn live_migration_is_bitwise_and_replays() {
    // a healthy worker's tile moves to a fresh spawn at a commit boundary:
    // no fault, no restart, physics bitwise-preserved — and the recording
    // carries the migration so replay re-executes it
    let p = problem(2, 2);
    let steps = 12;
    let want = reference(&p, steps);
    let mut cfg = NetConfig::new(TransportKind::Tcp, steps, 4, run_dir("mig"));
    cfg.record = true;
    cfg.migrations = vec![NetMigration {
        worker: 1,
        after_step: 4,
    }];
    let out = run_threaded(&p, &cfg).expect("tcp run with migration");
    assert_eq!(out.restarts, 0, "migration is not a fault");
    assert_eq!(out.migrations, 1);
    assert_eq!(out.migration_cost.len(), 1);
    assert_eq!(out.faults.len(), 1, "migration lands in the fault log");
    assert_eq!(want.first_difference(&out.fields), None);

    let record = out.record.as_ref().expect("record present");
    let replay_out = replay(
        &p,
        record,
        &run_dir("mig-replay"),
        &FlightRecorder::disabled(),
    )
    .expect("replay matches recording");
    assert_eq!(replay_out.migrations, 1);
    assert_eq!(out.fields.first_difference(&replay_out.fields), None);
}

#[test]
fn flapping_worker_is_quarantined() {
    // three deaths of the same worker cross the quarantine threshold: the
    // tile degrades onto the host's fallback and the run still finishes
    // bitwise-correct
    let p = problem(2, 2);
    let steps = 12;
    let want = reference(&p, steps);
    let mut cfg = NetConfig::new(TransportKind::Mem, steps, 4, run_dir("quar"));
    cfg.retry.max_restarts = 4;
    cfg.retry.backoff_base_ms = 1; // keep the test fast
    cfg.kills = (0..3)
        .map(|attempt| NetKill {
            worker: 1,
            at_step: 6,
            attempt,
        })
        .collect();
    let out = run_threaded(&p, &cfg).expect("mem run with flapping worker");
    assert_eq!(out.restarts, 3);
    assert_eq!(out.quarantined, vec![1]);
    assert_eq!(want.first_difference(&out.fields), None);
}

#[test]
fn recorded_faulted_run_replays_deterministically() {
    let p = problem(2, 2);
    let steps = 12;
    let mut cfg = NetConfig::new(TransportKind::Tcp, steps, 4, run_dir("rec"));
    cfg.record = true;
    cfg.kills = vec![NetKill {
        worker: 0,
        at_step: 7,
        attempt: 0,
    }];
    let out = run_threaded(&p, &cfg).expect("recorded tcp run");
    let record = out.record.as_ref().expect("record present");
    assert_eq!(record.faults.len(), 1);

    // the recording survives disk
    let path = cfg.run_dir.join("run.record");
    record.save(&path).expect("save record");
    let loaded = subsonic_net::RunRecord::load(&path).expect("load record");
    assert_eq!(&loaded, record);

    // replay without sockets: identical per-step hashes, identical fields
    let replay_out = replay(
        &p,
        &loaded,
        &run_dir("rec-replay"),
        &FlightRecorder::disabled(),
    )
    .expect("replay matches recording");
    assert_eq!(
        out.fields.first_difference(&replay_out.fields),
        None,
        "replay produced different physics"
    );
}

#[test]
fn process_host_sigkill_recovers_bitwise() {
    // the acceptance test: four OS processes over loopback TCP, one of them
    // SIGKILLed mid-run, final fields bitwise-equal to the single-process
    // reference
    let p = problem(2, 2);
    let steps = 12;
    let want = reference(&p, steps);
    let dir = run_dir("proc");
    let mut cfg = NetConfig::new(TransportKind::Tcp, steps, 4, dir.clone());
    cfg.kills = vec![NetKill {
        worker: 2,
        at_step: 6,
        attempt: 0,
    }];
    let mut host = ProcessHost::new(
        PathBuf::from(env!("CARGO_BIN_EXE_net-worker")),
        Vec::new(),
        dir,
    )
    .expect("process host");
    let recorder = FlightRecorder::enabled(4096);
    let out = run_problem(&p, &cfg, &mut host, &recorder).expect("process run with SIGKILL");
    assert_eq!(out.restarts, 1);
    assert_eq!(want.first_difference(&out.fields), None);
    // worker tracks made it back to the supervisor's recorder
    let tracks = recorder.finished_tracks();
    assert!(
        tracks.iter().any(|t| t.process == "net-worker"),
        "expected adopted worker tracks, got {:?}",
        tracks.iter().map(|t| t.process.clone()).collect::<Vec<_>>()
    );
}

#[test]
fn retries_exhausted_is_reported() {
    let p = problem(2, 1);
    let mut cfg = NetConfig::new(TransportKind::Mem, 8, 4, run_dir("budget"));
    cfg.retry.max_restarts = 1;
    // two kills on consecutive attempts of the same window blow the budget
    cfg.kills = vec![
        NetKill {
            worker: 0,
            at_step: 2,
            attempt: 0,
        },
        NetKill {
            worker: 0,
            at_step: 2,
            attempt: 1,
        },
    ];
    let err = run_threaded(&p, &cfg)
        .map(|_| ())
        .expect_err("run must exhaust the restart budget");
    match err {
        subsonic_net::NetError::RetriesExhausted { restarts } => assert_eq!(restarts, 2),
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

#[test]
fn deferred_cut_is_sealed_on_disk_and_is_the_rollback_target() {
    // three windows, a kill in the second: the cut adopted after the first
    // window — written to disk only while the second was already running —
    // must be what the job rolls back to, and the files the job leaves
    // behind must be the final cut, sealed
    let p = problem(2, 2);
    let (steps, interval) = (12, 4);
    let want = reference(&p, steps);
    let dir = run_dir("deferred-cut");
    let mut cfg = NetConfig::new(TransportKind::Mem, steps, interval, dir.clone());
    cfg.record = true;
    cfg.kills = vec![NetKill {
        worker: 2,
        at_step: 6,
        attempt: 0,
    }];
    let out = run_threaded(&p, &cfg).expect("mem run with a kill in the second window");
    assert_eq!(out.restarts, 1);
    assert_eq!(out.faults[0].rollback_step, interval, "the window's start");
    assert_eq!(want.first_difference(&out.fields), None);

    let record = out.record.as_ref().expect("record present");
    assert_eq!(record.final_hashes.len(), 4);
    for (w, &hash) in record.final_hashes.iter().enumerate() {
        // load_dump_bytes verifies the seal
        let on_disk =
            subsonic_exec::checkpoint::load_dump_bytes(&dir.join(format!("ckpt_w{w}.dump")))
                .expect("sealed final checkpoint on disk");
        assert_eq!(
            subsonic_net::record::fnv1a(&on_disk),
            hash,
            "worker {w}: the file is not the final cut"
        );
    }
}
