//! `dist` — the real multi-process runtime (section 5 made literal).
//!
//! Runs the same 2D channel job three ways through `subsonic-net`: clean
//! over in-memory links, faulted over TCP with a worker killed mid-run and
//! recovered by checkpoint shipping, and over reliable UDP with injected
//! datagram loss. Every variant must reproduce the single-process
//! `ThreadedRunner2` fields *bitwise* — distribution and recovery are
//! required to be invisible in the physics. The faulted run is recorded and
//! replayed without sockets as a determinism check, and its measured
//! recovery cost is compared against the calibrated [`RecoveryModel`]. Each
//! case also prints its anatomy — the job's fixed costs, read off the spans
//! the runtime records — so a fixed cost that creeps back shows here.
//!
//! Worker hosting follows the environment: when `SUBSONIC_NET_WORKER_BIN`
//! is set (the `reproduce` binary points it at itself), the faulted run uses
//! real OS processes over loopback TCP and the kill is a genuine SIGKILL;
//! otherwise workers run as in-process threads over real sockets.

use super::ObsSession;
use crate::report::{Check, ExperimentResult, Table};
use std::sync::Arc;
use std::time::Instant;
use subsonic_exec::{GlobalFields2, Problem2, ThreadedRunner2};
use subsonic_grid::Geometry2;
use subsonic_model::RecoveryModel;
use subsonic_net::supervisor::{replay, ProcessHost};
use subsonic_net::{run_problem, NetConfig, NetKill, NetOutcome, ThreadHost, TransportKind};
use subsonic_obs::{FlightRecorder, TrackData};
use subsonic_solvers::{FluidParams, LatticeBoltzmann2, Solver2};

struct DistCase {
    label: &'static str,
    outcome: NetOutcome,
    wall_s: f64,
    bitwise: bool,
    /// The tracks this case's job recorded (supervisor and workers).
    tracks: Vec<TrackData>,
}

/// Mean duration, ms, of the spans called `name` on the supervisor's track
/// (`workers == false`) or on the workers' tracks; `None` if there is none.
fn mean_span_ms(tracks: &[TrackData], workers: bool, name: &str) -> Option<f64> {
    let spans: Vec<f64> = tracks
        .iter()
        .filter(|t| (t.process == "supervisor") != workers)
        .flat_map(|t| &t.events)
        .filter(|e| e.name == name && !e.is_instant())
        .map(|e| e.dur_us / 1e3)
        .collect();
    (!spans.is_empty()).then(|| spans.iter().sum::<f64>() / spans.len() as f64)
}

fn dist_problem(nx: usize, ny: usize) -> Problem2 {
    let geom = Geometry2::channel(nx, ny, 2);
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1.5e-5;
    Problem2::new(geom, 2, 2, params)
        .with_init(|x, y| (1.0 + 1e-3 * (x as f64) + 2e-3 * (y as f64), 0.0, 0.0))
}

fn run_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("subsonic-dist-{}-{tag}", std::process::id()))
}

fn run_case(
    problem: &Problem2,
    cfg: &NetConfig,
    reference: &GlobalFields2,
    label: &'static str,
    recorder: &FlightRecorder,
) -> Result<DistCase, subsonic_net::NetError> {
    let recorded = recorder.finished_tracks().len();
    let t0 = Instant::now();
    let outcome = if cfg.transport == TransportKind::Tcp
        && std::env::var("SUBSONIC_NET_WORKER_BIN").is_ok()
    {
        let mut host = ProcessHost::from_env(cfg.run_dir.clone())?;
        run_problem(problem, cfg, &mut host, recorder)?
    } else {
        let mut host = ThreadHost::new();
        run_problem(problem, cfg, &mut host, recorder)?
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let bitwise = reference.first_difference(&outcome.fields).is_none();
    Ok(DistCase {
        label,
        outcome,
        wall_s,
        bitwise,
        tracks: recorder.finished_tracks().split_off(recorded),
    })
}

/// The `dist` experiment (see module docs).
pub fn e_dist(quick: bool) -> ExperimentResult {
    e_dist_obs(quick, None)
}

/// [`e_dist`] with an observability session: supervisor and worker tracks
/// land in the session's recorder (workers ship theirs over the control
/// link at shutdown).
pub fn e_dist_obs(quick: bool, obs: Option<&ObsSession>) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "dist",
        "multi-process runtime: sockets, SIGKILL recovery, record/replay",
    );
    // the anatomy table reads spans, so something always records: the
    // session's recorder when it traces, else one of our own
    let own = FlightRecorder::enabled(1024);
    let recorder = obs
        .map(|o| &o.recorder)
        .filter(|r| r.is_enabled())
        .unwrap_or(&own);

    let (nx, ny, steps, interval) = if quick {
        (24, 16, 12, 4)
    } else {
        (48, 32, 24, 6)
    };
    let problem = dist_problem(nx, ny);
    let kill_at = interval + interval / 2; // mid second window
    let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
    let reference = match ThreadedRunner2::new(solver, problem.clone()).run(steps) {
        Ok(res) => res.gather(nx, ny, 1.0),
        Err(e) => {
            r.checks
                .push(Check::new("reference run completes", false, e.to_string()));
            return r;
        }
    };

    let mut cases: Vec<DistCase> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // 1. clean over in-memory links — the distribution baseline
    let cfg = NetConfig::new(TransportKind::Mem, steps, interval, run_dir("mem"));
    match run_case(&problem, &cfg, &reference, "mem clean", recorder) {
        Ok(c) => cases.push(c),
        Err(e) => failures.push(format!("mem clean: {e}")),
    }

    // 2. faulted over TCP, recorded: a worker dies at the kill fence and the
    //    job recovers from the shipped checkpoint
    let mut cfg = NetConfig::new(TransportKind::Tcp, steps, interval, run_dir("tcp"));
    cfg.record = true;
    cfg.kills = vec![NetKill {
        worker: 1,
        at_step: kill_at,
        attempt: 0,
    }];
    let tcp_record = match run_case(&problem, &cfg, &reference, "tcp + SIGKILL", recorder) {
        Ok(mut c) => {
            let record = c.outcome.record.take();
            cases.push(c);
            record
        }
        Err(e) => {
            failures.push(format!("tcp faulted: {e}"));
            None
        }
    };

    // 3. reliable UDP under a FaultPlan loss window: ~every 5th first
    //    transmission dropped, on every link, for the whole run
    let mut cfg = NetConfig::new(TransportKind::Udp, steps, interval, run_dir("udp"));
    cfg.faults =
        subsonic_cluster::fault::FaultPlan::empty().msg_fault(None, None, 0.0, 1e12, 0.2, 0.0, 0.0);
    cfg.chaos_seed = 0xd15c;
    match run_case(&problem, &cfg, &reference, "udp + drops", recorder) {
        Ok(c) => cases.push(c),
        Err(e) => failures.push(format!("udp drops: {e}")),
    }

    // 4. replay the recorded faulted run without sockets
    let replay_ok = match &tcp_record {
        Some(record) => match replay(&problem, record, &run_dir("replay"), recorder) {
            Ok(out) => {
                let bitwise = reference.first_difference(&out.fields).is_none();
                if !bitwise {
                    failures.push("replay diverged from reference fields".into());
                }
                bitwise
            }
            Err(e) => {
                failures.push(format!("replay: {e}"));
                false
            }
        },
        None => false,
    };

    let mut table = Table::new(
        "4 workers (2×2), one tile per worker",
        &[
            "variant",
            "restarts",
            "wall s",
            "recovery ms",
            "bitwise vs 1-process",
        ],
    );
    for c in &cases {
        let rec_ms: f64 = c
            .outcome
            .recovery_latency
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .sum();
        table.push_row(vec![
            c.label.to_string(),
            c.outcome.restarts.to_string(),
            format!("{:.3}", c.wall_s),
            if c.outcome.restarts > 0 {
                format!("{rec_ms:.1}")
            } else {
                "-".into()
            },
            if c.bitwise { "yes" } else { "NO" }.to_string(),
        ]);
    }
    r.tables.push(table);

    // where each job's fixed costs went, from the runtime's own spans
    let mut anatomy = Table::new(
        "job anatomy from the recorded spans, ms",
        &[
            "variant",
            "setup (entry → first Run)",
            "ship (worker dump + SegDone, mean)",
            "persist (cut → disk, mean)",
            "teardown (Done → return)",
        ],
    );
    for c in &cases {
        let ms = |workers, name| {
            mean_span_ms(&c.tracks, workers, name).map_or("-".to_string(), |v| format!("{v:.2}"))
        };
        anatomy.push_row(vec![
            c.label.to_string(),
            ms(false, "job setup"),
            ms(true, "checkpoint ship"),
            ms(false, "cut persist"),
            ms(false, "teardown"),
        ]);
    }
    r.tables.push(anatomy);

    // model comparison: predict the faulted run's extra wall-clock from the
    // clean run's step rate plus the measured detection+restart latency,
    // and compare against what the fault actually cost
    if let (Some(clean), Some(faulted)) = (
        cases.iter().find(|c| c.label == "mem clean"),
        cases.iter().find(|c| c.outcome.restarts > 0),
    ) {
        let step_s = clean.wall_s / steps as f64;
        let fault = faulted.outcome.faults.first();
        let steps_lost = fault.map(|f| f.at_step - f.rollback_step).unwrap_or(0);
        let restart_s: f64 = faulted
            .outcome
            .recovery_latency
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        let model = RecoveryModel {
            checkpoint_cost_s: 0.0, // both runs checkpoint identically
            detection_s: 0.0,       // the pause fence reports synchronously
            restart_s,
            mtbf_s: 1.0,
            fp_rate_per_s: 0.0,
        };
        let predicted_s = model.single_fault_cost_s(steps_lost as f64 * step_s);
        let measured_s = (faulted.wall_s - clean.wall_s).max(0.0);
        let mut t = Table::new(
            "recovery cost vs the calibrated model",
            &["quantity", "seconds"],
        );
        t.push_row(vec![
            "steps recomputed × step time".into(),
            format!("{:.4}", steps_lost as f64 * step_s),
        ]);
        t.push_row(vec![
            "measured detect→resume latency (R)".into(),
            format!("{restart_s:.4}"),
        ]);
        t.push_row(vec![
            "model single-fault cost".into(),
            format!("{predicted_s:.4}"),
        ]);
        t.push_row(vec![
            "measured extra wall-clock".into(),
            format!("{measured_s:.4}"),
        ]);
        r.tables.push(t);
        let ratio = if predicted_s > 0.0 {
            measured_s / predicted_s
        } else {
            f64::NAN
        };
        r.checks.push(Check::new(
            "measured fault cost within 5x of the model's single-fault prediction",
            ratio.is_finite() && (0.2..=5.0).contains(&ratio),
            format!("measured {measured_s:.3}s vs predicted {predicted_s:.3}s (ratio {ratio:.2})"),
        ));
    }

    r.checks.push(Check::new(
        "every transport reproduces the single-process fields bitwise",
        !cases.is_empty() && cases.iter().all(|c| c.bitwise),
        cases
            .iter()
            .map(|c| format!("{}: {}", c.label, if c.bitwise { "ok" } else { "DIVERGED" }))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    r.checks.push(Check::new(
        "SIGKILL mid-run is recovered by checkpoint shipping (restarts == 1)",
        cases.iter().any(|c| c.outcome.restarts == 1 && c.bitwise),
        cases
            .iter()
            .map(|c| format!("{}: {} restarts", c.label, c.outcome.restarts))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    r.checks.push(Check::new(
        "recorded faulted run replays deterministically without sockets",
        replay_ok,
        if replay_ok {
            "per-step hashes, receive digests and final fields all match"
        } else {
            "replay missing or diverged"
        },
    ));
    if !failures.is_empty() {
        r.checks.push(Check::new(
            "all runtime variants completed",
            false,
            failures.join("; "),
        ));
    }
    let hosted = if std::env::var("SUBSONIC_NET_WORKER_BIN").is_ok() {
        "TCP variant ran one OS process per tile (real SIGKILL)"
    } else {
        "SUBSONIC_NET_WORKER_BIN unset: workers hosted on threads over real sockets"
    };
    r.notes.push(hosted.to_string());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_quick_passes_all_checks() {
        let r = e_dist(true);
        assert!(
            r.all_pass(),
            "dist checks failed: {:?}",
            r.checks
                .iter()
                .filter(|c| !c.pass)
                .map(|c| format!("{}: {}", c.name, c.detail))
                .collect::<Vec<_>>()
        );
        assert_eq!(r.tables.len(), 3);
    }
}
