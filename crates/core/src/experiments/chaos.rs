//! `chaos` — soak the real runtime under seeded, randomized fault schedules.
//!
//! Each schedule composes SIGKILLs, datagram loss/duplication/reordering
//! windows, network partitions and live migrations from one seed, runs the
//! same 2D channel job over reliable UDP with thread-hosted workers, and
//! demands the final fields be *bitwise* identical to an unfaulted
//! single-process `ThreadedRunner2` run. The soak also asserts the two
//! properties that make chaos testing trustworthy: regenerating a schedule
//! from its seed yields an identical fault plan, and re-running a faulted
//! seed end-to-end reproduces the identical fault sequence and committed
//! wire-fault counts. Loss-only plans must cause zero spurious respawns —
//! the measured false-positive rate feeds the [`RecoveryModel`]'s fp term,
//! which must then reduce to Young's interval. A dedicated clean-vs-kill
//! pair checks measured recovery cost against the model's single-fault
//! prediction.
//!
//! When `SUBSONIC_CHAOS_ARTIFACTS` names a directory, every schedule's
//! summary lands in `schedules.csv`, and a failing schedule leaves behind
//! `failed_<idx>.seed` plus its `RunRecord` for offline replay.

use super::ObsSession;
use crate::report::{Check, ExperimentResult, Table};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use subsonic_cluster::fault::FaultPlan;
use subsonic_exec::{GlobalFields2, Problem2, ThreadedRunner2};
use subsonic_grid::Geometry2;
use subsonic_model::RecoveryModel;
use subsonic_net::{
    run_problem, ChaosSpec, NetConfig, NetKill, NetMigration, NetOutcome, ThreadHost, TransportKind,
};
use subsonic_obs::FlightRecorder;
use subsonic_solvers::{FluidParams, LatticeBoltzmann2, Solver2};

const NWORKERS: u32 = 4;
/// Schedule classes, cycled by index: every soak covers all of them.
const CLASSES: [&str; 5] = [
    "wire only",
    "kill + loss",
    "partition + kill",
    "migration + wire",
    "everything",
];

/// splitmix64 finaliser — schedule seeds out of the master seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn chaos_problem(nx: usize, ny: usize) -> Problem2 {
    let geom = Geometry2::channel(nx, ny, 2);
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1.5e-5;
    Problem2::new(geom, 2, 2, params)
        .with_init(|x, y| (1.0 + 1e-3 * (x as f64) + 2e-3 * (y as f64), 0.0, 0.0))
}

fn run_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("subsonic-chaos-{}-{tag}", std::process::id()))
}

fn artifacts_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var("SUBSONIC_CHAOS_ARTIFACTS").ok()?);
    std::fs::create_dir_all(&dir).ok()?;
    Some(dir)
}

/// Builds schedule `idx` from the master seed: same `(master, idx)` in,
/// same fault plan out, always.
fn build_schedule(idx: usize, master: u64, steps: u64, interval: u64) -> NetConfig {
    let seed = mix(master ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cfg = NetConfig::new(
        TransportKind::Udp,
        steps,
        interval,
        run_dir(&format!("s{idx}")),
    );
    cfg.record = true;
    cfg.chaos_seed = seed;

    let span = steps as f64;
    let mut wire_window = |plan: FaultPlan, loss: bool| -> FaultPlan {
        let at = rng.gen_range(0.0..span - 2.0);
        let duration = rng.gen_range(2.0..span);
        plan.msg_fault(
            None,
            None,
            at,
            duration,
            if loss { rng.gen_range(0.05..0.30) } else { 0.0 },
            rng.gen_range(0.0..0.5),
            rng.gen_range(0.0..0.5),
        )
    };
    let kill = |rng: &mut SmallRng| NetKill {
        worker: rng.gen_range(0..NWORKERS as usize) as u32,
        at_step: rng.gen_range(1..steps as usize - 1) as u64,
        attempt: 0,
    };
    let partition = |plan: FaultPlan, rng: &mut SmallRng| -> FaultPlan {
        let split = rng.gen_range(1..NWORKERS as usize);
        let (a, b): (Vec<usize>, Vec<usize>) = (0..NWORKERS as usize).partition(|&w| w < split);
        let at = rng.gen_range(0.0..0.06);
        let heal = rng.gen_range(0.08..0.20);
        plan.partition(vec![a, b], at, Some(heal))
    };
    // a commit boundary >= after_step must exist before the run ends, or
    // the migration never fires
    let migration = |rng: &mut SmallRng| NetMigration {
        worker: rng.gen_range(0..NWORKERS as usize) as u32,
        after_step: rng.gen_range(1..(steps - interval + 1) as usize) as u64,
    };

    let mut plan = FaultPlan::empty();
    match idx % CLASSES.len() {
        0 => {
            // wire only: loss + dup + reorder, no process faults
            plan = wire_window(plan, true);
            plan = wire_window(plan, false);
        }
        1 => {
            plan = wire_window(plan, true);
            cfg.kills = vec![kill(&mut rng)];
        }
        2 => {
            plan = partition(plan, &mut rng);
            cfg.kills = vec![kill(&mut rng)];
        }
        3 => {
            plan = wire_window(plan, false);
            cfg.migrations = vec![migration(&mut rng)];
        }
        _ => {
            plan = wire_window(plan, true);
            plan = partition(plan, &mut rng);
            cfg.kills = vec![kill(&mut rng)];
            cfg.migrations = vec![migration(&mut rng)];
        }
    }
    cfg.faults = plan;
    cfg
}

struct SoakRun {
    idx: usize,
    class: &'static str,
    seed: u64,
    outcome: NetOutcome,
    wall_s: f64,
    bitwise: bool,
}

fn run_udp(
    problem: &Problem2,
    cfg: &NetConfig,
    recorder: &FlightRecorder,
) -> Result<(NetOutcome, f64), subsonic_net::NetError> {
    let t0 = Instant::now();
    let mut host = ThreadHost::new();
    let outcome = run_problem(problem, cfg, &mut host, recorder)?;
    Ok((outcome, t0.elapsed().as_secs_f64()))
}

/// Mean of `ds` in milliseconds, `-` when empty.
fn mean_ms(ds: &[Duration]) -> String {
    if ds.is_empty() {
        return "-".into();
    }
    let total: Duration = ds.iter().sum();
    format!("{:.1}", total.as_secs_f64() * 1e3 / ds.len() as f64)
}

/// The `chaos` experiment (see module docs).
pub fn e_chaos(quick: bool) -> ExperimentResult {
    e_chaos_obs(quick, None)
}

/// [`e_chaos`] with an observability session.
pub fn e_chaos_obs(quick: bool, obs: Option<&ObsSession>) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "chaos",
        "soak the runtime under seeded kill/loss/reorder/partition/migration schedules",
    );
    let disabled = FlightRecorder::disabled();
    let recorder = obs.map(|o| &o.recorder).unwrap_or(&disabled);

    let (nx, ny, steps, interval) = (24, 16, 12, 4);
    let nsched = if quick { 20 } else { 25 };
    let master = 0x00c4_a05c_4a05_u64;
    let problem = chaos_problem(nx, ny);
    let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
    let reference: GlobalFields2 = match ThreadedRunner2::new(solver, problem.clone()).run(steps) {
        Ok(res) => res.gather(nx, ny, 1.0),
        Err(e) => {
            r.checks
                .push(Check::new("reference run completes", false, e.to_string()));
            return r;
        }
    };

    // every schedule must regenerate identically from its seed — the fault
    // plan compiles to the same wire spec both times
    let mut regen_ok = true;
    for idx in 0..nsched {
        let a = build_schedule(idx, master, steps, interval);
        let b = build_schedule(idx, master, steps, interval);
        let same = ChaosSpec::compile(&a.faults, a.chaos_seed, NWORKERS)
            == ChaosSpec::compile(&b.faults, b.chaos_seed, NWORKERS)
            && a.kills.len() == b.kills.len()
            && a.migrations.len() == b.migrations.len();
        regen_ok &= same;
    }

    // the soak
    let mut runs: Vec<SoakRun> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for idx in 0..nsched {
        let cfg = build_schedule(idx, master, steps, interval);
        let class = CLASSES[idx % CLASSES.len()];
        match run_udp(&problem, &cfg, recorder) {
            Ok((outcome, wall_s)) => {
                let bitwise = reference.first_difference(&outcome.fields).is_none();
                if !bitwise {
                    failures.push(format!("schedule {idx} ({class}) diverged"));
                    if let Some(dir) = artifacts_dir() {
                        let _ = std::fs::write(
                            dir.join(format!("failed_{idx}.seed")),
                            format!("master={master:#x} idx={idx} seed={:#x}\n", cfg.chaos_seed),
                        );
                        if let Some(record) = &outcome.record {
                            let _ = record.save(&dir.join(format!("failed_{idx}.record")));
                        }
                    }
                }
                runs.push(SoakRun {
                    idx,
                    class,
                    seed: cfg.chaos_seed,
                    outcome,
                    wall_s,
                    bitwise,
                });
            }
            Err(e) => {
                failures.push(format!("schedule {idx} ({class}): {e}"));
                if let Some(dir) = artifacts_dir() {
                    let _ = std::fs::write(
                        dir.join(format!("failed_{idx}.seed")),
                        format!(
                            "master={master:#x} idx={idx} seed={:#x} error={e}\n",
                            cfg.chaos_seed
                        ),
                    );
                }
            }
        }
    }

    // determinism under faults: re-run one kill+loss schedule end-to-end
    // and demand the identical fault sequence and committed wire counts
    let rerun_ok = {
        let idx = 1; // class "kill + loss"
        let cfg = build_schedule(idx, master, steps, interval);
        match (
            runs.iter().find(|s| s.idx == idx),
            run_udp(&problem, &cfg, recorder),
        ) {
            (Some(first), Ok((again, _))) => {
                let faults_same = first.outcome.faults == again.faults;
                // the partition slot is wall-clock gated; loss/dup/reorder
                // committed totals must be exact
                let chaos_same = first.outcome.chaos[..3] == again.chaos[..3];
                let fields_same = first
                    .outcome
                    .fields
                    .first_difference(&again.fields)
                    .is_none();
                if !(faults_same && chaos_same && fields_same) {
                    failures.push(format!(
                        "re-run of schedule {idx} diverged (faults {faults_same}, wire counts {chaos_same}, fields {fields_same})"
                    ));
                }
                faults_same && chaos_same && fields_same
            }
            (_, Err(e)) => {
                failures.push(format!("re-run of schedule 1: {e}"));
                false
            }
            _ => false,
        }
    };

    // recovery-cost model check on a dedicated clean-vs-kill pair (the soak
    // walls are too noisy: wire faults stretch them on purpose)
    let mut model_check: Option<Check> = None;
    let mut fp_check: Option<Check> = None;
    {
        let clean_cfg = NetConfig::new(TransportKind::Udp, steps, interval, run_dir("clean"));
        let mut kill_cfg = NetConfig::new(TransportKind::Udp, steps, interval, run_dir("kill"));
        kill_cfg.kills = vec![NetKill {
            worker: 1,
            at_step: interval + interval / 2,
            attempt: 0,
        }];
        match (
            run_udp(&problem, &clean_cfg, recorder),
            run_udp(&problem, &kill_cfg, recorder),
        ) {
            (Ok((_, clean_wall)), Ok((killed, killed_wall))) => {
                let step_s = clean_wall / steps as f64;
                let steps_lost = killed
                    .faults
                    .first()
                    .map(|f| f.at_step - f.rollback_step)
                    .unwrap_or(0);
                let restart_s: f64 = killed
                    .recovery_latency
                    .iter()
                    .map(|d| d.as_secs_f64())
                    .sum();
                // the measured false-positive rate: spurious respawns per
                // wire-only soak second (must be zero)
                let wire_only: Vec<&SoakRun> =
                    runs.iter().filter(|s| s.class == "wire only").collect();
                let spurious: u32 = wire_only.iter().map(|s| s.outcome.restarts).sum();
                let wire_wall: f64 = wire_only.iter().map(|s| s.wall_s).sum();
                let fp_rate = if wire_wall > 0.0 {
                    f64::from(spurious) / wire_wall
                } else {
                    f64::NAN
                };
                let model = RecoveryModel {
                    checkpoint_cost_s: 0.01,
                    detection_s: 0.0, // the pause fence reports synchronously
                    restart_s,
                    mtbf_s: 100.0,
                    fp_rate_per_s: fp_rate,
                };
                let predicted_s = model.single_fault_cost_s(steps_lost as f64 * step_s);
                let measured_s = (killed_wall - clean_wall).max(0.0);
                let ratio = if predicted_s > 0.0 {
                    measured_s / predicted_s
                } else {
                    f64::NAN
                };
                model_check = Some(Check::new(
                    "measured kill recovery within 5x of the RecoveryModel prediction",
                    ratio.is_finite() && (0.2..=5.0).contains(&ratio),
                    format!(
                        "measured {measured_s:.3}s vs predicted {predicted_s:.3}s (ratio {ratio:.2})"
                    ),
                ));
                // with fp measured at zero the model's optimal interval must
                // reduce to Young's sqrt(2*C*MTBF)
                let young = (2.0 * model.checkpoint_cost_s * model.mtbf_s).sqrt();
                let opt = model.optimal_interval_s();
                fp_check = Some(Check::new(
                    "zero measured false positives: model fp term reduces to Young's interval",
                    fp_rate == 0.0 && (opt - young).abs() < 1e-9,
                    format!(
                        "fp rate {fp_rate:.4}/s over {wire_wall:.2}s wire-only soak; optimal {opt:.3}s vs Young {young:.3}s"
                    ),
                ));
            }
            (a, b) => {
                let mut msgs = Vec::new();
                if let Err(e) = a {
                    msgs.push(format!("clean: {e}"));
                }
                if let Err(e) = b {
                    msgs.push(format!("killed: {e}"));
                }
                failures.push(format!("model pair: {}", msgs.join("; ")));
            }
        }
    }

    // schedule table + CSV artifact
    let mut table = Table::new(
        "soak schedules (UDP, 4 thread-hosted workers, 2×2)",
        &[
            "idx", "class", "seed", "restarts", "migr", "soft", "loss", "dup", "reord", "part",
            "bitwise", "migr ms",
        ],
    );
    let mut csv = String::from(
        "idx,seed,class,restarts,migrations,window_retries,chaos_loss,chaos_dup,chaos_reorder,chaos_partition,bitwise\n",
    );
    for s in &runs {
        let o = &s.outcome;
        table.push_row(vec![
            s.idx.to_string(),
            s.class.to_string(),
            format!("{:08x}", s.seed as u32),
            o.restarts.to_string(),
            o.migrations.to_string(),
            o.window_retries.to_string(),
            o.chaos[0].to_string(),
            o.chaos[1].to_string(),
            o.chaos[2].to_string(),
            o.chaos[3].to_string(),
            if s.bitwise { "yes" } else { "NO" }.to_string(),
            mean_ms(&o.migration_cost),
        ]);
        csv.push_str(&format!(
            "{},{:#x},{},{},{},{},{},{},{},{},{}\n",
            s.idx,
            s.seed,
            s.class.replace(' ', "_"),
            o.restarts,
            o.migrations,
            o.window_retries,
            o.chaos[0],
            o.chaos[1],
            o.chaos[2],
            o.chaos[3],
            s.bitwise
        ));
    }
    r.tables.push(table);
    if let Some(dir) = artifacts_dir() {
        let _ = std::fs::write(dir.join("schedules.csv"), csv);
        r.notes
            .push(format!("schedule summaries in {}", dir.display()));
    }

    let wire_injected: u64 = runs
        .iter()
        .map(|s| s.outcome.chaos[..3].iter().sum::<u64>())
        .sum();
    let kills_recovered: u32 = runs.iter().map(|s| s.outcome.restarts).sum();
    let migrations_done: u32 = runs.iter().map(|s| s.outcome.migrations).sum();
    r.notes.push(format!(
        "{} schedules: {wire_injected} wire faults injected, {kills_recovered} restarts, {migrations_done} migrations",
        runs.len()
    ));

    r.notes.push(
        "`migr ms` is the mean wall time of a schedule's live migrations, \
         retire to mesh-ready; it is reported, not checked."
            .into(),
    );
    r.checks.push(Check::new(
        "every fault schedule reproduces the unfaulted fields bitwise",
        runs.len() == nsched && runs.iter().all(|s| s.bitwise),
        format!(
            "{}/{} schedules bitwise-identical to the single-process reference",
            runs.iter().filter(|s| s.bitwise).count(),
            nsched
        ),
    ));
    let wire_only_spurious: u32 = runs
        .iter()
        .filter(|s| s.class == "wire only")
        .map(|s| s.outcome.restarts)
        .sum();
    r.checks.push(Check::new(
        "wire-only plans cause zero spurious worker respawns",
        runs.iter().any(|s| s.class == "wire only") && wire_only_spurious == 0,
        format!("{wire_only_spurious} spurious respawns across wire-only schedules"),
    ));
    r.checks.push(Check::new(
        "regenerating every schedule from its seed yields an identical fault plan",
        regen_ok,
        "compiled wire specs and process-fault schedules compared",
    ));
    r.checks.push(Check::new(
        "re-running a faulted seed reproduces the identical fault sequence",
        rerun_ok,
        "fault records, committed loss/dup/reorder counts and fields all equal",
    ));
    if let Some(c) = model_check {
        r.checks.push(c);
    }
    if let Some(c) = fp_check {
        r.checks.push(c);
    }
    if !failures.is_empty() {
        r.checks.push(Check::new(
            "all soak schedules completed",
            false,
            failures.join("; "),
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_regenerate_identically_and_cover_all_classes() {
        let steps = 12;
        let mut seen = [false; CLASSES.len()];
        for idx in 0..20 {
            let a = build_schedule(idx, 0xfeed, steps, 4);
            let b = build_schedule(idx, 0xfeed, steps, 4);
            assert_eq!(
                ChaosSpec::compile(&a.faults, a.chaos_seed, NWORKERS),
                ChaosSpec::compile(&b.faults, b.chaos_seed, NWORKERS),
                "schedule {idx} did not regenerate"
            );
            assert_eq!(a.kills.len(), b.kills.len());
            assert_eq!(a.migrations.len(), b.migrations.len());
            for (x, y) in a.kills.iter().zip(&b.kills) {
                assert_eq!(
                    (x.worker, x.at_step, x.attempt),
                    (y.worker, y.at_step, y.attempt)
                );
            }
            seen[idx % CLASSES.len()] = true;
            // kills must land strictly inside the run so the fence can fire
            for k in &a.kills {
                assert!(k.at_step >= 1 && k.at_step < steps);
                assert!(k.worker < NWORKERS);
            }
            for m in &a.migrations {
                assert!(m.after_step >= 1 && m.after_step < steps);
                assert!(m.worker < NWORKERS);
            }
        }
        assert!(seen.iter().all(|&s| s), "a schedule class never appeared");
        // different master seed, different plans (wire specs keyed off seed)
        let a = build_schedule(0, 0xfeed, steps, 4);
        let c = build_schedule(0, 0xbeef, steps, 4);
        assert_ne!(a.chaos_seed, c.chaos_seed);
    }
}
