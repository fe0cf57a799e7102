//! Machine-readable perf baseline — the `reproduce bench` subcommand.
//!
//! Times the hot paths the paper's efficiency analysis cares about (T_1 node
//! rates for LB/FD × 2D/3D, halo pack/unpack throughput, threaded-runner
//! steps per second) and emits a flat JSON report. Successive PRs check in
//! `BENCH_<PR>.json` files built from these reports, so performance claims
//! in the history are measured on a recorded machine state rather than
//! asserted.
//!
//! Methodology: each measurement calibrates an iteration count to a minimum
//! batch duration, then takes the fastest of three batches (the noise floor
//! of a loaded machine is one-sided — interference only slows a batch down).

use std::sync::Arc;
use std::time::Instant;
use subsonic_cluster::host::HostKind;
use subsonic_cluster::{ClusterConfig, ClusterSim, WorkloadSpec};
use subsonic_exec::{
    LocalRunner2, LocalRunner3, Problem2, Problem3, StepTiming, ThreadedRunner2, ThreadedRunner3,
};
use subsonic_grid::halo::{message_len2, message_len3, pack2, pack3, unpack2, unpack3};
use subsonic_grid::{Face2, Face3, Geometry2, Geometry3, PaddedGrid2, PaddedGrid3};
use subsonic_obs::{roofline, MetricsRegistry};
use subsonic_solvers::{
    kernels, FiniteDifference2, FiniteDifference3, FluidParams, LatticeBoltzmann2,
    LatticeBoltzmann3, ScalarReference2, ScalarReference3, Solver2, Solver3,
};

/// One measured rate.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Stable key, e.g. `node_rate_2d_lb`.
    pub name: String,
    /// The measured rate (higher is better).
    pub value: f64,
    /// Unit of `value`, e.g. `nodes/s`.
    pub unit: String,
}

/// Seconds per call of `f`: calibrate batch size to `min_time`, then best of
/// three batches.
fn secs_per_iter(mut f: impl FnMut(), min_time: f64) -> f64 {
    f(); // warm-up (first call touches cold caches / spawns threads)
    let mut iters: u64 = 1;
    let dt = loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= min_time {
            break dt;
        }
        let grow = (min_time / dt.max(1e-9) * 1.2).ceil() as u64;
        iters = (iters * 2).max(iters.saturating_mul(grow)).max(iters + 1);
    };
    let mut best = dt;
    for _ in 0..2 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best / iters as f64
}

fn params() -> FluidParams {
    let mut p = FluidParams::lattice_units(0.05);
    p.body_force[0] = 1e-6;
    p
}

fn node_rates_2d(
    out: &mut Vec<PerfEntry>,
    metrics: Option<&MetricsRegistry>,
    min_time: f64,
    side: usize,
) {
    // `simd` is the default vectorized/SoA-kernel path; `scalar` wraps the
    // same solver in [`ScalarReference2`] so `compute` routes to the scalar
    // reference kernels. Their ratio is the measured SIMD speedup (the two
    // paths are bitwise identical, so it is a pure code-generation delta).
    for (label, simd, scalar) in [
        (
            "lb",
            Arc::new(LatticeBoltzmann2) as Arc<dyn Solver2>,
            Arc::new(ScalarReference2(LatticeBoltzmann2)) as Arc<dyn Solver2>,
        ),
        (
            "fd",
            Arc::new(FiniteDifference2) as Arc<dyn Solver2>,
            Arc::new(ScalarReference2(FiniteDifference2)) as Arc<dyn Solver2>,
        ),
    ] {
        let nodes = (side * side) as f64;
        for (suffix, solver) in [("_simd", simd), ("_scalar", scalar)] {
            let problem = Problem2::new(Geometry2::channel(side, side, 2), 1, 1, params());
            let mut runner = LocalRunner2::new(solver, problem);
            runner.run(2);
            let spi = secs_per_iter(|| runner.step(), min_time);
            let rate = nodes / spi;
            if suffix == "_simd" {
                // continuity with the pre-SIMD trajectory: the unsuffixed
                // name keeps tracking the default (now vectorized) path
                out.push(PerfEntry {
                    name: format!("node_rate_2d_{label}"),
                    value: rate,
                    unit: "nodes/s".into(),
                });
                if let Some(reg) = metrics {
                    let prof = match label {
                        "lb" => roofline::profiles::D2Q9_BGK,
                        _ => roofline::profiles::FD2_STEP,
                    };
                    prof.at_rate(rate).publish(reg);
                }
            }
            out.push(PerfEntry {
                name: format!("node_rate_2d_{label}{suffix}"),
                value: rate,
                unit: "nodes/s".into(),
            });
        }
    }
}

fn node_rates_3d(
    out: &mut Vec<PerfEntry>,
    metrics: Option<&MetricsRegistry>,
    min_time: f64,
    side: usize,
) {
    for (label, simd, scalar) in [
        (
            "lb",
            Arc::new(LatticeBoltzmann3) as Arc<dyn Solver3>,
            Arc::new(ScalarReference3(LatticeBoltzmann3)) as Arc<dyn Solver3>,
        ),
        (
            "fd",
            Arc::new(FiniteDifference3) as Arc<dyn Solver3>,
            Arc::new(ScalarReference3(FiniteDifference3)) as Arc<dyn Solver3>,
        ),
    ] {
        let nodes = (side * side * side) as f64;
        for (suffix, solver) in [("_simd", simd), ("_scalar", scalar)] {
            let problem = Problem3::new(Geometry3::duct(side, side, side, 2), 1, 1, 1, params());
            let mut runner = LocalRunner3::new(solver, problem);
            runner.run(1);
            let spi = secs_per_iter(|| runner.step(), min_time);
            let rate = nodes / spi;
            if suffix == "_simd" {
                out.push(PerfEntry {
                    name: format!("node_rate_3d_{label}"),
                    value: rate,
                    unit: "nodes/s".into(),
                });
                if let Some(reg) = metrics {
                    let prof = match label {
                        "lb" => roofline::profiles::D3Q15_BGK,
                        _ => roofline::profiles::FD3_STEP,
                    };
                    prof.at_rate(rate).publish(reg);
                }
            }
            out.push(PerfEntry {
                name: format!("node_rate_3d_{label}{suffix}"),
                value: rate,
                unit: "nodes/s".into(),
            });
        }
    }
}

fn halo_2d(out: &mut Vec<PerfEntry>, min_time: f64, side: usize) {
    let grid = PaddedGrid2::from_fn(side, side, 4, |i, j| (i * 31 + j) as f64);
    for w in [2usize, 4] {
        let len: usize = Face2::ALL
            .iter()
            .map(|&f| message_len2(side, side, f, w))
            .sum();
        let mut buf: Vec<f64> = Vec::with_capacity(len);
        let spi = secs_per_iter(
            || {
                buf.clear();
                for f in Face2::ALL {
                    pack2(&grid, f, w, &mut buf);
                }
                std::hint::black_box(buf.len());
            },
            min_time,
        );
        out.push(PerfEntry {
            name: format!("halo2_pack_w{w}"),
            value: len as f64 / spi,
            unit: "doubles/s".into(),
        });
        if w == 2 {
            let mut dst = grid.clone();
            let mut buf: Vec<f64> = Vec::with_capacity(len);
            let spi = secs_per_iter(
                || {
                    buf.clear();
                    for f in Face2::ALL {
                        pack2(&grid, f.opposite(), w, &mut buf);
                    }
                    let mut at = 0;
                    for f in Face2::ALL {
                        at += unpack2(&mut dst, f, w, &buf[at..]);
                    }
                    std::hint::black_box(at);
                },
                min_time,
            );
            out.push(PerfEntry {
                name: format!("halo2_roundtrip_w{w}"),
                value: len as f64 / spi,
                unit: "doubles/s".into(),
            });
        }
    }
}

fn halo_3d(out: &mut Vec<PerfEntry>, min_time: f64, side: usize) {
    let grid = PaddedGrid3::from_fn(side, side, side, 4, |i, j, k| (i * 31 + j * 7 + k) as f64);
    let w = 2usize;
    let len: usize = Face3::ALL
        .iter()
        .map(|&f| message_len3(side, side, side, f, w))
        .sum();
    let mut buf: Vec<f64> = Vec::with_capacity(len);
    let spi = secs_per_iter(
        || {
            buf.clear();
            for f in Face3::ALL {
                pack3(&grid, f, w, &mut buf);
            }
            std::hint::black_box(buf.len());
        },
        min_time,
    );
    out.push(PerfEntry {
        name: format!("halo3_pack_w{w}"),
        value: len as f64 / spi,
        unit: "doubles/s".into(),
    });
    let mut dst = grid.clone();
    let mut buf: Vec<f64> = Vec::with_capacity(len);
    let spi = secs_per_iter(
        || {
            buf.clear();
            for f in Face3::ALL {
                pack3(&grid, f.opposite(), w, &mut buf);
            }
            let mut at = 0;
            for f in Face3::ALL {
                at += unpack3(&mut dst, f, w, &buf[at..]);
            }
            std::hint::black_box(at);
        },
        min_time,
    );
    out.push(PerfEntry {
        name: format!("halo3_roundtrip_w{w}"),
        value: len as f64 / spi,
        unit: "doubles/s".into(),
    });
}

fn threaded_runners(
    out: &mut Vec<PerfEntry>,
    metrics: Option<&MetricsRegistry>,
    side2: usize,
    steps2: u64,
    side3: usize,
    steps3: u64,
) {
    // 4 worker threads each: on a box with fewer cores this oversubscribes,
    // which `benchmark/`'s P = 2 workloads do not (DESIGN.md, "Compute/halo
    // overlap").
    let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
    let problem = Problem2::new(Geometry2::channel(side2, side2, 2), 2, 2, params());
    let runner = ThreadedRunner2::new(solver, problem);
    // warm-up: first run pays thread spawn + page faults
    runner.run(2).expect("threaded2 warm-up failed");
    let t0 = Instant::now();
    let outcome = runner.run(steps2).expect("threaded2 bench run failed");
    out.push(PerfEntry {
        name: "threaded2_lb_2x2".into(),
        value: steps2 as f64 / t0.elapsed().as_secs_f64(),
        unit: "steps/s".into(),
    });
    publish_timing(metrics, &outcome.timing, "exec.threaded2");

    let solver: Arc<dyn Solver3> = Arc::new(LatticeBoltzmann3);
    let problem = Problem3::new(Geometry3::duct(side3, side3, side3, 2), 2, 2, 1, params());
    let runner = ThreadedRunner3::new(solver, problem);
    runner.run(1).expect("threaded3 warm-up failed");
    let t0 = Instant::now();
    let outcome = runner.run(steps3).expect("threaded3 bench run failed");
    out.push(PerfEntry {
        name: "threaded3_lb_2x2x1".into(),
        value: steps3 as f64 / t0.elapsed().as_secs_f64(),
        unit: "steps/s".into(),
    });
    publish_timing(metrics, &outcome.timing, "exec.threaded3");
}

/// Publishes the summed per-tile timing of a threaded run under `prefix`.
fn publish_timing(metrics: Option<&MetricsRegistry>, timing: &[(usize, StepTiming)], prefix: &str) {
    if let Some(reg) = metrics {
        let mut total = StepTiming::default();
        for (_, t) in timing {
            total.merge(t);
        }
        total.publish(reg, prefix);
    }
}

fn cluster_sim(out: &mut Vec<PerfEntry>, steps: u64) {
    // Discrete-event engine throughput on the section-7 measurement run:
    // a 20-process LB job on the heterogeneous paper cluster, rendezvous
    // step-coupling and the shared-bus collision model both active.
    let workload = WorkloadSpec::new_2d(
        subsonic_solvers::MethodKind::LatticeBoltzmann,
        750,
        600,
        5,
        4,
    );
    let mut sim = ClusterSim::new(ClusterConfig::measurement(workload));
    let t0 = Instant::now();
    sim.run(1.0e9, Some(steps));
    let dt = t0.elapsed().as_secs_f64();
    out.push(PerfEntry {
        name: "cluster_sim_events".into(),
        value: sim.events_processed() as f64 / dt,
        unit: "events/s".into(),
    });
}

fn cluster_scale(out: &mut Vec<PerfEntry>, quick: bool) {
    // Engine throughput at cluster sizes far past the paper's pool (the
    // `scale` experiment's mid-size point): one process per host on a
    // homogeneous pool, weak scaling, both topologies. Guards the calendar
    // queue's synchronised-burst path, which the 20-process probe above
    // never exercises.
    let hosts = if quick { 64 } else { 1024 };
    let px = (hosts as f64).sqrt().round() as usize;
    let py = hosts / px;
    for (name, switched) in [
        ("scale_events_per_s_shared", false),
        ("scale_events_per_s_switched", true),
    ] {
        let w = WorkloadSpec::new_2d(
            subsonic_solvers::MethodKind::LatticeBoltzmann,
            30 * px,
            30 * py,
            px,
            py,
        );
        let mut cfg = ClusterConfig::measurement(w);
        cfg.hosts = vec![HostKind::Hp715_50; hosts];
        if switched {
            cfg.net = cfg.net.switched();
        }
        let mut sim = ClusterSim::new(cfg);
        let t0 = Instant::now();
        sim.run(f64::INFINITY, Some(5));
        let dt = t0.elapsed().as_secs_f64();
        out.push(PerfEntry {
            name: name.into(),
            value: sim.events_processed() as f64 / dt,
            unit: "events/s".into(),
        });
    }
}

fn fault_recovery(out: &mut Vec<PerfEntry>, quick: bool) {
    // The recovery-cost vs checkpoint-interval curve of the `faults`
    // experiment (simulated seconds, deterministic — not wall-clock), plus
    // the model-agreement figure the acceptance bar tracks.
    let sweep = subsonic::experiments::recovery_sweep(quick);
    for (p, label) in sweep.points.iter().zip(["tight", "mid", "loose"]) {
        out.push(PerfEntry {
            name: format!("recovery_interval_{label}"),
            value: p.interval_s,
            unit: "s".into(),
        });
        out.push(PerfEntry {
            name: format!("recovery_cost_{label}"),
            value: p.sim_extra_s,
            unit: "s".into(),
        });
    }
    out.push(PerfEntry {
        name: "recovery_model_err_max".into(),
        value: sweep.max_rel_err(),
        unit: "fraction".into(),
    });
    out.push(PerfEntry {
        name: "recovery_opt_interval".into(),
        value: sweep.model.optimal_interval_s(),
        unit: "s".into(),
    });
}

fn failure_detection(out: &mut Vec<PerfEntry>, quick: bool) {
    // Detection latencies from the `partition` experiment's real-crash leg
    // (simulated seconds, deterministic). Lower is better: a regression here
    // means the probe schedule or the phi crossing got slower.
    let study = subsonic::experiments::partition_study(quick);
    out.push(PerfEntry {
        name: "detect_latency_fixed".into(),
        value: study.fixed_detect_s,
        unit: "s".into(),
    });
    out.push(PerfEntry {
        name: "detect_latency_accrual".into(),
        value: study.accrual_detect_s,
        unit: "s".into(),
    });
}

fn sched_replay(out: &mut Vec<PerfEntry>, quick: bool) {
    // The job-stream scheduler's replay engine: wall throughput of a full
    // multi-tenant heavy-traffic replay (jobs per wall-second, EASY
    // backfill — the discipline with the most per-dispatch work), plus the
    // deterministic simulated makespans of FIFO and backfill on the same
    // trace. The makespans are model outputs, not machine timings: any drift
    // is a scheduler behaviour change.
    use subsonic_sched::{JobTrace, PolicyKind, SchedConfig, TenantSpec, TraceConfig};
    let jobs = if quick { 2_000 } else { 20_000 };
    let trace = JobTrace::generate(&TraceConfig {
        tenants: vec![
            TenantSpec {
                weight: 4.0,
                ..TenantSpec::light(0.05)
            },
            TenantSpec::light(0.03),
            TenantSpec::batch(0.014),
        ],
        jobs,
        seed: 0x5EED_0009,
    });
    let t0 = Instant::now();
    let backfill = subsonic_sched::run(
        &trace,
        &SchedConfig::paper_pool(PolicyKind::EasyBackfill, 1),
    );
    let dt = t0.elapsed().as_secs_f64();
    let fifo = subsonic_sched::run(&trace, &SchedConfig::paper_pool(PolicyKind::Fifo, 1));
    out.push(PerfEntry {
        name: "sched_jobs_per_s".into(),
        value: jobs as f64 / dt,
        unit: "jobs/s".into(),
    });
    out.push(PerfEntry {
        name: "sched_makespan_fifo".into(),
        value: fifo.makespan_s,
        unit: "s".into(),
    });
    out.push(PerfEntry {
        name: "sched_makespan_backfill".into(),
        value: backfill.makespan_s,
        unit: "s".into(),
    });
}

fn chaos_runtime(out: &mut Vec<PerfEntry>, quick: bool) {
    // Real-runtime chaos costs over loopback TCP with thread-hosted workers:
    // the detect→resume latency of one SIGKILL recovery and the wall cost of
    // one live migration at a commit boundary. Wall-clock seconds, lower is
    // better: a regression means checkpoint shipping, the mesh rebuild or
    // the pause-fence handshake got slower.
    use subsonic_exec::Problem2;
    use subsonic_grid::Geometry2;
    use subsonic_net::{run_problem, NetConfig, NetKill, NetMigration, ThreadHost, TransportKind};
    use subsonic_obs::FlightRecorder;
    use subsonic_solvers::FluidParams;

    let (nx, ny, steps, interval) = if quick {
        (24, 16, 12, 4)
    } else {
        (48, 32, 16, 4)
    };
    let geom = Geometry2::channel(nx, ny, 2);
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1.5e-5;
    let problem = Problem2::new(geom, 2, 2, params)
        .with_init(|x, y| (1.0 + 1e-3 * (x as f64) + 2e-3 * (y as f64), 0.0, 0.0));
    let dir = |tag: &str| {
        std::env::temp_dir().join(format!("subsonic-bench-chaos-{}-{tag}", std::process::id()))
    };
    let recorder = FlightRecorder::disabled();

    let mut cfg = NetConfig::new(TransportKind::Tcp, steps, interval, dir("kill"));
    cfg.kills = vec![NetKill {
        worker: 1,
        at_step: interval + interval / 2,
        attempt: 0,
    }];
    let mut host = ThreadHost::new();
    if let Ok(outcome) = run_problem(&problem, &cfg, &mut host, &recorder) {
        let n = outcome.recovery_latency.len().max(1) as f64;
        out.push(PerfEntry {
            name: "chaos_recovery_latency_mean".into(),
            value: outcome
                .recovery_latency
                .iter()
                .map(|d| d.as_secs_f64())
                .sum::<f64>()
                / n,
            unit: "s".into(),
        });
    }

    let mut cfg = NetConfig::new(TransportKind::Tcp, steps, interval, dir("mig"));
    cfg.migrations = vec![NetMigration {
        worker: 1,
        after_step: interval,
    }];
    let mut host = ThreadHost::new();
    if let Ok(outcome) = run_problem(&problem, &cfg, &mut host, &recorder) {
        let n = outcome.migration_cost.len().max(1) as f64;
        out.push(PerfEntry {
            name: "chaos_migration_cost".into(),
            value: outcome
                .migration_cost
                .iter()
                .map(|d| d.as_secs_f64())
                .sum::<f64>()
                / n,
            unit: "s".into(),
        });
    }
}

/// Runs the full suite. `quick` shrinks problem sizes and batch times for
/// smoke-testing the harness itself; baseline numbers use `quick = false`.
pub fn run_suite(quick: bool) -> Vec<PerfEntry> {
    run_suite_obs(quick, None)
}

/// [`run_suite`] with a metrics registry attached: every measured rate is
/// additionally published as a `bench.*` gauge, and the threaded runners
/// publish their per-step timing breakdown (`exec.threaded{2,3}.*`). This is
/// what `reproduce bench` uses to emit `METRICS.json`.
pub fn run_suite_obs(quick: bool, metrics: Option<&MetricsRegistry>) -> Vec<PerfEntry> {
    let mut out = Vec::new();
    let min_time = if quick { 0.02 } else { 0.4 };
    let (side2, side3) = if quick { (48, 12) } else { (128, 28) };
    let halo_side2 = if quick { 64 } else { 256 };
    let halo_side3 = if quick { 12 } else { 32 };
    let (t2_steps, t3_steps) = if quick { (10, 4) } else { (200, 40) };
    node_rates_2d(&mut out, metrics, min_time, side2);
    node_rates_3d(&mut out, metrics, min_time, side3);
    halo_2d(&mut out, min_time, halo_side2);
    halo_3d(&mut out, min_time, halo_side3);
    threaded_runners(
        &mut out,
        metrics,
        if quick { 48 } else { 128 },
        t2_steps,
        if quick { 12 } else { 24 },
        t3_steps,
    );
    cluster_sim(&mut out, if quick { 20 } else { 400 });
    cluster_scale(&mut out, quick);
    fault_recovery(&mut out, quick);
    failure_detection(&mut out, quick);
    sched_replay(&mut out, quick);
    chaos_runtime(&mut out, quick);
    if let Some(reg) = metrics {
        for e in &out {
            reg.gauge_set(&format!("bench.{}", e.name), e.value, static_unit(&e.unit));
        }
    }
    out
}

/// Maps the suite's unit strings onto the registry's `'static` units.
fn static_unit(unit: &str) -> &'static str {
    match unit {
        "nodes/s" => "nodes/s",
        "doubles/s" => "doubles/s",
        "steps/s" => "steps/s",
        "events/s" => "events/s",
        "jobs/s" => "jobs/s",
        "s" => "s",
        "fraction" => "fraction",
        _ => "",
    }
}

/// Formats entries as the flat JSON document the `BENCH_*.json` trajectory
/// uses (no external JSON crate in this tree — the format is a flat map of
/// `name -> {value, unit}`, trivially hand-emitted).
pub fn to_json(label: &str, entries: &[PerfEntry]) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"subsonic-bench-v1\",\n");
    s.push_str(&format!("  \"label\": {:?},\n", label));
    // Recording-machine state the rates depend on: OS thread budget, the
    // intra-tile band worker count, and the f64 SIMD lane width the build
    // targets. A rate delta between reports with different meta values is
    // a machine/config change, not a code regression.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    s.push_str(&format!(
        "  \"meta\": {{\"threads\": {}, \"intra_threads\": {}, \"simd_lanes\": {}}},\n",
        threads,
        kernels::intra_threads(),
        kernels::simd_lanes()
    ));
    s.push_str("  \"entries\": {\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        s.push_str(&format!(
            "    {:?}: {{\"value\": {:.6e}, \"unit\": {:?}}}{comma}\n",
            e.name, e.value, e.unit
        ));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_produces_all_entries() {
        let entries = run_suite(true);
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "node_rate_2d_lb",
            "node_rate_2d_lb_simd",
            "node_rate_2d_lb_scalar",
            "node_rate_2d_fd",
            "node_rate_2d_fd_simd",
            "node_rate_2d_fd_scalar",
            "node_rate_3d_lb",
            "node_rate_3d_lb_simd",
            "node_rate_3d_lb_scalar",
            "node_rate_3d_fd",
            "node_rate_3d_fd_simd",
            "node_rate_3d_fd_scalar",
            "halo2_pack_w2",
            "halo2_roundtrip_w2",
            "halo2_pack_w4",
            "halo3_pack_w2",
            "halo3_roundtrip_w2",
            "threaded2_lb_2x2",
            "threaded3_lb_2x2x1",
            "cluster_sim_events",
            "scale_events_per_s_shared",
            "scale_events_per_s_switched",
            "recovery_interval_tight",
            "recovery_cost_tight",
            "recovery_cost_mid",
            "recovery_cost_loose",
            "recovery_model_err_max",
            "recovery_opt_interval",
            "detect_latency_fixed",
            "detect_latency_accrual",
            "sched_jobs_per_s",
            "sched_makespan_fifo",
            "sched_makespan_backfill",
            "chaos_recovery_latency_mean",
            "chaos_migration_cost",
        ] {
            assert!(names.contains(&expected), "missing entry {expected}");
        }
        for e in &entries {
            assert!(
                e.value.is_finite() && e.value > 0.0,
                "{}: {}",
                e.name,
                e.value
            );
        }
        let json = to_json("test", &entries);
        assert!(json.contains("\"node_rate_2d_lb\""));
        assert!(json.contains("\"node_rate_2d_lb_simd\""));
        assert!(json.contains("subsonic-bench-v1"));
        assert!(json.contains("\"simd_lanes\""), "bench meta missing");
        assert!(json.contains("\"intra_threads\""));
    }
}
