//! The traced pass: per-layer metrics and the per-step budget table.
//!
//! Each workload is re-run with the flight recorder enabled, round for
//! round against untraced rounds of the same work (their ratio is
//! `obs.trace_overhead_frac`), then the layer probes run. Numbers come from
//! two sources only: *probes* (the benchmark times a layer's public function
//! on the workload's exact shape) and *api* (counters a public call already
//! returns: `StepTiming`, `NetOutcome`, `ClusterStats`). No source outside
//! `benchmark/` gains a span or a counter.

use crate::fluid::TileProbe;
use crate::harness::{ExactCounts, Meter, Round};
use crate::json::Value;
use crate::probes;
use crate::run::{contract_line, Options};
use crate::spec::{Workload, PER_LAYER};
use crate::stats::{median, per_unit_by_difference};
use crate::workloads::{self, Case, Procs, SerialLb2d, Sim, ThreadsCase, P};
use std::path::PathBuf;
use std::time::Instant;
use subsonic_exec::StepTiming;
use subsonic_obs::roofline::{profiles, KernelProfile};
use subsonic_obs::{Category, FlightRecorder};

/// One line of the budget table.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Layer and what it does there.
    pub layer: String,
    /// How often per step.
    pub count_per_step: f64,
    /// Cost of one occurrence, seconds.
    pub unit_cost_s: f64,
    /// An "of which" row: it breaks down the row above and is not summed.
    pub detail: bool,
}

impl BudgetRow {
    /// Seconds per step this row accounts for.
    pub fn s_per_step(&self) -> f64 {
        self.count_per_step * self.unit_cost_s
    }
}

/// Result of the traced pass on one workload.
#[derive(Debug, Clone)]
pub struct TracedResult {
    /// The workload.
    pub workload: Workload,
    /// Per-layer metrics that apply to this workload.
    pub layers: Vec<(&'static str, f64)>,
    /// Budget rows; the unexplained remainder is computed against
    /// `wall_s_per_step`.
    pub budget: Vec<BudgetRow>,
    /// Untraced wall seconds per step the budget has to explain.
    pub wall_s_per_step: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// Where the Perfetto trace was written.
    pub trace_path: Option<PathBuf>,
    /// Wall seconds the pass took.
    pub wall_s: f64,
}

impl TracedResult {
    fn new(workload: Workload) -> Self {
        TracedResult {
            workload,
            layers: Vec::new(),
            budget: Vec::new(),
            wall_s_per_step: 0.0,
            attempted: 0,
            failures: Vec::new(),
            trace_path: None,
            wall_s: 0.0,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unknown per-layer metric {name}"
        );
        self.layers.push((name, value));
    }

    fn row(&mut self, layer: &str, count_per_step: f64, unit_cost_s: f64) {
        self.budget.push(BudgetRow {
            layer: layer.to_string(),
            count_per_step,
            unit_cost_s,
            detail: false,
        });
    }

    fn detail_row(&mut self, layer: &str, count_per_step: f64, unit_cost_s: f64) {
        self.budget.push(BudgetRow {
            layer: format!("  of which: {layer}"),
            count_per_step,
            unit_cost_s,
            detail: true,
        });
    }

    /// Seconds per step no row accounts for (negative when rows overlap in
    /// time, e.g. communication hidden behind compute).
    pub fn unexplained_s(&self) -> f64 {
        self.wall_s_per_step
            - self
                .budget
                .iter()
                .filter(|r| !r.detail)
                .map(BudgetRow::s_per_step)
                .sum::<f64>()
    }

    /// Share of the step no row accounts for.
    pub fn unexplained_frac(&self) -> f64 {
        if self.wall_s_per_step > 0.0 {
            self.unexplained_s() / self.wall_s_per_step
        } else {
            0.0
        }
    }

    /// Value of a per-layer metric on this workload; 0 where the layer does
    /// no work (the driver wants every name on every workload).
    pub fn value(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The one-line object the driver reads: every per-layer metric.
    pub fn contract_line(&self) -> Value {
        contract_line(
            self.failures.is_empty(),
            self.attempted,
            self.failures.len() as u64,
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.value(m.name), m.unit)),
        )
    }

    /// Everything measured, for result files.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload.name())),
            ("wall_s", Value::num(self.wall_s)),
            ("ops_attempted", Value::Num(self.attempted as f64)),
            ("ops_failed", Value::Num(self.failures.len() as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            (
                "per_layer",
                Value::Obj(
                    self.layers
                        .iter()
                        .map(|(n, v)| {
                            let m = PER_LAYER
                                .iter()
                                .find(|m| m.name == *n)
                                .expect("set() checked the name");
                            (
                                n.to_string(),
                                Value::obj([
                                    ("value", Value::num(*v)),
                                    ("unit", Value::str(m.unit)),
                                    ("exact", Value::Bool(m.exact)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("wall_s_per_step", Value::num(self.wall_s_per_step)),
            (
                "budget",
                Value::Arr(
                    self.budget
                        .iter()
                        .map(|r| {
                            Value::obj([
                                ("layer", Value::str(&r.layer)),
                                ("count_per_step", Value::num(r.count_per_step)),
                                ("unit_cost_s", Value::num(r.unit_cost_s)),
                                ("s_per_step", Value::num(r.s_per_step())),
                                ("detail", Value::Bool(r.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("unexplained_s_per_step", Value::num(self.unexplained_s())),
            (
                "trace",
                self.trace_path
                    .as_ref()
                    .map_or(Value::Null, |p| Value::str(p.display().to_string())),
            ),
        ])
    }

    /// Prints `layer | count/step | unit cost | s/step | share`, ending with
    /// the unexplained remainder.
    pub fn print_budget(&self) {
        println!(
            "  budget of one {} step ({:.3e} s untraced wall):",
            self.workload.name(),
            self.wall_s_per_step
        );
        println!(
            "    {:<44} {:>11} {:>12} {:>12} {:>7}",
            "layer", "count/step", "unit cost s", "s/step", "share"
        );
        let share = |s: f64| {
            if self.wall_s_per_step > 0.0 {
                100.0 * s / self.wall_s_per_step
            } else {
                0.0
            }
        };
        for r in &self.budget {
            println!(
                "    {:<44} {:>11.4} {:>12.3e} {:>12.3e} {:>6.1}%",
                r.layer,
                r.count_per_step,
                r.unit_cost_s,
                r.s_per_step(),
                share(r.s_per_step())
            );
        }
        println!(
            "    {:<44} {:>11} {:>12} {:>12.3e} {:>6.1}%",
            "unexplained remainder",
            "",
            "",
            self.unexplained_s(),
            share(self.unexplained_s())
        );
    }
}

/// Untraced and traced rounds of the same work, interleaved.
struct Pair {
    untraced: Vec<Round>,
    traced: Vec<Round>,
    events_recorded: u64,
    events_dropped: u64,
}

impl Pair {
    fn median_rate(rounds: &[Round]) -> f64 {
        median(
            &rounds
                .iter()
                .map(|r| r.items / r.call.wall_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Median untraced wall seconds per step.
    fn wall_s_per_step(&self) -> f64 {
        median(
            &self
                .untraced
                .iter()
                .map(|r| r.call.wall_s / r.steps.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over untraced rounds of an api number.
    fn api(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .untraced
            .iter()
            .filter_map(|o| {
                o.counts
                    .iter()
                    .chain(&o.extra)
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
            })
            .collect();
        median(&values)
    }
}

fn recorded_events(recorder: &FlightRecorder) -> u64 {
    recorder
        .finished_tracks()
        .iter()
        .map(|t| t.events.len() as u64)
        .sum()
}

/// Runs one warm-up, then cycles of (untraced round, traced round, `extra`)
/// for `seconds`. The first traced round records into the exported
/// recorder; later ones into throwaway recorders of the same capacity, so
/// the trace file stays small while the overhead is measured every cycle.
fn interleave<C: Case + ?Sized>(
    case: &mut C,
    meter: &mut Meter,
    seconds: f64,
    cap: usize,
    out: &mut TracedResult,
    mut extra: impl FnMut(&mut C, &mut Meter, &mut TracedResult),
) -> Pair {
    let mut pair = Pair {
        untraced: Vec::new(),
        traced: Vec::new(),
        events_recorded: 0,
        events_dropped: 0,
    };
    let export = meter.recorder().clone();
    let off = FlightRecorder::disabled();
    let mut counts = ExactCounts::default();
    let mut run = |case: &mut C, m: &mut Meter, rec: &FlightRecorder, out: &mut TracedResult| {
        out.attempted += 1;
        let result = m
            .span(Category::Sync, "round", |m| case.round(m, rec))
            .and_then(|round| counts.check(&round).map(|()| round));
        result
            .map_err(|e| {
                eprintln!("  FAILED op: {e}");
                out.failures.push(e);
            })
            .ok()
    };
    let _ = run(case, meter, &off, out); // warm-up
    let started = Instant::now();
    let mut cycle = 0usize;
    // two cycles at least, so medians are not single samples (one in smoke runs)
    let min_cycles = if seconds < 1.0 { 1 } else { 2 };
    while (cycle < min_cycles || started.elapsed().as_secs_f64() < seconds)
        && out.failures.len() < 8
    {
        if let Some(o) = run(case, meter, &off, out) {
            pair.untraced.push(o);
        }
        let rec = if cycle == 0 {
            export.clone()
        } else {
            FlightRecorder::enabled(cap)
        };
        if let Some(o) = run(case, meter, &rec, out) {
            pair.traced.push(o);
        }
        // every recorder starts its one traced round empty
        pair.events_recorded += recorded_events(&rec);
        pair.events_dropped += rec.dropped_events();
        extra(case, meter, out);
        cycle += 1;
    }
    let untraced = Pair::median_rate(&pair.untraced);
    let traced = Pair::median_rate(&pair.traced);
    out.wall_s_per_step = pair.wall_s_per_step();
    out.set(
        "obs.trace_overhead_frac",
        if untraced > 0.0 {
            1.0 - traced / untraced
        } else {
            0.0
        },
    );
    out.set(
        "obs.events_recorded",
        pair.events_recorded as f64 / pair.traced.len().max(1) as f64,
    );
    out.set(
        "obs.events_dropped",
        pair.events_dropped as f64 / pair.traced.len().max(1) as f64,
    );
    pair
}

/// Solver, machine and grid metrics every fluid workload shares, plus the
/// first three budget rows. Returns the default-kernel probe.
fn fluid_layers(
    out: &mut TracedResult,
    meter: &mut Meter,
    profile: KernelProfile,
    mut probe: impl FnMut(bool, f64, &mut Meter) -> TileProbe,
) -> TileProbe {
    let pr = probe(false, meter.budget(0.5), meter);
    let ps = probe(true, meter.budget(0.25), meter);
    let copy = probes::mem_copy_bytes_per_s(meter);
    let rate = pr.nodes as f64 / pr.compute_s;
    out.set("solvers.compute_s_per_step", pr.compute_s);
    out.set("solvers.node_updates_per_s", rate);
    out.set("solvers.simd_speedup", ps.compute_s / pr.compute_s);
    out.set(
        "solvers.bytes_per_update_computed",
        profile.bytes_per_update(),
    );
    out.set("solvers.flops_per_update_computed", profile.flops);
    out.set(
        "solvers.roofline_frac",
        rate * profile.bytes_per_update() / copy,
    );
    out.set("mem.copy_bytes_per_s", copy);
    out.set("grid.pack_s_per_step", pr.pack_s);
    out.set("grid.unpack_s_per_step", pr.unpack_s);
    if pr.doubles > 0.0 && pr.pack_s > 0.0 {
        out.set("grid.pack_doubles_per_s", pr.doubles / pr.pack_s);
        let floor = probes::small_copy_s(pr.doubles as usize, meter);
        out.set("grid.pack_vs_memcpy", floor / pr.pack_s);
    }
    out.row(
        "solvers: compute (probe)",
        pr.compute_ops as f64,
        pr.compute_s / pr.compute_ops.max(1) as f64,
    );
    out.row("grid: pack (probe)", pr.msgs, pr.pack_s / pr.msgs.max(1.0));
    out.row(
        "grid: unpack (probe)",
        pr.msgs,
        pr.unpack_s / pr.msgs.max(1.0),
    );
    pr
}

fn serial(
    opts: &Options,
    cap: usize,
    meter: &mut Meter,
    out: &mut TracedResult,
) -> Result<(), String> {
    let mut case = SerialLb2d::new(opts.seed, SerialLb2d::DIMS, SerialLb2d::STEPS)?;
    let _pair = interleave(&mut case, meter, opts.seconds * 0.4, cap, out, |_, _, _| {});
    drop(case);
    let pr = fluid_layers(out, meter, profiles::D2Q9_BGK, |scalar, budget, m| {
        SerialLb2d::probe(opts.seed, SerialLb2d::DIMS, scalar, budget, m)
    });
    // the self-wrap of a 1x1 periodic grid: what LocalRunner's exchange moves
    out.set("grid.halo_doubles_per_step", pr.doubles);
    out.set("grid.halo_msgs_per_step", pr.msgs);
    // LocalRunner is exec's plainest runner: whatever the probes do not
    // explain is its exchange bookkeeping (a Vec per message per step)
    out.set("exec.budget_unexplained_frac", out.unexplained_frac());
    Ok(())
}

/// Per-round medians over `StepTiming`s, seconds per step.
struct TimingSummary {
    t_calc: f64,
    t_com: f64,
    t_pack: f64,
    utilization: f64,
    buf_allocs_per_kstep: f64,
    /// `(t_calc + t_com) / steps` of the slowest tile.
    slowest: f64,
}

fn summarize(outs: &[Round]) -> TimingSummary {
    let per = |f: &dyn Fn(&[StepTiming], f64) -> f64| -> f64 {
        median(
            &outs
                .iter()
                .map(|o| f(&o.timing, o.steps.max(1) as f64))
                .collect::<Vec<_>>(),
        )
    };
    let mean = |ts: &[StepTiming], get: fn(&StepTiming) -> f64| {
        ts.iter().map(get).sum::<f64>() / ts.len().max(1) as f64
    };
    TimingSummary {
        t_calc: per(&|ts, steps| mean(ts, |t| t.t_calc.as_secs_f64()) / steps),
        t_com: per(&|ts, steps| mean(ts, |t| t.t_com.as_secs_f64()) / steps),
        t_pack: per(&|ts, steps| mean(ts, |t| t.t_pack.as_secs_f64()) / steps),
        utilization: per(&|ts, _| {
            let mut total = StepTiming::default();
            ts.iter().for_each(|t| total.merge(t));
            total.utilization()
        }),
        buf_allocs_per_kstep: per(&|ts, steps| {
            1000.0 * ts.iter().map(|t| t.buf_allocs).sum::<u64>() as f64 / steps
        }),
        slowest: per(&|ts, steps| {
            ts.iter()
                .map(|t| (t.t_calc + t.t_com).as_secs_f64())
                .fold(0.0, f64::max)
                / steps
        }),
    }
}

fn threads(
    case: &mut dyn ThreadsCase,
    profile: KernelProfile,
    opts: &Options,
    cap: usize,
    meter: &mut Meter,
    out: &mut TracedResult,
) {
    let steps = case.steps_per_round() as f64;
    let pair = interleave(case, meter, opts.seconds * 0.4, cap, out, |_, _, _| {});
    // The serial twin runs in a block of its own, not round for round: a
    // single-threaded round leaves the second vCPU idle for its whole
    // length, and the parallel round that follows then pays the
    // hypervisor's slow wake-ups (measured: -40 % on threads_fd3d), which
    // would bias the very ratio being taken.
    let serial_s_per_step: Vec<f64> = (0..3)
        .map(|_| case.serial_round(meter).wall_s / steps)
        .collect();
    let timing = summarize(&pair.untraced);
    let pr = fluid_layers(out, meter, profile, |scalar, budget, m| {
        case.probe(scalar, budget, m)
    });
    let spawn: Vec<f64> = (0..5).filter_map(|_| case.setup(meter).ok()).collect();

    let wall = out.wall_s_per_step;
    let wait = timing.t_com - pr.pack_s - pr.unpack_s;
    let overhead = wall - timing.slowest;
    out.set(
        "grid.halo_doubles_per_step",
        pair.api("grid.halo_doubles_per_step"),
    );
    out.set(
        "grid.halo_msgs_per_step",
        pair.api("grid.halo_msgs_per_step"),
    );
    out.set("exec.t_calc_s_per_step", timing.t_calc);
    out.set("exec.t_com_s_per_step", timing.t_com);
    out.set("exec.t_pack_s_per_step", timing.t_pack);
    out.set("exec.utilization", timing.utilization);
    out.set("exec.buf_allocs_per_kstep", timing.buf_allocs_per_kstep);
    out.set("exec.wait_s_per_step", wait);
    out.set("exec.runner_overhead_s_per_step", overhead);
    out.set("exec.spawn_s", median(&spawn));
    out.set(
        "exec.parallel_efficiency",
        median(&serial_s_per_step) / (P as f64 * wall),
    );
    out.row(
        "exec: channel + peer wait (t_com - pack - unpack)",
        1.0,
        wait,
    );
    out.row("exec: runner overhead (wall - slowest tile)", 1.0, overhead);
    out.set("exec.budget_unexplained_frac", out.unexplained_frac());
}

/// Per-worker seconds per step out of a job's merged `StepTiming` (times
/// are summed over the P workers, steps are not).
fn net_timing(outs: &[Round]) -> (f64, f64, f64) {
    let per = |get: fn(&StepTiming) -> f64| -> f64 {
        median(
            &outs
                .iter()
                .filter_map(|o| {
                    o.timing
                        .first()
                        .map(|t| get(t) / P as f64 / o.steps.max(1) as f64)
                })
                .collect::<Vec<_>>(),
        )
    };
    let util = median(
        &outs
            .iter()
            .filter_map(|o| o.timing.first().map(StepTiming::utilization))
            .collect::<Vec<_>>(),
    );
    (
        per(|t| t.t_calc.as_secs_f64()),
        per(|t| t.t_com.as_secs_f64()),
        util,
    )
}

/// Layers both `procs_*` workloads share: kernel/grid probes, checkpoint
/// codec, wire codec, links, the runtime's own calc/com split, and the
/// budget rows built from them.
fn procs_common(
    case: &Procs,
    pair: &Pair,
    one_step_job_s: f64,
    meter: &mut Meter,
    out: &mut TracedResult,
) -> Result<(), String> {
    let pr = fluid_layers(out, meter, profiles::D2Q9_BGK, |scalar, budget, m| {
        case.probe(scalar, budget, m)
    });
    let problem = case.problem();
    let tile = problem.make_tile(
        &subsonic_solvers::LatticeBoltzmann2,
        problem.active_tiles()[0],
    );
    let ckpt = probes::checkpoint(&tile, meter)?;
    let wire = probes::wire(pr.max_strip, meter)?;
    let (t_calc, t_com, util) = net_timing(&pair.untraced);
    let msgs_per_step = pair.api("net.msgs_per_step");
    let steps = case.steps as f64;

    out.set("grid.halo_msgs_per_step", msgs_per_step);
    out.set(
        "grid.halo_doubles_per_step",
        median(
            &pair
                .untraced
                .iter()
                .filter_map(|o| {
                    o.timing
                        .first()
                        .map(|t| t.doubles_sent as f64 / o.steps.max(1) as f64)
                })
                .collect::<Vec<_>>(),
        ),
    );
    out.set("exec.ckpt.dump_bytes_per_s", ckpt.dump_bytes_per_s);
    out.set("exec.ckpt.restore_bytes_per_s", ckpt.restore_bytes_per_s);
    out.set("exec.ckpt.bytes_per_tile", ckpt.bytes_per_tile);
    out.set("net.wire.encode_s_per_msg", wire.encode_s);
    out.set("net.wire.decode_s_per_msg", wire.decode_s);
    out.set("net.wire.bytes_per_halo_msg", wire.bytes);
    out.set("net.link.tcp_frame_rtt_s", wire.tcp_rtt_s);
    out.set("net.link.mem_frame_rtt_s", wire.mem_rtt_s);
    out.set("net.t_calc_s_per_step", t_calc);
    out.set("net.t_com_s_per_step", t_com);
    out.set("net.utilization", util);
    out.set("net.msgs_per_step", msgs_per_step);

    // per worker: it sends and receives msgs_per_step / P frames a step
    let per_worker = msgs_per_step / P as f64;
    out.row(
        "net::wire: encode halo frame (probe)",
        per_worker,
        wire.encode_s,
    );
    out.row(
        "net::wire: decode halo frame (probe)",
        per_worker,
        wire.decode_s,
    );
    out.row(
        "net::link: one-way frame = tcp rtt / 2 (probe)",
        per_worker,
        wire.tcp_rtt_s / 2.0,
    );
    let explained_com = pr.pack_s
        + pr.unpack_s
        + per_worker * (wire.encode_s + wire.decode_s + wire.tcp_rtt_s / 2.0);
    out.row(
        "net: peer wait + retransmission (t_com - rows above)",
        1.0,
        t_com - explained_com,
    );
    out.row(
        "net: spawn + handshake + gather (one-step job)",
        1.0 / steps,
        one_step_job_s,
    );
    Ok(())
}

/// Seconds one committed step takes a worker (`t_calc + t_com`).
fn t_step(pair: &Pair) -> f64 {
    let (t_calc, t_com, _) = net_timing(&pair.untraced);
    t_calc + t_com
}

fn procs_tcp(
    opts: &Options,
    cap: usize,
    meter: &mut Meter,
    out: &mut TracedResult,
) -> Result<(), String> {
    let mut case = workloads::procs_tcp(opts.seed, opts.out_dir.clone());
    // per cycle: a frequent-commit job, a rare-commit job (their gap is the
    // commit cost), a one-step job (spawn + gather), and the same problem
    // on the threaded runner
    let (fine, coarse) = (case.interval / 2, case.interval * 2);
    let (mut t_fine, mut t_coarse, mut t_threads, mut t_setup) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let off = FlightRecorder::disabled();
    let pair = interleave(
        &mut case,
        meter,
        opts.seconds * 0.55,
        cap,
        out,
        |c, m, out| {
            for (interval, sink) in [(fine, &mut t_fine), (coarse, &mut t_coarse)] {
                out.attempted += 1;
                match c.verified_job(c.config(c.steps, interval, None), m, &off) {
                    Ok(o) => sink.push(o.call.wall_s),
                    Err(e) => out.failures.push(format!("interval {interval}: {e}")),
                }
            }
            out.attempted += 2;
            match c.setup(m) {
                Ok(s) => t_setup.push(s),
                Err(e) => out.failures.push(format!("one-step job: {e}")),
            }
            match c.threads_round(m) {
                Ok(call) => t_threads.push(call.wall_s),
                Err(e) => out.failures.push(format!("threads twin: {e}")),
            }
        },
    );
    let steps = case.steps as f64;
    procs_common(&case, &pair, median(&t_setup), meter, out)?;
    let commits = |interval: u64| (case.steps / interval) as f64;
    let commit_s = per_unit_by_difference(
        median(&t_fine),
        commits(fine),
        median(&t_coarse),
        commits(coarse),
    )
    .unwrap_or(0.0);
    out.set("net.commit_s_per_segment", commit_s);
    // (procs steps/s) / (threads steps/s) on the same problem and step count
    out.set(
        "net.vs_threads_ratio",
        median(&t_threads) / (steps * out.wall_s_per_step),
    );
    out.row(
        "net: supervisor commit (differencing)",
        commits(case.interval) / steps,
        commit_s,
    );
    out.set("net.budget_unexplained_frac", out.unexplained_frac());
    Ok(())
}

fn procs_udp_kill(
    opts: &Options,
    cap: usize,
    meter: &mut Meter,
    out: &mut TracedResult,
) -> Result<(), String> {
    let mut case = workloads::procs_udp_kill(opts.seed, opts.out_dir.clone());
    let faults = case.faults.expect("procs_udp_kill has faults");
    let no_kill = workloads::UdpFaults {
        kill: false,
        ..faults
    };
    let (mut t_lossy, mut t_clean, mut t_setup) = (Vec::new(), Vec::new(), Vec::new());
    let off = FlightRecorder::disabled();
    // per cycle: the same faults without the kill, a clean UDP job (their
    // gap is what the injected faults cost), and a one-step job
    let pair = interleave(
        &mut case,
        meter,
        opts.seconds * 0.55,
        cap,
        out,
        |c, m, out| {
            for (f, sink) in [(Some(no_kill), &mut t_lossy), (None, &mut t_clean)] {
                out.attempted += 1;
                match c.verified_job(c.config(c.steps, c.interval, f), m, &off) {
                    Ok(o) => sink.push(o.call.wall_s),
                    Err(e) => out.failures.push(format!("udp variant: {e}")),
                }
            }
            out.attempted += 1;
            match c.setup(m) {
                Ok(s) => t_setup.push(s),
                Err(e) => out.failures.push(format!("one-step job: {e}")),
            }
        },
    );
    procs_common(&case, &pair, median(&t_setup), meter, out)?;
    let steps = case.steps as f64;
    let losses = pair.api("net.chaos.loss");
    let penalty = if losses > 0.0 {
        (median(&t_lossy) - median(&t_clean)) / losses
    } else {
        0.0
    };
    let recovery: Vec<f64> = pair
        .untraced
        .iter()
        .flat_map(|o| o.recovery_s.iter().copied())
        .collect();
    let replayed = pair.api("net.recovery.replayed_steps");
    for name in [
        "net.chaos.loss",
        "net.chaos.dup",
        "net.chaos.reorder",
        "net.restarts",
        "net.recovery.replayed_steps",
        "net.window_retries",
    ] {
        out.set(name, pair.api(name));
    }
    out.set("net.udp.loss_penalty_s", penalty);
    out.set("recovery_s", median(&recovery));
    // the wait row above already holds the retransmission stalls; these
    // rows say how much of it the injected faults and the crash explain
    out.detail_row(
        "injected faults (penalty x losses)",
        losses / steps,
        penalty,
    );
    out.row(
        "net: crash recovery (recovery_s + replayed steps)",
        1.0 / steps,
        median(&recovery) + replayed * (t_step(&pair)),
    );
    out.set("net.budget_unexplained_frac", out.unexplained_frac());
    Ok(())
}

fn sim(mut case: Sim, cap: usize, opts: &Options, meter: &mut Meter, out: &mut TracedResult) {
    let pair = interleave(&mut case, meter, opts.seconds * 0.6, cap, out, |_, _, _| {});
    let events_per_step = pair.api("cluster.events_per_sim_step");
    let wall = out.wall_s_per_step;
    for name in [
        "cluster.events",
        "cluster.events_per_sim_step",
        "cluster.migrations",
        "cluster.recoveries",
        "cluster.retransmits",
        "cluster.bytes_per_host",
    ] {
        out.set(name, pair.api(name));
    }
    let steps = case.steps_per_round() as f64;
    out.set(
        "cluster.sim_s_per_wall_s",
        pair.api("sim_seconds") / (wall * steps),
    );
    let pending = pair.api("peak_queue_events").max(1.0) as usize;
    let queue = probes::queue_ops_per_s(pending, meter);
    // one halo strip of a 30-node (scale) or 150-node (production) edge
    let in_flight = (case.cfg().hosts.len() / 2).clamp(1, 512);
    let bus = probes::bus_ops_per_s(&case.cfg().net, in_flight, 2160.0, meter);
    out.set("cluster.queue.ops_per_s", queue);
    out.set("cluster.bus.ops_per_s", bus);
    let msgs_per_step = pair.api("net_messages") / steps;
    out.row(
        "cluster::events: schedule + pop per event (probe)",
        events_per_step,
        1.0 / queue,
    );
    out.row(
        "cluster::bus: admit + complete per message (probe)",
        msgs_per_step,
        1.0 / bus,
    );
    // the remainder is the simulation logic itself (process FSM, transport,
    // detector, recovery, migration): sim.rs has no narrower public seam
}

/// The traced pass on one workload: per-layer metrics, budget table, and a
/// Perfetto-loadable trace under `opts.out_dir`.
pub fn traced(workload: Workload, opts: &Options) -> TracedResult {
    let t0 = Instant::now();
    let mut out = TracedResult::new(workload);
    // Events per program track: a threaded round records a few spans per
    // step; the simulators get small rings (21 and 1025 tracks), and the
    // drop counter says how much of the run the flight recorder let go.
    let cap = match workload {
        Workload::SimProduction20 => 1 << 11,
        Workload::SimScale1024 => 1 << 5,
        _ => 1 << 14,
    };
    let scale = (opts.seconds / f64::from(crate::spec::RUN_SECONDS)).clamp(0.1, 1.0);
    let mut meter = Meter::traced(cap, scale);
    let result = meter.span(Category::Sync, "workload", |meter| -> Result<(), String> {
        match workload {
            Workload::SerialLb2d => serial(opts, cap, meter, &mut out)?,
            Workload::ThreadsLb2dFine => {
                let mut case = workloads::threads_lb2d_fine(opts.seed, workloads::FINE_STEPS);
                threads(&mut case, profiles::D2Q9_BGK, opts, cap, meter, &mut out);
            }
            Workload::ThreadsFd3d => {
                let mut case = workloads::threads_fd3d(opts.seed, workloads::FD3_STEPS);
                threads(&mut case, profiles::FD3_STEP, opts, cap, meter, &mut out);
            }
            Workload::ProcsTcpLb2d => procs_tcp(opts, cap, meter, &mut out)?,
            Workload::ProcsUdpKill => procs_udp_kill(opts, cap, meter, &mut out)?,
            Workload::SimProduction20 => sim(
                Sim::production20(opts.seed, Sim::PRODUCTION_STEPS),
                cap,
                opts,
                meter,
                &mut out,
            ),
            Workload::SimScale1024 => sim(
                Sim::scale1024(opts.seed, Sim::SCALE_STEPS),
                cap,
                opts,
                meter,
                &mut out,
            ),
        }
        Ok(())
    });
    out.attempted = out.attempted.max(1);
    if let Err(e) = result {
        out.failures.push(e);
    }
    let tracks = meter.finish();
    let path = opts.out_dir.join(format!("trace_{}.json", workload.name()));
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, subsonic_obs::chrome::export_tracks(&tracks)));
    match written {
        Ok(()) => out.trace_path = Some(path),
        Err(e) => out
            .failures
            .push(format!("trace export to {}: {e}", path.display())),
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}
