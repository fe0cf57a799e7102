//! The two passes over one workload. The *end-to-end* pass runs with
//! tracing off and yields the metrics the driver gates; the *traced* pass
//! (see [`crate::layers`]) re-runs the workload with the flight recorder on,
//! interleaved with untraced rounds, and executes the layer probes.

use crate::harness::{run_rounds, time_setups, ExactCounts, Meter, Rounds};
use crate::json::Value;
use crate::spec::{Better, Workload, END_TO_END};
use crate::stats::{median, quartiles, undisturbed, upper_percentile};
use crate::sys;
use crate::workloads::{build_case, Case};
use std::path::PathBuf;
use std::time::Instant;
use subsonic_obs::FlightRecorder;

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measuring window, seconds.
    pub seconds: f64,
    /// Fewest set-up repetitions (the median is reported).
    pub setups: usize,
    /// Directory for traces, job directories and result files.
    pub out_dir: PathBuf,
}

/// Samples of one end-to-end metric on one workload.
#[derive(Debug, Clone)]
pub struct MetricSamples {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The reported value: what an undisturbed round reaches
    /// ([`undisturbed`]), or the single sample.
    pub value: f64,
    /// Per-round (or per-set-up) samples behind it.
    pub samples: Vec<f64>,
}

/// Result of the end-to-end pass on one workload.
#[derive(Debug, Clone)]
pub struct EndToEndResult {
    /// The workload.
    pub workload: Workload,
    /// One entry per end-to-end metric, in `END_TO_END` order.
    pub metrics: Vec<MetricSamples>,
    /// `recovery_s` samples (only `procs_udp_kill` has any).
    pub recovery_s: Vec<f64>,
    /// Exact counts of the first round (every later round had to match).
    pub counts: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// Wall seconds the whole pass took.
    pub wall_s: f64,
}

/// Runs rounds of `case` for `seconds` with tracing off, checking that the
/// exact counts of every round equal those of the first.
fn collect(case: &mut dyn Case, meter: &mut Meter, seconds: f64) -> Rounds {
    let off = FlightRecorder::disabled();
    let mut counts = ExactCounts::default();
    run_rounds(seconds, meter, |_, m| {
        let round = case.round(m, &off)?;
        counts.check(&round)?;
        Ok(round)
    })
}

/// The end-to-end pass: set-ups, warm-up, then fixed-work rounds for
/// `opts.seconds`, all with tracing off.
pub fn end_to_end(workload: Workload, opts: &Options) -> EndToEndResult {
    let t0 = Instant::now();
    let mut meter = Meter::untraced();
    let mut failures = Vec::new();
    let mut attempted = 1; // building the case verifies its references
    let mut case = match build_case(workload, opts.seed, opts.out_dir.clone()) {
        Ok(case) => case,
        Err(e) => {
            return EndToEndResult {
                workload,
                metrics: Vec::new(),
                recovery_s: Vec::new(),
                counts: Vec::new(),
                attempted,
                failures: vec![format!("build: {e}")],
                wall_s: t0.elapsed().as_secs_f64(),
            }
        }
    };
    // One untimed round first: set-ups of a few hundred microseconds are
    // mostly thread or process spawn latency, which swings by a third
    // depending on whether the second vCPU is asleep when they start
    // (measured on threads_lb2d_fine: 163–266 us cold, 183–195 us after
    // one round).
    attempted += 1;
    if let Err(e) = case.round(&mut meter, &FlightRecorder::disabled()) {
        failures.push(format!("pre-warm round: {e}"));
    }
    let setups = time_setups(opts.setups, &mut meter, |m| case.setup(m), &mut failures);
    attempted += (setups.len() + failures.len()) as u64;
    let rounds = collect(case.as_mut(), &mut meter, opts.seconds);
    attempted += rounds.attempted;
    failures.extend(rounds.failures.iter().cloned());

    let sampled = |name: &str| -> (f64, Vec<f64>) {
        match name {
            "setup_s" => (undisturbed(&setups, true), setups.clone()),
            "steps_per_s" => {
                let s = rounds.steps_per_s();
                (undisturbed(&s, false), s)
            }
            "events_per_s" => {
                let s = rounds.items_per_s();
                (undisturbed(&s, false), s)
            }
            "cpu_s_per_kstep" => {
                let per: Vec<f64> = rounds
                    .rounds
                    .iter()
                    .map(|r| 1000.0 * r.call.cpu_s / r.steps.max(1) as f64)
                    .collect();
                (undisturbed(&per, true), per)
            }
            "peak_rss_mib" => {
                let v = sys::peak_rss_mib(case.workers());
                (v, vec![v])
            }
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (value, samples) = sampled(m.name);
            MetricSamples {
                name: m.name,
                unit: m.unit,
                better: m.better,
                value,
                samples,
            }
        })
        .collect();
    EndToEndResult {
        workload,
        metrics,
        recovery_s: rounds
            .rounds
            .iter()
            .flat_map(|r| r.recovery_s.iter().copied())
            .collect(),
        counts: rounds
            .rounds
            .first()
            .map(|r| r.counts.clone())
            .unwrap_or_default(),
        attempted,
        failures,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

impl EndToEndResult {
    /// Whether every operation's output verified.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && !self.metrics.is_empty()
    }

    /// The one-line object the driver reads.
    pub fn contract_line(&self) -> Value {
        contract_line(
            self.correct(),
            self.attempted,
            self.failures.len() as u64,
            self.metrics.iter().map(|m| (m.name, m.value, m.unit)),
        )
    }

    /// Everything measured, for result files and `compare`.
    pub fn to_json(&self) -> Value {
        let metric = |m: &MetricSamples| {
            let q = quartiles(&m.samples);
            let tail = upper_percentile(&m.samples, m.better == Better::Lower);
            Value::obj([
                ("value", Value::num(m.value)),
                ("unit", Value::str(m.unit)),
                ("median", Value::num(q.median)),
                ("n", Value::Num(m.samples.len() as f64)),
                ("q1", Value::num(q.q1)),
                ("q3", Value::num(q.q3)),
                (
                    "tail_percentile",
                    tail.map_or(Value::Null, |(p, _)| Value::num(p)),
                ),
                (
                    "tail_value",
                    tail.map_or(Value::Null, |(_, v)| Value::num(v)),
                ),
                (
                    "samples",
                    Value::Arr(m.samples.iter().map(|x| Value::num(*x)).collect()),
                ),
            ])
        };
        Value::obj([
            ("workload", Value::str(self.workload.name())),
            ("sizes", Value::str(self.workload.sizes())),
            ("loop", Value::str("closed, 1 client, P = 2")),
            ("wall_s", Value::num(self.wall_s)),
            ("ops_attempted", Value::Num(self.attempted as f64)),
            ("ops_failed", Value::Num(self.failures.len() as f64)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            (
                "end_to_end",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.to_string(), metric(m)))
                        .collect(),
                ),
            ),
            (
                "recovery_s",
                if self.recovery_s.is_empty() {
                    Value::Null
                } else {
                    Value::obj([
                        ("value", Value::num(median(&self.recovery_s))),
                        ("unit", Value::str("s")),
                        ("n", Value::Num(self.recovery_s.len() as f64)),
                    ])
                },
            ),
            (
                "exact_counts",
                Value::Obj(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Builds the driver's result line.
pub fn contract_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, f64, &'a str)>,
) -> Value {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .map(|(name, value, unit)| {
                        let value = if value.is_finite() { value } else { 0.0 };
                        (
                            name.to_string(),
                            Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
