//! `benchmark compare A.json B.json`: one row per (end-to-end metric,
//! workload) with both medians and quartiles, the ratio with its base, the
//! bound and a verdict, by the choosing-metrics rules: a metric whose
//! run-to-run spread is wider than its bound is *unresolved*, not unchanged,
//! unless every run of one side beats every run of the other. Exact counts
//! compare with `==`.

use crate::json::Value;
use crate::spec::{Better, END_TO_END};
use crate::stats::{quartiles, Quartiles};

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound, and the spread allows
    /// saying so.
    Improved,
    /// Medians within the bound and the spread within the bound.
    Unchanged,
    /// The spread is wider than the bound: no conclusion either way.
    Unresolved,
    /// B is worse than A by more than the bound.
    Regressed,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One side of a row.
#[derive(Debug, Clone)]
pub struct Side {
    /// Median and quartiles of `values`.
    pub q: Quartiles,
    /// Run-to-run spread as a share of the median.
    pub spread: f64,
    /// Run-level values when the file holds several sets (only these can
    /// show that every run of one side beats every run of the other).
    pub runs: Vec<f64>,
}

impl Side {
    /// A side made of several runs: the spread is their inter-quartile
    /// distance over their median.
    pub fn from_runs(runs: Vec<f64>) -> Side {
        let q = quartiles(&runs);
        Side {
            q,
            spread: q.spread(),
            runs,
        }
    }

    /// A side made of one run's round samples. The run-to-run spread of a
    /// median of `n` rounds is estimated from the round-to-round spread as
    /// `1.25 · IQR / √n` (the standard error of a median in IQR units); no
    /// run-level values exist, so one-sided separation cannot be claimed.
    pub fn from_rounds(value: f64, samples: &[f64]) -> Side {
        let mut q = quartiles(samples);
        let n = samples.len().max(1) as f64;
        let spread = 1.25 * q.spread() / n.sqrt();
        q.median = value;
        Side {
            q,
            spread,
            runs: Vec::new(),
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// B is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn every_run_beats(winner: &Side, loser: &Side, better: Better) -> bool {
    if winner.runs.len() < 2 || loser.runs.len() < 2 {
        return false;
    }
    let (w_worst, l_best) = match better {
        Better::Lower => (
            winner.runs.iter().copied().fold(f64::MIN, f64::max),
            loser.runs.iter().copied().fold(f64::MAX, f64::min),
        ),
        Better::Higher => (
            winner.runs.iter().copied().fold(f64::MAX, f64::min),
            loser.runs.iter().copied().fold(f64::MIN, f64::max),
        ),
    };
    match better {
        Better::Lower => w_worst < l_best,
        Better::Higher => w_worst > l_best,
    }
}

/// The verdict of one row.
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let w = worsening(a.q.median, b.q.median, better);
    let noisy = a.spread.max(b.spread) > bound;
    if w > bound {
        if noisy && !every_run_beats(a, b, better) {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if w < -bound {
        if noisy && !every_run_beats(b, a, better) {
            Verdict::Unresolved
        } else {
            Verdict::Improved
        }
    } else if noisy && !every_run_beats(b, a, better) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// The sides of one (workload, metric) out of a result file: run-level
/// values when the file holds several sets, else the one set's rounds.
fn side(file: &Value, workload: &str, metric: &str) -> Option<Side> {
    let sets = file.get("sets")?.as_arr()?;
    let entries: Vec<&Value> = sets
        .iter()
        .filter_map(|s| {
            s.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)
        })
        .collect();
    match entries.as_slice() {
        [] => None,
        [one] => {
            let samples: Vec<f64> = one
                .get("samples")?
                .as_arr()?
                .iter()
                .filter_map(Value::as_f64)
                .collect();
            Some(Side::from_rounds(one.get("value")?.as_f64()?, &samples))
        }
        many => Some(Side::from_runs(
            many.iter()
                .filter_map(|e| e.get("value")?.as_f64())
                .collect(),
        )),
    }
}

/// Exact counts of a workload in the first set of a file, end-to-end pass
/// and traced pass together.
fn exact_counts(file: &Value, workload: &str) -> Vec<(String, f64)> {
    let Some(w) = file
        .get("sets")
        .and_then(Value::as_arr)
        .and_then(|s| s.first())
        .and_then(|s| s.get("workloads"))
        .and_then(|ws| ws.get(workload))
    else {
        return Vec::new();
    };
    let mut out: Vec<(String, f64)> = Vec::new();
    if let Some(counts) = w.get("exact_counts").and_then(Value::as_obj) {
        out.extend(
            counts
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))),
        );
    }
    if let Some(layers) = w
        .get("traced")
        .and_then(|t| t.get("per_layer"))
        .and_then(Value::as_obj)
    {
        for (k, v) in layers {
            let exact = v.get("exact") == Some(&Value::Bool(true));
            if let (true, Some(x), false) = (
                exact,
                v.get("value").and_then(Value::as_f64),
                out.iter().any(|(n, _)| n == k),
            ) {
                out.push((k.clone(), x));
            }
        }
    }
    out
}

fn workload_names(file: &Value) -> Vec<String> {
    file.get("sets")
        .and_then(Value::as_arr)
        .and_then(|s| s.first())
        .and_then(|s| s.get("workloads"))
        .and_then(Value::as_obj)
        .map(|ws| ws.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

/// Outcome of a comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// `(workload, metric, verdict)` per end-to-end row.
    pub rows: Vec<(String, String, Verdict)>,
    /// Exact counts that differ: `(workload, name, a, b)`.
    pub count_mismatches: Vec<(String, String, f64, f64)>,
    /// Failed operations recorded in either file.
    pub ops_failed: f64,
}

impl Comparison {
    /// Whether every row is `unchanged`, every exact count identical, and
    /// no operation failed — what `selfcheck` demands of two sets of one
    /// build.
    pub fn all_unchanged(&self) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|(_, _, v)| *v == Verdict::Unchanged)
            && self.count_mismatches.is_empty()
            && self.ops_failed == 0.0
    }
}

fn ops_failed(file: &Value) -> f64 {
    let mut total = 0.0;
    for set in file.get("sets").and_then(Value::as_arr).unwrap_or(&[]) {
        for (_, w) in set.get("workloads").and_then(Value::as_obj).unwrap_or(&[]) {
            total += w.get("ops_failed").and_then(Value::as_f64).unwrap_or(0.0);
            total += w
                .get("traced")
                .and_then(|t| t.get("ops_failed"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
        }
    }
    total
}

/// Compares two result files and prints the table. A is the base of every
/// ratio.
pub fn compare(a: &Value, b: &Value) -> Comparison {
    let mut out = Comparison {
        ops_failed: ops_failed(a) + ops_failed(b),
        ..Comparison::default()
    };
    println!(
        "{:<18} {:<16} {:>34} {:>34} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound"
    );
    for workload in workload_names(a) {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(a, &workload, m.name), side(b, &workload, m.name))
            else {
                continue;
            };
            let v = verdict(&sa, &sb, m.better, m.bound);
            let show = |s: &Side| format!("{:.5e} [{:.4e}, {:.4e}]", s.q.median, s.q.q1, s.q.q3);
            let ratio = if sa.q.median != 0.0 {
                sb.q.median / sa.q.median
            } else {
                f64::NAN
            };
            println!(
                "{:<18} {:<16} {:>34} {:>34} {:>9.4} {:>5.0}%  {}",
                workload,
                m.name,
                show(&sa),
                show(&sb),
                ratio,
                m.bound * 100.0,
                v.word()
            );
            out.rows.push((workload.clone(), m.name.to_string(), v));
        }
        let counts_b = exact_counts(b, &workload);
        for (name, xa) in exact_counts(a, &workload) {
            match counts_b.iter().find(|(n, _)| *n == name) {
                Some((_, xb)) if *xb == xa => {}
                Some((_, xb)) => out.count_mismatches.push((workload.clone(), name, xa, *xb)),
                None => out
                    .count_mismatches
                    .push((workload.clone(), name, xa, f64::NAN)),
            }
        }
    }
    for (w, name, xa, xb) in &out.count_mismatches {
        println!("exact count differs: {w} {name}: A = {xa}, B = {xb}");
    }
    if out.count_mismatches.is_empty() {
        println!("exact counts: identical");
    }
    println!("ops_failed (both files): {}", out.ops_failed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(v: &[f64]) -> Side {
        Side::from_runs(v.to_vec())
    }

    #[test]
    fn quiet_metric_within_bound_is_unchanged_and_beyond_it_regresses() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = runs(&[101.0, 100.0, 102.0, 101.5, 100.5]);
        let slow = runs(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        assert_eq!(verdict(&a, &same, Better::Higher, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&a, &slow, Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&slow, &a, Better::Higher, 0.10), Verdict::Improved);
        // the same numbers read as latencies flip direction
        assert_eq!(verdict(&a, &slow, Better::Lower, 0.10), Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_runs_separate() {
        let a = runs(&[100.0, 130.0, 80.0, 120.0, 90.0]);
        let b = runs(&[104.0, 84.0, 134.0, 124.0, 94.0]);
        assert!(a.spread > 0.10);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Unresolved);
        // noisy, but every run of B is below every run of A: a regression
        let far = runs(&[50.0, 60.0, 40.0, 55.0, 45.0]);
        assert_eq!(verdict(&a, &far, Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(verdict(&far, &a, Better::Higher, 0.10), Verdict::Improved);
        // a median beyond the bound without separation stays unresolved
        let b2 = runs(&[85.0, 60.0, 110.0, 95.0, 75.0]);
        assert_eq!(verdict(&a, &b2, Better::Higher, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn single_set_sides_estimate_the_spread_of_their_median() {
        // 100 rounds with a 20 % round-to-round IQR: the median of 100 is
        // good to ~2.5 %, inside a 10 % bound
        let samples: Vec<f64> = (0..100).map(|i| 90.0 + 0.2 * f64::from(i)).collect();
        let s = Side::from_rounds(100.0, &samples);
        assert!(s.spread < 0.03, "{}", s.spread);
        assert_eq!(verdict(&s, &s, Better::Higher, 0.10), Verdict::Unchanged);
        // 4 rounds of the same distribution are not
        let few = Side::from_rounds(100.0, &[80.0, 95.0, 105.0, 120.0]);
        assert!(few.spread > 0.10);
        assert_eq!(
            verdict(&few, &few, Better::Higher, 0.10),
            Verdict::Unresolved
        );
    }

    fn file(steps_per_s: &[f64], loss: f64) -> Value {
        let set = |v: f64| {
            Value::obj([(
                "workloads",
                Value::obj([(
                    "procs_udp_kill",
                    Value::obj([
                        ("ops_failed", Value::Num(0.0)),
                        (
                            "end_to_end",
                            Value::obj([(
                                "steps_per_s",
                                Value::obj([
                                    ("value", Value::Num(v)),
                                    ("samples", Value::Arr(vec![Value::Num(v)])),
                                ]),
                            )]),
                        ),
                        (
                            "exact_counts",
                            Value::obj([("net.chaos.loss", Value::Num(loss))]),
                        ),
                    ]),
                )]),
            )])
        };
        Value::obj([(
            "sets",
            Value::Arr(steps_per_s.iter().map(|&v| set(v)).collect()),
        )])
    }

    #[test]
    fn files_compare_row_by_row_and_exact_counts_with_equality() {
        let a = file(&[200.0, 202.0, 198.0], 16.0);
        let same = compare(&a, &file(&[201.0, 199.0, 200.0], 16.0));
        assert_eq!(same.rows.len(), 1);
        assert!(same.all_unchanged());
        let drifted = compare(&a, &file(&[201.0, 199.0, 200.0], 17.0));
        assert_eq!(drifted.count_mismatches.len(), 1);
        assert!(!drifted.all_unchanged());
        let slower = compare(&a, &file(&[140.0, 141.0, 139.0], 16.0));
        assert_eq!(slower.rows[0].2, Verdict::Regressed);
    }
}
