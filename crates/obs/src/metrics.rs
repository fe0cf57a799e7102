//! Metrics registry: named counters, gauges and log-scale histograms.
//!
//! The workspace grew three ad-hoc counter schemes (`exec::StepTiming`,
//! `cluster::Measurement`, the recovery records in `cluster::stats`). Those
//! structs stay — they are the right zero-cost per-thread accumulators — but
//! they now *publish* into one `MetricsRegistry`, which becomes the uniform
//! machine-readable surface: `reproduce` serialises it as `METRICS.json`
//! next to the run's CSV tables.
//!
//! Histograms use log2 buckets (one per power of two), which is the right
//! shape for the quantities we track — message sizes, step times, recovery
//! latencies — where relative resolution matters and the dynamic range spans
//! many decades.

use std::collections::BTreeMap;
use std::sync::Mutex;

const HIST_BUCKETS: usize = 64;

#[derive(Clone, Debug)]
enum Metric {
    Counter(u64),
    Gauge { value: f64, unit: &'static str },
    Histogram(Box<Histogram>),
}

#[derive(Clone, Debug)]
struct Histogram {
    unit: &'static str,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// bucket[i] counts samples with floor(log2(v)) == i - OFFSET; values
    /// below 2^-32 (incl. zero) land in bucket 0.
    buckets: [u64; HIST_BUCKETS],
}

/// log2 offset so that sub-unit samples (times in seconds are often ≪ 1)
/// still resolve: bucket index = clamp(floor(log2 v) + 32, 0, 63).
const HIST_OFFSET: i32 = 32;

impl Histogram {
    fn new(unit: &'static str) -> Self {
        Histogram {
            unit,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }

    fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = if v <= 0.0 {
            0
        } else {
            (v.log2().floor() as i32 + HIST_OFFSET).clamp(0, HIST_BUCKETS as i32 - 1) as usize
        };
        self.buckets[idx] += 1;
    }
}

/// Read-only view of one histogram, for tests and exporters.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub unit: &'static str,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// (bucket lower bound, count) for every non-empty bucket.
    pub buckets: Vec<(f64, u64)>,
}

/// Thread-safe named-metric store. Interior mutability so one registry can be
/// shared by reference across subsystems; operations take a short mutex — the
/// registry is a publish target, not a hot-path accumulator.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (creating it at zero).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut m = match self.metrics.lock() {
            Ok(g) => g,
            Err(_) => return,
        };
        match m.get_mut(name) {
            Some(Metric::Counter(c)) => *c += delta,
            Some(_) => {} // type clash: first writer wins, ignore
            None => {
                m.insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Set the named gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64, unit: &'static str) {
        let mut m = match self.metrics.lock() {
            Ok(g) => g,
            Err(_) => return,
        };
        match m.get_mut(name) {
            Some(Metric::Gauge { value: v, unit: u }) => {
                *v = value;
                *u = unit;
            }
            Some(_) => {}
            None => {
                m.insert(name.to_string(), Metric::Gauge { value, unit });
            }
        }
    }

    /// Record one sample into the named log2 histogram.
    pub fn histogram_observe(&self, name: &str, value: f64, unit: &'static str) {
        let mut m = match self.metrics.lock() {
            Ok(g) => g,
            Err(_) => return,
        };
        match m.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            Some(_) => {}
            None => {
                let mut h = Box::new(Histogram::new(unit));
                h.observe(value);
                m.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.lock().ok()?.get(name)? {
            Metric::Counter(c) => Some(*c),
            _ => None,
        }
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.lock().ok()?.get(name)? {
            Metric::Gauge { value, .. } => Some(*value),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.metrics.lock().ok()?.get(name)? {
            Metric::Histogram(h) => Some(HistogramSnapshot {
                unit: h.unit,
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(i, c)| (2f64.powi(i as i32 - HIST_OFFSET), *c))
                    .collect(),
            }),
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        self.metrics.lock().map(|m| m.len()).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialise every metric as a deterministic (BTreeMap-ordered) JSON
    /// document — the `METRICS.json` format:
    ///
    /// ```json
    /// {
    ///   "schema": "subsonic-metrics-v1",
    ///   "metrics": {
    ///     "exec.msgs_sent": {"type": "counter", "value": 1234},
    ///     "sched.fifo.makespan_s": {"type": "gauge", "unit": "s", "value": 5.4e4},
    ///     "cluster.step_time": {"type": "histogram", "unit": "s", "count": 10,
    ///        "sum": 1.2, "min": 0.1, "max": 0.2, "buckets": [[0.0625, 3], ...]}
    ///   }
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let guard = match self.metrics.lock() {
            Ok(g) => g,
            Err(_) => return String::from("{\"schema\":\"subsonic-metrics-v1\",\"metrics\":{}}"),
        };
        let mut out = String::with_capacity(256 + guard.len() * 96);
        out.push_str("{\n  \"schema\": \"subsonic-metrics-v1\",\n  \"metrics\": {");
        let mut first = true;
        for (name, metric) in guard.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    \"");
            push_escaped(&mut out, name);
            out.push_str("\": ");
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{{\"type\": \"counter\", \"value\": {c}}}"));
                }
                Metric::Gauge { value, unit } => {
                    out.push_str(&format!(
                        "{{\"type\": \"gauge\", \"unit\": \"{unit}\", \"value\": {}}}",
                        fmt_f64(*value)
                    ));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"type\": \"histogram\", \"unit\": \"{}\", \"count\": {}, \
                         \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                        h.unit,
                        h.count,
                        fmt_f64(h.sum),
                        fmt_f64(if h.count == 0 { 0.0 } else { h.min }),
                        fmt_f64(if h.count == 0 { 0.0 } else { h.max }),
                    ));
                    let mut bfirst = true;
                    for (i, c) in h.buckets.iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        if !bfirst {
                            out.push_str(", ");
                        }
                        bfirst = false;
                        let lo = 2f64.powi(i as i32 - HIST_OFFSET);
                        out.push_str(&format!("[{}, {c}]", fmt_f64(lo)));
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Deterministic float formatting shared by the exporters: shortest repr via
/// `{:?}`-style Display, which round-trips and never emits locale surprises.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `format!("{}", 1.0)` yields "1"; keep it valid JSON (it is) but
        // normalise -0 to 0 for byte-stable output across platforms.
        if s == "-0" {
            String::from("0")
        } else {
            s
        }
    } else {
        String::from("null")
    }
}

pub(crate) fn push_escaped(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.counter_add("msgs", 3);
        reg.counter_add("msgs", 4);
        assert_eq!(reg.counter("msgs"), Some(7));
        assert_eq!(reg.counter("absent"), None);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("rate", 1.0, "nodes/s");
        reg.gauge_set("rate", 2.5, "nodes/s");
        assert_eq!(reg.gauge("rate"), Some(2.5));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let reg = MetricsRegistry::new();
        for v in [0.5, 0.6, 1.0, 3.0, 1024.0] {
            reg.histogram_observe("sizes", v, "B");
        }
        let h = reg.histogram("sizes").expect("histogram exists");
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 1024.0);
        // 0.5,0.6 → bucket 2^-1; 1.0 → 2^0; 3.0 → 2^1; 1024 → 2^10
        assert_eq!(h.buckets, vec![(0.5, 2), (1.0, 1), (2.0, 1), (1024.0, 1)]);
    }

    #[test]
    fn type_clash_keeps_first_writer() {
        let reg = MetricsRegistry::new();
        reg.counter_add("x", 1);
        reg.gauge_set("x", 9.0, "u");
        assert_eq!(reg.counter("x"), Some(1));
        assert_eq!(reg.gauge("x"), None);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("b.rate", 1.5, "nodes/s");
        reg.counter_add("a.msgs", 12);
        reg.histogram_observe("c.dt", 0.25, "s");
        let j1 = reg.to_json();
        let j2 = reg.to_json();
        assert_eq!(j1, j2);
        // BTreeMap ordering: a.msgs before b.rate before c.dt
        let ia = j1.find("a.msgs").expect("a.msgs present");
        let ib = j1.find("b.rate").expect("b.rate present");
        let ic = j1.find("c.dt").expect("c.dt present");
        assert!(ia < ib && ib < ic);
        assert!(j1.contains("\"schema\": \"subsonic-metrics-v1\""));
        assert!(j1.contains("{\"type\": \"counter\", \"value\": 12}"));
        assert!(j1.contains("\"buckets\": [[0.25, 1]]"));
    }

    #[test]
    fn fmt_f64_round_trips() {
        for v in [0.0, -0.0, 1.0, 1.5, 1e-9, 12345.678, 2f64.powi(-32)] {
            let s = fmt_f64(v);
            let back: f64 = s.parse().expect("parses");
            assert_eq!(back, if v == 0.0 { 0.0 } else { v }, "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }
}
