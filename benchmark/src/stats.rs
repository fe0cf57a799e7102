//! Order statistics over round samples, and the differencing used where a
//! cost can only be measured as the gap between two configurations.

/// Median and quartiles of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median — the spread the
    /// driver compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for an even count);
/// 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Share of the rounds the reported value leaves on its worse side.
pub const UNDISTURBED_SHARE: f64 = 0.9;

/// The value an undisturbed round reaches: the 90th percentile counted
/// from the worse side (a rate nine rounds in ten stay below, a cost nine in
/// ten stay above). On a shared virtual machine interference only ever
/// slows a round down, and it comes in phases that last minutes; measured
/// on the recording box, the median of ~100 rounds of `threads_fd3d` spread
/// 6.5 % over ten runs in a quiet phase and 22 % in a noisy one, this value
/// 2.8 % and ~10 %. Every round does the same work, so a real slowdown
/// moves it exactly as it moves the median — which is printed beside it.
pub fn undisturbed(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = sorted(values);
    if lower_is_better {
        v.reverse(); // worst (largest) first, best last
    }
    match v.len() {
        0 => 0.0,
        n => v[((UNDISTURBED_SHARE * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)` gives
/// them (the default *exclusive* method), so the spread printed here is the
/// spread the driver will compute. Fewer than two samples collapse to the
/// single value.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return Quartiles {
            q1: x,
            median: x,
            q3: x,
        };
    }
    let cut = |i: usize| -> f64 {
        let pos = i * (ld + 1);
        let j = (pos / 4).clamp(1, ld - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// on the *worse* side of the distribution: with `n` samples ordered from
/// best to worst it is the sample with exactly ten worse ones after it,
/// i.e. percentile `100·(n−10)/n`. `None` below eleven samples — a tail
/// read off fewer than ten outliers is noise.
pub fn upper_percentile(values: &[f64], lower_is_better: bool) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = sorted(values);
    if !lower_is_better {
        v.reverse(); // best (largest) first, worst last
    }
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// Cost of one unit by differencing two configurations that differ only in
/// how many units they contain: `(t_many − t_few) / (n_many − n_few)`.
/// `None` when the counts coincide.
pub fn per_unit_by_difference(t_many: f64, n_many: f64, t_few: f64, n_few: f64) -> Option<f64> {
    let dn = n_many - n_few;
    (dn != 0.0).then(|| (t_many - t_few) / dn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn undisturbed_value_sits_nine_tenths_toward_the_better_side() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(undisturbed(&hundred, false), 90.0, "rates: 90th from below");
        assert_eq!(undisturbed(&hundred, true), 11.0, "costs: 90th from above");
        // twelve jobs: the second best; three rounds: the best; none: 0
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(undisturbed(&twelve, false), 11.0);
        assert_eq!(undisturbed(&[3.0, 1.0, 2.0], false), 3.0);
        assert_eq!(undisturbed(&[3.0, 1.0, 2.0], true), 1.0);
        assert_eq!(undisturbed(&[], true), 0.0);
        // a slow outlier moves neither it nor the order of the rest
        assert_eq!(undisturbed(&[10.0, 10.0, 10.0, 10.0, 2.0], false), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let q = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn upper_percentile_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(upper_percentile(&ten, true), None);
        // 11 samples: only the best one has ten beyond it -> p(1/11)
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, x) = upper_percentile(&eleven, true).expect("11 samples");
        assert!((p - 100.0 / 11.0).abs() < 1e-9);
        assert_eq!(x, 1.0);
        // 100 latencies 1..=100: p90 is the value with ten larger ones
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(upper_percentile(&hundred, true), Some((90.0, 90.0)));
        // rates: the worse tail is the *low* end
        assert_eq!(upper_percentile(&hundred, false), Some((90.0, 11.0)));
    }

    #[test]
    fn differencing_isolates_the_unit_cost() {
        // 12 commits in 1.30 s vs 3 commits in 1.03 s -> 30 ms per commit
        let c = per_unit_by_difference(1.30, 12.0, 1.03, 3.0).expect("counts differ");
        assert!((c - 0.03).abs() < 1e-12);
        assert_eq!(per_unit_by_difference(1.0, 5.0, 2.0, 5.0), None);
    }
}
