//! Per-phase timing instrumentation (the `T_calc` / `T_com` of section 8).

use std::time::Duration;

/// Accumulated wall-clock time of one worker, split the way the paper's
/// efficiency analysis splits it: local computation vs waiting on
/// communication.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTiming {
    /// Time spent in local compute phases.
    pub t_calc: Duration,
    /// Time spent packing, sending, receiving and unpacking halos.
    pub t_com: Duration,
    /// Time spent packing halo faces into send buffers. This is a
    /// *sub-component* of `t_com`, measured exactly once per pack (the pack
    /// happens inside the timed exchange window, so it must never be added
    /// to `t_com` a second time by `merge`/`append`/`per_step`). The
    /// invariant `t_pack <= t_com` is pinned by unit tests and asserted by
    /// the runner integration tests.
    pub t_pack: Duration,
    /// Steps completed.
    pub steps: u64,
    /// Halo messages sent.
    pub msgs_sent: u64,
    /// Total `f64`s sent across all halo messages.
    pub doubles_sent: u64,
    /// Message buffers freshly allocated (return channel was empty).
    pub buf_allocs: u64,
    /// Message buffers recycled from the return channel.
    pub buf_reuses: u64,
}

impl StepTiming {
    /// Processor utilisation `g = T_calc / (T_calc + T_com)` (eq. 8) — equal
    /// to the parallel efficiency for completely parallelisable problems
    /// (eq. 12). `t_pack` is inside `t_com` and must not be added here.
    pub fn utilization(&self) -> f64 {
        let c = self.t_calc.as_secs_f64();
        let m = self.t_com.as_secs_f64();
        if c + m == 0.0 {
            return 1.0;
        }
        c / (c + m)
    }

    /// Mean wall-clock duration of one integration step. `t_pack` already
    /// lives inside `t_com`, so the total is `t_calc + t_com` — adding the
    /// pack time again would double-count it.
    pub fn per_step(&self) -> Duration {
        if self.steps == 0 {
            return Duration::ZERO;
        }
        (self.t_calc + self.t_com) / self.steps as u32
    }

    /// Fraction of communication time spent packing (as opposed to waiting
    /// on the wire / unpacking).
    pub fn pack_fraction(&self) -> f64 {
        let m = self.t_com.as_secs_f64();
        if m == 0.0 {
            return 0.0;
        }
        self.t_pack.as_secs_f64() / m
    }

    /// Merges another worker's timing into this one (summing; `steps` takes
    /// the max since peers run the same step range).
    pub fn merge(&mut self, other: &StepTiming) {
        self.t_calc += other.t_calc;
        self.t_com += other.t_com;
        self.t_pack += other.t_pack;
        self.steps = self.steps.max(other.steps);
        self.msgs_sent += other.msgs_sent;
        self.doubles_sent += other.doubles_sent;
        self.buf_allocs += other.buf_allocs;
        self.buf_reuses += other.buf_reuses;
    }

    /// Appends a *later segment of the same worker* (everything sums,
    /// including `steps`) — used by `subsonic-net`'s supervisor to accumulate
    /// committed segments across checkpoints.
    pub fn append(&mut self, other: &StepTiming) {
        self.t_calc += other.t_calc;
        self.t_com += other.t_com;
        self.t_pack += other.t_pack;
        self.steps += other.steps;
        self.msgs_sent += other.msgs_sent;
        self.doubles_sent += other.doubles_sent;
        self.buf_allocs += other.buf_allocs;
        self.buf_reuses += other.buf_reuses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_limits() {
        let t = StepTiming::default();
        assert_eq!(t.utilization(), 1.0);
        let t = StepTiming {
            t_calc: Duration::from_secs(3),
            t_com: Duration::from_secs(1),
            steps: 4,
            ..Default::default()
        };
        assert!((t.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(t.per_step(), Duration::from_secs(1));
    }

    #[test]
    fn merge_sums_times() {
        let mut a = StepTiming {
            t_calc: Duration::from_secs(1),
            t_com: Duration::from_secs(2),
            t_pack: Duration::from_millis(500),
            steps: 10,
            msgs_sent: 4,
            doubles_sent: 100,
            buf_allocs: 2,
            buf_reuses: 2,
        };
        let b = StepTiming {
            t_calc: Duration::from_secs(3),
            t_com: Duration::from_secs(4),
            t_pack: Duration::from_millis(250),
            steps: 10,
            msgs_sent: 6,
            doubles_sent: 200,
            buf_allocs: 1,
            buf_reuses: 5,
        };
        a.merge(&b);
        assert_eq!(a.t_calc, Duration::from_secs(4));
        assert_eq!(a.t_com, Duration::from_secs(6));
        assert_eq!(a.t_pack, Duration::from_millis(750));
        assert_eq!(a.steps, 10);
        assert_eq!(a.msgs_sent, 10);
        assert_eq!(a.doubles_sent, 300);
        assert_eq!(a.buf_allocs, 3);
        assert_eq!(a.buf_reuses, 7);
    }

    /// Pins the pack-time accounting: `t_pack` is a sub-component of `t_com`
    /// and must never be counted into the step total a second time — not by
    /// `per_step`, not by `utilization`, and not when segments are appended
    /// (the supervised-runner path, where the buffer-return channel being
    /// empty forces a fresh alloc inside the timed pack window).
    #[test]
    fn pack_time_is_not_double_counted() {
        let seg = StepTiming {
            t_calc: Duration::from_secs(6),
            t_com: Duration::from_secs(2),
            t_pack: Duration::from_secs(1), // half the com window was packing
            steps: 4,
            buf_allocs: 1, // return channel was empty: alloc inside pack
            ..Default::default()
        };
        // per_step uses t_calc + t_com only: (6+2)/4 = 2 s, NOT (6+2+1)/4.
        assert_eq!(seg.per_step(), Duration::from_secs(2));
        // utilization likewise: 6/(6+2), not 6/(6+2+1).
        assert!((seg.utilization() - 0.75).abs() < 1e-12);

        // Append two identical committed segments: every field doubles and
        // the invariant t_pack <= t_com is preserved exactly.
        let mut total = seg;
        total.append(&seg);
        assert_eq!(total.t_com, Duration::from_secs(4));
        assert_eq!(total.t_pack, Duration::from_secs(2));
        assert!(total.t_pack <= total.t_com);
        assert_eq!(total.per_step(), Duration::from_secs(2));
        assert!((total.pack_fraction() - 0.5).abs() < 1e-12);
    }
}
