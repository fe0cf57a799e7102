//! Runtime policies: job submission, monitoring, communication ordering.

use crate::host::HostState;

/// Host-selection policy of the job-submit program (section 4.1): "we first
/// examine the idle-user workstations to see if the fifteen-minute average of
/// the CPU load is below a pre-set value ... After examining the idle-user
/// workstations, we examine the active-user workstations."
#[derive(Debug, Clone, Copy)]
pub struct SubmitPolicy {
    /// Seconds of console inactivity before a user counts as idle (paper:
    /// "more than 20 minutes idle time").
    pub idle_threshold_s: f64,
    /// Maximum 15-minute load average for selection (paper: 0.6).
    pub load15_max: f64,
    /// How long one search over the cluster takes (running `uptime` on every
    /// of the 25 workstations remotely, roughly a second each); the dominant
    /// share of the paper's ~30-second migration pause.
    pub search_duration_s: f64,
}

impl Default for SubmitPolicy {
    fn default() -> Self {
        Self {
            idle_threshold_s: 20.0 * 60.0,
            load15_max: 0.6,
            search_duration_s: 20.0,
        }
    }
}

impl SubmitPolicy {
    /// Picks the best free host at time `now`, or `None`.
    ///
    /// Candidates must be up (not crashed or stalled), have no assigned
    /// subprocess and no competing full-time job. Idle-user hosts under the
    /// load threshold come first, then active-user hosts; within a tier,
    /// faster models first (the paper chooses 715s before 710/720s), then
    /// lower 15-minute load.
    pub fn select<'a>(
        &self,
        now: f64,
        hosts: impl Iterator<Item = (usize, &'a HostState)>,
    ) -> Option<usize> {
        hosts
            .filter_map(|(id, h)| self.key(now, id, h))
            .min_by(PlacementKey::cmp)
            .map(|k| k.id)
    }

    /// Every free host at `now`, best first: the order repeated
    /// [`select`](Self::select) calls would pick them in if each pick were
    /// taken out of the pool (marking a host taken changes only that host's
    /// key). Placing `P` processes at once is then one pass over the cluster
    /// instead of `P`.
    pub(crate) fn rank<'a>(
        &self,
        now: f64,
        hosts: impl Iterator<Item = (usize, &'a HostState)>,
    ) -> Vec<usize> {
        let mut keys: Vec<PlacementKey> =
            hosts.filter_map(|(id, h)| self.key(now, id, h)).collect();
        keys.sort_unstable_by(PlacementKey::cmp);
        keys.into_iter().map(|k| k.id).collect()
    }

    /// `select`'s ranking key of host `id`, or `None` if it is not a
    /// candidate.
    fn key(&self, now: f64, id: usize, h: &HostState) -> Option<PlacementKey> {
        if !h.available() || h.assigned_proc.is_some() || h.competitors > 0 {
            return None;
        }
        let l15 = h.load15.at(now, h.run_queue());
        let tier = if h.user_is_idle(now, self.idle_threshold_s) && l15 < self.load15_max {
            0
        } else {
            1
        };
        Some(PlacementKey {
            tier,
            rank: h.kind.preference_rank(),
            l15,
            id,
        })
    }
}

/// A candidate host's place in the submit order: idle tier, model
/// preference, 15-minute load, then host id (the first host wins a tie).
#[derive(Debug, Clone, Copy)]
struct PlacementKey {
    tier: u8,
    rank: u8,
    l15: f64,
    id: usize,
}

impl PlacementKey {
    fn cmp(a: &Self, b: &Self) -> std::cmp::Ordering {
        (a.tier, a.rank)
            .cmp(&(b.tier, b.rank))
            .then(a.l15.total_cmp(&b.l15))
            .then(a.id.cmp(&b.id))
    }
}

/// The monitoring program (sections 4.1, 5.1).
#[derive(Debug, Clone, Copy)]
pub struct MonitorPolicy {
    /// Whether the monitor runs at all.
    pub enabled: bool,
    /// Check period ("checks every few minutes"), seconds.
    pub period_s: f64,
    /// 5-minute load threshold that triggers migration (paper: 1.5, "the
    /// intent is to migrate only if a second full-time process is running on
    /// the same host, and to avoid migrating too often").
    pub load5_migrate: f64,
}

impl Default for MonitorPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            period_s: 180.0,
            load5_migrate: 1.5,
        }
    }
}

/// How the monitor decides that a silent host is dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorMode {
    /// The classic probe schedule: `max_misses` consecutive unanswered
    /// checks at exponentially backed-off intervals declare the process
    /// dead, no matter *why* the host is silent. Checks are out-of-band
    /// (the monitor consults host state directly, as the PR 3 model did),
    /// so bus congestion cannot delay them — which is exactly why pure
    /// congestion produces false positives: ACK evidence stops arriving
    /// and the schedule runs to declaration.
    FixedTimeout,
    /// Accrual (φ-style) detection: probes are real small messages on the
    /// modelled bus, replies feed an RTT estimate, and suspicion
    /// `φ = elapsed/expected` grows *continuously* with silence instead of
    /// counting discrete misses. Congestion inflates probe RTTs, which
    /// inflates `expected`, which keeps φ below threshold — saturation
    /// slows detection instead of triggering it.
    Accrual,
}

/// The monitor's heartbeat failure detector.
///
/// The paper's monitoring program notices a dead subprocess and re-submits it
/// "in the same way as the monitoring program restarts an interrupted
/// computation" (section 4.1). We model the detection side explicitly: when a
/// host stops answering, the monitor probes it after `timeout_s`, then backs
/// off exponentially (`timeout_s · backoff^k`, clamped to
/// `max_probe_interval_s`) to avoid hammering a machine that may just be
/// slow, and declares the subprocess dead after `max_misses` consecutive
/// unanswered probes. A transient stall shorter than the full schedule goes
/// unpunished; a longer one triggers a false-positive restart — the classic
/// completeness/accuracy trade-off. [`DetectorMode::Accrual`] replaces the
/// discrete miss count with a continuous suspicion level fed by probe RTTs.
#[derive(Debug, Clone, Copy)]
pub struct DetectorPolicy {
    /// Whether failure detection runs at all.
    pub enabled: bool,
    /// Seconds without a heartbeat before the first probe fires.
    pub timeout_s: f64,
    /// Multiplier applied to the wait before each subsequent probe (`>= 1`).
    pub backoff: f64,
    /// Consecutive unanswered probes before the process is declared dead.
    pub max_misses: u32,
    /// Upper bound on the backed-off probe interval, seconds. Without it
    /// `timeout_s · backoff^k` grows without limit and a long freeze makes
    /// re-detection arbitrarily slow.
    pub max_probe_interval_s: f64,
    /// Declaration strategy (fixed miss count vs accrual suspicion).
    pub mode: DetectorMode,
    /// Accrual threshold: declare dead when
    /// `φ = silence / expected ≥ phi_threshold`.
    pub phi_threshold: f64,
    /// Accrual RTT headroom: `expected = max(timeout_s, srtt + k·rttvar)`
    /// with `k = rtt_inflation`, so congested-but-alive links raise the bar.
    pub rtt_inflation: f64,
}

impl Default for DetectorPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            timeout_s: 5.0,
            backoff: 2.0,
            max_misses: 3,
            // Default clamp sits above the 3-miss schedule's largest gap
            // (20 s), so the classic 5/15/35 offsets are unchanged.
            max_probe_interval_s: 60.0,
            mode: DetectorMode::FixedTimeout,
            phi_threshold: 8.0,
            rtt_inflation: 4.0,
        }
    }
}

impl DetectorPolicy {
    /// The wait before probe number `misses` (1-based), with the exponential
    /// backoff clamped to [`max_probe_interval_s`](Self::max_probe_interval_s).
    pub fn probe_wait(&self, misses: u32) -> f64 {
        let raw = self.timeout_s * self.backoff.powi(misses.saturating_sub(1) as i32);
        raw.min(self.max_probe_interval_s)
    }

    /// Offsets (seconds after the heartbeat stopped) at which each probe
    /// fires: `timeout · Σ backoff^j` with each term clamped to
    /// `max_probe_interval_s`, one entry per probe up to the declaration
    /// probe.
    pub fn probe_offsets(&self) -> Vec<f64> {
        let mut offsets = Vec::with_capacity(self.max_misses as usize);
        let mut t = 0.0;
        for k in 1..=self.max_misses {
            t += self.probe_wait(k);
            offsets.push(t);
        }
        offsets
    }

    /// Seconds from heartbeat loss to declaration (the last probe offset);
    /// the geometric sum `timeout · (backoff^m − 1)/(backoff − 1)` when no
    /// term hits the clamp.
    pub fn detection_latency(&self) -> f64 {
        self.probe_offsets().last().copied().unwrap_or(0.0)
    }
}

/// Appendix-C ordering of neighbour communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOrdering {
    /// Asynchronous first-come-first-served (the paper's choice, via
    /// `select()`): "better performance is achieved overall".
    Fcfs,
    /// Strict pipelining: a process must receive from its lower-ranked
    /// neighbours before sending to higher-ranked ones. "It does not work
    /// very well ... strict ordering amplifies [small delays] to global
    /// delays."
    Strict,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostKind, HostState};

    fn quiet_host(kind: HostKind, idle_since: f64) -> HostState {
        let mut h = HostState::new(kind);
        h.idle_since = idle_since;
        h
    }

    #[test]
    fn submit_prefers_idle_fast_hosts() {
        let p = SubmitPolicy::default();
        let now = 30.0 * 60.0;
        let hosts = [
            quiet_host(HostKind::Hp710, 0.0),    // idle, slow
            quiet_host(HostKind::Hp715_50, 0.0), // idle, fast  <- winner
            quiet_host(HostKind::Hp715_50, now), // user just left (not idle yet)
        ];
        let sel = p.select(now, hosts.iter().enumerate());
        assert_eq!(sel, Some(1));
    }

    #[test]
    fn submit_falls_back_to_active_user_hosts() {
        let p = SubmitPolicy::default();
        let now = 1.0;
        let mut active = quiet_host(HostKind::Hp715_50, 0.0);
        active.user_active = true;
        let hosts = [active];
        assert_eq!(p.select(now, hosts.iter().enumerate()), Some(0));
    }

    #[test]
    fn submit_skips_busy_and_taken_hosts() {
        let p = SubmitPolicy::default();
        let now = 30.0 * 60.0;
        let mut taken = quiet_host(HostKind::Hp715_50, 0.0);
        taken.assigned_proc = Some(3);
        let mut busy = quiet_host(HostKind::Hp715_50, 0.0);
        busy.competitors = 1;
        let hosts = [taken, busy];
        assert_eq!(p.select(now, hosts.iter().enumerate()), None);
    }

    #[test]
    fn submit_skips_down_and_frozen_hosts() {
        let p = SubmitPolicy::default();
        let now = 30.0 * 60.0;
        let mut down = quiet_host(HostKind::Hp715_50, 0.0);
        down.up = false;
        let mut frozen = quiet_host(HostKind::Hp715_50, 0.0);
        frozen.frozen = true;
        let ok = quiet_host(HostKind::Hp710, 0.0);
        let hosts = [down, frozen, ok];
        assert_eq!(p.select(now, hosts.iter().enumerate()), Some(2));
    }

    #[test]
    fn detector_schedule_is_exponential() {
        let d = DetectorPolicy {
            timeout_s: 5.0,
            backoff: 2.0,
            max_misses: 3,
            ..DetectorPolicy::default()
        };
        let offs = d.probe_offsets();
        assert_eq!(offs.len(), 3);
        assert!((offs[0] - 5.0).abs() < 1e-12);
        assert!((offs[1] - 15.0).abs() < 1e-12);
        assert!((offs[2] - 35.0).abs() < 1e-12);
        assert!((d.detection_latency() - 35.0).abs() < 1e-12);
        // closed form: timeout · (b^m − 1)/(b − 1)
        let closed = 5.0 * (2.0f64.powi(3) - 1.0) / (2.0 - 1.0);
        assert!((d.detection_latency() - closed).abs() < 1e-12);
    }

    #[test]
    fn detector_without_backoff_is_periodic() {
        let d = DetectorPolicy {
            timeout_s: 2.0,
            backoff: 1.0,
            max_misses: 4,
            ..DetectorPolicy::default()
        };
        assert_eq!(d.probe_offsets(), vec![2.0, 4.0, 6.0, 8.0]);
        assert!((d.detection_latency() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn probe_backoff_is_clamped_to_max_interval() {
        // unclamped waits would be 5, 10, 20, 40, 80, 160; the clamp caps
        // every wait at 25 s so long schedules grow linearly, not
        // geometrically
        let d = DetectorPolicy {
            timeout_s: 5.0,
            backoff: 2.0,
            max_misses: 6,
            max_probe_interval_s: 25.0,
            ..DetectorPolicy::default()
        };
        assert!((d.probe_wait(1) - 5.0).abs() < 1e-12);
        assert!((d.probe_wait(2) - 10.0).abs() < 1e-12);
        assert!((d.probe_wait(3) - 20.0).abs() < 1e-12);
        for m in 4..=6 {
            assert!((d.probe_wait(m) - 25.0).abs() < 1e-12, "wait {m} unclamped");
        }
        let offs = d.probe_offsets();
        assert_eq!(offs, vec![5.0, 15.0, 35.0, 60.0, 85.0, 110.0]);
        // the default clamp (60 s) leaves the classic schedule untouched
        let default = DetectorPolicy::default();
        assert_eq!(default.probe_offsets(), vec![5.0, 15.0, 35.0]);
    }

    #[test]
    fn high_load_idle_host_drops_to_second_tier() {
        let p = SubmitPolicy::default();
        let now = 40.0 * 60.0;
        // an idle host whose load15 is high (e.g. background daemons)
        let mut loaded = quiet_host(HostKind::Hp715_50, 0.0);
        loaded.load15.advance(0.0, 0.0);
        loaded.load15 = {
            let mut l = crate::host::LoadAvg::new(900.0);
            l.advance(0.0, 0.0);
            l
        };
        // simulate a long-gone run-queue of 1.0 that keeps load15 ~ 0.9
        loaded
            .load15
            .advance(now - 10.0, 0.9 / (1.0 - (-(now - 10.0) / 900.0f64).exp()));
        let clean = quiet_host(HostKind::Hp710, 0.0);
        let hosts = [loaded, clean];
        // the slow-but-clean host wins because the fast one exceeds 0.6
        let sel = p.select(now, hosts.iter().enumerate());
        assert_eq!(sel, Some(1));
    }

    /// A random pool: mixed models, users active or idle since a random
    /// time, random 15-minute loads (untouched hosts tie at 0 and fall back
    /// to the id), and some hosts down, frozen, busy or already taken.
    fn random_pool(seed: u64) -> (f64, Vec<HostState>) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut r = SmallRng::seed_from_u64(seed);
        let now = r.gen_range(0usize..4) as f64 * 900.0;
        let kinds = [HostKind::Hp715_50, HostKind::Hp710, HostKind::Hp720];
        let hosts = (0..r.gen_range(1usize..64))
            .map(|_| {
                let mut h = HostState::new(kinds[r.gen_range(0usize..3)]);
                h.user_active = r.gen_range(0usize..3) == 0;
                h.idle_since = now - r.gen_range(0usize..3) as f64 * 900.0;
                if r.gen_range(0usize..2) == 0 {
                    let t = r.gen_range(0.0..now.max(1.0));
                    h.load15.advance(t, r.gen_range(0usize..3) as f64);
                }
                match r.gen_range(0usize..16) {
                    0 => h.up = false,
                    1 => h.frozen = true,
                    2 => h.competitors = 1,
                    3 => h.assigned_proc = Some(usize::MAX),
                    _ => {}
                }
                h
            })
            .collect();
        (now, hosts)
    }

    proptest::proptest! {
        /// `rank` lists hosts in exactly the order repeated `select` calls
        /// pick them when each pick is touched and taken, as `ClusterSim`'s
        /// placement did one call per process, and ends where `select` runs
        /// out of hosts.
        #[test]
        fn rank_matches_repeated_select(seed in proptest::prelude::any::<u64>()) {
            let p = SubmitPolicy::default();
            let (now, mut hosts) = random_pool(seed);
            let ranked = p.rank(now, hosts.iter().enumerate());
            let mut picked = Vec::new();
            while let Some(h) = p.select(now, hosts.iter().enumerate()) {
                hosts[h].touch(now);
                hosts[h].assigned_proc = Some(picked.len());
                picked.push(h);
            }
            proptest::prop_assert_eq!(ranked, picked, "seed {}", seed);
        }
    }
}
