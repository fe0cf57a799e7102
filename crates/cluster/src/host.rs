//! Workstation models: speeds, load averages, nice scheduling.

use subsonic_solvers::MethodKind;

/// The HP9000/700 models of the paper's cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostKind {
    /// HP9000/715-50 — the 50 MHz reference machine (16 in the cluster).
    Hp715_50,
    /// HP9000/710 — slightly slower (3 in the cluster).
    Hp710,
    /// HP9000/720 — slightly slower (6 in the cluster).
    Hp720,
}

impl HostKind {
    /// The paper's cluster composition: 16× 715/50, 6× 720, 3× 710.
    pub fn paper_cluster() -> Vec<HostKind> {
        let mut v = vec![HostKind::Hp715_50; 16];
        v.extend(vec![HostKind::Hp720; 6]);
        v.extend(vec![HostKind::Hp710; 3]);
        v
    }

    /// Computational speed in fluid nodes per second for a method and
    /// dimensionality, from the section-7 speed table (`1.0 ≡ 39132`
    /// nodes/s).
    pub fn node_rate(self, method: MethodKind, three_d: bool) -> f64 {
        let c = subsonic_model::PaperConstants::default();
        let row = match (method, three_d) {
            (MethodKind::LatticeBoltzmann, false) => c.rel_speed_lb2d,
            (MethodKind::LatticeBoltzmann, true) => c.rel_speed_lb3d,
            (MethodKind::FiniteDifference, false) => c.rel_speed_fd2d,
            (MethodKind::FiniteDifference, true) => c.rel_speed_fd3d,
        };
        let rel = match self {
            HostKind::Hp715_50 => row[0],
            HostKind::Hp710 => row[1],
            HostKind::Hp720 => row[2],
        };
        rel * c.u_calc_lb2d
    }

    /// Preference rank for job submission (faster models first): "our
    /// strategy is to choose 715 models first before choosing the slightly
    /// slower 710 and 720 models".
    pub fn preference_rank(self) -> u8 {
        match self {
            HostKind::Hp715_50 => 0,
            HostKind::Hp720 => 1,
            HostKind::Hp710 => 2,
        }
    }
}

/// An exponentially-smoothed load average, as `uptime` reports.
///
/// UNIX load averages follow `L ← L·e^(−Δt/τ) + n·(1 − e^(−Δt/τ))` where `n`
/// is the instantaneous run-queue length, with τ = 60/300/900 s for the
/// 1/5/15-minute averages. We update lazily: the run-queue length is
/// piecewise constant between events.
#[derive(Debug, Clone, Copy)]
pub struct LoadAvg {
    tau: f64,
    value: f64,
    last_update: f64,
}

impl LoadAvg {
    /// A zero load average with the given time constant (seconds).
    pub fn new(tau: f64) -> Self {
        Self {
            tau,
            value: 0.0,
            last_update: 0.0,
        }
    }

    /// The load average at time `now`, given that the run-queue length has
    /// been `n` since the last update.
    pub fn at(&self, now: f64, n: f64) -> f64 {
        let dt = (now - self.last_update).max(0.0);
        let a = (-dt / self.tau).exp();
        self.value * a + n * (1.0 - a)
    }

    /// Folds the interval since the last update (run-queue length `n`) into
    /// the average and advances the update time.
    pub fn advance(&mut self, now: f64, n: f64) {
        self.value = self.at(now, n);
        self.last_update = now;
    }
}

/// Dynamic state of one workstation in the simulation.
#[derive(Debug, Clone)]
pub struct HostState {
    /// Hardware model.
    pub kind: HostKind,
    /// Whether the console user is currently active.
    pub user_active: bool,
    /// Time the user last went idle (valid when `!user_active`).
    pub idle_since: f64,
    /// Number of competing full-time (CPU-bound) jobs.
    pub competitors: u32,
    /// Parallel subprocess currently assigned here, if any.
    pub assigned_proc: Option<usize>,
    /// 1-minute load average of the *competing* run queue only (excluding the
    /// nice'd subprocess) — the smoothed CPU demand that governs the
    /// processor-sharing rate in [`HostState::cpu_share`].
    pub cpu1: LoadAvg,
    /// 5-minute load average (migration trigger: `> 1.5`).
    pub load5: LoadAvg,
    /// 15-minute load average (selection threshold: `< 0.6`).
    pub load15: LoadAvg,
    /// Deliberate external slowdown factor (`>= 1`); the effective node rate
    /// divides by this. `1.0` for normal operation — experiments use it to
    /// throttle a single workstation without touching the job model.
    pub slowdown: f64,
    /// Whether a `CpuRelax` re-planning tick is already pending for this host
    /// (the simulation's bookkeeping; avoids duplicate tick chains).
    pub relax_scheduled: bool,
    /// Whether the machine is powered on. A crashed host is down until its
    /// reboot event (if any); down hosts are never selected for placement.
    pub up: bool,
    /// Whether the machine is in an injected transient stall (alive but not
    /// making progress); frozen hosts are never selected for placement.
    pub frozen: bool,
    /// Guard for the failure detector's probe chain: bumping it invalidates
    /// any outstanding `HeartbeatProbe` events for this host.
    pub probe_epoch: u64,
}

impl HostState {
    /// A quiet host of the given model.
    pub fn new(kind: HostKind) -> Self {
        Self {
            kind,
            user_active: false,
            idle_since: 0.0,
            competitors: 0,
            assigned_proc: None,
            cpu1: LoadAvg::new(60.0),
            load5: LoadAvg::new(300.0),
            load15: LoadAvg::new(900.0),
            slowdown: 1.0,
            relax_scheduled: false,
            up: true,
            frozen: false,
            probe_epoch: 0,
        }
    }

    /// Whether the host can run (or receive) a subprocess right now: powered
    /// on and not stalled.
    pub fn available(&self) -> bool {
        self.up && !self.frozen
    }

    /// Whether the machine answers a failure-detector probe right now. A
    /// frozen host's network stack is as silent as a dead one for the
    /// detector's purposes, but a host whose subprocess is merely *paused*
    /// (barrier, checkpoint, migration drain) still replies — that is
    /// exactly the evidence the accrual detector uses to keep a congested
    /// but living host from being declared dead.
    pub fn answers_probes(&self) -> bool {
        self.up && !self.frozen
    }

    /// Invalidates every outstanding `HeartbeatProbe` chain for this host
    /// (recovered, declared, or proven alive — any of these ends the chain).
    pub fn bump_probe_epoch(&mut self) {
        self.probe_epoch += 1;
    }

    /// Instantaneous run-queue length as `uptime` would count it: competing
    /// full-time jobs plus our own (nice'd) subprocess if one runs here.
    pub fn run_queue(&self) -> f64 {
        self.competitors as f64
            + if self.assigned_proc.is_some() {
                1.0
            } else {
                0.0
            }
    }

    /// Folds elapsed time into the load averages (call *before* changing
    /// `competitors` or `assigned_proc`).
    pub fn touch(&mut self, now: f64) {
        let n = self.run_queue();
        self.cpu1.advance(now, self.competitors as f64);
        self.load5.advance(now, n);
        self.load15.advance(now, n);
    }

    /// Smoothed competing CPU demand at `now`: the 1-minute-averaged number
    /// of full-time jobs contending for the processor.
    pub fn cpu_demand(&self, now: f64) -> f64 {
        self.cpu1.at(now, self.competitors as f64)
    }

    /// The share of the CPU the nice'd parallel subprocess receives at `now`,
    /// under processor sharing with priority weights.
    ///
    /// The subprocess runs at weight `w` against `d` competing full-time jobs
    /// of weight 1, so its share is `w / (w + d)`. The demand `d` is the
    /// 1-minute load average of the competitors ([`HostState::cpu_demand`]) —
    /// the scheduler reacts on the load-average timescale, so a job landing
    /// on the host squeezes the subprocess gradually rather than instantly.
    ///
    /// Interactive users cost nothing measurable ("there is no loss of
    /// interactiveness. After the user's tasks are serviced, there are enough
    /// CPU cycles left for the distributed computation", section 5.1): only
    /// full-time jobs enter the demand. With no competitors the share is
    /// exactly 1. In steady state under one full-time job the share settles
    /// at `w / (w + 1)` — choosing `w = floor / (1 − floor)` recovers the
    /// configured `nice_floor` exactly (see `ClusterConfig::nice_weight`).
    pub fn cpu_share(&self, now: f64, nice_weight: f64) -> f64 {
        let d = self.cpu_demand(now);
        if d <= 0.0 && self.competitors == 0 {
            return 1.0;
        }
        nice_weight / (nice_weight + d)
    }

    /// Whether the user has been idle for at least `idle_threshold` seconds
    /// (the paper's "more than 20 minutes idle time" classification).
    pub fn user_is_idle(&self, now: f64, idle_threshold: f64) -> bool {
        !self.user_active && (now - self.idle_since) >= idle_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_composition() {
        let hosts = HostKind::paper_cluster();
        assert_eq!(hosts.len(), 25);
        assert_eq!(
            hosts.iter().filter(|h| **h == HostKind::Hp715_50).count(),
            16
        );
        assert_eq!(hosts.iter().filter(|h| **h == HostKind::Hp720).count(), 6);
        assert_eq!(hosts.iter().filter(|h| **h == HostKind::Hp710).count(), 3);
    }

    #[test]
    fn node_rates_match_table() {
        let r = HostKind::Hp715_50.node_rate(MethodKind::LatticeBoltzmann, false);
        assert!((r - 39132.0).abs() < 1e-9);
        let r = HostKind::Hp710.node_rate(MethodKind::LatticeBoltzmann, false);
        assert!((r - 0.84 * 39132.0).abs() < 1e-9);
        let r = HostKind::Hp715_50.node_rate(MethodKind::FiniteDifference, false);
        assert!((r - 1.24 * 39132.0).abs() < 1e-9);
        let r = HostKind::Hp720.node_rate(MethodKind::LatticeBoltzmann, true);
        assert!((r - 0.42 * 39132.0).abs() < 1e-9);
    }

    #[test]
    fn load_average_converges_to_run_queue() {
        let mut l = LoadAvg::new(300.0);
        l.advance(0.0, 0.0);
        // hold n = 2 for a long time
        assert!((l.at(3600.0, 2.0) - 2.0).abs() < 1e-4);
        // crossing 1.5 from 1.0 to 2.0 takes 300 ln 2 ≈ 208 s
        let mut l = LoadAvg::new(300.0);
        l.value = 1.0;
        l.last_update = 0.0;
        let t_cross = 300.0 * 2.0f64.ln();
        assert!(l.at(t_cross - 5.0, 2.0) < 1.5);
        assert!(l.at(t_cross + 5.0, 2.0) > 1.5);
    }

    #[test]
    fn cpu_share_starves_under_competition() {
        // weight for a 0.25 steady-state floor under one competitor
        let w = 0.25 / (1.0 - 0.25);
        let mut h = HostState::new(HostKind::Hp715_50);
        assert_eq!(h.cpu_share(0.0, w), 1.0);
        // a job arrives at t = 0: the squeeze follows the 1-minute average
        h.competitors = 1;
        let early = h.cpu_share(1.0, w);
        let late = h.cpu_share(600.0, w);
        assert!(early > 0.9, "squeeze should be gradual, got {early}");
        assert!((late - 0.25).abs() < 1e-4, "steady share {late} != floor");
        // two competitors: processor sharing gives w/(w+2) = 1/7
        h.cpu1 = LoadAvg::new(60.0);
        h.competitors = 2;
        let two = h.cpu_share(600.0, w);
        assert!((two - w / (w + 2.0)).abs() < 1e-4, "share {two}");
        assert!(two < 0.25, "more competitors must mean a smaller share");
    }

    #[test]
    fn cpu_demand_relaxes_after_departure() {
        let mut h = HostState::new(HostKind::Hp715_50);
        h.competitors = 1;
        h.touch(0.0);
        // converge toward 1, then the job leaves at t = 300
        h.touch(300.0);
        h.competitors = 0;
        let just_after = h.cpu_demand(301.0);
        let much_later = h.cpu_demand(900.0);
        assert!(just_after > 0.9, "demand should linger: {just_after}");
        assert!(much_later < 0.01, "demand should decay: {much_later}");
        // and the share recovers toward 1 as the demand decays
        let w = 1.0 / 3.0;
        assert!(h.cpu_share(900.0, w) > 0.97);
    }

    #[test]
    fn idle_classification_needs_threshold() {
        let mut h = HostState::new(HostKind::Hp710);
        h.user_active = false;
        h.idle_since = 100.0;
        assert!(!h.user_is_idle(500.0, 1200.0));
        assert!(h.user_is_idle(1400.0, 1200.0));
        h.user_active = true;
        assert!(!h.user_is_idle(1.0e6, 1200.0));
    }
}
