//! Pluggable job-ordering policies for the multi-tenant queue.
//!
//! A policy answers one question: *which tenant's head-of-line job, if any,
//! may start next?* The simulation owns the queue (per-tenant FIFOs plus a
//! global arrival order) and the host pool; the policy owns the ordering
//! discipline and whatever per-tenant accounting that discipline needs. All
//! four disciplines are **non-bypassing by default** — if the chosen job
//! does not fit, dispatch stops rather than skipping ahead — which makes
//! FIFO, round-robin and weighted fair-share trivially starvation-free. EASY
//! backfill is the one deliberate exception: it may move short jobs ahead of
//! a blocked head, but only when they provably finish before the head's
//! reservation, so the head is never delayed (Lifka's EASY rule; durations
//! are exactly known in the simulator, so the proof is exact rather than
//! estimate-based).

/// The ordering discipline of the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Strict arrival order; a wide head blocks everything behind it.
    Fifo,
    /// Tenant rotation: each successful dispatch advances a cursor over the
    /// tenants, so one chatty tenant cannot monopolise the cluster.
    RoundRobin,
    /// Weighted fair share: always serve the tenant with the smallest
    /// `delivered_service / weight` (a virtual-time scheduler over
    /// host-seconds). A backlogged tenant's virtual time freezes while it
    /// waits, so it becomes the minimum in bounded time — no starvation.
    FairShare,
    /// FIFO plus EASY backfill: the head gets a reservation at the earliest
    /// instant enough hosts will be free; shorter jobs behind it may run now
    /// iff they finish before that reservation.
    EasyBackfill,
}

impl PolicyKind {
    /// Every discipline, in the order experiments report them.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fifo,
        PolicyKind::RoundRobin,
        PolicyKind::FairShare,
        PolicyKind::EasyBackfill,
    ];

    /// Stable lowercase identifier (metric names, report rows, CLI).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::RoundRobin => "rr",
            PolicyKind::FairShare => "fair",
            PolicyKind::EasyBackfill => "backfill",
        }
    }

    /// Parses the [`Self::name`] form.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Whether the discipline picks by tenant (round-robin, fair share)
    /// rather than by global arrival order (FIFO, backfill).
    pub fn is_tenant_ordered(self) -> bool {
        matches!(self, PolicyKind::RoundRobin | PolicyKind::FairShare)
    }
}

/// Mutable per-tenant state a discipline keeps between decisions.
#[derive(Debug, Clone)]
pub struct PolicyState {
    kind: PolicyKind,
    /// Fair-share: host-seconds delivered per tenant.
    used_service: Vec<f64>,
    /// Fair-share weights (from the tenant specs).
    weights: Vec<f64>,
    /// Round-robin: tenant the cursor points at.
    cursor: usize,
}

impl PolicyState {
    /// Fresh accounting for `weights.len()` tenants.
    pub fn new(kind: PolicyKind, weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        Self {
            kind,
            used_service: vec![0.0; weights.len()],
            weights: weights.to_vec(),
            cursor: 0,
        }
    }

    /// The discipline this state serves.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// For tenant-ordered disciplines: which tenant's head-of-line job to
    /// try next, given which tenants have queued work. Round-robin takes the
    /// first backlogged tenant at or after the cursor; fair share takes the
    /// backlogged tenant with the least normalised service (ties to the
    /// lower id). Globally-ordered disciplines (FIFO, backfill) return
    /// `None` — the caller uses the arrival-order head instead.
    pub fn choose_tenant(&self, backlogged: &[bool]) -> Option<usize> {
        debug_assert_eq!(backlogged.len(), self.weights.len());
        match self.kind {
            PolicyKind::Fifo | PolicyKind::EasyBackfill => None,
            PolicyKind::RoundRobin => {
                let n = self.weights.len();
                (0..n)
                    .map(|off| (self.cursor + off) % n)
                    .find(|&t| backlogged[t])
            }
            PolicyKind::FairShare => {
                (0..self.weights.len())
                    .filter(|&t| backlogged[t])
                    .min_by(|&a, &b| {
                        self.virtual_time(a as u16)
                            .total_cmp(&self.virtual_time(b as u16))
                            .then(a.cmp(&b))
                    })
            }
        }
    }

    /// Records a dispatch: `tenant` received `host_seconds` of service.
    /// Advances the round-robin cursor past that tenant.
    pub fn on_dispatch(&mut self, tenant: u16, host_seconds: f64) {
        self.used_service[tenant as usize] += host_seconds;
        self.cursor = (tenant as usize + 1) % self.weights.len();
    }

    /// Fair-share virtual time of a tenant (normalised delivered service).
    pub fn virtual_time(&self, tenant: u16) -> f64 {
        self.used_service[tenant as usize] / self.weights[tenant as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
        }
        assert_eq!(PolicyKind::parse("lifo"), None);
    }

    #[test]
    fn global_disciplines_do_not_pick_tenants() {
        for kind in [PolicyKind::Fifo, PolicyKind::EasyBackfill] {
            let s = PolicyState::new(kind, &[1.0, 1.0]);
            assert!(!kind.is_tenant_ordered());
            assert_eq!(s.choose_tenant(&[true, true]), None);
        }
    }

    #[test]
    fn round_robin_rotates_tenants() {
        let mut s = PolicyState::new(PolicyKind::RoundRobin, &[1.0, 1.0, 1.0]);
        // tenants 0 and 1 backlogged, 2 empty
        assert_eq!(s.choose_tenant(&[true, true, false]), Some(0));
        s.on_dispatch(0, 10.0); // cursor -> 1
        assert_eq!(s.choose_tenant(&[true, true, false]), Some(1));
        s.on_dispatch(1, 10.0); // cursor -> 2; tenant 2 empty, wraps to 0
        assert_eq!(s.choose_tenant(&[true, false, false]), Some(0));
        assert_eq!(s.choose_tenant(&[false, false, false]), None);
    }

    #[test]
    fn fair_share_serves_the_least_served_tenant() {
        let mut s = PolicyState::new(PolicyKind::FairShare, &[1.0, 2.0]);
        let all = [true, true];
        // equal virtual time 0: tie goes to tenant 0
        assert_eq!(s.choose_tenant(&all), Some(0));
        s.on_dispatch(0, 100.0); // v0 = 100, v1 = 0
        assert_eq!(s.choose_tenant(&all), Some(1));
        s.on_dispatch(1, 100.0); // v1 = 50 < v0 = 100: weight-2 tenant again
        assert_eq!(s.choose_tenant(&all), Some(1));
        s.on_dispatch(1, 150.0); // v1 = 125 > v0 = 100
        assert_eq!(s.choose_tenant(&all), Some(0));
        assert!((s.virtual_time(1) - 125.0).abs() < 1e-12);
        // an empty winner is skipped even with the lowest virtual time
        assert_eq!(s.choose_tenant(&[false, true]), Some(1));
    }
}
