//! Seeded fault injection: host crashes, transient freezes, bus saturation
//! bursts.
//!
//! The paper ran on 25 *non-dedicated* workstations where "the distributed
//! computation must survive the unexpected loss of any workstation" —
//! machines get rebooted, users reclaim consoles, and the saturated 10 Mbps
//! bus produced real TCP delivery failures in the 3D runs (section 7). The
//! runtime survived by restarting from dump files. A [`FaultPlan`] injects
//! those failure modes into the event simulation deterministically, so
//! recovery cost becomes a measurable quantity instead of an anecdote.
//!
//! Determinism contract: fault times are drawn from a *dedicated* RNG stream
//! (seed salted with [`FAULT_STREAM_SALT`], distinct from the bus and
//! user/background streams), and an **empty plan schedules nothing and draws
//! nothing** — every existing seeded result is bit-identical with the fault
//! layer compiled in. The `empty_plan_changes_nothing` tests pin this.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed salt separating the fault-injection RNG stream from the bus and
/// user/background streams (see `USER_STREAM_SALT` in `sim`).
pub const FAULT_STREAM_SALT: u64 = 0xFA17_0000_5EED_0002;

/// Seed salt for the reliable-transport control stream: message-fault
/// sampling (loss/duplication/reorder draws) and control-message jitter.
/// Separate from [`FAULT_STREAM_SALT`] so adding message faults to a plan
/// never perturbs where crashes/freezes land, and separate from the bus
/// stream so a plan without message faults draws nothing new.
pub const TRANSPORT_STREAM_SALT: u64 = 0x7A4E_5007_5EED_0003;

/// One injected failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// The workstation loses power / is rebooted by its owner: the host goes
    /// down, any parallel subprocess on it dies instantly, and the host
    /// rejoins the pool (empty, freshly booted) after `reboot_after` seconds
    /// — or never, if `None`.
    HostCrash {
        /// Host index.
        host: usize,
        /// Simulated time of the crash, seconds.
        at: f64,
        /// Seconds until the machine is back up and selectable.
        reboot_after: Option<f64>,
    },
    /// A transient stall (swap storm, NFS hang, console hog): the host stops
    /// making progress for `duration` seconds but the subprocess survives.
    /// If the stall outlasts the failure detector's patience this becomes a
    /// false-positive restart — the classic detector trade-off.
    HostFreeze {
        /// Host index.
        host: usize,
        /// Start of the stall.
        at: f64,
        /// Length of the stall, seconds.
        duration: f64,
    },
    /// A burst of competing broadcast traffic saturates the shared bus: every
    /// message sent during the window behaves as if the bus were congested
    /// (TCP retransmission rounds and give-up errors, UDP datagram loss).
    BusBurst {
        /// Start of the burst.
        at: f64,
        /// Length of the burst, seconds.
        duration: f64,
    },
    /// A message-level fault window: while active, DATA messages matching
    /// the link filter are lost, duplicated, or reordered with the given
    /// probabilities (sampled from the transport RNG stream). Planning any
    /// `MsgFault` (or [`NetPartition`](FaultEvent::NetPartition)) activates
    /// the per-message reliable-transport state machine for the whole run.
    MsgFault {
        /// Sending process filter (`None` = any sender).
        from_proc: Option<usize>,
        /// Receiving process filter (`None` = any receiver).
        to_proc: Option<usize>,
        /// Window start, seconds.
        at: f64,
        /// Window length, seconds.
        duration: f64,
        /// Probability a matching DATA transmission is dropped in flight.
        loss: f64,
        /// Probability a matching DATA transmission is duplicated.
        dup: f64,
        /// Probability a matching DATA transmission is held back (reordered
        /// behind later traffic) before entering the wire.
        reorder: f64,
    },
    /// A network partition: hosts are split into `groups`; any transport
    /// message (DATA, ACK, or detector probe) crossing a group boundary is
    /// lost deterministically. Hosts not listed in any group stay in group 0
    /// with the monitor and file server. Heals after `heal_after` seconds,
    /// or never if `None`.
    NetPartition {
        /// Disjoint sets of host indices; traffic flows only within a set.
        groups: Vec<Vec<usize>>,
        /// Partition start, seconds.
        at: f64,
        /// Seconds until connectivity is restored (`None` = permanent).
        heal_after: Option<f64>,
    },
}

impl FaultEvent {
    /// When the fault begins.
    pub fn at(&self) -> f64 {
        match self {
            FaultEvent::HostCrash { at, .. }
            | FaultEvent::HostFreeze { at, .. }
            | FaultEvent::BusBurst { at, .. }
            | FaultEvent::MsgFault { at, .. }
            | FaultEvent::NetPartition { at, .. } => *at,
        }
    }

    /// Whether this event requires the reliable-transport state machine.
    pub fn is_message_level(&self) -> bool {
        matches!(
            self,
            FaultEvent::MsgFault { .. } | FaultEvent::NetPartition { .. }
        )
    }
}

/// A deterministic schedule of injected failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The failures, in no particular order (the event queue sorts by time).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, perturbs nothing.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a host crash (builder style).
    pub fn crash(mut self, host: usize, at: f64, reboot_after: Option<f64>) -> Self {
        self.events.push(FaultEvent::HostCrash {
            host,
            at,
            reboot_after,
        });
        self
    }

    /// Adds a transient host freeze.
    pub fn freeze(mut self, host: usize, at: f64, duration: f64) -> Self {
        self.events
            .push(FaultEvent::HostFreeze { host, at, duration });
        self
    }

    /// Adds a bus saturation burst.
    pub fn bus_burst(mut self, at: f64, duration: f64) -> Self {
        self.events.push(FaultEvent::BusBurst { at, duration });
        self
    }

    /// Adds a message-fault window on the link `from_proc → to_proc`
    /// (`None` matches any endpoint). Activates the reliable transport.
    #[allow(clippy::too_many_arguments)]
    pub fn msg_fault(
        mut self,
        from_proc: Option<usize>,
        to_proc: Option<usize>,
        at: f64,
        duration: f64,
        loss: f64,
        dup: f64,
        reorder: f64,
    ) -> Self {
        self.events.push(FaultEvent::MsgFault {
            from_proc,
            to_proc,
            at,
            duration,
            loss,
            dup,
            reorder,
        });
        self
    }

    /// Adds a network partition into host `groups`. Activates the reliable
    /// transport.
    pub fn partition(mut self, groups: Vec<Vec<usize>>, at: f64, heal_after: Option<f64>) -> Self {
        self.events.push(FaultEvent::NetPartition {
            groups,
            at,
            heal_after,
        });
        self
    }

    /// Whether any event needs the per-message transport state machine.
    /// When `false`, the simulation keeps the legacy statistical wire path
    /// and draws nothing from the transport stream — the bit-identity
    /// guarantee for plans without message faults rests on this gate.
    pub fn has_message_faults(&self) -> bool {
        self.events.iter().any(FaultEvent::is_message_level)
    }

    /// Draws a random plan from the dedicated fault RNG stream. Rates are
    /// per-host Poisson (crashes, freezes) and cluster-wide Poisson (bursts)
    /// over `[0, horizon]`. The stream is salted with [`FAULT_STREAM_SALT`],
    /// so generating a plan never perturbs the bus or user streams; a spec
    /// with all rates zero returns the empty plan.
    pub fn generate(seed: u64, spec: &FaultSpec) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ FAULT_STREAM_SALT);
        let mut plan = FaultPlan::default();
        let exp = |rng: &mut SmallRng, mean: f64| -> f64 {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            -mean * u.ln()
        };
        for host in 0..spec.hosts {
            if spec.crash_mtbf_s > 0.0 && spec.crash_mtbf_s.is_finite() {
                let mut t = exp(&mut rng, spec.crash_mtbf_s);
                while t < spec.horizon_s {
                    plan.events.push(FaultEvent::HostCrash {
                        host,
                        at: t,
                        reboot_after: Some(exp(&mut rng, spec.mean_reboot_s)),
                    });
                    t += exp(&mut rng, spec.crash_mtbf_s);
                }
            }
            if spec.freeze_mtbf_s > 0.0 && spec.freeze_mtbf_s.is_finite() {
                let mut t = exp(&mut rng, spec.freeze_mtbf_s);
                while t < spec.horizon_s {
                    plan.events.push(FaultEvent::HostFreeze {
                        host,
                        at: t,
                        duration: exp(&mut rng, spec.mean_freeze_s),
                    });
                    t += exp(&mut rng, spec.freeze_mtbf_s);
                }
            }
        }
        if spec.burst_mtbf_s > 0.0 && spec.burst_mtbf_s.is_finite() {
            let mut t = exp(&mut rng, spec.burst_mtbf_s);
            while t < spec.horizon_s {
                plan.events.push(FaultEvent::BusBurst {
                    at: t,
                    duration: exp(&mut rng, spec.mean_burst_s),
                });
                t += exp(&mut rng, spec.burst_mtbf_s);
            }
        }
        plan
    }
}

/// Rates for [`FaultPlan::generate`]. Zero / infinite MTBFs disable a class.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Number of hosts faults can land on.
    pub hosts: usize,
    /// Planning horizon, seconds.
    pub horizon_s: f64,
    /// Mean time between crashes per host (0 or inf disables).
    pub crash_mtbf_s: f64,
    /// Mean reboot duration after a crash.
    pub mean_reboot_s: f64,
    /// Mean time between freezes per host (0 or inf disables).
    pub freeze_mtbf_s: f64,
    /// Mean freeze duration.
    pub mean_freeze_s: f64,
    /// Mean time between bus bursts, cluster-wide (0 or inf disables).
    pub burst_mtbf_s: f64,
    /// Mean burst duration.
    pub mean_burst_s: f64,
}

impl FaultSpec {
    /// A quiet spec (no faults) over `hosts` machines and `horizon_s`
    /// seconds; enable classes by setting their MTBFs.
    pub fn quiet(hosts: usize, horizon_s: f64) -> Self {
        Self {
            hosts,
            horizon_s,
            crash_mtbf_s: 0.0,
            mean_reboot_s: 600.0,
            freeze_mtbf_s: 0.0,
            mean_freeze_s: 30.0,
            burst_mtbf_s: 0.0,
            mean_burst_s: 10.0,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::empty().is_empty());
        assert!(FaultPlan::generate(7, &FaultSpec::quiet(25, 1.0e5)).is_empty());
    }

    #[test]
    fn builders_accumulate() {
        let p = FaultPlan::empty()
            .crash(3, 100.0, Some(600.0))
            .freeze(1, 50.0, 20.0)
            .bus_burst(10.0, 5.0);
        assert_eq!(p.events.len(), 3);
        assert_eq!(p.events[0].at(), 100.0);
        assert!(!p.has_message_faults());
    }

    #[test]
    fn message_level_events_activate_the_transport() {
        let p = FaultPlan::empty().msg_fault(None, Some(2), 5.0, 10.0, 0.5, 0.1, 0.1);
        assert!(p.has_message_faults());
        assert_eq!(p.events[0].at(), 5.0);
        let q = FaultPlan::empty().partition(vec![vec![0, 1], vec![2, 3]], 8.0, Some(30.0));
        assert!(q.has_message_faults());
        assert!(q.events[0].is_message_level());
        let legacy = FaultPlan::empty().crash(0, 1.0, None).bus_burst(2.0, 1.0);
        assert!(!legacy.has_message_faults());
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let mut spec = FaultSpec::quiet(25, 12.0 * 3600.0);
        spec.crash_mtbf_s = 50.0 * 3600.0;
        spec.freeze_mtbf_s = 20.0 * 3600.0;
        spec.burst_mtbf_s = 3600.0;
        let a = FaultPlan::generate(7, &spec);
        let b = FaultPlan::generate(7, &spec);
        let c = FaultPlan::generate(8, &spec);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(a, c, "different seeds should differ");
        assert!(!a.is_empty(), "12 h over 25 hosts should draw some faults");
        for e in &a.events {
            assert!(e.at() >= 0.0 && e.at() < spec.horizon_s);
        }
    }
}
