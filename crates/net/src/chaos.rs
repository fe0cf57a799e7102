//! FaultPlan-driven wire-fault injection for the real runtime.
//!
//! The simulator (PR 5) expresses network misbehaviour as a [`FaultPlan`]:
//! message-level loss/duplication/reorder windows and [`NetPartition`]
//! islands. This module makes the *real* UDP data plane experience the same
//! plans. A plan is compiled once by the supervisor into a [`ChaosSpec`] —
//! a flat, codec-friendly table of windows — shipped to every worker inside
//! its `Init` config, and evaluated at each datagram send by a shared
//! [`WireFaults`] handle.
//!
//! Determinism contract (the whole point):
//!
//! * **Message windows are step-gated and affect only first transmissions.**
//!   A `MsgFault`'s `at`/`duration` are interpreted as solver *step* indices;
//!   the worker ticks the step clock before each step. Each first
//!   transmission draws its fate from a stateless hash of
//!   `(seed ⊕ TRANSPORT_STREAM_SALT, sender, receiver, seq)` in fixed
//!   precedence (loss, then duplication, then reorder), so the outcome is
//!   independent of thread timing and identical across re-runs of the same
//!   plan. The retransmission path is never faulted — RFC 6298 recovery
//!   always completes, which is what makes arbitrary plans deadlock-free.
//! * **Partitions are wall-clock-gated and affect every datagram.** A
//!   `NetPartition`'s `at`/`heal_after` are seconds relative to the current
//!   mesh epoch's start; while active, any datagram (DATA, retransmission,
//!   or ACK) crossing an island boundary is silently discarded on the
//!   sender side — both endpoints filter symmetrically. Because healing is
//!   wall-clock and the RTO is capped, a healed partition always drains
//!   within the halo receive deadline.
//!
//! Sequence numbers restart at 1 on every mesh epoch, so a rolled-back
//! window redraws exactly the fates of a fresh mesh — replaying a plan under
//! the same kill schedule reproduces the identical injected-fault sequence,
//! which the `chaos` experiment pins.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use subsonic_cluster::fault::{FaultEvent, FaultPlan, TRANSPORT_STREAM_SALT};

/// `from`/`to` wildcard in a [`MsgWindow`] (matches any worker).
pub const ANY_WORKER: u32 = u32::MAX;
/// `until_ms` value meaning the partition never heals.
pub const NEVER_HEALS: u64 = u64::MAX;
/// How long a reordered (held-back) first transmission waits before the
/// retransmission path releases it, seconds — long enough for same-step
/// traffic to overtake it on the wire, short enough to stay invisible
/// against the receive deadline.
pub const REORDER_HOLD_S: f64 = 0.01;

/// One message-fault window, compiled from [`FaultEvent::MsgFault`]:
/// step-gated, first-transmission-only, probabilities in parts-per-million
/// so specs compare and ship exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgWindow {
    /// Sending worker filter ([`ANY_WORKER`] = any).
    pub from: u32,
    /// Receiving worker filter ([`ANY_WORKER`] = any).
    pub to: u32,
    /// First step (inclusive) the window is active at.
    pub from_step: u64,
    /// First step (exclusive) past the window.
    pub until_step: u64,
    /// Probability a first transmission is dropped, ppm.
    pub loss_ppm: u32,
    /// Probability a first transmission is duplicated, ppm.
    pub dup_ppm: u32,
    /// Probability a first transmission is held back (reordered), ppm.
    pub reorder_ppm: u32,
}

/// One partition window, compiled from [`FaultEvent::NetPartition`]:
/// wall-clock-gated relative to each mesh epoch's start, applied to every
/// datagram crossing an island boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Island id per worker, indexed by worker id (workers not listed in any
    /// plan group stay in island 0, like the simulator's monitor).
    pub island: Vec<u8>,
    /// Milliseconds after mesh-epoch start the partition begins.
    pub at_ms: u64,
    /// Milliseconds after mesh-epoch start it heals ([`NEVER_HEALS`] =
    /// permanent).
    pub until_ms: u64,
}

/// A compiled, wire-shippable fault plan for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed the per-message fate draws are keyed from (salted with
    /// [`TRANSPORT_STREAM_SALT`], the plan's transport RNG stream).
    pub seed: u64,
    /// Message-fault windows.
    pub windows: Vec<MsgWindow>,
    /// Partition windows.
    pub partitions: Vec<PartitionWindow>,
}

impl ChaosSpec {
    /// Whether the spec injects nothing (the compiled empty plan).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.partitions.is_empty()
    }

    /// Compiles the message-level events of `plan` for a run of `nworkers`
    /// workers. `MsgFault` times are interpreted as step indices,
    /// `NetPartition` times as seconds (both documented on the module).
    /// Host-level events (crashes, freezes, bursts) are ignored — the real
    /// runtime injects those through the supervisor's kill schedule.
    pub fn compile(plan: &FaultPlan, seed: u64, nworkers: u32) -> ChaosSpec {
        let proc_of = |p: Option<usize>| p.map(|v| v as u32).unwrap_or(ANY_WORKER);
        let mut spec = ChaosSpec {
            seed,
            ..ChaosSpec::default()
        };
        for ev in &plan.events {
            match ev {
                FaultEvent::MsgFault {
                    from_proc,
                    to_proc,
                    at,
                    duration,
                    loss,
                    dup,
                    reorder,
                } => {
                    let ppm = |p: f64| (p.clamp(0.0, 1.0) * 1e6).round() as u32;
                    let from_step = at.max(0.0).floor() as u64;
                    let until_step = (at.max(0.0) + duration.max(0.0))
                        .ceil()
                        .min(u64::MAX as f64) as u64;
                    spec.windows.push(MsgWindow {
                        from: proc_of(*from_proc),
                        to: proc_of(*to_proc),
                        from_step,
                        until_step,
                        loss_ppm: ppm(*loss),
                        dup_ppm: ppm(*dup),
                        reorder_ppm: ppm(*reorder),
                    });
                }
                FaultEvent::NetPartition {
                    groups,
                    at,
                    heal_after,
                } => {
                    let mut island = vec![0u8; nworkers as usize];
                    for (g, members) in groups.iter().enumerate() {
                        for &m in members {
                            if m < island.len() {
                                island[m] = g.min(u8::MAX as usize) as u8;
                            }
                        }
                    }
                    let at_ms = (at.max(0.0) * 1e3).round() as u64;
                    let until_ms = heal_after
                        .map(|h| ((at.max(0.0) + h.max(0.0)) * 1e3).round() as u64)
                        .unwrap_or(NEVER_HEALS);
                    spec.partitions.push(PartitionWindow {
                        island,
                        at_ms,
                        until_ms,
                    });
                }
                // host-level faults: not wire faults
                FaultEvent::HostCrash { .. }
                | FaultEvent::HostFreeze { .. }
                | FaultEvent::BusBurst { .. } => {}
            }
        }
        spec
    }

    /// Serialises the spec for the worker config codec.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.push(1u8); // spec version
        b.extend_from_slice(&self.seed.to_le_bytes());
        b.extend_from_slice(&(self.windows.len() as u32).to_le_bytes());
        for w in &self.windows {
            b.extend_from_slice(&w.from.to_le_bytes());
            b.extend_from_slice(&w.to.to_le_bytes());
            b.extend_from_slice(&w.from_step.to_le_bytes());
            b.extend_from_slice(&w.until_step.to_le_bytes());
            b.extend_from_slice(&w.loss_ppm.to_le_bytes());
            b.extend_from_slice(&w.dup_ppm.to_le_bytes());
            b.extend_from_slice(&w.reorder_ppm.to_le_bytes());
        }
        b.extend_from_slice(&(self.partitions.len() as u32).to_le_bytes());
        for p in &self.partitions {
            b.extend_from_slice(&p.at_ms.to_le_bytes());
            b.extend_from_slice(&p.until_ms.to_le_bytes());
            b.extend_from_slice(&(p.island.len() as u32).to_le_bytes());
            b.extend_from_slice(&p.island);
        }
        b
    }

    /// Deserialises a spec (inverse of [`ChaosSpec::to_bytes`]).
    pub fn from_bytes(bytes: &[u8]) -> Option<ChaosSpec> {
        fn take<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if b.len() < n {
                return None;
            }
            let (head, tail) = b.split_at(n);
            *b = tail;
            Some(head)
        }
        fn u32_of(b: &mut &[u8]) -> Option<u32> {
            let s = take(b, 4)?;
            Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
        }
        fn u64_of(b: &mut &[u8]) -> Option<u64> {
            let s = take(b, 8)?;
            let mut a = [0u8; 8];
            a.copy_from_slice(s);
            Some(u64::from_le_bytes(a))
        }
        let mut b = bytes;
        if take(&mut b, 1)?[0] != 1 {
            return None;
        }
        let seed = u64_of(&mut b)?;
        // counts come off the wire: reserve for what the bytes can hold (a
        // window is 36 bytes, a partition at least 20), never for the claim
        let nw = u32_of(&mut b)? as usize;
        let mut windows = Vec::with_capacity(nw.min(b.len() / 36));
        for _ in 0..nw {
            windows.push(MsgWindow {
                from: u32_of(&mut b)?,
                to: u32_of(&mut b)?,
                from_step: u64_of(&mut b)?,
                until_step: u64_of(&mut b)?,
                loss_ppm: u32_of(&mut b)?,
                dup_ppm: u32_of(&mut b)?,
                reorder_ppm: u32_of(&mut b)?,
            });
        }
        let np = u32_of(&mut b)? as usize;
        let mut partitions = Vec::with_capacity(np.min(b.len() / 20));
        for _ in 0..np {
            let at_ms = u64_of(&mut b)?;
            let until_ms = u64_of(&mut b)?;
            let len = u32_of(&mut b)? as usize;
            let island = take(&mut b, len)?.to_vec();
            partitions.push(PartitionWindow {
                island,
                at_ms,
                until_ms,
            });
        }
        if !b.is_empty() {
            return None;
        }
        Some(ChaosSpec {
            seed,
            windows,
            partitions,
        })
    }
}

/// What happens to one first transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// Send it.
    Deliver,
    /// Drop it (the retransmission timer recovers).
    Drop,
    /// Send it twice (the receiver's dedup absorbs the copy).
    Dup,
    /// Withhold it and let the (shortened) retransmission timer release it
    /// after [`REORDER_HOLD_S`] — later traffic overtakes it.
    Hold,
}

/// Slots in [`WireFaults::counts`].
pub const CHAOS_LOSS: usize = 0;
/// Duplicated first transmissions.
pub const CHAOS_DUP: usize = 1;
/// Held-back (reordered) first transmissions.
pub const CHAOS_REORDER: usize = 2;
/// Datagrams discarded at an island boundary.
pub const CHAOS_PARTITION: usize = 3;

const LOSS_TAG: u64 = 1;
const DUP_TAG: u64 = 2;
const REORDER_TAG: u64 = 3;

fn mix(mut z: u64) -> u64 {
    // splitmix64 finaliser — stateless, avalanche-complete
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-worker injector: one shared handle between the worker's step loop
/// (which ticks the step clock) and the UDP core (which consults it on every
/// send). All methods are lock-free except the epoch clock reset.
pub struct WireFaults {
    spec: ChaosSpec,
    me: u32,
    step: AtomicU64,
    epoch_t0: Mutex<Instant>,
    counters: [AtomicU64; 4],
}

impl WireFaults {
    /// A new injector for worker `me`.
    pub fn new(spec: ChaosSpec, me: u32) -> WireFaults {
        WireFaults {
            spec,
            me,
            step: AtomicU64::new(0),
            epoch_t0: Mutex::new(Instant::now()),
            counters: Default::default(),
        }
    }

    /// Whether any window could ever fire.
    pub fn is_active(&self) -> bool {
        !self.spec.is_empty()
    }

    /// Ticks the step clock (called by the worker before each step).
    pub fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
    }

    /// Restarts the partition clock (called at each mesh build, so partition
    /// windows are relative to the epoch's start).
    pub fn reset_epoch(&self) {
        if let Ok(mut t0) = self.epoch_t0.lock() {
            *t0 = Instant::now();
        }
    }

    /// Lifetime injected-fault counters, `[loss, dup, reorder, partition]`.
    pub fn counts(&self) -> [u64; 4] {
        [
            self.counters[CHAOS_LOSS].load(Ordering::Relaxed),
            self.counters[CHAOS_DUP].load(Ordering::Relaxed),
            self.counters[CHAOS_REORDER].load(Ordering::Relaxed),
            self.counters[CHAOS_PARTITION].load(Ordering::Relaxed),
        ]
    }

    fn draw_ppm(&self, tag: u64, to: u32, seq: u64) -> u32 {
        let link = ((self.me as u64) << 32) | to as u64;
        let h = mix((self.spec.seed ^ TRANSPORT_STREAM_SALT)
            ^ mix(link.wrapping_add(tag))
            ^ mix(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(tag)));
        (h % 1_000_000) as u32
    }

    /// The fate of the first transmission of `seq` to `to` at the current
    /// step. Overlapping windows combine by taking the maximum probability
    /// per category; the draw order is fixed (loss, dup, reorder) so a plan
    /// replays identically regardless of thread timing.
    pub fn first_send_fate(&self, to: u32, seq: u64) -> SendFate {
        if self.spec.windows.is_empty() {
            return SendFate::Deliver;
        }
        let step = self.step.load(Ordering::Relaxed);
        let (mut loss, mut dup, mut reorder) = (0u32, 0u32, 0u32);
        for w in &self.spec.windows {
            let from_ok = w.from == ANY_WORKER || w.from == self.me;
            let to_ok = w.to == ANY_WORKER || w.to == to;
            if from_ok && to_ok && step >= w.from_step && step < w.until_step {
                loss = loss.max(w.loss_ppm);
                dup = dup.max(w.dup_ppm);
                reorder = reorder.max(w.reorder_ppm);
            }
        }
        if loss == 0 && dup == 0 && reorder == 0 {
            return SendFate::Deliver;
        }
        let fate = if self.draw_ppm(LOSS_TAG, to, seq) < loss {
            SendFate::Drop
        } else if self.draw_ppm(DUP_TAG, to, seq) < dup {
            SendFate::Dup
        } else if self.draw_ppm(REORDER_TAG, to, seq) < reorder {
            SendFate::Hold
        } else {
            SendFate::Deliver
        };
        let slot = match fate {
            SendFate::Drop => Some(CHAOS_LOSS),
            SendFate::Dup => Some(CHAOS_DUP),
            SendFate::Hold => Some(CHAOS_REORDER),
            SendFate::Deliver => None,
        };
        if let Some(s) = slot {
            self.counters[s].fetch_add(1, Ordering::Relaxed);
        }
        fate
    }

    /// Whether a datagram to `to` is currently cut off by a partition
    /// (island boundaries block DATA, retransmissions and ACKs alike).
    /// Counts each discarded datagram.
    pub fn blocked(&self, to: u32) -> bool {
        if self.spec.partitions.is_empty() {
            return false;
        }
        let ms = match self.epoch_t0.lock() {
            Ok(t0) => t0.elapsed().as_millis() as u64,
            Err(_) => return false,
        };
        for p in &self.spec.partitions {
            if ms >= p.at_ms && ms < p.until_ms {
                let island = |w: u32| p.island.get(w as usize).copied().unwrap_or(0);
                if island(self.me) != island(to) {
                    self.counters[CHAOS_PARTITION].fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn loss_plan(loss: f64) -> FaultPlan {
        FaultPlan::empty().msg_fault(None, None, 0.0, 1e12, loss, 0.0, 0.0)
    }

    #[test]
    fn spec_roundtrips_through_bytes() {
        let plan = FaultPlan::empty()
            .msg_fault(Some(1), None, 2.0, 7.0, 0.25, 0.125, 0.5)
            .partition(vec![vec![0, 1], vec![2, 3]], 0.5, Some(1.5));
        let spec = ChaosSpec::compile(&plan, 0xfeed, 4);
        assert_eq!(spec.windows.len(), 1);
        assert_eq!(spec.windows[0].from, 1);
        assert_eq!(spec.windows[0].to, ANY_WORKER);
        assert_eq!(spec.windows[0].from_step, 2);
        assert_eq!(spec.windows[0].until_step, 9);
        assert_eq!(spec.windows[0].loss_ppm, 250_000);
        assert_eq!(spec.partitions.len(), 1);
        assert_eq!(spec.partitions[0].island, vec![0, 0, 1, 1]);
        assert_eq!(spec.partitions[0].at_ms, 500);
        assert_eq!(spec.partitions[0].until_ms, 2000);
        let bytes = spec.to_bytes();
        assert_eq!(ChaosSpec::from_bytes(&bytes).unwrap(), spec);
        assert!(ChaosSpec::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(ChaosSpec::compile(&FaultPlan::empty(), 1, 4).is_empty());
    }

    #[test]
    fn fates_are_deterministic_and_seed_keyed() {
        let spec = ChaosSpec::compile(&loss_plan(0.3), 42, 2);
        let a = WireFaults::new(spec.clone(), 0);
        let b = WireFaults::new(spec, 0);
        let fates_a: Vec<_> = (1..200).map(|s| a.first_send_fate(1, s)).collect();
        let fates_b: Vec<_> = (1..200).map(|s| b.first_send_fate(1, s)).collect();
        assert_eq!(fates_a, fates_b, "same plan must draw the same fates");
        assert_eq!(a.counts(), b.counts());
        let dropped = fates_a.iter().filter(|f| **f == SendFate::Drop).count();
        assert!(
            (20..=100).contains(&dropped),
            "30% loss over 199 draws gave {dropped} drops"
        );
        let other = WireFaults::new(ChaosSpec::compile(&loss_plan(0.3), 43, 2), 0);
        let fates_c: Vec<_> = (1..200).map(|s| other.first_send_fate(1, s)).collect();
        assert_ne!(fates_a, fates_c, "a different seed must draw differently");
    }

    #[test]
    fn windows_gate_on_step_and_link() {
        let plan = FaultPlan::empty().msg_fault(Some(0), Some(1), 5.0, 5.0, 1.0, 0.0, 0.0);
        let spec = ChaosSpec::compile(&plan, 7, 3);
        let f = WireFaults::new(spec, 0);
        // outside the window: everything delivers
        f.set_step(4);
        assert_eq!(f.first_send_fate(1, 1), SendFate::Deliver);
        f.set_step(10);
        assert_eq!(f.first_send_fate(1, 2), SendFate::Deliver);
        // inside the window, matching link: certain loss
        f.set_step(7);
        assert_eq!(f.first_send_fate(1, 3), SendFate::Drop);
        // inside the window, wrong receiver: delivers
        assert_eq!(f.first_send_fate(2, 4), SendFate::Deliver);
        assert_eq!(f.counts()[CHAOS_LOSS], 1);
    }

    #[test]
    fn partitions_block_across_islands_only() {
        let plan = FaultPlan::empty().partition(vec![vec![0], vec![1]], 0.0, None);
        let spec = ChaosSpec::compile(&plan, 1, 3);
        let f = WireFaults::new(spec, 0);
        assert!(f.blocked(1), "cross-island datagram must be cut");
        assert!(!f.blocked(2), "worker 2 is in island 0 with us");
        assert_eq!(f.counts()[CHAOS_PARTITION], 1);
        // a healed partition stops blocking once the window passes
        let healed = FaultPlan::empty().partition(vec![vec![0], vec![1]], 0.0, Some(0.0));
        let g = WireFaults::new(ChaosSpec::compile(&healed, 1, 2), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(!g.blocked(1), "healed partition must pass traffic");
    }
}
