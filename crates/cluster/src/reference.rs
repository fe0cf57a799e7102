//! PR 6 reference implementations of the event queue and the network model,
//! pinned verbatim so the rewritten engine can be checked against them.
//!
//! The production [`crate::events::EventQueue`] (calendar/bucket queue over
//! slab-allocated events) and [`crate::bus::NetworkModel`] (virtual-service-
//! time bus with an indexed completion queue) replace these O(n)-per-event
//! structures, but their *observable* contracts — pop order, completion
//! order, completion times, counter and RNG-draw semantics — are defined by
//! the originals. `tests/engine_equivalence.rs` runs both side by side on
//! randomized workloads (the `ScalarReference` pinning pattern from the
//! solver kernels applied to the discrete-event core).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::Rng;

use crate::bus::{Completion, NetworkConfig, NetworkKindCfg, TransferPayload, Transport};
use crate::events::EventKind;

#[derive(Debug, Clone)]
struct Scheduled {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest time pops first;
        // ties break by insertion order for determinism.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The PR 6 event queue: a `BinaryHeap` of owned events.
#[derive(Debug, Default)]
pub struct ReferenceEventQueue {
    heap: BinaryHeap<Scheduled>,
    now: f64,
    seq: u64,
}

impl ReferenceEventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `kind` to fire `delay` seconds from now.
    pub fn schedule(&mut self, delay: f64, kind: EventKind) {
        debug_assert!(delay >= 0.0 && delay.is_finite(), "bad delay {delay}");
        self.heap.push(Scheduled {
            time: self.now + delay,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Schedules `kind` at an absolute time.
    pub fn schedule_at(&mut self, time: f64, kind: EventKind) {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, EventKind)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        Some((ev.time, ev.kind))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[derive(Debug, Clone)]
struct RefTransfer {
    remaining: f64,
    rate_scale: f64,
    payload: TransferPayload,
    lost: bool,
    started: f64,
}

/// The PR 6 network model: per-transfer residual byte counters re-walked on
/// every event (`advance`/`next_completion` full scans, `Vec::remove`
/// compaction in `complete_due`).
#[derive(Debug)]
pub struct ReferenceNetworkModel {
    cfg: NetworkConfig,
    transfers: Vec<RefTransfer>,
    last_advance: f64,
    epoch: u64,
    forced_saturation: bool,
    /// Total payload bytes moved (excluding overhead and retransmissions).
    pub bytes_delivered: f64,
    /// Messages delivered.
    pub messages: u64,
    /// TCP give-up events.
    pub errors: u64,
    /// UDP datagrams lost.
    pub losses: u64,
    /// Integral of (active transfers > 0) — bus busy time in seconds.
    pub busy_time: f64,
}

impl ReferenceNetworkModel {
    /// Creates an idle network.
    pub fn new(cfg: NetworkConfig) -> Self {
        Self {
            cfg,
            transfers: Vec::new(),
            last_advance: 0.0,
            epoch: 0,
            forced_saturation: false,
            bytes_delivered: 0.0,
            messages: 0,
            errors: 0,
            losses: 0,
            busy_time: 0.0,
        }
    }

    /// Epoch guarding `NetDone` events.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of in-flight transfers.
    pub fn active(&self) -> usize {
        self.transfers.len()
    }

    /// Forces saturation behaviour regardless of the in-flight count.
    pub fn set_forced_saturation(&mut self, on: bool) {
        self.forced_saturation = on;
    }

    fn per_transfer_rate(&self) -> f64 {
        let b = self.cfg.bytes_per_sec();
        match self.cfg.kind {
            NetworkKindCfg::SharedBus => b / self.transfers.len().max(1) as f64,
            NetworkKindCfg::Switched => b,
        }
    }

    fn advance(&mut self, now: f64) {
        let dt = (now - self.last_advance).max(0.0);
        if dt > 0.0 && !self.transfers.is_empty() {
            let moved = dt * self.per_transfer_rate();
            for t in &mut self.transfers {
                t.remaining -= moved * t.rate_scale;
            }
            self.busy_time += dt;
        }
        self.last_advance = now;
    }

    /// Starts a transfer (saturation rounds sampled exactly like PR 6).
    pub fn start_transfer_faulted(
        &mut self,
        now: f64,
        bytes: f64,
        rate_scale: f64,
        payload: TransferPayload,
        rng: &mut impl Rng,
        force_lost: bool,
    ) {
        debug_assert!(
            rate_scale > 0.0 && rate_scale <= 1.0,
            "bad scale {rate_scale}"
        );
        self.advance(now);
        let saturated = self.cfg.kind == NetworkKindCfg::SharedBus
            && (self.forced_saturation || self.transfers.len() >= self.cfg.saturation_transfers);
        let (overhead_bytes, rounds, lost) = match self.cfg.transport {
            Transport::Tcp => {
                let overhead = self.cfg.overhead_s * self.cfg.bytes_per_sec();
                let mut rounds = 1u32;
                if saturated {
                    while rounds < self.cfg.max_transmissions + 2
                        && rng.gen::<f64>() < self.cfg.collision_prob
                    {
                        rounds += 1;
                    }
                }
                if rounds > self.cfg.max_transmissions {
                    self.errors += 1;
                    rounds = self.cfg.max_transmissions;
                }
                (overhead, rounds, false)
            }
            Transport::Udp => {
                let overhead = self.cfg.udp_overhead_s * self.cfg.bytes_per_sec();
                let lost = saturated && rng.gen::<f64>() < self.cfg.udp_loss_prob;
                if lost {
                    self.losses += 1;
                }
                (overhead, 1, lost)
            }
        };
        let lost = lost || force_lost;
        let total = (bytes + overhead_bytes) * rounds as f64;
        if !lost {
            self.bytes_delivered += bytes;
        }
        self.transfers.push(RefTransfer {
            remaining: total,
            rate_scale,
            payload,
            lost,
            started: now,
        });
        self.epoch += 1;
    }

    /// Absolute time at which the earliest in-flight transfer completes.
    pub fn next_completion(&self) -> Option<f64> {
        let rate = self.per_transfer_rate();
        let min = self
            .transfers
            .iter()
            .map(|t| t.remaining.max(0.0) / (rate * t.rate_scale))
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            Some(self.last_advance + min)
        } else {
            None
        }
    }

    /// Completes every transfer due at `now` (PR 6 milli-byte tolerance and
    /// sub-byte force-complete fallback).
    pub fn complete_due(&mut self, now: f64) -> Vec<Completion> {
        self.advance(now);
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.transfers.len() {
            if self.transfers[i].remaining <= 1e-3 {
                let t = self.transfers.remove(i);
                self.messages += 1;
                done.push(Completion {
                    payload: t.payload,
                    delivered: !t.lost,
                    started: t.started,
                });
            } else {
                i += 1;
            }
        }
        if done.is_empty() && !self.transfers.is_empty() {
            let (idx, _) = self
                .transfers
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.remaining.total_cmp(&b.1.remaining))
                .unwrap();
            if self.transfers[idx].remaining < 1.0 {
                let t = self.transfers.remove(idx);
                self.messages += 1;
                done.push(Completion {
                    payload: t.payload,
                    delivered: !t.lost,
                    started: t.started,
                });
            }
        }
        if !done.is_empty() {
            self.epoch += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn reference_queue_pops_in_order() {
        let mut q = ReferenceEventQueue::new();
        q.schedule(5.0, EventKind::MonitorTick);
        q.schedule(1.0, EventKind::Stop);
        q.schedule(3.0, EventKind::CheckpointTick);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn reference_bus_matches_pr6_hand_calcs() {
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        };
        let mut net = ReferenceNetworkModel::new(cfg);
        let mut rng = SmallRng::seed_from_u64(42);
        let p = |i| TransferPayload::Dump { proc_id: i };
        net.start_transfer_faulted(0.0, 125_000.0, 1.0, p(0), &mut rng, false);
        net.start_transfer_faulted(0.05, 125_000.0, 1.0, p(1), &mut rng, false);
        let t = net.next_completion().unwrap();
        assert!((t - 0.15).abs() < 1e-9, "completion at {t}");
        let done = net.complete_due(t);
        assert_eq!(done.len(), 1);
        assert_eq!(net.active(), 1);
        assert!(net.epoch() > 0);
        assert_eq!(net.messages, 1);
    }
}
