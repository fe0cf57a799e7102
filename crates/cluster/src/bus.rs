//! Network models: the shared-bus Ethernet and an idealised switch, tracked
//! in virtual service time.
//!
//! The shared bus is a processor-sharing queue: `k` concurrent transfers each
//! progress at `bandwidth / k`, which is what makes the per-step
//! communication time grow with the number of processors (the `(P − 1)`
//! factor of the paper's eq. 19). Every message additionally pays a fixed
//! protocol overhead (TCP/IP + Ethernet framing + socket system calls),
//! which dominates for small messages — the effect the paper observes in
//! Figure 5 at subregions below 100² and declines to model.
//!
//! **Virtual service time.** Instead of storing per-transfer residual byte
//! counters and re-walking every in-flight transfer on each event (the PR 6
//! model, pinned in [`crate::reference::ReferenceNetworkModel`]), the model
//! keeps ONE global accumulator `v` that advances at the per-share service
//! rate: `dv/dt = bandwidth / k(t)` on the bus, `dv/dt = bandwidth` on the
//! switch. A transfer admitted with `total` bytes at endpoint share
//! `rate_scale` receives `rate_scale · dv` bytes per unit of virtual time,
//! so its finish point `v_fin = v + total / rate_scale` is **fixed at
//! admission** — share recomputation on every join/leave is implicit in the
//! accumulator's rate and costs nothing per transfer. Completions are found
//! through a priority queue (`crate::runheap::RunHeap`) keyed by
//! `(v_fin, admission seq)` over slab-allocated transfer records: `advance`
//! is O(1), `next_completion` is O(1) (a peek), and `complete_due` is O(1)
//! per completed transfer admitted in finish order — a burst of equal-size
//! halos admitted at one instant, or any admission finishing no earlier than
//! the last one — and O(log n) for the rest. The PR 6 model paid O(n) per
//! event for each of them plus an O(n) `Vec::remove` shift per completion.
//! This is the fair throughput-sharing scheme of dslab's
//! `SharedBandwidthNetwork`, specialised to the paper's single shared medium.
//!
//! Time-to-finish is share-independent: a transfer needing `r` residual bytes
//! at share `s` finishes after `r / (s·dv/dt)` seconds, and `r = (v_fin −
//! v)·s`, so the wall distance is `(v_fin − v) / (dv/dt)` for every transfer
//! — which is why one global order in `v_fin` is also the completion
//! order in simulated time.
//!
//! **Completion order** is documented and pinned: payloads come back from
//! [`NetworkModel::complete_due`] ordered by `(finish virtual time, admission
//! order)`. Transfers that finish simultaneously (equal `v_fin` — e.g.
//! identical messages admitted at the same instant) are delivered in the
//! order they entered the wire, exactly the PR 6 index order.
//!
//! Under heavy load the shared bus loses messages: "the TCP/IP protocol fails
//! to deliver messages after excessive retransmissions" (section 7). We model
//! saturation as extra transmission rounds sampled when the bus is congested,
//! and count an error when the rounds exceed the TCP give-up limit.

use std::cmp::Ordering;

use rand::Rng;

use crate::runheap::RunHeap;

/// What a completed transfer delivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferPayload {
    /// A halo message between neighbouring subregions.
    Halo {
        /// Receiving process (active-tile index).
        to_proc: usize,
        /// Integration step the message belongs to.
        step: u64,
        /// Exchange id within the step plan.
        xch: usize,
        /// Sending process.
        from_proc: usize,
    },
    /// A dump-file transfer to/from the file server finished.
    Dump {
        /// The process saving or loading.
        proc_id: usize,
    },
    /// A reliable-transport DATA message carrying one halo exchange. Unlike
    /// the legacy [`TransferPayload::Halo`], delivery is not assumed: the
    /// receiver must acknowledge, and the sender retransmits on timeout.
    HaloData {
        /// Receiving process.
        to_proc: usize,
        /// Integration step the message belongs to.
        step: u64,
        /// Exchange id within the step plan.
        xch: usize,
        /// Sending process.
        from_proc: usize,
        /// Per-link `(from, to)` sequence number for duplicate suppression.
        seq: u64,
        /// Transmission attempt (1 = first send).
        attempt: u32,
    },
    /// The acknowledgement for a [`TransferPayload::HaloData`] message,
    /// travelling on the reverse link.
    Ack {
        /// The original sender the ACK returns to.
        to_proc: usize,
        /// The receiver that acknowledges.
        from_proc: usize,
        /// Sequence number being acknowledged.
        seq: u64,
        /// Attempt number the receiver saw (for RTT sampling — Karn's rule
        /// only takes samples from first attempts).
        attempt: u32,
    },
    /// An accrual-detector heartbeat probe travelling to a suspect host.
    Probe {
        /// Suspect host.
        host: usize,
        /// Probe sequence number (send time is tracked by the monitor).
        seq: u64,
    },
    /// The suspect host's reply to a [`TransferPayload::Probe`].
    ProbeReply {
        /// The host that replied.
        host: usize,
        /// Sequence number of the probe being answered.
        seq: u64,
    },
}

/// Which network connects the workstations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKindCfg {
    /// Shared-bus Ethernet (processor sharing).
    SharedBus,
    /// Idealised switched network: every transfer gets full bandwidth —
    /// the paper's "Ethernet switches, FDDI and ATM networks" outlook.
    Switched,
}

/// Transport protocol between parallel processes (Appendix D).
///
/// The paper chose TCP/IP "because of its simplicity": guaranteed FIFO
/// delivery, at the cost of a heavier protocol stack and opaque behaviour on
/// a saturated network ("when TCP/IP fails, it is hard to know which
/// messages need to be resent"). UDP datagrams give the program control: a
/// lighter per-message overhead, but "the distributed program must check that
/// messages are delivered, and resend messages if necessary" — which the
/// simulated runtime does with an acknowledgement timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// TCP/IP sockets (the paper's choice): guaranteed delivery, heavier
    /// overhead, geometric retransmission rounds under saturation, give-up
    /// errors counted.
    Tcp,
    /// UDP datagrams with application-level resends: lighter overhead,
    /// explicit losses under saturation, precise recovery.
    Udp,
}

/// Network parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Bus or switch.
    pub kind: NetworkKindCfg,
    /// Transport protocol (Appendix D): TCP (default) or UDP.
    pub transport: Transport,
    /// Peak bandwidth in bits per second (the paper's Ethernet: 10 Mbps).
    pub bandwidth_bps: f64,
    /// Fixed per-message overhead in seconds (protocol stack + framing).
    pub overhead_s: f64,
    /// Concurrent-transfer count beyond which the bus is saturated.
    pub saturation_transfers: usize,
    /// Probability that a message sent on a saturated bus needs an extra
    /// transmission round (sampled repeatedly: rounds are geometric).
    pub collision_prob: f64,
    /// Transmission rounds after which TCP gives up (counted as a network
    /// error; the transfer still completes so the simulation can proceed —
    /// the monitoring program would restart from a checkpoint).
    pub max_transmissions: u32,
    /// Per-message overhead of the lighter UDP path, seconds.
    pub udp_overhead_s: f64,
    /// Probability that a UDP datagram sent on a saturated bus is lost
    /// (the application detects the loss by acknowledgement timeout).
    pub udp_loss_prob: f64,
    /// Application-level acknowledgement timeout before a UDP resend.
    pub udp_ack_timeout_s: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            kind: NetworkKindCfg::SharedBus,
            transport: Transport::Tcp,
            bandwidth_bps: 10.0e6,
            overhead_s: 1.2e-3,
            saturation_transfers: 12,
            collision_prob: 0.5,
            max_transmissions: 8,
            udp_overhead_s: 0.5e-3,
            udp_loss_prob: 0.3,
            udp_ack_timeout_s: 0.05,
        }
    }
}

impl NetworkConfig {
    /// Bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bandwidth_bps / 8.0
    }

    /// The idealised switch with the same wire speed.
    pub fn switched(mut self) -> Self {
        self.kind = NetworkKindCfg::Switched;
        self
    }

    /// The same network over UDP datagrams (Appendix D).
    pub fn udp(mut self) -> Self {
        self.transport = Transport::Udp;
        self
    }
}

/// A finished transfer: the payload plus whether it actually reached the
/// receiver (UDP datagrams can be lost; TCP always delivers).
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// What was being moved.
    pub payload: TransferPayload,
    /// `false` means the datagram was lost on a saturated bus and the
    /// application must resend after its acknowledgement timeout.
    pub delivered: bool,
    /// Simulated time the transfer went onto the wire — the observability
    /// layer turns (started, completion time) into a `net` wire span.
    pub started: f64,
}

/// One in-flight transfer, parked in the slab until its virtual finish point
/// is reached.
#[derive(Debug, Clone)]
struct Transfer {
    payload: TransferPayload,
    lost: bool,   // UDP: transmitted but dropped before the receiver
    started: f64, // wire time of the first transmission
}

/// A 24-byte completion-queue node: everything ordering needs without
/// touching the slab.
#[derive(Debug, Clone, Copy)]
struct DueNode {
    /// Virtual service time at which the transfer finishes.
    v_fin: f64,
    /// Admission order (completion-order tie-break for simultaneous
    /// finishes).
    seq: u64,
    /// Slab index of the transfer record.
    slot: u32,
}

impl PartialEq for DueNode {
    fn eq(&self, other: &Self) -> bool {
        self.v_fin == other.v_fin && self.seq == other.seq
    }
}
impl Eq for DueNode {}
impl PartialOrd for DueNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DueNode {
    /// Earliest `(v_fin, seq)` first; `seq` is unique, so the order is
    /// total.
    fn cmp(&self, other: &Self) -> Ordering {
        self.v_fin
            .total_cmp(&other.v_fin)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The simulated network: a virtual-service-time processor-sharing queue
/// with an indexed completion queue.
#[derive(Debug)]
pub struct NetworkModel {
    cfg: NetworkConfig,
    /// Virtual service time: bytes a hypothetical share-1.0 transfer would
    /// have moved since the model was created. Advances at `bandwidth / k`
    /// on the bus and `bandwidth` on the switch; frozen while idle.
    v: f64,
    /// Completion queue over the slab, keyed by `(v_fin, seq)`.
    due: RunHeap<DueNode>,
    /// Transfer records; `None` marks a free slot.
    slab: Vec<Option<Transfer>>,
    free: Vec<u32>,
    /// Live transfers (`due.len()` — kept separately so the share divisor is
    /// a plain field read on the hot path).
    active: usize,
    /// Admission counter (completion-order tie-break).
    seq: u64,
    last_advance: f64,
    epoch: u64,
    forced_saturation: bool,
    /// Total payload bytes moved (excluding overhead and retransmissions).
    pub bytes_delivered: f64,
    /// Messages delivered.
    pub messages: u64,
    /// TCP give-up events.
    pub errors: u64,
    /// UDP datagrams lost (each triggers an application resend).
    pub losses: u64,
    /// Integral of (active transfers > 0) — bus busy time in seconds.
    pub busy_time: f64,
    /// Completions taken through the ulp-rounding fallback rather than the
    /// tolerance window (diagnostic; a large count means the clock's
    /// granularity is close to the wire granularity).
    pub forced_completions: u64,
}

impl NetworkModel {
    /// Creates an idle network.
    pub fn new(cfg: NetworkConfig) -> Self {
        Self {
            cfg,
            v: 0.0,
            due: RunHeap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            active: 0,
            seq: 0,
            last_advance: 0.0,
            epoch: 0,
            forced_saturation: false,
            bytes_delivered: 0.0,
            messages: 0,
            errors: 0,
            losses: 0,
            busy_time: 0.0,
            forced_completions: 0,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Epoch guarding `NetDone` events: bumped on every state change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of in-flight transfers.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Forces saturation behaviour regardless of the in-flight transfer
    /// count — an injected burst of competing broadcast traffic on the
    /// shared bus. Every transfer *started* while the flag is set samples
    /// collisions/losses as if the bus were congested. No effect on an
    /// idealised switch.
    pub fn set_forced_saturation(&mut self, on: bool) {
        self.forced_saturation = on;
    }

    /// Whether an injected saturation burst is currently active.
    pub fn forced_saturation(&self) -> bool {
        self.forced_saturation
    }

    /// Rate of the virtual-service accumulator in bytes (at share 1.0) per
    /// second: the per-transfer share of the medium.
    #[inline]
    fn v_rate(&self) -> f64 {
        let b = self.cfg.bytes_per_sec();
        match self.cfg.kind {
            NetworkKindCfg::SharedBus => b / self.active.max(1) as f64,
            NetworkKindCfg::Switched => b,
        }
    }

    /// Progresses the virtual clock up to `now`. O(1): no transfer record is
    /// touched — each transfer's progress is implied by `v − v_admit`.
    #[inline]
    fn advance(&mut self, now: f64) {
        let dt = (now - self.last_advance).max(0.0);
        if dt > 0.0 && self.active > 0 {
            self.v += dt * self.v_rate();
            self.busy_time += dt;
        }
        self.last_advance = now;
    }

    /// Starts a transfer of `bytes` payload at time `now`. Saturation
    /// retransmission rounds are sampled here (deterministically given the
    /// RNG state). Bump-epoch semantics: reschedule `NetDone` afterwards.
    pub fn start_transfer(
        &mut self,
        now: f64,
        bytes: f64,
        payload: TransferPayload,
        rng: &mut impl Rng,
    ) {
        self.start_transfer_scaled(now, bytes, 1.0, payload, rng);
    }

    /// Like [`NetworkModel::start_transfer`], but the transfer can use at
    /// most `rate_scale` of its bus share. The communication speed the paper
    /// measures is CPU-bound (section 7 derives `V_com` from protocol
    /// processing, not the 10 Mbps wire), so a transfer whose endpoint is a
    /// slower machine pumps bytes at that machine's relative speed; the
    /// unused share is contention the bus still pays.
    pub fn start_transfer_scaled(
        &mut self,
        now: f64,
        bytes: f64,
        rate_scale: f64,
        payload: TransferPayload,
        rng: &mut impl Rng,
    ) {
        self.start_transfer_faulted(now, bytes, rate_scale, payload, rng, false);
    }

    /// Like [`NetworkModel::start_transfer_scaled`], but the caller can mark
    /// the transmission as lost in flight (`force_lost`) — an injected
    /// message fault or a partition boundary. The wire time is still paid
    /// (the bytes occupy the bus) but the receiver never sees the payload
    /// and no delivery is recorded. Congestion sampling is unchanged, so a
    /// `force_lost = false` call is exactly the legacy path.
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
            && (self.forced_saturation || self.active >= self.cfg.saturation_transfers);
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
        let record = Transfer {
            payload,
            lost,
            started: now,
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(record);
                i
            }
            None => {
                self.slab.push(Some(record));
                (self.slab.len() - 1) as u32
            }
        };
        self.due.push(DueNode {
            // Fixed at admission: the transfer receives `rate_scale` bytes
            // per unit of virtual service, so it needs `total / rate_scale`
            // units to move `total` bytes.
            v_fin: self.v + total / rate_scale,
            seq: self.seq,
            slot,
        });
        self.seq += 1;
        self.active += 1;
        self.epoch += 1;
    }

    /// Absolute time at which the earliest in-flight transfer completes.
    /// O(1): a queue peek plus the virtual-to-wall conversion, which is
    /// share-independent (see the module docs).
    pub fn next_completion(&self) -> Option<f64> {
        let top = self.due.peek()?;
        Some(self.last_advance + (top.v_fin - self.v).max(0.0) / self.v_rate())
    }

    /// Completes every transfer due at `now`, returning their payloads
    /// ordered by `(finish virtual time, admission order)` — simultaneous
    /// finishes deliver in the order they entered the wire.
    ///
    /// The completion tolerance scales with the clock's resolution:
    /// a transfer is due when its residual wire time is below a few ulps of
    /// `now` — the finest distinction the f64 simulation clock can represent
    /// at this moment. Late in long runs (the 1e9-simulated-second drift
    /// test) the ulp of the clock times the wire rate dwarfs the PR 6 model's
    /// fixed milli-byte window, which would have rescheduled the completion
    /// at the *same* rounded time forever; early in a run the window is
    /// billions of times tighter than a milli-byte, so a transfer can no
    /// longer be delivered a sub-byte of wire time early.
    ///
    /// If rounding leaves a residue beyond even that, the caller-observed
    /// invariant still holds: a valid-epoch completion event always finishes
    /// at least the earliest transfer (the fallback completes the queue's
    /// minimum whenever its completion time rounds to `<= now`).
    pub fn complete_due(&mut self, now: f64) -> Vec<Completion> {
        let mut done = Vec::new();
        self.complete_due_into(now, &mut done);
        done
    }

    /// [`Self::complete_due`] into a caller-owned buffer (cleared first), so
    /// the per-`NetDone` hot path reuses one allocation across events.
    pub fn complete_due_into(&mut self, now: f64, done: &mut Vec<Completion>) {
        done.clear();
        self.advance(now);
        // Tolerance in virtual units. Residual wire time of the queue front is
        // `(v_fin − v) / v_rate`, so "due within a few ulps of the clock"
        // means `v_fin − v <= ulp(now)·v_rate`, plus a few ulps of the
        // accumulator itself for the rounding `advance` just performed.
        let eps = 4.0 * (ulp(now) * self.v_rate() + ulp(self.v));
        while let Some(&top) = self.due.peek() {
            if top.v_fin > self.v + eps {
                break;
            }
            self.due.pop();
            self.finish(top, done);
        }
        if done.is_empty() && self.active > 0 {
            // Ulp-rounding fallback: the event fired for this epoch, so the
            // earliest transfer was due. If its completion time rounds to
            // `<= now`, waiting cannot help — no future f64 instant gets
            // closer — so complete it regardless of residue.
            let &top = self
                .due
                .peek()
                .expect("active transfers but empty completion queue");
            let finish_at = self.last_advance + (top.v_fin - self.v).max(0.0) / self.v_rate();
            if finish_at <= now {
                self.due.pop();
                self.forced_completions += 1;
                self.finish(top, done);
            }
        }
        if !done.is_empty() {
            self.epoch += 1;
        }
    }

    /// Retires one queue node: frees its slab slot and records the
    /// completion.
    fn finish(&mut self, node: DueNode, done: &mut Vec<Completion>) {
        let t = self.slab[node.slot as usize]
            .take()
            .expect("completion queue pointed at a free slot");
        self.free.push(node.slot);
        self.active -= 1;
        self.messages += 1;
        done.push(Completion {
            payload: t.payload,
            delivered: !t.lost,
            started: t.started,
        });
    }

    /// Approximate resident bytes of the model's structures (capacity-based;
    /// the scale experiment uses this for its per-host memory bound).
    pub fn approx_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<Option<Transfer>>()
            + self.due.capacity() * std::mem::size_of::<DueNode>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + std::mem::size_of::<Self>()
    }
}

/// Distance from `x` to the next representable f64 — the clock/accumulator
/// granularity the completion tolerance scales with.
#[inline]
fn ulp(x: f64) -> f64 {
    x.abs().next_up() - x.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn single_transfer_takes_bytes_over_bandwidth_plus_overhead() {
        let cfg = NetworkConfig {
            overhead_s: 0.001,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let payload = TransferPayload::Dump { proc_id: 0 };
        net.start_transfer(0.0, 125_000.0, payload.clone(), &mut rng());
        // 125000 B at 1.25e6 B/s = 0.1 s, plus 1 ms overhead
        let t = net.next_completion().unwrap();
        assert!((t - 0.101).abs() < 1e-9, "completion at {t}");
        let done = net.complete_due(t);
        assert_eq!(
            done,
            vec![Completion {
                payload,
                delivered: true,
                started: 0.0
            }]
        );
        assert!(net.next_completion().is_none());
    }

    #[test]
    fn bus_shares_bandwidth_between_transfers() {
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let p = |i| TransferPayload::Dump { proc_id: i };
        net.start_transfer(0.0, 125_000.0, p(0), &mut rng());
        net.start_transfer(0.0, 125_000.0, p(1), &mut rng());
        // two equal transfers sharing the bus: both done at 0.2 s
        let t = net.next_completion().unwrap();
        assert!((t - 0.2).abs() < 1e-9, "completion at {t}");
        let done = net.complete_due(t);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn switch_does_not_share() {
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        }
        .switched();
        let mut net = NetworkModel::new(cfg);
        let p = |i| TransferPayload::Dump { proc_id: i };
        net.start_transfer(0.0, 125_000.0, p(0), &mut rng());
        net.start_transfer(0.0, 125_000.0, p(1), &mut rng());
        let t = net.next_completion().unwrap();
        assert!((t - 0.1).abs() < 1e-9, "completion at {t}");
    }

    #[test]
    fn late_joiner_slows_first_transfer() {
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let p = |i| TransferPayload::Dump { proc_id: i };
        net.start_transfer(0.0, 125_000.0, p(0), &mut rng());
        // at t = 0.05 the first transfer is half done; a second joins
        net.start_transfer(0.05, 125_000.0, p(1), &mut rng());
        // first needs 62500 more bytes at 0.625e6 B/s = 0.1 s -> t = 0.15
        let t = net.next_completion().unwrap();
        assert!((t - 0.15).abs() < 1e-9, "completion at {t}");
        let done = net.complete_due(t);
        assert_eq!(
            done,
            vec![Completion {
                payload: p(0),
                delivered: true,
                started: 0.0
            }]
        );
        // second then finishes alone: 62500 bytes at full speed
        let t2 = net.next_completion().unwrap();
        assert!((t2 - 0.2).abs() < 1e-9, "completion at {t2}");
    }

    #[test]
    fn saturation_samples_retransmissions() {
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            saturation_transfers: 2,
            collision_prob: 1.0,
            max_transmissions: 4,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        let p = |i| TransferPayload::Dump { proc_id: i };
        net.start_transfer(0.0, 1000.0, p(0), &mut r);
        net.start_transfer(0.0, 1000.0, p(1), &mut r);
        assert_eq!(net.errors, 0);
        // third transfer sees a saturated bus and with prob 1 keeps
        // colliding until TCP gives up
        net.start_transfer(0.0, 1000.0, p(2), &mut r);
        assert_eq!(net.errors, 1);
    }

    #[test]
    fn forced_saturation_congests_an_otherwise_idle_bus() {
        let cfg = NetworkConfig {
            saturation_transfers: 100, // never saturates organically here
            udp_loss_prob: 1.0,
            ..NetworkConfig::default()
        }
        .udp();
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        net.start_transfer(0.0, 1000.0, TransferPayload::Dump { proc_id: 0 }, &mut r);
        assert_eq!(net.losses, 0, "idle bus loses nothing");
        net.set_forced_saturation(true);
        net.start_transfer(0.0, 1000.0, TransferPayload::Dump { proc_id: 1 }, &mut r);
        assert_eq!(net.losses, 1, "burst traffic drops the datagram");
        net.set_forced_saturation(false);
        net.start_transfer(0.0, 1000.0, TransferPayload::Dump { proc_id: 2 }, &mut r);
        assert_eq!(net.losses, 1, "burst over: clean again");
    }

    #[test]
    fn udp_has_lower_overhead() {
        let tcp = NetworkConfig {
            overhead_s: 0.001,
            ..NetworkConfig::default()
        };
        let udp = NetworkConfig {
            udp_overhead_s: 0.0004,
            ..tcp
        }
        .udp();
        let mut a = NetworkModel::new(tcp);
        let mut b = NetworkModel::new(udp);
        let payload = TransferPayload::Dump { proc_id: 0 };
        a.start_transfer(0.0, 125_000.0, payload.clone(), &mut rng());
        b.start_transfer(0.0, 125_000.0, payload, &mut rng());
        let ta = a.next_completion().unwrap();
        let tb = b.next_completion().unwrap();
        assert!(tb < ta, "UDP {tb} should beat TCP {ta}");
        assert!((ta - tb - 0.0006).abs() < 1e-9);
    }

    #[test]
    fn udp_loses_datagrams_on_saturated_bus() {
        let cfg = NetworkConfig {
            saturation_transfers: 1,
            udp_loss_prob: 1.0,
            ..NetworkConfig::default()
        }
        .udp();
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        let p = |i| TransferPayload::Dump { proc_id: i };
        net.start_transfer(0.0, 1000.0, p(0), &mut r); // not saturated yet
        net.start_transfer(0.0, 1000.0, p(1), &mut r); // saturated: lost
        assert_eq!(net.losses, 1);
        let t = net.next_completion().unwrap();
        let done = net.complete_due(t);
        // both complete, but the second was dropped before the receiver
        assert_eq!(done.len(), 2);
        assert!(done.iter().any(|c| !c.delivered));
        assert!(done.iter().any(|c| c.delivered));
        // TCP on the same bus never reports losses
        assert_eq!(net.errors, 0);
    }

    #[test]
    fn tcp_never_loses() {
        let cfg = NetworkConfig {
            saturation_transfers: 0,
            collision_prob: 0.9,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        for i in 0..20 {
            net.start_transfer(0.0, 100.0, TransferPayload::Dump { proc_id: i }, &mut r);
        }
        // drain everything
        while let Some(t) = net.next_completion() {
            for c in net.complete_due(t) {
                assert!(c.delivered, "TCP must deliver");
            }
        }
        assert_eq!(net.losses, 0);
        // but it does record give-up errors under these extreme collisions
        assert!(net.errors > 0);
    }

    #[test]
    fn forced_loss_pays_wire_time_but_never_delivers() {
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        let p = TransferPayload::HaloData {
            to_proc: 1,
            step: 0,
            xch: 0,
            from_proc: 0,
            seq: 1,
            attempt: 1,
        };
        net.start_transfer_faulted(0.0, 125_000.0, 1.0, p.clone(), &mut r, true);
        let t = net.next_completion().unwrap();
        assert!((t - 0.1).abs() < 1e-9, "wire time still paid: {t}");
        let done = net.complete_due(t);
        assert_eq!(done.len(), 1);
        assert!(!done[0].delivered, "forced loss must not deliver");
        assert_eq!(net.bytes_delivered, 0.0);
        // TCP congestion counters are untouched by injected losses
        assert_eq!(net.errors, 0);
        assert_eq!(net.losses, 0);
    }

    #[test]
    fn epoch_guards_stale_events() {
        let mut net = NetworkModel::new(NetworkConfig::default());
        let e0 = net.epoch();
        net.start_transfer(0.0, 10.0, TransferPayload::Dump { proc_id: 0 }, &mut rng());
        assert!(net.epoch() > e0);
    }

    #[test]
    fn simultaneous_completions_deliver_in_admission_order() {
        // The documented completion order: (finish virtual time, admission
        // order). Four identical transfers admitted back-to-back at t = 0
        // share the bus symmetrically, finish at the same instant, and must
        // come back 0, 1, 2, 3 — the PR 6 index order the completion queue is
        // not allowed to shuffle.
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        for i in 0..4 {
            net.start_transfer(0.0, 50_000.0, TransferPayload::Dump { proc_id: i }, &mut r);
        }
        let t = net.next_completion().unwrap();
        let done = net.complete_due(t);
        let order: Vec<usize> = done
            .iter()
            .map(|c| match c.payload {
                TransferPayload::Dump { proc_id } => proc_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn staggered_completions_deliver_in_finish_order() {
        // Different finish points in ONE complete_due call (the second
        // transfer completes strictly later but the caller only drains at
        // the later instant): order is by finish virtual time, not by
        // admission order.
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        }
        .switched();
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        net.start_transfer(0.0, 100_000.0, TransferPayload::Dump { proc_id: 9 }, &mut r);
        net.start_transfer(0.0, 50_000.0, TransferPayload::Dump { proc_id: 3 }, &mut r);
        // drain both at the later completion: the shorter (later-admitted)
        // transfer finished first
        let done = net.complete_due(0.08);
        let order: Vec<usize> = done
            .iter()
            .map(|c| match c.payload {
                TransferPayload::Dump { proc_id } => proc_id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![3, 9]);
    }

    #[test]
    fn completion_tolerance_scales_with_clock_ulp() {
        // A transfer with half a byte of wire time left is NOT due early in
        // a run (ulp(now)·rate is ~1e-11 bytes at t ≈ 0.1 s): the PR 6
        // force-complete fallback would have delivered it up to a byte of
        // wire time early.
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        net.start_transfer(0.0, 125_000.0, TransferPayload::Dump { proc_id: 0 }, &mut r);
        // 0.5 bytes short of completion: 124999.5 bytes moved by t
        let t_early = 124_999.5 / 1.25e6;
        let done = net.complete_due(t_early);
        assert!(
            done.is_empty(),
            "sub-byte residue must not complete early: {done:?}"
        );
        // ...but the true completion instant still delivers
        let t = net.next_completion().unwrap();
        let done = net.complete_due(t);
        assert_eq!(done.len(), 1);
        assert_eq!(net.forced_completions, 0);
    }

    #[test]
    fn long_run_drift_completions_never_stall_or_arrive_early() {
        // Satellite drift test: after 1e9 simulated seconds the virtual
        // accumulator sits near 1.25e15 bytes, where one ulp is ~0.25 bytes
        // — ABOVE the PR 6 milli-byte tolerance, which would have spun
        // rescheduling the completion at the same rounded time forever.
        // Drive 1000 sequential transfers from t = 1e9 and require each to
        // complete (progress), never more than one ulp-of-wire-time early
        // (no drift-induced early delivery), and never observably late.
        let cfg = NetworkConfig {
            overhead_s: 0.0,
            ..NetworkConfig::default()
        };
        let mut net = NetworkModel::new(cfg);
        let mut r = rng();
        let rate = cfg.bytes_per_sec();
        // push the accumulator to the 1e9-second regime with one long
        // transfer (1e9 s of wire time at full rate)
        net.start_transfer(
            0.0,
            1.0e9 * rate,
            TransferPayload::Dump { proc_id: 0 },
            &mut r,
        );
        let t = net.next_completion().unwrap();
        assert!((t - 1.0e9).abs() / 1.0e9 < 1e-12, "long transfer at {t}");
        assert_eq!(net.complete_due(t).len(), 1, "long transfer must complete");
        let mut now = t;
        for i in 0..1000 {
            let bytes = 1000.0 + (i % 7) as f64 * 333.0;
            net.start_transfer(now, bytes, TransferPayload::Dump { proc_id: 1 }, &mut r);
            let t_done = net.next_completion().expect("transfer pending");
            let wire = bytes / rate;
            assert!(
                t_done - now >= wire - 4.0 * ulp(now),
                "iteration {i}: completion {t_done} is early by more than \
                 ulp-scale (start {now}, wire {wire})"
            );
            assert!(
                t_done - now <= wire + 4.0 * ulp(now) + 4.0 * ulp(net.v) / rate,
                "iteration {i}: completion {t_done} drifted late"
            );
            let done = net.complete_due(t_done);
            assert_eq!(done.len(), 1, "iteration {i}: completion stalled");
            assert!(t_done >= now, "clock went backwards");
            now = t_done;
        }
        assert_eq!(net.active(), 0);
    }

    #[test]
    fn memory_footprint_is_reported() {
        let mut net = NetworkModel::new(NetworkConfig::default());
        let mut r = rng();
        for i in 0..100 {
            net.start_transfer(0.0, 1000.0, TransferPayload::Dump { proc_id: i }, &mut r);
        }
        assert!(net.approx_bytes() > 100 * std::mem::size_of::<DueNode>());
        assert_eq!(net.active(), 100);
    }
}
