//! The discrete-event core: a calendar/bucket queue with inline event
//! payloads.
//!
//! The queue keeps a *window* of `RING_BUCKETS` equal-width time buckets
//! covering `[base, horizon)`; events inside the window go into their bucket
//! (an unsorted `Vec` of nodes), events outside it into an overflow queue.
//! Scheduling is O(1) for in-window events; popping scans an occupancy
//! bitmap to the first non-empty bucket and takes that bucket's
//! `(time, seq)` minimum — O(bucket occupancy), which the adaptive bucket
//! width keeps at a handful of nodes. A bucket that grows past a small
//! threshold anyway (a synchronised burst — every host of a homogeneous
//! cluster finishing a phase at the same instant) is promoted once into the
//! *front* queue: sorted once, then popped in O(1) each, where a scan per
//! pop would cost O(k²) for the burst; see `front`/`FRONT_HEAP_MIN`. Both
//! the front and the overflow queue are `RunHeap`s (`crate::runheap`): a
//! push at or after the tail of their sorted run (the burst's own
//! successors, scheduled in `seq` order) is an O(1) append, and only
//! out-of-order pushes pay a binary heap's O(log n). When the window
//! drains, the queue re-anchors it at the overflow queue's minimum and
//! re-tunes the width to the smoothed inter-event gap, so both dense event
//! storms and sparse idle stretches stay cheap. Event payloads are `Copy`
//! and live inline in the nodes; only cancellable events carry a claim on
//! the generation slab, so the common schedule/pop path touches no indirect
//! storage at all.
//!
//! Determinism: events fire in `(time, insertion seq)` order — exactly the
//! PR 6 `BinaryHeap` contract (`reference::ReferenceEventQueue` pins it, and
//! `tests/engine_equivalence.rs` checks the two against each other on random
//! schedules). Bucketing never reorders: buckets partition the time axis into
//! ascending disjoint intervals and the per-bucket scan takes the full
//! `(time, seq)` minimum. Neither does the run/heap split of a `RunHeap`:
//! `seq` makes every key unique, so its pops are a binary heap's.
//!
//! Time travel is a hard error: `schedule_at` into the past panics in every
//! build profile. The PR 6 queue only `debug_assert`ed, so a release build
//! would silently rewind `now` and corrupt every elapsed-time charge taken
//! downstream (`t_calc`, `t_com`, load-average decay, busy-time integrals).
//!
//! The `_cancellable` scheduling variants return an [`EventHandle`];
//! [`EventQueue::cancel`] invalidates
//! the event in O(1) (generation bump — the node is discarded lazily when a
//! scan meets it). The simulator's hot path keeps the PR 6 epoch-guard
//! pattern for `NetDone`/`ComputeDone` supersession — a stale pop costs
//! ~10 ns and keeps the event stream identical to PR 6 — and uses handles
//! where no epoch exists (e.g. the run loop's own `Stop` sentinel, which
//! earlier could leak into a subsequent `run()` call and end it early).

use std::cmp::Ordering;

use crate::runheap::RunHeap;

/// Events the cluster simulation processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A process finishes its current compute phase (guarded by its epoch).
    ComputeDone { proc_id: usize, epoch: u64 },
    /// The earliest in-flight network transfer completes (guarded by the
    /// network epoch).
    NetDone { epoch: u64 },
    /// The user of a host switches between active and idle.
    UserFlip { host: usize },
    /// A full-time background job arrives on a host.
    JobArrival { host: usize },
    /// A full-time background job finishes on a host.
    JobDeparture { host: usize },
    /// Re-plan the compute rate on a host whose smoothed CPU demand is still
    /// relaxing toward the instantaneous competitor count (the
    /// processor-sharing rate follows the 1-minute load average, so the rate
    /// keeps drifting between job arrivals/departures).
    CpuRelax { host: usize },
    /// Periodic check of the monitoring program.
    MonitorTick,
    /// Periodic checkpoint trigger.
    CheckpointTick,
    /// The staggered-save token reaches the next process.
    CheckpointToken { order_index: usize },
    /// A paused process finishes saving / loading its dump file.
    DumpTransferDone { proc_id: usize, epoch: u64 },
    /// The job-submit program retries its search for free hosts.
    SubmitRetry,
    /// A UDP halo datagram was lost; the acknowledgement timeout expired and
    /// the application resends it (Appendix D).
    ResendHalo {
        /// Receiving process.
        to_proc: usize,
        /// Step of the lost message.
        step: u64,
        /// Exchange id of the lost message.
        xch: usize,
        /// Sending process.
        from_proc: usize,
    },
    /// A slow receiver finishes the CPU-bound catch-up of deferred protocol
    /// work and the held-back halo below finally goes onto the wire (the
    /// rendezvous step-coupling's heterogeneity penalty).
    StagedCatchup {
        /// Receiving process (the one that paid the catch-up).
        to_proc: usize,
        /// Sending process whose staged halo is released.
        from_proc: usize,
        /// Payload bytes of the released halo.
        bytes: f64,
        /// Integration step of the message.
        step: u64,
        /// Exchange id of the message.
        xch: usize,
    },
    /// A UDP dump transfer was lost; resend it.
    ResendDump {
        /// The saving/loading process.
        proc_id: usize,
    },
    /// Channel reopening handshake completes, computation resumes (CONT).
    ResumeAll,
    /// An injected fault: the host goes down and its subprocess dies.
    HostCrash {
        /// Host index.
        host: usize,
    },
    /// A crashed host finishes rebooting and rejoins the pool.
    HostReboot {
        /// Host index.
        host: usize,
    },
    /// An injected transient stall begins on a host.
    HostFreezeStart {
        /// Host index.
        host: usize,
    },
    /// The transient stall ends; the host resumes making progress.
    HostFreezeEnd {
        /// Host index.
        host: usize,
    },
    /// An injected bus-saturation burst begins (every transfer started during
    /// the burst behaves as if the shared bus were congested).
    BusBurstStart,
    /// The bus-saturation burst ends.
    BusBurstEnd,
    /// The failure detector probes a suspect host for a heartbeat. The chain
    /// is guarded by the host's `probe_epoch`; `misses` counts consecutive
    /// unanswered probes so far (this probe included if it goes unanswered).
    HeartbeatProbe {
        /// Suspect host.
        host: usize,
        /// Consecutive misses including this probe.
        misses: u32,
        /// Guard against stale chains (host recovered, chain restarted).
        probe_epoch: u64,
    },
    /// Reliable transport: the retransmission timeout for an outstanding
    /// DATA message expired without an ACK. Stale timers (message already
    /// acknowledged, or a newer attempt re-armed the timer) are recognised
    /// by the `(seq, attempt)` pair and ignored.
    RetxTimer {
        /// Sending process.
        from_proc: usize,
        /// Receiving process.
        to_proc: usize,
        /// Per-link sequence number of the outstanding message.
        seq: u64,
        /// Attempt number this timer was armed for.
        attempt: u32,
    },
    /// Reliable transport: a DATA transmission held back by a reorder fault
    /// finally enters the wire. The loss decision was sampled at send time
    /// (so the RNG draw order is independent of the hold-back) and rides
    /// along in `lost`.
    TransportSend {
        /// Sending process.
        from_proc: usize,
        /// Receiving process.
        to_proc: usize,
        /// Per-link sequence number.
        seq: u64,
        /// Attempt number of the delayed transmission.
        attempt: u32,
        /// Pre-sampled loss verdict for this transmission.
        lost: bool,
    },
    /// An injected message-fault window opens (`idx` into the fault plan's
    /// message-fault table).
    MsgFaultStart {
        /// Window index.
        idx: usize,
    },
    /// The message-fault window closes.
    MsgFaultEnd {
        /// Window index.
        idx: usize,
    },
    /// An injected network partition begins (`idx` into the plan's
    /// partition table).
    PartitionStart {
        /// Partition index.
        idx: usize,
    },
    /// The network partition heals.
    PartitionEnd {
        /// Partition index.
        idx: usize,
    },
    /// End of the simulated measurement window.
    Stop,
}

/// A claim on a scheduled event, for O(1) cancellation. Stale handles (the
/// event already fired or was cancelled) are recognised and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    slot: u32,
    gen: u32,
}

/// Slot marker for events scheduled without a handle: no liveness slot, the
/// node is unconditionally live and never touches the generation slab.
const NO_SLOT: u32 = u32::MAX;

/// A queue node. The payload is `Copy` and lives inline — the common
/// (non-cancellable) schedule/pop path therefore never takes the random
/// slab access an indirect payload would cost. Only cancellable events
/// carry a `(slot, gen)` claim into the generation slab.
#[derive(Debug, Clone, Copy)]
struct Node<K> {
    time: f64,
    seq: u64,
    kind: K,
    slot: u32,
    gen: u32,
}

impl<K> Node<K> {
    #[inline]
    fn key(&self) -> (f64, u64) {
        (self.time, self.seq)
    }
}

/// Queue order: earliest `(time, seq)` first. `seq` is unique, so the order
/// is total and no two nodes compare equal.
impl<K> PartialEq for Node<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K> Eq for Node<K> {}
impl<K> PartialOrd for Node<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Node<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Number of buckets in the calendar window. Power of two, sized so the
/// occupancy bitmap is 16 machine words.
const RING_BUCKETS: usize = 1024;
const BITMAP_WORDS: usize = RING_BUCKETS / 64;
/// Smoothing factor (1/2^k) of the inter-event-gap estimate driving the
/// adaptive bucket width.
const GAP_EWMA_SHIFT: u32 = 6;
/// Target bucket width as a multiple of the mean inter-event gap (a few
/// events per bucket keeps the per-pop scan short without wasting buckets).
const WIDTH_GAIN: f64 = 4.0;
/// Buckets smaller than this are drained by linear scan; bigger ones (a
/// synchronised event burst the adaptive width cannot spread) are promoted
/// to the sorted front queue. Scan beats a sort while a bucket fits in a
/// couple of cache lines.
const FRONT_HEAP_MIN: usize = 9;

/// The cluster simulation's event queue (the calendar queue specialised to
/// [`EventKind`] — the name every pre-PR 9 call site uses).
pub type EventQueue = CalendarQueue<EventKind>;

/// A deterministic discrete-event queue: calendar buckets for the near
/// window, an overflow heap for everything beyond it, payloads in a slab.
///
/// Generic over the inline `Copy` payload so other event-driven layers (the
/// `subsonic-sched` job stream) reuse the engine with their own event types;
/// [`EventQueue`] is the cluster simulation's specialisation.
#[derive(Debug)]
pub struct CalendarQueue<K: Copy> {
    /// Liveness generations of cancellable events (cancel/fire bumps the
    /// generation, invalidating outstanding handles and nodes).
    slab: Vec<u32>,
    free: Vec<u32>,
    buckets: Vec<Vec<Node<K>>>,
    /// One bit per bucket: does it hold any node?
    occupied: [u64; BITMAP_WORDS],
    /// Nodes (live or stale) currently in the buckets.
    bucket_nodes: usize,
    /// Events outside the window (before `base` or at/after `horizon`). A
    /// burst scheduled past the horizon arrives in pop order, so it is
    /// appended to the run and later drained into the window in O(1) each.
    far: RunHeap<Node<K>>,
    /// Window start. The window covers `[base, horizon)`.
    base: f64,
    /// Bucket width in seconds.
    width: f64,
    /// `1.0 / width`, so `bucket_of` multiplies instead of divides. Bucket
    /// boundaries may land one ulp off a true division's, which is harmless:
    /// the mapping stays monotone in time and insert/pop use the same one.
    inv_width: f64,
    /// Window end: `base + RING_BUCKETS * width`.
    horizon: f64,
    /// The *front* bucket — the one pops are currently draining — promoted
    /// into a [`RunHeap`], while all other buckets stay unsorted push-only
    /// `Vec`s. Without this, a burst of synchronised events (every host of a
    /// big homogeneous cluster finishing its compute phase at the same
    /// instant) lands in one bucket and every pop re-walks it — an O(n²)
    /// stall per step at 4096 hosts. Promotion sorts the bucket once into
    /// the run (O(k log k)); pops are then O(1), and so are same-bucket
    /// inserts at or after the run's tail (a burst scheduling its own
    /// successors in `seq` order); earlier ones cost O(log k).
    front: RunHeap<Node<K>>,
    /// Which bucket `front` holds, or `usize::MAX`.
    front_bucket: usize,
    /// Smoothed gap between consecutive distinct pop times.
    gap_ewma: f64,
    now: f64,
    seq: u64,
    live: usize,
    /// Cancelled-but-not-yet-removed nodes still sitting in a bucket or the
    /// overflow heap. While zero (the common case — the simulator mostly
    /// supersedes by epoch instead of cancelling), scans skip the per-node
    /// slab generation check and run over the contiguous node vector alone.
    stale: usize,
}

impl<K: Copy> Default for CalendarQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy> CalendarQueue<K> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        let width = 1e-3;
        Self {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            bucket_nodes: 0,
            far: RunHeap::default(),
            base: 0.0,
            width,
            inv_width: 1.0 / width,
            horizon: RING_BUCKETS as f64 * width,
            front: RunHeap::default(),
            front_bucket: usize::MAX,
            gap_ewma: 0.0,
            now: 0.0,
            seq: 0,
            live: 0,
            stale: 0,
        }
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `kind` to fire `delay` seconds from now. A negative or
    /// non-finite delay is a hard error in every build profile.
    pub fn schedule(&mut self, delay: f64, kind: K) {
        assert!(
            delay >= 0.0 && delay.is_finite(),
            "event scheduled with bad delay {delay} (now {})",
            self.now
        );
        // `now + delay` can round down to `now` for tiny delays but never
        // below it, so the schedule_at guard holds by construction.
        self.insert(self.now + delay, kind, NO_SLOT, 0);
    }

    /// Schedules `kind` at an absolute time. Scheduling into the past is a
    /// hard error in every build profile: the PR 6 queue only checked this
    /// under `debug_assertions`, so release builds would silently rewind the
    /// clock at pop time and corrupt every elapsed-time charge downstream.
    pub fn schedule_at(&mut self, time: f64, kind: K) {
        // `time >= now` rejects NaN and -inf too; `+inf` stays legal as the
        // "no deadline" sentinel (`run(f64::INFINITY, ..)`) and parks in the
        // overflow heap, popping after every finite event.
        assert!(
            time >= self.now,
            "event scheduled into the past: t={time} < now={}",
            self.now
        );
        self.insert(time, kind, NO_SLOT, 0);
    }

    /// [`Self::schedule`], returning a handle for O(1) cancellation.
    pub fn schedule_cancellable(&mut self, delay: f64, kind: K) -> EventHandle {
        assert!(
            delay >= 0.0 && delay.is_finite(),
            "event scheduled with bad delay {delay} (now {})",
            self.now
        );
        let h = self.claim_slot();
        self.insert(self.now + delay, kind, h.slot, h.gen);
        h
    }

    /// [`Self::schedule_at`], returning a handle for O(1) cancellation.
    pub fn schedule_at_cancellable(&mut self, time: f64, kind: K) -> EventHandle {
        assert!(
            time >= self.now,
            "event scheduled into the past: t={time} < now={}",
            self.now
        );
        let h = self.claim_slot();
        self.insert(time, kind, h.slot, h.gen);
        h
    }

    /// Cancels a scheduled event in O(1). Returns `true` if the event was
    /// still pending; stale handles (already fired or cancelled) return
    /// `false` and do nothing. The queue node is discarded lazily when a
    /// bucket scan or heap pop meets it.
    pub fn cancel(&mut self, h: EventHandle) -> bool {
        match self.slab.get_mut(h.slot as usize) {
            Some(g) if *g == h.gen => {
                *g += 1;
                self.free.push(h.slot);
                self.live -= 1;
                self.stale += 1;
                true
            }
            _ => false,
        }
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(f64, K)> {
        loop {
            // Drop stale overflow tops so the window/far comparison below
            // sees a live minimum.
            if self.stale > 0 {
                while let Some(&n) = self.far.peek() {
                    if self.is_live(&n) {
                        break;
                    }
                    self.far.pop();
                    self.stale -= 1;
                }
            }
            if self.bucket_nodes == 0 {
                let &top = self.far.peek()?;
                // A non-finite top (the +inf Stop sentinel) can't anchor a
                // window — take it directly instead of re-anchoring at inf.
                if top.time.is_finite() && (top.time >= self.horizon || top.time < self.base) {
                    self.rewindow(top.time);
                    continue;
                }
                // A live far node inside the window can only appear through
                // rewindow itself, which drains them; nothing to do but take
                // it directly.
                self.far.pop();
                return Some(self.take(top));
            }
            // Buckets partition ascending time intervals, so the first
            // occupied bucket holds the global (time, seq) minimum among
            // bucketed nodes.
            let start = self.bucket_of(self.now.max(self.base));
            let Some(b) = self.next_occupied(start) else {
                // Only stale-marked counts remained; fall back to a full
                // rebuild of the invariant by clearing the counter.
                debug_assert_eq!(self.bucket_nodes, 0);
                self.bucket_nodes = 0;
                continue;
            };
            if self.front_bucket != b {
                // An insert between `now` and the old front's range can make
                // an earlier bucket the new front; demote the old front back
                // to its (unsorted) bucket first.
                if !self.front.is_empty() {
                    self.buckets[self.front_bucket].extend(self.front.drain());
                }
                if self.buckets[b].len() < FRONT_HEAP_MIN {
                    // Common case: a handful of nodes — take the minimum by
                    // linear scan, no promotion.
                    if let Some((min, pos)) = self.scan_bucket(b) {
                        if let Some(&top) = self.far.peek() {
                            if top.time < self.base && top.key() < min.key() {
                                self.far.pop();
                                return Some(self.take(top));
                            }
                        }
                        let bucket = &mut self.buckets[b];
                        bucket.swap_remove(pos);
                        self.bucket_nodes -= 1;
                        if bucket.is_empty() {
                            self.occupied[b / 64] &= !(1u64 << (b % 64));
                        }
                        return Some(self.take(min));
                    }
                    // only stale nodes lived here
                    self.occupied[b / 64] &= !(1u64 << (b % 64));
                    continue;
                }
                // Synchronised burst: sort once into the front's run, then
                // O(1) drains.
                self.front.fill_sorted(std::mem::take(&mut self.buckets[b]));
                self.front_bucket = b;
            }
            while let Some(&min) = self.front.peek() {
                if self.stale > 0 && !self.is_live(&min) {
                    self.front.pop();
                    self.bucket_nodes -= 1;
                    self.stale -= 1;
                    continue;
                }
                // An out-of-window event parked in `far` can precede the
                // bucket minimum only if it lies before `base`.
                if let Some(&top) = self.far.peek() {
                    if top.time < self.base && top.key() < min.key() {
                        self.far.pop();
                        return Some(self.take(top));
                    }
                }
                self.front.pop();
                self.bucket_nodes -= 1;
                if self.front.is_empty() {
                    self.occupied[b / 64] &= !(1u64 << (b % 64));
                }
                return Some(self.take(min));
            }
            // only stale nodes lived here; clear the bucket's bit and rescan
            self.occupied[b / 64] &= !(1u64 << (b % 64));
        }
    }

    /// Approximate resident bytes of the queue's structures (capacity-based;
    /// the scale experiment uses this for its per-host memory bound).
    pub fn approx_bytes(&self) -> usize {
        let nodes: usize = self.buckets.iter().map(|b| b.capacity()).sum::<usize>()
            + self.far.capacity()
            + self.front.capacity();
        (self.slab.capacity() + self.free.capacity()) * std::mem::size_of::<u32>()
            + nodes * std::mem::size_of::<Node<K>>()
            + RING_BUCKETS * std::mem::size_of::<Vec<Node<K>>>()
            + std::mem::size_of::<Self>()
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    #[inline]
    fn bucket_of(&self, time: f64) -> usize {
        debug_assert!(time >= self.base && time < self.horizon);
        (((time - self.base) * self.inv_width) as usize).min(RING_BUCKETS - 1)
    }

    /// Whether a node is still pending (not cancelled). Handle-free nodes
    /// are always live.
    #[inline]
    fn is_live(&self, n: &Node<K>) -> bool {
        n.slot == NO_SLOT || self.slab[n.slot as usize] == n.gen
    }

    /// Allocates a liveness slot for a cancellable event.
    fn claim_slot(&mut self) -> EventHandle {
        match self.free.pop() {
            Some(slot) => EventHandle {
                slot,
                gen: self.slab[slot as usize],
            },
            None => {
                self.slab.push(0);
                EventHandle {
                    slot: (self.slab.len() - 1) as u32,
                    gen: 0,
                }
            }
        }
    }

    fn insert(&mut self, time: f64, kind: K, slot: u32, gen: u32) {
        let node = Node {
            time,
            seq: self.seq,
            kind,
            slot,
            gen,
        };
        self.seq += 1;
        self.live += 1;
        if time >= self.base && time < self.horizon {
            let b = self.bucket_of(time);
            if b == self.front_bucket {
                self.front.push(node);
            } else {
                self.buckets[b].push(node);
            }
            self.occupied[b / 64] |= 1u64 << (b % 64);
            self.bucket_nodes += 1;
        } else {
            self.far.push(node);
        }
    }

    /// Consumes a live node: frees its slot, advances the clock, returns the
    /// event.
    fn take(&mut self, node: Node<K>) -> (f64, K) {
        debug_assert!(self.is_live(&node), "take() on a stale node");
        if node.slot != NO_SLOT {
            // invalidate the outstanding handle now that the event fired
            self.slab[node.slot as usize] += 1;
            self.free.push(node.slot);
        }
        let kind = node.kind;
        self.live -= 1;
        assert!(
            node.time >= self.now,
            "event queue time travel: popping t={} behind now={}",
            node.time,
            self.now
        );
        let gap = node.time - self.now;
        if gap > 0.0 && gap.is_finite() {
            // EWMA of the inter-event gap drives the adaptive bucket width.
            self.gap_ewma += (gap - self.gap_ewma) / (1u64 << GAP_EWMA_SHIFT) as f64;
        }
        self.now = node.time;
        (node.time, kind)
    }

    /// First occupied bucket at or after `start`, via the occupancy bitmap.
    #[inline]
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let mut w = start / 64;
        let mut word = self.occupied[w] & (!0u64 << (start % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == BITMAP_WORDS {
                return None;
            }
            word = self.occupied[w];
        }
    }

    /// Minimum live `(time, seq)` node in bucket `b` and its index, pruning
    /// stale nodes on the way. Returns `None` (with the bucket emptied of
    /// stale nodes) if nothing lives. The returned index stays valid: `best`
    /// is only ever set at already-visited positions, and `swap_remove` at
    /// the cursor moves elements only from the unvisited tail.
    fn scan_bucket(&mut self, b: usize) -> Option<(Node<K>, usize)> {
        let slab = &self.slab;
        let bucket = &mut self.buckets[b];
        let mut best: Option<(Node<K>, usize)> = None;
        if self.stale == 0 {
            // Fast path: nothing is cancelled anywhere, so every node is
            // live and the scan never touches the slab.
            for (i, n) in bucket.iter().enumerate() {
                if best.is_none_or(|(m, _)| n.key() < m.key()) {
                    best = Some((*n, i));
                }
            }
            return best;
        }
        let mut i = 0;
        while i < bucket.len() {
            let n = bucket[i];
            if n.slot != NO_SLOT && slab[n.slot as usize] != n.gen {
                bucket.swap_remove(i);
                self.bucket_nodes -= 1;
                self.stale -= 1;
                continue;
            }
            if best.is_none_or(|(m, _)| n.key() < m.key()) {
                best = Some((n, i));
            }
            i += 1;
        }
        best
    }

    /// Re-anchors the calendar window at `t_min` (the earliest pending far
    /// event), re-tunes the bucket width to the smoothed inter-event gap and
    /// pulls every overflow event that now fits into the window.
    fn rewindow(&mut self, t_min: f64) {
        debug_assert_eq!(self.bucket_nodes, 0);
        // the window re-maps bucket indices; the (empty) front queue must
        // not claim one of the new buckets
        self.front_bucket = usize::MAX;
        if self.gap_ewma > 0.0 {
            self.width = (self.gap_ewma * WIDTH_GAIN).clamp(1e-12, 1e15);
            self.inv_width = 1.0 / self.width;
        }
        self.base = t_min;
        self.horizon = t_min + RING_BUCKETS as f64 * self.width;
        while let Some(&n) = self.far.peek() {
            if self.stale > 0 && !self.is_live(&n) {
                self.far.pop();
                self.stale -= 1;
                continue;
            }
            if n.time >= self.horizon {
                break;
            }
            self.far.pop();
            let b = self.bucket_of(n.time);
            self.buckets[b].push(n);
            self.occupied[b / 64] |= 1u64 << (b % 64);
            self.bucket_nodes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, EventKind::MonitorTick);
        q.schedule(1.0, EventKind::Stop);
        q.schedule(3.0, EventKind::CheckpointTick);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, EventKind::JobArrival { host: 0 });
        q.schedule(2.0, EventKind::JobArrival { host: 1 });
        q.schedule(2.0, EventKind::JobArrival { host: 2 });
        let hosts: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::JobArrival { host } => host,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(hosts, vec![0, 1, 2]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(1.0, EventKind::Stop);
        q.pop();
        assert_eq!(q.now(), 1.0);
        q.schedule(0.5, EventKind::Stop);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 1.5);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn past_time_scheduling_is_a_hard_error() {
        let mut q = EventQueue::new();
        q.schedule(1.0, EventKind::Stop);
        q.pop();
        q.schedule_at(0.5, EventKind::Stop);
    }

    #[test]
    #[should_panic(expected = "bad delay")]
    fn negative_delay_is_a_hard_error() {
        let mut q = EventQueue::new();
        q.schedule(-1.0e-9, EventKind::Stop);
    }

    #[test]
    fn past_time_guard_is_not_debug_only() {
        // The regression the headline bugfix pins: the guard must fire with
        // `panic::catch_unwind` in *this* build profile, whatever it is —
        // check.sh runs this test in both dev and release.
        let caught = std::panic::catch_unwind(|| {
            let mut q = EventQueue::new();
            q.schedule(2.0, EventKind::Stop);
            q.pop();
            q.schedule_at(1.0, EventKind::MonitorTick);
        });
        assert!(
            caught.is_err(),
            "past-time schedule_at must panic in every build profile"
        );
    }

    #[test]
    fn cancellation_by_handle() {
        let mut q = EventQueue::new();
        let a = q.schedule_cancellable(1.0, EventKind::MonitorTick);
        let b = q.schedule_cancellable(2.0, EventKind::CheckpointTick);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a stale no-op");
        assert_eq!(q.len(), 1);
        let (t, kind) = q.pop().unwrap();
        assert_eq!(t, 2.0);
        assert_eq!(kind, EventKind::CheckpointTick);
        assert!(!q.cancel(b), "fired events leave stale handles");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_slots_are_reused_safely() {
        let mut q = EventQueue::new();
        let a = q.schedule_cancellable(5.0, EventKind::MonitorTick);
        assert!(q.cancel(a));
        // the freed slot is recycled for a different event; the stale node
        // for `a` must not resurrect it
        q.schedule_cancellable(1.0, EventKind::Stop);
        let (t, kind) = q.pop().unwrap();
        assert_eq!((t, kind), (1.0, EventKind::Stop));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn far_events_cross_windows_in_order() {
        // events far beyond the initial window (incl. a 1e9 sentinel) pop in
        // global order across several re-anchorings
        let mut q = EventQueue::new();
        q.schedule_at(1.0e9, EventKind::Stop);
        q.schedule(0.5, EventKind::MonitorTick);
        q.schedule(2_000.0, EventKind::CheckpointTick);
        q.schedule(40.0, EventKind::SubmitRetry);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![0.5, 40.0, 2_000.0, 1.0e9]);
    }

    #[test]
    fn dense_same_time_bursts_stay_fifo() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            let t = round as f64 * 1e-4;
            for h in 0..20 {
                q.schedule_at(t, EventKind::JobArrival { host: h });
            }
            for want in 0..20 {
                let (pt, kind) = q.pop().unwrap();
                assert_eq!(pt, t);
                assert_eq!(kind, EventKind::JobArrival { host: want });
            }
        }
        assert!(q.is_empty());
    }

    #[test]
    fn infinite_deadline_sentinel_pops_last_and_is_cancellable() {
        // `run(f64::INFINITY, ..)` schedules its Stop sentinel at +inf; the
        // queue must accept it, keep it behind every finite event, and not
        // hang trying to anchor a bucket window at infinity.
        let mut q = EventQueue::new();
        let stop = q.schedule_at_cancellable(f64::INFINITY, EventKind::Stop);
        q.schedule(1.0, EventKind::MonitorTick);
        q.schedule(2.0, EventKind::CheckpointTick);
        assert_eq!(q.pop().unwrap().0, 1.0);
        assert_eq!(q.pop().unwrap().0, 2.0);
        assert!(q.cancel(stop));
        assert!(q.pop().is_none());

        let mut q = EventQueue::new();
        q.schedule_at(f64::INFINITY, EventKind::Stop);
        let (t, kind) = q.pop().unwrap();
        assert_eq!(t, f64::INFINITY);
        assert_eq!(kind, EventKind::Stop);
    }

    #[test]
    fn memory_footprint_is_reported() {
        let mut q = EventQueue::new();
        for i in 0..1000 {
            q.schedule(i as f64 * 0.01, EventKind::MonitorTick);
        }
        assert!(q.approx_bytes() > 1000 * std::mem::size_of::<Node<EventKind>>());
    }
}
