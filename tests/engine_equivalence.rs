//! PR 7 engine-equivalence harness: the rewritten discrete-event core
//! (calendar/bucket `EventQueue`, virtual-service-time `NetworkModel`) run
//! side by side against the pinned PR 6 reference implementations
//! (`subsonic_cluster::reference`) on randomized schedules.
//!
//! The rewrite changes the *data structures*, not the contract: pop order is
//! exact `(time, insertion seq)` order, so the queue comparison demands
//! bit-identical times and identical kinds. The bus rewrite does change the
//! float rounding of completion times (the virtual accumulator sums shares
//! in a different order than the per-transfer residual counters), so bus
//! completion times compare under a small relative tolerance while the
//! discrete observables — delivery order, delivered flags, message/error/
//! loss counters, RNG draw alignment — must match exactly. Inputs are kept
//! coarse (millisecond-scale gaps, kilobyte-scale payloads) so a legitimate
//! ulp-level timing difference can never reorder two completions.
//!
//! Each proptest case draws one seed; the op schedules are expanded from it
//! with a `SmallRng`, so a failure reproduces from the printed seed alone.
//!
//! Besides uniform random schedules, both engines get *burst* schedules, the
//! shape a synchronised cluster produces and the shape the queues' sorted
//! runs are built for: a thousand-plus events at one instant with more
//! scheduled into the bucket being drained, and dozens of transfers
//! admitted at one instant, equal-sized or largest first.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use subsonic_cluster::bus::{
    Completion, NetworkConfig, NetworkKindCfg, NetworkModel, TransferPayload, Transport,
};
use subsonic_cluster::events::{EventKind, EventQueue};
use subsonic_cluster::reference::{ReferenceEventQueue, ReferenceNetworkModel};

/// One randomized queue operation: schedule at `now + delay`, or pop.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Schedule `delay` seconds ahead; `tag` distinguishes the event.
    Schedule { delay: f64, tag: usize },
    /// Schedule and (for the production queue) take the cancellable path —
    /// the handle is dropped unused, so the pop stream must be unchanged.
    ScheduleCancellable { delay: f64, tag: usize },
    /// Pop one event (no-op on an empty queue).
    Pop,
}

/// Expands a seed into an op schedule. Delays are quantised to 0.1 ms steps
/// over ~4 decades so runs exercise dense bucket collisions (equal times →
/// seq tie-break), ordinary in-window scheduling, and far-window overflow
/// re-anchoring.
fn queue_ops(seed: u64) -> Vec<QueueOp> {
    let mut r = SmallRng::seed_from_u64(seed);
    let n = r.gen_range(1usize..300);
    (0..n)
        .map(|_| {
            let delay =
                r.gen_range(0usize..2000) as f64 * 1e-4 * 10f64.powi(r.gen_range(0usize..4) as i32);
            let tag = r.gen_range(0usize..64);
            match r.gen_range(0usize..6) {
                0..=2 => QueueOp::Schedule { delay, tag },
                3 => QueueOp::ScheduleCancellable { delay, tag },
                _ => QueueOp::Pop,
            }
        })
        .collect()
}

/// Expands a seed into burst rounds: each round schedules 1000–1499 events
/// at one instant (plus a few far beyond the calendar window), then pops
/// them while scheduling into the draining bucket — at the popped time
/// itself (after the run's tail), a whisker later, or a short descending
/// run (before the tail, so out of order).
fn burst_queue_ops(seed: u64) -> Vec<QueueOp> {
    let mut r = SmallRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    for _ in 0..r.gen_range(1usize..4) {
        let at = r.gen_range(0usize..50) as f64 * 1e-3;
        let n = r.gen_range(1000usize..1500);
        for tag in 0..n {
            ops.push(QueueOp::Schedule { delay: at, tag });
            if r.gen_range(0usize..200) == 0 {
                let delay = r.gen_range(1usize..100) as f64 * 1e3;
                ops.push(QueueOp::ScheduleCancellable { delay, tag });
            }
        }
        for _ in 0..r.gen_range(n / 2..n + n / 2) {
            ops.push(QueueOp::Pop);
            match r.gen_range(0usize..8) {
                0 => ops.push(QueueOp::Schedule { delay: 0.0, tag: 0 }),
                1 => {
                    let delay = r.gen_range(1usize..10) as f64 * 1e-9;
                    ops.push(QueueOp::Schedule { delay, tag: 1 });
                }
                2 => {
                    for k in (0..r.gen_range(2usize..6)).rev() {
                        let delay = k as f64 * 1e-9;
                        ops.push(QueueOp::ScheduleCancellable { delay, tag: 2 });
                    }
                }
                _ => {}
            }
        }
    }
    ops
}

/// Runs the production queue and the reference heap through one op schedule
/// and demands identical pop streams, clocks and lengths, then drains both.
fn check_queue_equivalence(ops: &[QueueOp], seed: u64) {
    let mut q = EventQueue::new();
    let mut r = ReferenceEventQueue::new();
    for &op in ops {
        match op {
            QueueOp::Schedule { delay, tag } => {
                q.schedule(delay, EventKind::JobArrival { host: tag });
                r.schedule(delay, EventKind::JobArrival { host: tag });
            }
            QueueOp::ScheduleCancellable { delay, tag } => {
                let _h = q.schedule_cancellable(delay, EventKind::JobDeparture { host: tag });
                r.schedule(delay, EventKind::JobDeparture { host: tag });
            }
            QueueOp::Pop => {
                assert_eq!(q.pop(), r.pop(), "seed {seed}");
                assert!(q.now() == r.now(), "clock diverged (seed {seed})");
            }
        }
        assert_eq!(q.len(), r.len(), "seed {seed}");
    }
    // drain both: every remaining event must agree too
    loop {
        let got = q.pop();
        assert_eq!(got, r.pop(), "drain diverged (seed {seed})");
        if got.is_none() {
            break;
        }
    }
}

/// One randomized bus admission.
#[derive(Debug, Clone, Copy)]
struct Admission {
    /// Gap after the previous wire event (coarse: multiples of 1 ms).
    gap: f64,
    /// Payload bytes (coarse: multiples of 1 KiB).
    bytes: f64,
    /// Endpoint speed share (quantised quarters of the bus share).
    rate_scale: f64,
}

fn admissions(seed: u64) -> Vec<Admission> {
    let mut r = SmallRng::seed_from_u64(seed);
    let n = r.gen_range(1usize..48);
    (0..n)
        .map(|_| Admission {
            gap: r.gen_range(1usize..200) as f64 * 1e-3,
            bytes: r.gen_range(1usize..64) as f64 * 1024.0,
            rate_scale: r.gen_range(1usize..5) as f64 * 0.25,
        })
        .collect()
}

/// Runs one network model (reference or production, chosen by the closures)
/// through the same admission schedule and returns every completion with its
/// wall-clock completion time.
fn drive_bus<M>(
    mut net: M,
    adms: &[Admission],
    seed: u64,
    start: impl Fn(&mut M, f64, f64, f64, TransferPayload, &mut SmallRng),
    next: impl Fn(&M) -> Option<f64>,
    complete: impl Fn(&mut M, f64) -> Vec<Completion>,
) -> Vec<(f64, Completion)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut iter = adms.iter().enumerate().peekable();
    loop {
        let adm = iter.peek().map(|&(i, a)| (t + a.gap, i, *a));
        let fin = next(&net);
        match (adm, fin) {
            // admissions win ties so both models admit at identical times
            (Some((ta, i, a)), fin) if fin.is_none_or(|tf| ta <= tf) => {
                iter.next();
                t = ta;
                start(
                    &mut net,
                    t,
                    a.bytes,
                    a.rate_scale,
                    TransferPayload::Dump { proc_id: i },
                    &mut rng,
                );
            }
            (_, Some(tf)) => {
                t = tf.max(t);
                for c in complete(&mut net, t) {
                    out.push((t, c));
                }
            }
            (None, None) => return out,
            // the guard above always takes `(Some(..), None)`
            (Some(_), None) => unreachable!(),
        }
    }
}

/// Expands a seed into admission bursts: each burst admits 64–99 transfers
/// at one instant, either all the same size at full share (they finish
/// together, in admission order) or largest first at random shares (mostly
/// finishing before earlier admissions of the burst).
fn burst_admissions(seed: u64) -> Vec<Admission> {
    let mut r = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..r.gen_range(1usize..4) {
        let gap = r.gen_range(1usize..200) as f64 * 1e-3;
        let n = r.gen_range(64usize..100);
        let equal = r.gen_range(0usize..2) == 0;
        let bytes = r.gen_range(1usize..64) as f64 * 1024.0;
        for i in 0..n {
            let gap = if i == 0 { gap } else { 0.0 };
            out.push(if equal {
                Admission {
                    gap,
                    bytes,
                    rate_scale: 1.0,
                }
            } else {
                Admission {
                    gap,
                    bytes: (n - i) as f64 * 1024.0,
                    rate_scale: r.gen_range(1usize..5) as f64 * 0.25,
                }
            });
        }
    }
    out
}

fn check_bus_equivalence(
    kind: NetworkKindCfg,
    transport: Transport,
    adms: &[Admission],
    seed: u64,
) {
    let cfg = NetworkConfig {
        kind,
        transport,
        // saturate easily so the congestion RNG paths get exercised
        saturation_transfers: 3,
        ..NetworkConfig::default()
    };
    let new = drive_bus(
        NetworkModel::new(cfg),
        adms,
        seed,
        |m, t, b, s, p, rng| m.start_transfer_faulted(t, b, s, p, rng, false),
        NetworkModel::next_completion,
        NetworkModel::complete_due,
    );
    let reference = drive_bus(
        ReferenceNetworkModel::new(cfg),
        adms,
        seed,
        |m, t, b, s, p, rng| m.start_transfer_faulted(t, b, s, p, rng, false),
        ReferenceNetworkModel::next_completion,
        ReferenceNetworkModel::complete_due,
    );
    assert_eq!(new.len(), reference.len(), "seed {seed}");
    assert_eq!(
        new.len(),
        adms.len(),
        "every admission completes (seed {seed})"
    );
    for ((tn, cn), (tr, cr)) in new.iter().zip(&reference) {
        // discrete observables: exact
        assert_eq!(
            &cn.payload, &cr.payload,
            "delivery order diverged (seed {seed})"
        );
        assert_eq!(cn.delivered, cr.delivered, "seed {seed}");
        assert!((cn.started - cr.started).abs() <= 1e-9 * cr.started.abs().max(1.0));
        // wall-clock completion: different float rounding, same physics
        assert!(
            (tn - tr).abs() <= 1e-9 * tr.abs().max(1.0),
            "completion time drifted: new {tn} vs reference {tr} (seed {seed})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The calendar queue pops the exact event stream of the PR 6 binary
    /// heap: bit-identical times, identical kinds, for any interleaving of
    /// schedules and pops (including the cancellable-schedule path).
    #[test]
    fn queue_matches_reference_exactly(seed in any::<u64>()) {
        check_queue_equivalence(&queue_ops(seed), seed);
    }

    /// The same exact pop stream on burst schedules: a thousand-plus events
    /// at one instant (promoted to the sorted front), schedules into the
    /// bucket being drained, in and out of the run's order, and far-window
    /// events.
    #[test]
    fn queue_bursts_match_reference_exactly(seed in any::<u64>()) {
        check_queue_equivalence(&burst_queue_ops(seed), seed);
    }

    /// The virtual-service-time bus reproduces the PR 6 per-transfer-counter
    /// bus on a shared medium: identical delivery order, flags and counters,
    /// completion times within a relative whisker, RNG draws aligned.
    #[test]
    fn shared_bus_matches_reference(seed in any::<u64>()) {
        check_bus_equivalence(NetworkKindCfg::SharedBus, Transport::Tcp, &admissions(seed), seed);
    }

    /// Same equivalence on an idealised switch (no bandwidth sharing — the
    /// accumulator runs at full rate regardless of the active count).
    #[test]
    fn switched_bus_matches_reference(seed in any::<u64>()) {
        check_bus_equivalence(NetworkKindCfg::Switched, Transport::Tcp, &admissions(seed), seed);
    }

    /// UDP on a saturating shared bus: the loss draws must stay aligned, so
    /// the `losses` counter and per-completion `delivered` flags agree.
    #[test]
    fn udp_bus_matches_reference(seed in any::<u64>()) {
        check_bus_equivalence(NetworkKindCfg::SharedBus, Transport::Udp, &admissions(seed), seed);
    }

    /// Bursts of simultaneous admissions on the shared bus: equal-size
    /// transfers finish together and deliver in admission order; largest
    /// first finish in reverse admission order.
    #[test]
    fn shared_bus_bursts_match_reference(seed in any::<u64>()) {
        check_bus_equivalence(NetworkKindCfg::SharedBus, Transport::Tcp, &burst_admissions(seed), seed);
    }

    /// The same bursts on the switch, where nothing slows a transfer down,
    /// so equal-size bursts finish at exactly one virtual time.
    #[test]
    fn switched_bus_bursts_match_reference(seed in any::<u64>()) {
        check_bus_equivalence(NetworkKindCfg::Switched, Transport::Tcp, &burst_admissions(seed), seed);
    }
}
