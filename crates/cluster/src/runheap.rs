//! A min-priority queue that pops synchronised bursts in O(1).
//!
//! The simulator's queues see keys arrive in bursts that are already in pop
//! order: every host of a homogeneous cluster finishes a phase at one
//! instant, so its events carry one time and ascending insertion `seq`s;
//! equal-size halos admitted together finish at one virtual time in
//! admission order. A binary heap pays O(log n) sift work per push and pop
//! on such a burst, moving whole nodes at every level.
//!
//! [`RunHeap`] keeps a sorted *run* (a `VecDeque`, ascending) beside a small
//! binary heap. A push that pops no earlier than the run's tail is appended
//! to the run in O(1); any other push goes into the heap. `peek`/`pop` take
//! the smaller of the two fronts. Keys are totally ordered, and in every
//! user unique (`(time, seq)`, `(v_fin, seq)`), so the pop order is exactly
//! a binary heap's whatever the split between the two halves.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A min-priority queue with the `BinaryHeap` contract (smallest first):
/// in-order pushes are O(1) appends to a sorted run, out-of-order ones go
/// to a binary heap.
#[derive(Debug)]
pub(crate) struct RunHeap<T> {
    /// Ascending; every push here was `>=` the tail it followed.
    run: VecDeque<T>,
    /// Everything pushed below the run's tail at the time.
    heap: BinaryHeap<Reverse<T>>,
}

impl<T: Ord> Default for RunHeap<T> {
    fn default() -> Self {
        Self {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }
}

impl<T: Ord> RunHeap<T> {
    /// Queues `x`: O(1) if it sorts at or after the run's tail, O(log n)
    /// otherwise.
    #[inline]
    pub(crate) fn push(&mut self, x: T) {
        match self.run.back() {
            Some(tail) if x < *tail => self.heap.push(Reverse(x)),
            _ => self.run.push_back(x),
        }
    }

    /// Whether the run's front is the minimum (`None` when both are empty).
    #[inline]
    fn run_first(&self) -> Option<bool> {
        match (self.run.front(), self.heap.peek()) {
            (Some(a), Some(Reverse(b))) => Some(a <= b),
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (None, None) => None,
        }
    }

    /// The smallest element.
    #[inline]
    pub(crate) fn peek(&self) -> Option<&T> {
        if self.run_first()? {
            self.run.front()
        } else {
            self.heap.peek().map(|r| &r.0)
        }
    }

    /// Removes and returns the smallest element.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.run_first()? {
            self.run.pop_front()
        } else {
            self.heap.pop().map(|r| r.0)
        }
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Element slots allocated across both halves.
    pub(crate) fn capacity(&self) -> usize {
        self.run.capacity() + self.heap.capacity()
    }

    /// Replaces an empty queue with `v`, sorted once into a run in `v`'s
    /// own allocation: O(k log k) for a bucket of `k`, then O(1) per pop.
    /// Both old buffers are freed, so the queue holds only what the current
    /// burst needs. Handing the old run back to the bucket `v` came from
    /// would leave every bucket ever promoted holding a burst-sized buffer
    /// (`sim_scale1024` peak RSS 5.8 → 65 MiB), and a heap kept from one
    /// burst to the next adds its size to every later one's.
    pub(crate) fn fill_sorted(&mut self, mut v: Vec<T>) {
        debug_assert!(self.is_empty(), "fill_sorted on a non-empty queue");
        v.sort_unstable();
        self.run = VecDeque::from(v);
        self.heap = BinaryHeap::new();
    }

    /// Removes every element, in no particular order.
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        self.run.drain(..).chain(self.heap.drain().map(|r| r.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A `(time, seq)` key like the event queue's: times from a coarse grid
    /// so equal times (broken by `seq`) are common.
    type Key = (usize, u64);

    /// One step of a random schedule.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(usize),
        /// `n` pushes at times `t, t+d, t+2d, …` (`d` may be 0: one instant).
        Ascending {
            t: usize,
            d: usize,
            n: usize,
        },
        /// `n` pushes at times `t, t-1, …` (never below 0).
        Descending {
            t: usize,
            n: usize,
        },
        Pop,
    }

    fn ops(seed: u64) -> Vec<Op> {
        let mut r = SmallRng::seed_from_u64(seed);
        (0..r.gen_range(1usize..200))
            .map(|_| match r.gen_range(0usize..8) {
                0..=2 => Op::Push(r.gen_range(0..64)),
                3 => Op::Ascending {
                    t: r.gen_range(0..64),
                    d: r.gen_range(0..3),
                    n: r.gen_range(1..80),
                },
                4 => Op::Descending {
                    t: r.gen_range(0..64),
                    n: r.gen_range(1..40),
                },
                _ => Op::Pop,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random interleavings of single pushes, ascending and
        /// descending bursts (equal times broken by `seq`) and pops, the
        /// queue pops exactly what a min-`BinaryHeap` pops.
        #[test]
        fn pops_like_a_binary_heap(seed in any::<u64>()) {
            let mut q = RunHeap::<Key>::default();
            let mut h = BinaryHeap::<Reverse<Key>>::new();
            let mut seq = 0u64;
            let mut push = |q: &mut RunHeap<Key>, h: &mut BinaryHeap<Reverse<Key>>, t: usize| {
                q.push((t, seq));
                h.push(Reverse((t, seq)));
                seq += 1;
            };
            for op in ops(seed) {
                match op {
                    Op::Push(t) => push(&mut q, &mut h, t),
                    Op::Ascending { t, d, n } => {
                        for i in 0..n {
                            push(&mut q, &mut h, t + i * d);
                        }
                    }
                    Op::Descending { t, n } => {
                        for i in 0..n {
                            push(&mut q, &mut h, t.saturating_sub(i));
                        }
                    }
                    Op::Pop => {
                        prop_assert_eq!(q.peek().copied(), h.peek().map(|r| r.0));
                        prop_assert_eq!(q.pop(), h.pop().map(|r| r.0), "seed {}", seed);
                    }
                }
                prop_assert_eq!(q.run.len() + q.heap.len(), h.len());
            }
            while let Some(Reverse(want)) = h.pop() {
                prop_assert_eq!(q.pop(), Some(want), "drain diverged (seed {})", seed);
            }
            prop_assert!(q.is_empty() && q.pop().is_none());
        }
    }

    #[test]
    fn bursts_in_pop_order_stay_in_the_run() {
        let mut q = RunHeap::default();
        for seq in 0..1000u64 {
            q.push((7usize, seq));
        }
        assert!(
            q.heap.is_empty(),
            "an in-order burst must not touch the heap"
        );
        assert_eq!(q.run.len(), 1000);
        assert_eq!(
            (0..1000).map(|_| q.pop().unwrap().1).collect::<Vec<_>>(),
            (0..1000).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fill_sorted_then_drain() {
        let mut q = RunHeap::default();
        q.fill_sorted(vec![5, 1, 4, 2, 3]);
        q.push(0);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        let mut left: Vec<i32> = q.drain().collect();
        left.sort_unstable();
        assert_eq!(left, vec![2, 3, 4, 5]);
        assert!(q.is_empty());
        q.fill_sorted(vec![9, 8]);
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(8), Some(9), None));
    }
}
