//! The parallel-subprocess state machine.

/// What a process is doing right now.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcState {
    /// Executing a compute phase; `remaining` node-units of work left,
    /// progressing at `rate` nodes/second since `since`.
    Computing {
        /// Node-units of work left.
        remaining: f64,
        /// Current effective rate (host speed × nice share).
        rate: f64,
        /// When this rate took effect.
        since: f64,
    },
    /// Blocked in an exchange phase waiting for neighbour messages.
    WaitingRecv {
        /// Exchange id being waited on.
        xch: usize,
    },
    /// Paused at the synchronisation step (section 5, Appendix B).
    AtSyncBarrier,
    /// Saving its dump file prior to migrating.
    MigrSaving,
    /// Waiting for the submit program to find a free host.
    MigrWaitingHost,
    /// Loading its dump file on the new host.
    MigrLoading,
    /// Migration complete, waiting for everyone to resume.
    MigrReady,
    /// Interrupted mid-step to write a periodic checkpoint.
    CkptSaving {
        /// What to resume afterwards.
        resume: CkptResume,
    },
    /// The host is in a transient stall: the process is alive but frozen
    /// mid-step; `resume` says how to continue when the stall lifts.
    Frozen {
        /// What to resume when the host thaws.
        resume: CkptResume,
    },
    /// The process died with its host (or was declared dead by the failure
    /// detector) and awaits recovery.
    Failed,
    /// Reached the run's target step count.
    Done,
}

/// Continuation after a checkpoint save.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CkptResume {
    /// Resume computing with this much work left.
    Compute {
        /// Node-units of work left.
        remaining: f64,
    },
    /// Re-enter the receive wait of this exchange.
    Waiting {
        /// Exchange id.
        xch: usize,
    },
    /// The interrupted phase was invalidated (crash-recovery rolled the
    /// process back to an earlier step); restart the current phase from
    /// scratch instead of resuming mid-phase.
    Restart,
}

/// Received-but-unconsumed halo messages, keyed by `(step, xch)`.
///
/// A flat vector beats a hash map by an order of magnitude here: a process
/// holds only a handful of in-flight exchanges at once (the current one plus
/// whatever a fast neighbour ran ahead and delivered), each with at most a
/// stencil's worth of senders, and `receive`/`have_all` sit directly on the
/// halo-delivery hot path of the event loop, where SipHash dominated the
/// lookup cost. Sender ids live in a fixed inline array per entry (a stencil
/// has at most a few neighbours per exchange; a rare wider fan-in spills to
/// a heap vector), so the steady state is one contiguous scan with no
/// pointer chasing and no allocation.
#[derive(Debug, Clone, Default)]
pub struct Inbox {
    entries: Vec<InboxEntry>,
}

/// Senders stored inline before spilling; 8 covers a full 2-D Moore
/// neighbourhood in one exchange.
const INBOX_INLINE: usize = 8;

#[derive(Debug, Clone)]
struct InboxEntry {
    step: u64,
    xch: u32,
    n_inline: u32,
    inline: [u32; INBOX_INLINE],
    spill: Vec<u32>,
}

impl InboxEntry {
    #[inline]
    fn contains(&self, from: u32) -> bool {
        self.inline[..self.n_inline as usize].contains(&from) || self.spill.contains(&from)
    }

    #[inline]
    fn push(&mut self, from: u32) {
        if (self.n_inline as usize) < INBOX_INLINE {
            self.inline[self.n_inline as usize] = from;
            self.n_inline += 1;
        } else {
            self.spill.push(from);
        }
    }
}

impl Inbox {
    #[inline]
    fn find(&self, step: u64, xch: usize) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.step == step && e.xch == xch as u32)
    }

    /// Records a sender for `(step, xch)`; returns `true` if it was new.
    pub fn insert(&mut self, step: u64, xch: usize, from: usize) -> bool {
        let from = from as u32;
        match self.find(step, xch) {
            Some(i) => {
                let e = &mut self.entries[i];
                if e.contains(from) {
                    false
                } else {
                    e.push(from);
                    true
                }
            }
            None => {
                let mut e = InboxEntry {
                    step,
                    xch: xch as u32,
                    n_inline: 0,
                    inline: [0; INBOX_INLINE],
                    spill: Vec::new(),
                };
                e.push(from);
                self.entries.push(e);
                true
            }
        }
    }

    /// Whether every sender in `needed` has delivered for `(step, xch)`.
    pub fn have_all(&self, step: u64, xch: usize, needed: impl IntoIterator<Item = usize>) -> bool {
        let mut needed = needed.into_iter();
        match self.find(step, xch) {
            Some(i) => {
                let e = &self.entries[i];
                needed.all(|n| e.contains(n as u32))
            }
            None => needed.next().is_none(),
        }
    }

    /// Drops the `(step, xch)` entry.
    pub fn remove(&mut self, step: u64, xch: usize) {
        if let Some(i) = self.find(step, xch) {
            self.entries.swap_remove(i);
        }
    }

    /// Drops every entry (rollback).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A halo send whose wire transmission is held back until the receiver posts
/// the matching receive (the rendezvous step-coupling: TCP's flow control
/// keeps a sender from streaming into a peer that is still computing, so the
/// bulk transfer effectively starts when the receiver asks for the data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagedHalo {
    /// Sending process.
    pub from: usize,
    /// Payload bytes.
    pub bytes: f64,
    /// Integration step the message belongs to.
    pub step: u64,
    /// Exchange id within the step plan.
    pub xch: usize,
    /// When the sender offered the message (for blocked-time accounting).
    pub since: f64,
}

/// One parallel subprocess.
#[derive(Debug, Clone)]
pub struct SimProcess {
    /// Index into the workload tiles.
    pub id: usize,
    /// Host currently running this process.
    pub host: usize,
    /// Completed integration steps.
    pub step: u64,
    /// Index into the workload plan (current phase).
    pub phase: usize,
    /// Current state.
    pub state: ProcState,
    /// Epoch guarding `ComputeDone`/`DumpTransferDone` events.
    pub epoch: u64,
    /// Received halo messages: `(step, xch) → set of sender ids`.
    pub inbox: Inbox,
    /// Sends deferred by strict ordering (Appendix C): `(peer, bytes, xch)`.
    pub deferred_sends: Vec<(usize, f64, usize)>,
    /// Inbound halo sends addressed to this process whose transmission waits
    /// for it to post the matching receive (rendezvous coupling).
    pub staged_in: Vec<StagedHalo>,
    /// A staged release is mid catch-up (the receiver is working through
    /// deferred protocol processing before the sender's bytes can flow);
    /// further staged releases wait until it completes.
    pub catchup_pending: bool,
    /// Last `(step, xch)` exchange this process consumed since the start (or
    /// the last rollback) — the witness for the transport's in-order
    /// contract: wire-level reordering may shuffle transmissions, but the
    /// solver must always consume exchanges in `(step, xch)` order.
    pub last_consumed: Option<(u64, usize)>,
    /// When the current receive wait began.
    pub wait_since: f64,
    /// When the current pause began.
    pub pause_since: f64,
    /// The monitor has asked this process to migrate.
    pub migrate_requested: bool,
    /// Running statistics.
    pub t_calc: f64,
    /// Time waiting on halos.
    pub t_com: f64,
    /// Time paused.
    pub t_paused: f64,
}

impl SimProcess {
    /// A fresh process at step 0 on `host`.
    pub fn new(id: usize, host: usize) -> Self {
        Self {
            id,
            host,
            step: 0,
            phase: 0,
            state: ProcState::Done, // overwritten by the sim at start
            epoch: 0,
            inbox: Inbox::default(),
            deferred_sends: Vec::new(),
            staged_in: Vec::new(),
            catchup_pending: false,
            last_consumed: None,
            wait_since: 0.0,
            pause_since: 0.0,
            migrate_requested: false,
            t_calc: 0.0,
            t_com: 0.0,
            t_paused: 0.0,
        }
    }

    /// Records an arrived message; returns `true` if it was new.
    pub fn receive(&mut self, step: u64, xch: usize, from: usize) -> bool {
        self.inbox.insert(step, xch, from)
    }

    /// Whether all `needed` senders have delivered for `(step, xch)`. The
    /// simulator passes a tile's neighbour list as an iterator, so a
    /// receive check neither allocates nor needs a peer table of its own.
    pub fn have_all(&self, step: u64, xch: usize, needed: impl IntoIterator<Item = usize>) -> bool {
        self.inbox.have_all(step, xch, needed)
    }

    /// Drops the inbox entry for a completed exchange (bounded memory) and
    /// checks the in-order contract: returns `false` if this consumption is
    /// out of `(step, xch)` order relative to the previous one (which the
    /// reliable transport is supposed to make impossible).
    pub fn consume(&mut self, step: u64, xch: usize) -> bool {
        self.inbox.remove(step, xch);
        let in_order = self.last_consumed.is_none_or(|prev| prev < (step, xch));
        self.last_consumed = Some((step, xch));
        in_order
    }

    /// Invalidate outstanding timed events for this process.
    pub fn bump_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Rewinds the process to the start of `step` (crash recovery): resets
    /// the phase and discards every in-flight message artefact — pending
    /// receives, staged rendezvous sends, deferred strict-ordering sends —
    /// because the whole computation re-executes from the checkpointed step
    /// and every needed message will be re-sent.
    pub fn rollback_to(&mut self, step: u64) {
        self.step = step;
        self.phase = 0;
        self.inbox.clear();
        self.staged_in.clear();
        self.deferred_sends.clear();
        self.catchup_pending = false;
        self.last_consumed = None;
        self.migrate_requested = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_tracks_senders() {
        let mut p = SimProcess::new(0, 0);
        assert!(p.have_all(3, 0, []));
        assert!(!p.have_all(3, 0, [1, 2]));
        assert!(p.receive(3, 0, 1));
        assert!(!p.receive(3, 0, 1), "duplicate delivery detected");
        assert!(!p.have_all(3, 0, [1, 2]));
        p.receive(3, 0, 2);
        assert!(p.have_all(3, 0, [1, 2]));
        p.consume(3, 0);
        assert!(!p.have_all(3, 0, [1, 2]));
    }

    #[test]
    fn epochs_increment() {
        let mut p = SimProcess::new(0, 0);
        let e1 = p.bump_epoch();
        let e2 = p.bump_epoch();
        assert!(e2 > e1);
    }

    #[test]
    fn consume_detects_out_of_order() {
        let mut p = SimProcess::new(0, 0);
        assert!(p.consume(1, 0), "first consume is trivially in order");
        assert!(p.consume(1, 1), "same step, later exchange");
        assert!(p.consume(2, 0), "later step resets the exchange index");
        assert!(!p.consume(1, 1), "going backwards is out of order");
        p.rollback_to(0);
        assert!(p.consume(1, 0), "rollback resets the order witness");
    }

    #[test]
    fn messages_for_future_steps_are_retained() {
        // a fast neighbour may deliver step-7 data while we are at step 5
        let mut p = SimProcess::new(0, 0);
        p.receive(7, 0, 3);
        assert!(p.have_all(7, 0, [3]));
        assert!(!p.have_all(5, 0, [3]));
    }
}
