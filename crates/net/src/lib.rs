//! Real multi-process runtime: one solver tile per OS process, halos over
//! loopback sockets, checkpoint-shipping crash recovery, and deterministic
//! record/replay.
//!
//! This crate is the paper's section 5 made literal. Where `subsonic-exec`
//! runs one thread per subregion inside a single address space, this runtime
//! runs one *process* per subregion and moves every halo over a real wire:
//!
//! * **Bootstrap** — the supervisor binds a control socket and writes its
//!   port to a *port file* in the run directory (the paper's handshake:
//!   "each process writes its port number to a file") before it spawns
//!   anyone, then spawns every worker at once. Workers read the file, dial
//!   in, and identify themselves; the supervisor takes the `Hello`s in
//!   arrival order and ships each worker its tile as sealed checkpoint bytes
//!   (init closures never cross process boundaries). Nothing on this path
//!   polls: accepts complete on the connection, and closing a link ends the
//!   readers on both of its sides at once.
//! * **Transports** — the halo data plane is pluggable ([`TransportKind`]):
//!   loopback TCP streams, reliable UDP reusing the RFC 6298 retransmission
//!   state machine from `subsonic-cluster` (Appendix D), or in-memory
//!   channels for sockets-free replay. A halo strip leaves in one write and
//!   is read straight into its frame buffer (header, then the exact length),
//!   all in buffers that are reused; a reader thread per link blocks on its
//!   socket, so the step loop never touches one.
//! * **Recovery** — workers checkpoint every interval; the supervisor
//!   verifies each checkpoint as it arrives, adopts the coordinated cut when
//!   all workers have reported, releases the next segment, and persists the
//!   cut (torn-write-safe) while the workers compute — recovery ships the
//!   cut from memory. When a worker dies — really dies, SIGKILL — the
//!   supervisor respawns it, ships the last committed checkpoint to every
//!   worker, rebuilds the mesh under a new epoch, and replays. Recovery is
//!   bitwise: the final fields equal an uninterrupted single-process run.
//! * **Record/replay** — with recording on, every worker logs per-step
//!   state hashes and a digest of every halo receive in consumption order.
//!   The log is transport-invariant, so a recorded TCP run with a real kill
//!   replays deterministically over in-memory channels, faults included.
//!
//! The supervisor is generic over how workers are hosted ([`WorkerHost`]):
//! real processes for the sockets, or threads in-process for replay and
//! fast tests — the *same* worker state machine runs in both.

#![warn(clippy::unwrap_used)]

pub mod chaos;
pub mod link;
pub mod mesh;
pub mod record;
pub mod supervisor;
pub mod udp;
pub mod wire;
pub mod worker;

pub use chaos::{ChaosSpec, SendFate, WireFaults};
pub use record::{state_hash2, FaultKind, FaultRecord, LogEntry, RunRecord};
pub use supervisor::{
    default_host_addr, run_problem, NetConfig, NetKill, NetMigration, NetOutcome, ProcessHost,
    RetryPolicy, ThreadHost, WorkerHost,
};
pub use wire::{Msg, SolverKind, TransportKind, WorkerConfig};
pub use worker::process_worker_main;

use subsonic_exec::DumpError;

/// Typed failure of the distributed runtime.
#[derive(Debug)]
pub enum NetError {
    /// Socket/filesystem failure.
    Io(std::io::Error),
    /// A frame failed to decode.
    Codec(wire::CodecError),
    /// A phase exceeded its deadline (named for diagnostics).
    Timeout(&'static str),
    /// The peer violated the protocol.
    Protocol(String),
    /// Checkpoint encode/decode/persist failure.
    Checkpoint(DumpError),
    /// Recovery gave up after exhausting the restart budget.
    RetriesExhausted {
        /// Restarts attempted before giving up.
        restarts: u32,
    },
    /// A replay diverged from its recording.
    ReplayMismatch(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io failure: {e}"),
            NetError::Codec(e) => write!(f, "codec failure: {e}"),
            NetError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
            NetError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
            NetError::RetriesExhausted { restarts } => {
                write!(f, "recovery gave up after {restarts} restarts")
            }
            NetError::ReplayMismatch(what) => write!(f, "replay diverged: {what}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Codec(e) => Some(e),
            NetError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<wire::CodecError> for NetError {
    fn from(e: wire::CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<DumpError> for NetError {
    fn from(e: DumpError) -> Self {
        NetError::Checkpoint(e)
    }
}
