//! Typed failures for the threaded runners.
//!
//! The paper's runtime distinguishes a subprocess that *died* (its host
//! crashed or rebooted) from one that merely lost its peer ("if any machine
//! or process fails, the whole system stops", section 4.1 — the failure of
//! one socket endpoint surfaces at every neighbour as a broken channel).
//! The in-process runners mirror that taxonomy instead of panicking: the
//! first fault is reported precisely, and the cascade it causes in the halo
//! graph is reported as [`RunError::Disconnected`].

use std::fmt;

/// Why a threaded run failed.
#[derive(Debug)]
pub enum RunError {
    /// A worker thread panicked mid-run — the in-process analogue of a
    /// subprocess dying on its host.
    WorkerPanic {
        /// Tile whose worker died.
        tile: usize,
        /// The panic payload, if it carried a message.
        message: String,
    },
    /// A worker found a peer channel closed mid-exchange: some other worker
    /// failed first and the loss is propagating through the halo graph.
    Disconnected {
        /// Tile that observed the broken channel (a casualty, not the cause).
        tile: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::WorkerPanic { tile, message } => {
                write!(f, "worker for tile {tile} panicked: {message}")
            }
            RunError::Disconnected { tile } => {
                write!(f, "worker for tile {tile} lost a peer channel")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl RunError {
    /// Whether this is the *root cause* of a failed run rather than
    /// collateral damage ([`RunError::Disconnected`] is what every surviving
    /// neighbour of a dead worker reports).
    pub fn is_root_cause(&self) -> bool {
        !matches!(self, RunError::Disconnected { .. })
    }
}

/// Keeps the most informative failure: the first root cause wins over any
/// number of secondary disconnects.
pub(crate) fn note_failure(slot: &mut Option<RunError>, e: RunError) {
    match slot {
        None => *slot = Some(e),
        Some(prev) if !prev.is_root_cause() && e.is_root_cause() => *slot = Some(e),
        _ => {}
    }
}

/// Extracts a human-readable message from a worker panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn panic_of(tile: usize) -> RunError {
        RunError::WorkerPanic {
            tile,
            message: format!("tile {tile} died"),
        }
    }

    #[test]
    fn root_cause_beats_disconnects() {
        let mut slot = None;
        note_failure(&mut slot, RunError::Disconnected { tile: 1 });
        note_failure(&mut slot, panic_of(3));
        note_failure(&mut slot, RunError::Disconnected { tile: 2 });
        assert!(matches!(slot, Some(RunError::WorkerPanic { tile: 3, .. })));
    }

    #[test]
    fn first_root_cause_is_kept() {
        let mut slot = None;
        note_failure(&mut slot, panic_of(0));
        note_failure(&mut slot, panic_of(1));
        assert!(matches!(slot, Some(RunError::WorkerPanic { tile: 0, .. })));
    }

    #[test]
    fn display_covers_every_variant() {
        for e in [panic_of(0), RunError::Disconnected { tile: 1 }] {
            assert!(!e.to_string().is_empty());
        }
    }
}
