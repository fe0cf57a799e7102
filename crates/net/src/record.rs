//! Deterministic record/replay for distributed runs.
//!
//! A recorded run is the *committed* history of the job: for every worker,
//! the per-step state hash and a digest of every halo receive (logical step,
//! exchange id, face, length, payload hash) in the order the solver consumed
//! them — plus the fault schedule the supervisor actually executed (which
//! worker died, at which step, under which mesh epoch). Crucially the
//! consumption order is fixed by the solver plan, not by packet arrival, so
//! the log is *transport-invariant*: a TCP run, a lossy UDP run and an
//! in-memory replay of the same job produce byte-identical logs.
//!
//! Replay re-executes the job in one process over the in-memory switchboard
//! (no sockets), re-injecting the recorded faults, and compares the fresh
//! log byte-for-byte against the recording.

use crate::wire::{SolverKind, TransportKind};
use crate::NetError;
use std::path::Path;
use subsonic_solvers::TileState2;

const MAGIC: u32 = 0x5253_4e52; // "RNSR" — run record
const VERSION: u32 = 2; // v2: faults carry a kind (kill vs live migration)

/// FNV-1a over a byte slice — the workspace's standing integrity hash, and
/// the seal of v2 dumps.
pub use subsonic_exec::checkpoint::fnv1a;

/// Fingerprint of a tile's full state (step, params, mask, every
/// distribution value) — the seal of its dump, so two tiles hash equal iff
/// they would checkpoint identically, and a step hash is the `state_hash`
/// a segment ending at that step reports.
pub fn state_hash2(tile: &TileState2) -> u64 {
    subsonic_exec::checkpoint::SealedDump::of_tile2(tile).seal()
}

/// One entry of a worker's record log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEntry {
    /// State fingerprint after completing `step`.
    StepHash { step: u64, hash: u64 },
    /// One halo receive consumed by the solver.
    Recv {
        step: u64,
        xch: u8,
        face: u8,
        len: u32,
        hash: u64,
    },
}

/// Appends `entry` to a log byte buffer.
pub fn push_entry(buf: &mut Vec<u8>, entry: &LogEntry) {
    match entry {
        LogEntry::StepHash { step, hash } => {
            buf.push(0);
            buf.extend_from_slice(&step.to_le_bytes());
            buf.extend_from_slice(&hash.to_le_bytes());
        }
        LogEntry::Recv {
            step,
            xch,
            face,
            len,
            hash,
        } => {
            buf.push(1);
            buf.extend_from_slice(&step.to_le_bytes());
            buf.push(*xch);
            buf.push(*face);
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(&hash.to_le_bytes());
        }
    }
}

/// Decodes a log byte buffer back into entries.
pub fn decode_log(mut buf: &[u8]) -> Result<Vec<LogEntry>, NetError> {
    fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], NetError> {
        if buf.len() < n {
            return Err(NetError::Protocol("record log truncated".into()));
        }
        let (head, tail) = buf.split_at(n);
        *buf = tail;
        Ok(head)
    }
    fn u64_of(b: &[u8]) -> u64 {
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        u64::from_le_bytes(a)
    }
    let mut out = Vec::new();
    while !buf.is_empty() {
        let tag = take(&mut buf, 1)?[0];
        match tag {
            0 => out.push(LogEntry::StepHash {
                step: u64_of(take(&mut buf, 8)?),
                hash: u64_of(take(&mut buf, 8)?),
            }),
            1 => {
                let step = u64_of(take(&mut buf, 8)?);
                let xch = take(&mut buf, 1)?[0];
                let face = take(&mut buf, 1)?[0];
                let len_b = take(&mut buf, 4)?;
                let len = u32::from_le_bytes([len_b[0], len_b[1], len_b[2], len_b[3]]);
                let hash = u64_of(take(&mut buf, 8)?);
                out.push(LogEntry::Recv {
                    step,
                    xch,
                    face,
                    len,
                    hash,
                });
            }
            t => return Err(NetError::Protocol(format!("unknown record log tag {t}"))),
        }
    }
    Ok(out)
}

/// What kind of epoch-bumping event a [`FaultRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker died (SIGKILL, heartbeat loss) and was recovered by
    /// rollback.
    Kill,
    /// The worker's tile was live-migrated to a fresh process at a commit
    /// boundary — no fault, no lost work.
    Migration,
}

/// One fault (or migration) the supervisor executed, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Kill or live migration.
    pub kind: FaultKind,
    /// Worker that was killed (or migrated).
    pub victim: u32,
    /// For kills: step its pause fence was armed at (the kill lands before
    /// this step executes). For migrations: the commit boundary it happened
    /// at.
    pub at_step: u64,
    /// Mesh epoch the event created (distinguishes a kill during the first
    /// attempt from a kill during a recovery replay of the same window).
    pub epoch: u32,
    /// Committed step the job resumed from.
    pub rollback_step: u64,
}

/// The complete recording of one distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Global grid extent.
    pub nx: u64,
    /// Global grid extent.
    pub ny: u64,
    /// Decomposition.
    pub px: u32,
    /// Decomposition.
    pub py: u32,
    /// Total steps.
    pub steps: u64,
    /// Checkpoint interval.
    pub interval: u64,
    /// Solver the run used.
    pub solver: SolverKind,
    /// Transport the run used (informational; replay always uses `Mem`).
    pub transport: TransportKind,
    /// Faults in execution order.
    pub faults: Vec<FaultRecord>,
    /// Committed log bytes per worker, indexed by worker id.
    pub logs: Vec<Vec<u8>>,
    /// Final state hash per worker.
    pub final_hashes: Vec<u64>,
}

impl RunRecord {
    /// Serialises the record.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&MAGIC.to_le_bytes());
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&self.nx.to_le_bytes());
        b.extend_from_slice(&self.ny.to_le_bytes());
        b.extend_from_slice(&self.px.to_le_bytes());
        b.extend_from_slice(&self.py.to_le_bytes());
        b.extend_from_slice(&self.steps.to_le_bytes());
        b.extend_from_slice(&self.interval.to_le_bytes());
        b.push(match self.solver {
            SolverKind::LatticeBoltzmann => 0,
            SolverKind::FiniteDifference => 1,
        });
        b.push(match self.transport {
            TransportKind::Tcp => 0,
            TransportKind::Udp => 1,
            TransportKind::Mem => 2,
        });
        b.extend_from_slice(&(self.faults.len() as u32).to_le_bytes());
        for f in &self.faults {
            b.push(match f.kind {
                FaultKind::Kill => 0,
                FaultKind::Migration => 1,
            });
            b.extend_from_slice(&f.victim.to_le_bytes());
            b.extend_from_slice(&f.at_step.to_le_bytes());
            b.extend_from_slice(&f.epoch.to_le_bytes());
            b.extend_from_slice(&f.rollback_step.to_le_bytes());
        }
        b.extend_from_slice(&(self.logs.len() as u32).to_le_bytes());
        for log in &self.logs {
            b.extend_from_slice(&(log.len() as u64).to_le_bytes());
            b.extend_from_slice(log);
        }
        for h in &self.final_hashes {
            b.extend_from_slice(&h.to_le_bytes());
        }
        let sum = fnv1a(&b);
        b.extend_from_slice(&sum.to_le_bytes());
        b
    }

    /// Deserialises a record, verifying its checksum trailer.
    pub fn decode(bytes: &[u8]) -> Result<RunRecord, NetError> {
        fn bad(what: &str) -> NetError {
            NetError::Protocol(format!("run record: {what}"))
        }
        if bytes.len() < 8 {
            return Err(bad("truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut sum = [0u8; 8];
        sum.copy_from_slice(tail);
        if fnv1a(body) != u64::from_le_bytes(sum) {
            return Err(bad("checksum mismatch"));
        }
        fn take<'a>(body: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], NetError> {
            if *at + n > body.len() {
                return Err(bad("truncated"));
            }
            let s = &body[*at..*at + n];
            *at += n;
            Ok(s)
        }
        fn u32_at(body: &[u8], at: &mut usize) -> Result<u32, NetError> {
            let b = take(body, at, 4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }
        fn u64_at(body: &[u8], at: &mut usize) -> Result<u64, NetError> {
            let b = take(body, at, 8)?;
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            Ok(u64::from_le_bytes(a))
        }
        let mut at = 0usize;
        if u32_at(body, &mut at)? != MAGIC {
            return Err(bad("not a run record"));
        }
        let version = u32_at(body, &mut at)?;
        if version != VERSION {
            return Err(bad("unsupported version"));
        }
        let nx = u64_at(body, &mut at)?;
        let ny = u64_at(body, &mut at)?;
        let px = u32_at(body, &mut at)?;
        let py = u32_at(body, &mut at)?;
        let steps = u64_at(body, &mut at)?;
        let interval = u64_at(body, &mut at)?;
        let solver = match take(body, &mut at, 1)?[0] {
            0 => SolverKind::LatticeBoltzmann,
            1 => SolverKind::FiniteDifference,
            _ => return Err(bad("solver kind")),
        };
        let transport = match take(body, &mut at, 1)?[0] {
            0 => TransportKind::Tcp,
            1 => TransportKind::Udp,
            2 => TransportKind::Mem,
            _ => return Err(bad("transport kind")),
        };
        let nfaults = u32_at(body, &mut at)? as usize;
        let mut faults = Vec::with_capacity(nfaults);
        for _ in 0..nfaults {
            let kind = match take(body, &mut at, 1)?[0] {
                0 => FaultKind::Kill,
                1 => FaultKind::Migration,
                _ => return Err(bad("fault kind")),
            };
            faults.push(FaultRecord {
                kind,
                victim: u32_at(body, &mut at)?,
                at_step: u64_at(body, &mut at)?,
                epoch: u32_at(body, &mut at)?,
                rollback_step: u64_at(body, &mut at)?,
            });
        }
        let nworkers = u32_at(body, &mut at)? as usize;
        let mut logs = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            let len = u64_at(body, &mut at)? as usize;
            logs.push(take(body, &mut at, len)?.to_vec());
        }
        let mut final_hashes = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            final_hashes.push(u64_at(body, &mut at)?);
        }
        Ok(RunRecord {
            nx,
            ny,
            px,
            py,
            steps,
            interval,
            solver,
            transport,
            faults,
            logs,
            final_hashes,
        })
    }

    /// Persists the record (plain write; records are derived artifacts, the
    /// checkpoints are the durable state).
    pub fn save(&self, path: &Path) -> Result<(), NetError> {
        std::fs::write(path, self.encode()).map_err(NetError::Io)
    }

    /// Loads a record from disk.
    pub fn load(path: &Path) -> Result<RunRecord, NetError> {
        let bytes = std::fs::read(path).map_err(NetError::Io)?;
        RunRecord::decode(&bytes)
    }

    /// Compares another run's committed logs and final hashes against this
    /// recording, reporting the first divergence.
    pub fn check_against(&self, other: &RunRecord) -> Result<(), NetError> {
        if self.final_hashes != other.final_hashes {
            return Err(NetError::ReplayMismatch(format!(
                "final state hashes diverge: {:x?} vs {:x?}",
                self.final_hashes, other.final_hashes
            )));
        }
        if self.logs.len() != other.logs.len() {
            return Err(NetError::ReplayMismatch(format!(
                "worker count diverges: {} vs {}",
                self.logs.len(),
                other.logs.len()
            )));
        }
        for (w, (a, b)) in self.logs.iter().zip(other.logs.iter()).enumerate() {
            if a != b {
                let ea = decode_log(a).unwrap_or_default();
                let eb = decode_log(b).unwrap_or_default();
                let at = ea
                    .iter()
                    .zip(eb.iter())
                    .position(|(x, y)| x != y)
                    .unwrap_or(ea.len().min(eb.len()));
                return Err(NetError::ReplayMismatch(format!(
                    "worker {w} log diverges at entry {at} ({} vs {} entries)",
                    ea.len(),
                    eb.len()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn sample() -> RunRecord {
        let mut log0 = Vec::new();
        push_entry(
            &mut log0,
            &LogEntry::StepHash {
                step: 1,
                hash: 0xaa,
            },
        );
        push_entry(
            &mut log0,
            &LogEntry::Recv {
                step: 1,
                xch: 0,
                face: 1,
                len: 34,
                hash: 0xbb,
            },
        );
        RunRecord {
            nx: 24,
            ny: 16,
            px: 2,
            py: 2,
            steps: 20,
            interval: 5,
            solver: SolverKind::LatticeBoltzmann,
            transport: TransportKind::Tcp,
            faults: vec![
                FaultRecord {
                    kind: FaultKind::Kill,
                    victim: 1,
                    at_step: 7,
                    epoch: 0,
                    rollback_step: 5,
                },
                FaultRecord {
                    kind: FaultKind::Migration,
                    victim: 0,
                    at_step: 10,
                    epoch: 2,
                    rollback_step: 10,
                },
            ],
            logs: vec![log0, Vec::new()],
            final_hashes: vec![0x11, 0x22],
        }
    }

    #[test]
    fn record_roundtrips() {
        let r = sample();
        let bytes = r.encode();
        assert_eq!(RunRecord::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn corruption_is_rejected() {
        let mut bytes = sample().encode();
        bytes[20] ^= 1;
        assert!(matches!(
            RunRecord::decode(&bytes),
            Err(NetError::Protocol(_))
        ));
        assert!(matches!(
            RunRecord::decode(&bytes[..10]),
            Err(NetError::Protocol(_))
        ));
    }

    #[test]
    fn log_entries_roundtrip() {
        let entries = vec![
            LogEntry::StepHash { step: 3, hash: 9 },
            LogEntry::Recv {
                step: 3,
                xch: 1,
                face: 2,
                len: 40,
                hash: 77,
            },
        ];
        let mut buf = Vec::new();
        for e in &entries {
            push_entry(&mut buf, e);
        }
        assert_eq!(decode_log(&buf).unwrap(), entries);
    }

    #[test]
    fn divergence_is_located() {
        let a = sample();
        let mut b = sample();
        assert!(a.check_against(&b).is_ok());
        push_entry(&mut b.logs[1], &LogEntry::StepHash { step: 2, hash: 1 });
        let err = a.check_against(&b).unwrap_err();
        assert!(matches!(err, NetError::ReplayMismatch(_)));
        let mut c = sample();
        c.final_hashes[0] ^= 1;
        assert!(matches!(
            a.check_against(&c),
            Err(NetError::ReplayMismatch(_))
        ));
    }
}
