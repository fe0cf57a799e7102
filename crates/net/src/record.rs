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

use crate::wire::{
    solver_from_u8, solver_to_u8, transport_from_u8, transport_to_u8, SolverKind, TransportKind,
};
use crate::NetError;
use std::path::Path;
use subsonic_obs::codec::{self, Dec, Enc, Truncated};
use subsonic_solvers::TileState2;

const MAGIC: u32 = 0x5253_4e52; // "RNSR" — run record
const VERSION: u32 = 2; // v2: faults carry a kind (kill vs live migration)

/// FNV-1a over a byte slice — the workspace's standing integrity hash, and
/// the seal of v2 dumps.
pub use subsonic_obs::codec::fnv1a;

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
    let mut e = Enc(std::mem::take(buf));
    match *entry {
        LogEntry::StepHash { step, hash } => {
            e.u8(0);
            e.u64(step);
            e.u64(hash);
        }
        LogEntry::Recv {
            step,
            xch,
            face,
            len,
            hash,
        } => {
            e.u8(1);
            e.u64(step);
            e.u8(xch);
            e.u8(face);
            e.u32(len);
            e.u64(hash);
        }
    }
    *buf = e.0;
}

/// Bytes of the shortest log entry (a [`LogEntry::StepHash`]).
const ENTRY_MIN: usize = 1 + 8 + 8;

/// Decodes a log byte buffer back into entries.
pub fn decode_log(buf: &[u8]) -> Result<Vec<LogEntry>, NetError> {
    let mut d = Dec::new(buf);
    // room for as many entries as the bytes can hold, so it never grows
    let mut out = Vec::with_capacity(buf.len() / ENTRY_MIN);
    while d.left() > 0 {
        out.push(match d.u8()? {
            0 => LogEntry::StepHash {
                step: d.u64()?,
                hash: d.u64()?,
            },
            1 => LogEntry::Recv {
                step: d.u64()?,
                xch: d.u8()?,
                face: d.u8()?,
                len: d.u32()?,
                hash: d.u64()?,
            },
            t => return Err(NetError::Protocol(format!("unknown record log tag {t}"))),
        });
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
        let mut e = Enc::default();
        e.u32(MAGIC);
        e.u32(VERSION);
        e.u64(self.nx);
        e.u64(self.ny);
        e.u32(self.px);
        e.u32(self.py);
        e.u64(self.steps);
        e.u64(self.interval);
        e.u8(solver_to_u8(self.solver));
        e.u8(transport_to_u8(self.transport));
        e.u32(self.faults.len() as u32);
        for f in &self.faults {
            e.u8(match f.kind {
                FaultKind::Kill => 0,
                FaultKind::Migration => 1,
            });
            e.u32(f.victim);
            e.u64(f.at_step);
            e.u32(f.epoch);
            e.u64(f.rollback_step);
        }
        e.u32(self.logs.len() as u32);
        for log in &self.logs {
            e.u64(log.len() as u64);
            e.raw(log);
        }
        for &h in &self.final_hashes {
            e.u64(h);
        }
        let sum = fnv1a(&e.0);
        e.u64(sum);
        e.0
    }

    /// Deserialises a record, verifying its checksum trailer. The trailer
    /// is no MAC, so the counts behind it are checked like any others.
    pub fn decode(bytes: &[u8]) -> Result<RunRecord, NetError> {
        fn bad(what: &str) -> NetError {
            NetError::Protocol(format!("run record: {what}"))
        }
        let (body, sum) = codec::trailer(bytes).map_err(|_| bad("truncated"))?;
        if fnv1a(body) != sum {
            return Err(bad("checksum mismatch"));
        }
        let mut d = Dec::new(body);
        if d.u32()? != MAGIC {
            return Err(bad("not a run record"));
        }
        if d.u32()? != VERSION {
            return Err(bad("unsupported version"));
        }
        let (nx, ny, px, py) = (d.u64()?, d.u64()?, d.u32()?, d.u32()?);
        let (steps, interval) = (d.u64()?, d.u64()?);
        let solver = solver_from_u8(d.u8()?)?;
        let transport = transport_from_u8(d.u8()?)?;
        let nfaults = d.u32()? as usize;
        // kind, victim, step, epoch, rollback step
        let faults = d.vec_of(nfaults, 1 + 4 + 8 + 4 + 8, |d| {
            let kind = match d.u8()? {
                0 => FaultKind::Kill,
                1 => FaultKind::Migration,
                _ => return Err(bad("fault kind")),
            };
            Ok(FaultRecord {
                kind,
                victim: d.u32()?,
                at_step: d.u64()?,
                epoch: d.u32()?,
                rollback_step: d.u64()?,
            })
        })?;
        let nworkers = d.u32()? as usize;
        // every worker has a log length here and a final hash after the logs
        let logs = d.vec_of(nworkers, 8 + 8, |d| {
            let len = usize::try_from(d.u64()?).map_err(|_| Truncated)?;
            d.take(len).map(<[u8]>::to_vec)
        })?;
        let final_hashes = d.vec_of(nworkers, 8, |d| d.u64())?;
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

    /// The record bytes, pinned as `(len, fnv1a)`: the sample record and
    /// its first worker's log.
    #[test]
    fn record_bytes_are_pinned() {
        let r = sample();
        let pin = |b: &[u8]| (b.len(), fnv1a(b));
        assert_eq!(
            [pin(&r.encode()), pin(&r.logs[0])],
            [(188, 0xcf72_76bf_6e3b_435f), (40, 0x1faf_1271_a217_dd78)]
        );
    }

    /// The sample record with the `width` bytes at `at` (which hold `was`)
    /// set to all ones and the FNV-1a trailer recomputed: a forged count the
    /// checksum cannot catch.
    fn forged(at: usize, width: usize, was: u64) -> Vec<u8> {
        let bytes = sample().encode();
        let mut body = bytes[..bytes.len() - 8].to_vec();
        assert_eq!(
            body[at..at + width],
            was.to_le_bytes()[..width],
            "layout drifted"
        );
        body[at..at + width].fill(0xff);
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    fn assert_truncated(bytes: &[u8]) {
        let err = RunRecord::decode(bytes).expect_err("forged record decoded");
        assert!(
            matches!(err, NetError::Codec(crate::wire::CodecError::Truncated)),
            "{err}"
        );
    }

    // header: magic, version, nx, ny, px, py, steps, interval, solver,
    // transport; then the fault count, two 25-byte faults and the worker count

    #[test]
    fn a_forged_fault_count_is_a_typed_error() {
        assert_truncated(&forged(50, 4, 2));
    }

    #[test]
    fn a_forged_worker_count_is_a_typed_error() {
        assert_truncated(&forged(104, 4, 2));
    }

    #[test]
    fn a_forged_log_length_is_a_typed_error() {
        assert_truncated(&forged(108, 8, 40));
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
