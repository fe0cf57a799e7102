//! Binary codec for finished flight-recorder tracks.
//!
//! The multi-process runtime (`subsonic-net`) runs one flight recorder per
//! worker *process*; at the end of a run each worker ships its finished
//! tracks to the supervisor, which adopts them into its own recorder so the
//! exported Chrome trace shows every process on one timeline — exactly what
//! the in-process runners get for free by sharing a recorder.
//!
//! [`TraceEvent`] holds `&'static str` names (the hot path must not
//! allocate), so decoding cannot fabricate arbitrary strings. Instead the
//! codec writes names verbatim and the decoder *interns* them against the
//! fixed vocabulary of names the runtime actually emits ([`KNOWN_NAMES`]);
//! a name minted by a newer writer falls back to `"event"` (and arg keys to
//! `"arg"`) rather than failing the whole track.

use crate::codec::{Dec, Enc, Truncated};
use crate::recorder::{Category, TraceEvent, TrackData};
use std::fmt;

const MAGIC: u32 = 0x534f_4253; // "SOBS"
const VERSION: u32 = 1;

/// Every event name the instrumented runtimes emit. Decoded names are
/// interned here; unknown names degrade to `"event"`.
pub const KNOWN_NAMES: &[&str] = &[
    // threaded runners / cluster sim
    "compute",
    "compute interior",
    "compute boundary",
    "exchange",
    "step",
    "seg",
    "dump",
    "crash",
    "rollback",
    "segment failed",
    "checkpoint commit",
    "replay segment",
    "migration dump",
    "migration",
    "halo send",
    "halo recv",
    "halo wire",
    "data wire",
    "dump wire",
    "bus burst start",
    "bus burst end",
    "freeze start",
    "freeze end",
    "host crash",
    "delivery failure",
    "comm suspect",
    "detect",
    "msg faults on",
    "msg faults off",
    "partition",
    "partition healed",
    "recover",
    "retransmit",
    // net runtime (supervisor + workers)
    "handshake",
    "mesh build",
    "segment",
    "segment commit",
    "worker spawn",
    "worker killed",
    "worker respawn",
    "checkpoint ship",
    "worker failed",
    "run done",
    "heartbeat miss",
    "recv",
    "send",
    // decode fallback
    "event",
];

/// Arg keys the runtimes emit; unknown keys degrade to `"arg"`.
pub const KNOWN_ARG_KEYS: &[&str] = &[
    "bytes",
    "end_step",
    "host",
    "idx",
    "lost_steps",
    "proc",
    "to_proc",
    "step",
    "worker",
    "attempt",
    "port",
    "arg",
];

/// Why a track blob failed to decode.
#[derive(Debug)]
pub enum WireError {
    /// The blob ends before its payload does.
    Truncated,
    /// The magic number is not a track blob's.
    BadMagic,
    /// Written by an unsupported codec version.
    BadVersion(u32),
    /// An event category tag is out of range.
    BadCategory(u8),
    /// A string field is not valid UTF-8.
    BadString,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "track blob ends before its payload does"),
            WireError::BadMagic => write!(f, "not a track blob"),
            WireError::BadVersion(v) => write!(f, "unsupported track blob version {v}"),
            WireError::BadCategory(c) => write!(f, "bad category tag {c}"),
            WireError::BadString => write!(f, "track blob string is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

fn cat_to_u8(c: Category) -> u8 {
    match c {
        Category::Compute => 0,
        Category::Halo => 1,
        Category::Checkpoint => 2,
        Category::Detection => 3,
        Category::Recovery => 4,
        Category::Migration => 5,
        Category::Fault => 6,
        Category::Net => 7,
        Category::Sync => 8,
    }
}

fn cat_from_u8(v: u8) -> Result<Category, WireError> {
    Ok(match v {
        0 => Category::Compute,
        1 => Category::Halo,
        2 => Category::Checkpoint,
        3 => Category::Detection,
        4 => Category::Recovery,
        5 => Category::Migration,
        6 => Category::Fault,
        7 => Category::Net,
        8 => Category::Sync,
        _ => return Err(WireError::BadCategory(v)),
    })
}

fn intern(s: &str, table: &'static [&'static str], fallback: &'static str) -> &'static str {
    table.iter().find(|k| **k == s).copied().unwrap_or(fallback)
}

fn str<'a>(d: &mut Dec<'a>) -> Result<&'a str, WireError> {
    std::str::from_utf8(d.bytes()?).map_err(|_| WireError::BadString)
}

/// Encodes finished tracks into a self-describing binary blob.
pub fn encode_tracks(tracks: &[TrackData]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(MAGIC);
    e.u32(VERSION);
    e.u32(tracks.len() as u32);
    for t in tracks {
        e.u32(t.pid);
        e.u32(t.tid);
        e.bytes(t.process.as_bytes());
        e.bytes(t.thread.as_bytes());
        e.u32(t.events.len() as u32);
        for ev in &t.events {
            e.u8(cat_to_u8(ev.cat));
            e.bytes(ev.name.as_bytes());
            e.f64(ev.ts_us);
            e.f64(ev.dur_us);
            match ev.arg {
                None => e.u8(0),
                Some((k, v)) => {
                    e.u8(1);
                    e.bytes(k.as_bytes());
                    e.f64(v);
                }
            }
        }
    }
    e.0
}

/// Bytes of the shortest encodable event: category, empty name, two
/// timestamps, no arg.
const EVENT_MIN: usize = 1 + 4 + 8 + 8 + 1;
/// Bytes of the shortest encodable track: ids, two empty names, no events.
const TRACK_MIN: usize = 4 + 4 + 4 + 4 + 4;

/// Decodes a blob produced by [`encode_tracks`], interning event names
/// against [`KNOWN_NAMES`] (unknown names become `"event"`).
pub fn decode_tracks(bytes: &[u8]) -> Result<Vec<TrackData>, WireError> {
    let mut d = Dec::new(bytes);
    if d.u32()? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let n_tracks = d.u32()? as usize;
    d.vec_of(n_tracks, TRACK_MIN, |d| {
        let pid = d.u32()?;
        let tid = d.u32()?;
        let process = str(d)?.to_owned();
        let thread = str(d)?.to_owned();
        let n_events = d.u32()? as usize;
        let events = d.vec_of(n_events, EVENT_MIN, |d| {
            let cat = cat_from_u8(d.u8()?)?;
            let name = intern(str(d)?, KNOWN_NAMES, "event");
            let ts_us = d.f64()?;
            let dur_us = d.f64()?;
            let arg = match d.u8()? {
                0 => None,
                _ => Some((intern(str(d)?, KNOWN_ARG_KEYS, "arg"), d.f64()?)),
            };
            Ok::<_, WireError>(TraceEvent {
                cat,
                name,
                ts_us,
                dur_us,
                arg,
            })
        })?;
        Ok(TrackData {
            pid,
            tid,
            process,
            thread,
            events,
        })
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn sample() -> Vec<TrackData> {
        vec![
            TrackData {
                pid: 4,
                tid: 1,
                process: "net-worker".into(),
                thread: "tile 1".into(),
                events: vec![
                    TraceEvent {
                        cat: Category::Compute,
                        name: "compute",
                        ts_us: 12.5,
                        dur_us: 100.0,
                        arg: None,
                    },
                    TraceEvent {
                        cat: Category::Halo,
                        name: "exchange",
                        ts_us: 112.5,
                        dur_us: 8.0,
                        arg: Some(("bytes", 4096.0)),
                    },
                    TraceEvent {
                        cat: Category::Fault,
                        name: "segment failed",
                        ts_us: 200.0,
                        dur_us: -1.0,
                        arg: None,
                    },
                ],
            },
            TrackData {
                pid: 4,
                tid: 2,
                process: "net-worker".into(),
                thread: "tile 2".into(),
                events: vec![],
            },
        ]
    }

    #[test]
    fn tracks_roundtrip() {
        let tracks = sample();
        let blob = encode_tracks(&tracks);
        let back = decode_tracks(&blob).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].pid, 4);
        assert_eq!(back[0].thread, "tile 1");
        assert_eq!(back[0].events.len(), 3);
        assert_eq!(back[0].events[0].name, "compute");
        assert_eq!(back[0].events[1].arg, Some(("bytes", 4096.0)));
        assert!(back[0].events[2].is_instant());
        assert_eq!(back[1].events.len(), 0);
    }

    /// The blob bytes, pinned as `(len, fnv1a)`.
    #[test]
    fn blob_bytes_are_pinned() {
        let blob = encode_tracks(&sample());
        let pin = (blob.len(), crate::codec::fnv1a(&blob));
        assert_eq!(pin, (196, 0x4ec3_f781_4040_21c1));
    }

    #[test]
    fn unknown_names_degrade_not_fail() {
        let tracks = vec![TrackData {
            pid: 1,
            tid: 0,
            process: "p".into(),
            thread: "t".into(),
            events: vec![TraceEvent {
                cat: Category::Net,
                name: "compute", // placeholder; rewritten below
                ts_us: 0.0,
                dur_us: 1.0,
                arg: Some(("bytes", 1.0)),
            }],
        }];
        let mut blob = encode_tracks(&tracks);
        // rewrite the name "compute" in place to something no table knows
        let at = blob.windows(7).position(|w| w == b"compute").unwrap();
        blob[at..at + 7].copy_from_slice(b"zzzzzzz");
        let back = decode_tracks(&blob).unwrap();
        assert_eq!(back[0].events[0].name, "event");
    }

    #[test]
    fn corruption_is_typed() {
        let blob = encode_tracks(&sample());
        assert!(matches!(
            decode_tracks(&blob[..6]),
            Err(WireError::Truncated)
        ));
        assert!(matches!(
            decode_tracks(&blob[..blob.len() - 4]),
            Err(WireError::Truncated)
        ));
        let mut bad = blob.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_tracks(&bad), Err(WireError::BadMagic)));
        let mut vers = blob.clone();
        vers[4] = 99;
        assert!(matches!(
            decode_tracks(&vers),
            Err(WireError::BadVersion(99))
        ));
        for e in [
            WireError::Truncated,
            WireError::BadMagic,
            WireError::BadVersion(9),
            WireError::BadCategory(200),
            WireError::BadString,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn categories_roundtrip() {
        for c in [
            Category::Compute,
            Category::Halo,
            Category::Checkpoint,
            Category::Detection,
            Category::Recovery,
            Category::Migration,
            Category::Fault,
            Category::Net,
            Category::Sync,
        ] {
            assert_eq!(cat_from_u8(cat_to_u8(c)).unwrap(), c);
        }
        assert!(matches!(cat_from_u8(42), Err(WireError::BadCategory(42))));
    }
}
