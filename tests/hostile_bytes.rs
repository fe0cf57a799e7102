//! Hostile bytes, for every binary format the runtimes read: the tile dump,
//! the `net::wire` frame, the track blob, the run record, the record log,
//! the chaos spec and the UDP datagram header. They arrive over sockets and
//! from disk, and the two seals (the dump's and the run record's FNV-1a
//! trailer) are checksums, not MACs: a mutated input can simply be
//! re-sealed. Whatever the bytes, a decoder must answer with `Ok` or its
//! typed error — never a panic or an abort — and must never make an
//! allocation larger than the input, which this binary's allocator measures
//! on the decoding thread.
//!
//! One table drives every test: each row names a format's decoder, valid
//! samples with the offsets of the fields that size an allocation, the
//! magic-and-version headers arbitrary bytes are put behind, and its seal.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use subsonic_cluster::fault::FaultPlan;
use subsonic_exec::checkpoint::{dump_tile, restore_tile};
use subsonic_exec::{Problem2, Problem3};
use subsonic_grid::{Geometry2, Geometry3};
use subsonic_net::chaos::{MsgWindow, PartitionWindow};
use subsonic_net::record::{decode_log, push_entry};
use subsonic_net::udp::{decode_dgram, encode_dgram, KIND_ACK, KIND_DATA};
use subsonic_net::wire::{decode_halo_into, decode_msg, encode_msg, NO_NEIGHBOR, NO_PAUSE};
use subsonic_net::{
    ChaosSpec, FaultKind, FaultRecord, LogEntry, Msg, RunRecord, SolverKind, TransportKind,
    WorkerConfig,
};
use subsonic_obs::{decode_tracks, encode_tracks, Category, TraceEvent, TrackData};
use subsonic_solvers::{
    FiniteDifference2, FiniteDifference3, FluidParams, LatticeBoltzmann2, LatticeBoltzmann3,
    TileState2, TileState3,
};

thread_local! {
    /// Largest single allocation requested while measuring (`None`: not
    /// measuring on this thread).
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Allocations beyond this are refused outright while measuring, so a
/// decoder that trusts a hostile header aborts instead of taking the host's
/// memory.
const REFUSE_ABOVE: usize = 64 << 20;

/// Records `size` if this thread is measuring; says whether to serve it.
fn admit(size: usize) -> bool {
    PEAK.try_with(|p| match p.get() {
        Some(peak) => {
            p.set(Some(peak.max(size)));
            size <= REFUSE_ABOVE
        }
        None => true,
    })
    .unwrap_or(true)
}

struct Measured;

// SAFETY: every call forwards unchanged to `System`, except that a refused
// request returns null, which `GlobalAlloc` allows for any allocation.
unsafe impl GlobalAlloc for Measured {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if admit(layout.size()) {
            System.alloc_zeroed(layout)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if admit(new_size) {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Measured = Measured;

/// Runs `decode` on `bytes`; returns whether it succeeded and the largest
/// single allocation the attempt requested.
fn measure(decode: fn(&[u8]) -> bool, bytes: &[u8]) -> (bool, usize) {
    PEAK.with(|p| p.set(Some(0)));
    let ok = decode(bytes);
    (ok, PEAK.with(|p| p.take()).unwrap_or(0))
}

/// `len` pseudo-random bytes from `seed` (splitmix64).
fn noise(mut seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, written out here from its spec rather than taken from the
/// codec under test, like both seals below.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_BASIS, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Appends the dump trailer the payload's version field asks for: 64-bit
/// FNV-1a for v2, the v3 seal otherwise.
fn seal_dump(mut payload: Vec<u8>) -> Vec<u8> {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
    let sum = if payload.get(8..12) == Some(&2u32.to_le_bytes()[..]) {
        fnv1a(&payload)
    } else {
        let mut lanes: Vec<u64> = (0..16).map(|i| FNV_BASIS + i).collect();
        let blocks = payload.chunks_exact(128);
        let tail = blocks.remainder();
        for block in blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                let mut w = [0u8; 8];
                w.copy_from_slice(word);
                *lane = step(*lane, u64::from_le_bytes(w));
            }
        }
        let h = lanes
            .into_iter()
            .fold(step(FNV_BASIS, payload.len() as u64), step);
        tail.iter().fold(h, |h, &b| step(h, b as u64))
    };
    payload.extend_from_slice(&sum.to_le_bytes());
    payload
}

/// Appends the run record's trailer: FNV-1a over the payload.
fn seal_record(mut payload: Vec<u8>) -> Vec<u8> {
    let sum = fnv1a(&payload);
    payload.extend_from_slice(&sum.to_le_bytes());
    payload
}

/// One valid input, unsealed, and the `(offset, width, value)` of each field
/// that sizes an allocation.
struct Sample {
    bytes: Vec<u8>,
    sizing: Vec<(usize, usize, u64)>,
}

/// An input with no field that sizes anything.
fn plain(bytes: Vec<u8>) -> Sample {
    Sample {
        bytes,
        sizing: Vec::new(),
    }
}

/// One format under test.
struct Row {
    name: &'static str,
    /// Decodes the bytes; says whether that succeeded.
    decode: fn(&[u8]) -> bool,
    samples: fn() -> Vec<Sample>,
    /// Valid magic-and-version headers to put arbitrary bytes behind.
    headers: fn() -> Vec<Vec<u8>>,
    /// Appends the format's trailer (none for unsealed formats).
    seal: fn(Vec<u8>) -> Vec<u8>,
    /// The format accepts exactly its own encodings — by seal and exact
    /// length — so arbitrary bytes and a mutated sizing field must fail.
    exact: bool,
    /// Bytes of memory one byte of input may decode to: 1 where a decoded
    /// element is no wider than its encoding, else the widest element's
    /// in-memory size over its shortest encoding.
    widen: usize,
    /// Bytes the decoder may allocate whatever the input: room for the
    /// message of an error that carries one, 0 for the others.
    fixed: usize,
}

impl Row {
    /// The largest single allocation decoding `len` bytes may make.
    fn bound(&self, len: usize) -> usize {
        len * self.widen + self.fixed
    }
}

/// The widest `size / min_encoded` over a format's decoded elements.
const fn widest(elems: &[(usize, usize)]) -> usize {
    let (mut i, mut w) = (0, 1);
    while i < elems.len() {
        let r = elems[i].0.div_ceil(elems[i].1);
        if r > w {
            w = r;
        }
        i += 1;
    }
    w
}

fn unsealed(b: Vec<u8>) -> Vec<u8> {
    b
}

const DUMP_MAGIC: u64 = 0x5355_4253_4f4e_4943; // "SUBSONIC"

/// A valid dump of a small LB or FD tile of `rank`, unsealed, stamped as
/// `version`; its sizing fields are every extent, the halo and the
/// population count.
fn dump_sample(rank: usize, lbm: bool, version: u32) -> Sample {
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1e-5;
    let (bytes, padded, halo, pops) = if rank == 2 {
        let p = Problem2::new(Geometry2::channel(16, 12, 2), 1, 1, params);
        let t = if lbm {
            p.make_tile(&LatticeBoltzmann2, 0)
        } else {
            p.make_tile(&FiniteDifference2, 0)
        };
        let pad = 2 * t.halo();
        let padded = vec![t.nx() + pad, t.ny() + pad];
        (dump_tile(&t), padded, t.halo(), t.f.len())
    } else {
        let p = Problem3::new(Geometry3::duct(8, 6, 6, 2), 1, 1, 1, params);
        let t = if lbm {
            p.make_tile(&LatticeBoltzmann3, 0)
        } else {
            p.make_tile(&FiniteDifference3, 0)
        };
        let pad = 2 * t.halo();
        let padded = vec![t.nx() + pad, t.ny() + pad, t.nz() + pad];
        (dump_tile(&t), padded, t.halo(), t.f.len())
    };
    let cells: usize = padded.iter().product();
    // magic, version, rank, step | extents, halo | offsets, 12 parameters
    let extents = 24;
    let at_halo = extents + 8 * rank;
    let body = at_halo + 8 + 8 * rank + 12 * 8;
    let at_nf = body + cells + (rank + 1) * 8 * cells;
    let mut sizing: Vec<(usize, usize, u64)> = padded
        .iter()
        .enumerate()
        .map(|(i, &n)| (extents + 8 * i, 8, (n - 2 * halo) as u64))
        .collect();
    sizing.extend([(at_halo, 8, halo as u64), (at_nf, 4, pops as u64)]);
    let mut bytes = bytes[..bytes.len() - 8].to_vec();
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    Sample { bytes, sizing }
}

fn dump_samples(rank: usize) -> Vec<Sample> {
    let mut out = Vec::new();
    for lbm in [false, true] {
        for version in [2, 3] {
            out.push(dump_sample(rank, lbm, version));
        }
    }
    out
}

fn dump_headers() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for version in [2u32, 3] {
        for rank in [2u32, 3] {
            let mut h = DUMP_MAGIC.to_le_bytes().to_vec();
            h.extend_from_slice(&version.to_le_bytes());
            h.extend_from_slice(&rank.to_le_bytes());
            out.push(h);
        }
    }
    out
}

fn chaos_sample() -> ChaosSpec {
    let plan = FaultPlan::empty()
        .msg_fault(Some(1), None, 2.0, 7.0, 0.25, 0.125, 0.5)
        .partition(vec![vec![0, 1], vec![2, 3]], 0.5, Some(1.5));
    ChaosSpec::compile(&plan, 0xfeed, 4)
}

/// One frame of every kind that carries a sized field, each with those
/// fields: counts, blob lengths, and the chaos spec inside an `Init`.
fn frame_samples() -> Vec<Sample> {
    let blob = |n: usize| noise(n as u64, n);
    let cfg = WorkerConfig {
        worker: 2,
        nworkers: 4,
        solver: SolverKind::LatticeBoltzmann,
        transport: TransportKind::Udp,
        epoch: 3,
        start_step: 42,
        neighbors: [1, NO_NEIGHBOR, 0, 3],
        record: true,
        addr: "127.0.0.1".to_string(),
        faults: chaos_sample(),
    };
    let frame = |m: Msg, sizing: Vec<(usize, usize, u64)>| Sample {
        bytes: encode_msg(&m),
        sizing,
    };
    // every frame opens with the version byte and the tag
    vec![
        frame(
            Msg::Init {
                cfg,
                ckpt: blob(40),
            },
            // address at 41; the spec at 54, its counts at 67, 107 and 127
            vec![
                (41, 4, 9),
                (54, 4, 77),
                (67, 4, 1),
                (107, 4, 1),
                (127, 4, 4),
                (135, 4, 40),
            ],
        ),
        frame(
            Msg::PortMap {
                epoch: 1,
                ports: vec![40001, 40002, 0, 40004],
            },
            vec![(6, 4, 4)],
        ),
        frame(
            Msg::SegDone {
                epoch: 1,
                step: 20,
                state_hash: 7,
                ckpt: blob(33),
                log: blob(9),
                t_calc_us: 1,
                t_com_us: 2,
                msgs_sent: 3,
                doubles_sent: 4,
                chaos_loss: 5,
                chaos_dup: 6,
                chaos_reorder: 7,
                chaos_part: 8,
            },
            vec![(22, 4, 33), (59, 4, 9)],
        ),
        frame(
            Msg::Rollback {
                epoch: 2,
                step: 10,
                ckpt: blob(21),
            },
            vec![(14, 4, 21)],
        ),
        frame(Msg::Tracks { blob: blob(17) }, vec![(2, 4, 17)]),
        frame(
            Msg::Halo {
                epoch: 2,
                step: 11,
                xch: 1,
                face: 3,
                data: vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE],
            },
            vec![(16, 4, 4)],
        ),
        frame(
            Msg::Run {
                epoch: 1,
                from: 10,
                until: 20,
                pause_at: NO_PAUSE,
            },
            Vec::new(),
        ),
    ]
}

fn event(cat: Category, name: &'static str, arg: Option<(&'static str, f64)>) -> TraceEvent {
    TraceEvent {
        cat,
        name,
        ts_us: 12.5,
        dur_us: 100.0,
        arg,
    }
}

/// Two tracks: three events and none. Sized: the track count, the first
/// track's names, its event count and its first event's name, and the
/// second track's event count.
fn tracks_sample() -> Sample {
    let tracks = vec![
        TrackData {
            pid: 4,
            tid: 1,
            process: "net-worker".into(),
            thread: "tile 1".into(),
            events: vec![
                event(Category::Compute, "compute", None),
                event(Category::Halo, "exchange", Some(("bytes", 4096.0))),
                event(Category::Fault, "segment failed", None),
            ],
        },
        TrackData {
            pid: 4,
            tid: 2,
            process: "net-worker".into(),
            thread: "tile 2".into(),
            events: Vec::new(),
        },
    ];
    Sample {
        bytes: encode_tracks(&tracks),
        sizing: vec![
            (8, 4, 2),
            (20, 4, 10),
            (34, 4, 6),
            (44, 4, 3),
            (49, 4, 7),
            (192, 4, 0),
        ],
    }
}

fn log_sample() -> Vec<u8> {
    let mut log = Vec::new();
    push_entry(
        &mut log,
        &LogEntry::StepHash {
            step: 1,
            hash: 0xaa,
        },
    );
    let recv = LogEntry::Recv {
        step: 1,
        xch: 0,
        face: 1,
        len: 34,
        hash: 0xbb,
    };
    push_entry(&mut log, &recv);
    log
}

/// A record of two faults and two workers, unsealed. Sized: the fault
/// count, the worker count and both log lengths.
fn record_sample() -> Sample {
    let fault = |kind, victim, at_step, epoch| FaultRecord {
        kind,
        victim,
        at_step,
        epoch,
        rollback_step: at_step - 2,
    };
    let r = RunRecord {
        nx: 24,
        ny: 16,
        px: 2,
        py: 2,
        steps: 20,
        interval: 5,
        solver: SolverKind::LatticeBoltzmann,
        transport: TransportKind::Tcp,
        faults: vec![
            fault(FaultKind::Kill, 1, 7, 0),
            fault(FaultKind::Migration, 0, 10, 2),
        ],
        logs: vec![log_sample(), Vec::new()],
        final_hashes: vec![0x11, 0x22],
    };
    let bytes = r.encode();
    Sample {
        bytes: bytes[..bytes.len() - 8].to_vec(),
        // header 50 bytes, then the fault count, two 25-byte faults, the
        // worker count and the logs behind their u64 lengths
        sizing: vec![(50, 4, 2), (104, 4, 2), (108, 8, 40), (156, 8, 0)],
    }
}

/// Room for the message of a `NetError::Protocol` (the run record's and the
/// record log's errors), e.g. "run record: unsupported version".
const PROTOCOL_MESSAGE: usize = 64;

const ROWS: &[Row] = &[
    Row {
        name: "dump 2D",
        decode: |b| restore_tile::<TileState2>(b).is_ok(),
        samples: || dump_samples(2),
        headers: dump_headers,
        seal: seal_dump,
        exact: true,
        widen: 1,
        fixed: 0,
    },
    Row {
        name: "dump 3D",
        decode: |b| restore_tile::<TileState3>(b).is_ok(),
        samples: || dump_samples(3),
        headers: dump_headers,
        seal: seal_dump,
        exact: true,
        widen: 1,
        fixed: 0,
    },
    Row {
        name: "net::wire frame",
        decode: |b| {
            let _ = decode_halo_into(b, &mut Vec::new());
            decode_msg(b).is_ok()
        },
        samples: frame_samples,
        headers: || (0..=16).map(|tag| vec![1, tag]).collect(),
        seal: unsealed,
        exact: false,
        widen: 1,
        fixed: 0,
    },
    Row {
        name: "track blob",
        decode: |b| decode_tracks(b).is_ok(),
        samples: || vec![tracks_sample()],
        headers: || {
            let mut h = 0x534f_4253u32.to_le_bytes().to_vec(); // "SOBS"
            h.extend_from_slice(&1u32.to_le_bytes());
            vec![h]
        },
        seal: unsealed,
        exact: false,
        widen: widest(&[
            (size_of::<TrackData>(), 4 + 4 + 4 + 4 + 4),
            (size_of::<TraceEvent>(), 1 + 4 + 8 + 8 + 1),
        ]),
        fixed: 0,
    },
    Row {
        name: "run record",
        decode: |b| RunRecord::decode(b).is_ok(),
        samples: || vec![record_sample()],
        headers: || {
            let mut h = 0x5253_4e52u32.to_le_bytes().to_vec(); // "RNSR"
            h.extend_from_slice(&2u32.to_le_bytes());
            vec![h]
        },
        seal: seal_record,
        exact: false,
        widen: widest(&[
            (size_of::<FaultRecord>(), 1 + 4 + 8 + 4 + 8),
            (size_of::<Vec<u8>>(), 8 + 8),
        ]),
        fixed: PROTOCOL_MESSAGE,
    },
    Row {
        name: "record log",
        decode: |b| decode_log(b).is_ok(),
        samples: || vec![plain(log_sample())],
        headers: || vec![vec![0], vec![1]],
        seal: unsealed,
        exact: false,
        widen: widest(&[(size_of::<LogEntry>(), 1 + 8 + 8)]),
        fixed: PROTOCOL_MESSAGE,
    },
    Row {
        name: "chaos spec",
        decode: |b| ChaosSpec::from_bytes(b).is_some(),
        // version and seed, then each count: windows are 36 bytes
        samples: || {
            vec![Sample {
                bytes: chaos_sample().to_bytes(),
                sizing: vec![(9, 4, 1), (49, 4, 1), (69, 4, 4)],
            }]
        },
        headers: || vec![vec![1]],
        seal: unsealed,
        exact: true,
        widen: widest(&[
            (size_of::<MsgWindow>(), 36),
            (size_of::<PartitionWindow>(), 8 + 8 + 4),
        ]),
        fixed: 0,
    },
    Row {
        name: "udp datagram",
        decode: |b| decode_dgram(b).is_some(),
        samples: || {
            let halo = frame_samples().swap_remove(5).bytes;
            let data = encode_dgram(2, KIND_DATA, 1, 7, &halo);
            vec![plain(data), plain(encode_dgram(2, KIND_ACK, 0, 7, &[]))]
        },
        headers: || vec![0x5544_5031u32.to_le_bytes().to_vec()], // "UDP1"
        seal: unsealed,
        exact: false,
        widen: 1,
        fixed: 0,
    },
];

/// The guard that keeps the proptests below from going vacuous, one per
/// row: every sample decodes once sealed — were a spec-derived seal to
/// drift from its codec, every re-sealed mutation would stop at the
/// checksum and never reach the decoder — and every sizing field holds the
/// value its offset claims.
#[test]
fn resealed_samples_restore() {
    for row in ROWS {
        for (i, s) in (row.samples)().into_iter().enumerate() {
            for &(at, width, value) in &s.sizing {
                let mut raw = [0u8; 8];
                raw[..width].copy_from_slice(&s.bytes[at..at + width]);
                assert_eq!(
                    u64::from_le_bytes(raw),
                    value,
                    "{} #{i}: field at {at}",
                    row.name
                );
            }
            let (ok, _) = measure(row.decode, &(row.seal)(s.bytes));
            assert!(ok, "{} #{i}: a re-sealed sample failed", row.name);
        }
    }
}

/// The track blob's regression: 32 bytes that claim one track of
/// `u32::MAX` events reserve nothing.
#[test]
fn a_32_byte_track_blob_reserves_nothing() {
    let mut blob = Vec::new();
    // magic, version, one track: pid, tid, two empty names, the event count
    for word in [0x534f_4253, 1, 1, 0, 0, 0, 0, u32::MAX] {
        blob.extend_from_slice(&u32::to_le_bytes(word));
    }
    assert_eq!(blob.len(), 32);
    let (ok, peak) = measure(|b| decode_tracks(b).is_ok(), &blob);
    assert!(!ok);
    assert!(peak <= blob.len(), "{peak} B reserved for 32 B of input");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Arbitrary bytes, bare or behind one of the row's valid headers, and
    /// sealed with a valid trailer.
    #[test]
    fn arbitrary_bytes_fail_typed_within_their_own_size(
        seed in any::<u64>(),
        len in 0usize..1024,
        row in 0usize..ROWS.len(),
        header in any::<u64>(),
        behind_header in any::<bool>(),
    ) {
        let row = &ROWS[row];
        let mut bytes = noise(seed, len);
        if behind_header {
            let headers = (row.headers)();
            let mut input = headers[header as usize % headers.len()].clone();
            input.append(&mut bytes);
            bytes = (row.seal)(input);
        }
        let (ok, peak) = measure(row.decode, &bytes);
        prop_assert!(!(ok && row.exact), "{}: {} noise bytes decoded", row.name, bytes.len());
        prop_assert!(
            peak <= row.bound(bytes.len()),
            "{}: {peak} B reserved for {} B of input", row.name, bytes.len()
        );
    }

    /// A valid sample of any row with one sizing field rewritten — at
    /// random, nudged, or to a power of two — and re-sealed so any checksum
    /// passes.
    #[test]
    fn resealed_header_mutations_fail_typed_within_their_own_size(
        row in 0usize..ROWS.len(),
        sample in any::<u64>(),
        field in any::<u64>(),
        value in any::<u64>(),
        mode in 0usize..4,
    ) {
        let row = &ROWS[row];
        let mut samples = (row.samples)();
        let s = samples.swap_remove(sample as usize % samples.len());
        prop_assume!(!s.sizing.is_empty());
        let (at, width, old) = s.sizing[field as usize % s.sizing.len()];
        let new = match mode {
            0 => value,
            1 => old.wrapping_add(value % 8 + 1),
            2 => old.wrapping_sub(value % 8 + 1),
            _ => 1 << (value % 64),
        };
        let new = if width == 4 { new as u32 as u64 } else { new };
        prop_assume!(new != old);
        let mut payload = s.bytes;
        payload[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
        let bytes = (row.seal)(payload);
        let (ok, peak) = measure(row.decode, &bytes);
        prop_assert!(!(ok && row.exact), "{}: field at {at}: {old} -> {new} still decoded", row.name);
        prop_assert!(
            peak <= row.bound(bytes.len()),
            "{}: field at {at}: {old} -> {new} reserved {peak} B", row.name
        );
    }
}
