//! Control- and data-plane message codec for the multi-process runtime.
//!
//! Every byte that crosses a socket in this crate is one length-prefixed
//! frame (`u32` little-endian length, then payload) whose payload decodes to
//! a [`Msg`]. One enum covers both planes: the control protocol between the
//! supervisor and its workers (handshake, port map, run/rollback/commit) and
//! the worker-to-worker halo traffic. Frames are written and read with the
//! workspace's one little-endian codec, `subsonic_obs::codec`, as the
//! checkpoint format is — no reflection, no schema evolution, a version byte
//! up front so a mismatched peer fails loudly instead of mis-parsing, and
//! every decoded count checked against the bytes that back it.

use crate::chaos::ChaosSpec;
use std::io::{self, IoSlice, Read, Write};
use subsonic_obs::codec::{Dec, Enc, Truncated};

/// Protocol version carried in every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a frame payload; anything larger is a corrupt length
/// prefix, not a real message (the largest legitimate frame is a shipped
/// checkpoint, far below this).
pub const MAX_FRAME: usize = 64 << 20;

/// `pause_at` value meaning "no pause fence armed".
pub const NO_PAUSE: u64 = u64::MAX;

/// Sentinel for "no neighbour across this face" in [`WorkerConfig::neighbors`].
pub const NO_NEIGHBOR: u32 = u32::MAX;

/// Which solver the workers instantiate (workers never see the `Problem2` —
/// init closures do not cross process boundaries; tiles arrive as shipped
/// checkpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// D2Q9 lattice-Boltzmann.
    LatticeBoltzmann,
    /// Finite-difference subsonic solver.
    FiniteDifference,
}

/// Which wire the halo data-plane runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// One loopback TCP stream per neighbouring worker pair.
    Tcp,
    /// One UDP socket per worker with the RFC 6298 retransmission state
    /// machine from `subsonic-cluster` layered on top (Appendix D).
    Udp,
    /// In-memory channels through a shared switchboard — no sockets; the
    /// replay transport.
    Mem,
}

/// Everything a worker needs to participate, shipped in [`Msg::Init`]. The
/// initial tile state rides alongside as sealed checkpoint bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerConfig {
    /// This worker's index (also its tile's slot in the active-tile list).
    pub worker: u32,
    /// Total workers in the job.
    pub nworkers: u32,
    /// Solver to instantiate.
    pub solver: SolverKind,
    /// Data-plane wire.
    pub transport: TransportKind,
    /// Mesh epoch this worker joins at (0 for the initial spawn, the
    /// post-rollback epoch for a respawn).
    pub epoch: u32,
    /// Step the shipped checkpoint resumes from.
    pub start_step: u64,
    /// Neighbouring worker per face, indexed by `Face::index` (the 2D faces
    /// `[West, East, South, North]`); [`NO_NEIGHBOR`] where the tile touches
    /// the domain boundary.
    pub neighbors: [u32; 4],
    /// Record per-step state hashes and per-receive digests for replay.
    pub record: bool,
    /// Address the data plane binds and dials on (loopback by default; the
    /// supervisor forwards its `SUBSONIC_NET_ADDR` override here).
    pub addr: String,
    /// Compiled wire-fault plan this worker injects on its data plane
    /// (empty = clean wire). See [`crate::chaos`].
    pub faults: ChaosSpec,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → supervisor: first frame on a fresh control connection.
    Hello { worker: u32 },
    /// Supervisor → worker: job config plus the sealed initial/resume
    /// checkpoint bytes.
    Init { cfg: WorkerConfig, ckpt: Vec<u8> },
    /// Worker → supervisor: the data-plane endpoint it bound for `epoch`
    /// (TCP listener or UDP socket port; 0 for the in-memory switchboard).
    DataPort { epoch: u32, port: u16 },
    /// Supervisor → worker: every worker's data port for `epoch`, indexed by
    /// worker id.
    PortMap { epoch: u32, ports: Vec<u16> },
    /// Worker → supervisor: all neighbour links for `epoch` are up.
    MeshReady { epoch: u32 },
    /// Supervisor → worker: execute steps `[from, until)`. If `pause_at !=`
    /// [`NO_PAUSE`], stop before that step, report [`Msg::Paused`] and hold —
    /// the supervisor's kill fence for deterministic fault injection.
    Run {
        epoch: u32,
        from: u64,
        until: u64,
        pause_at: u64,
    },
    /// Worker → supervisor: holding at the pause fence before `step`.
    Paused { epoch: u32, step: u64 },
    /// Worker → supervisor: heartbeat after completing `step`.
    Progress { epoch: u32, step: u64 },
    /// Worker → supervisor: segment finished at `step`; carries the sealed
    /// tile checkpoint, its seal (a fingerprint of the state after the final
    /// step, free to read off the checkpoint), the record-log
    /// chunk for the segment, the segment's calc/com split, and the wire
    /// faults injected since the segment started (deltas from segment start,
    /// so voided executions never pollute committed totals).
    SegDone {
        epoch: u32,
        step: u64,
        state_hash: u64,
        ckpt: Vec<u8>,
        log: Vec<u8>,
        t_calc_us: u64,
        t_com_us: u64,
        msgs_sent: u64,
        doubles_sent: u64,
        chaos_loss: u64,
        chaos_dup: u64,
        chaos_reorder: u64,
        chaos_part: u64,
    },
    /// Worker → supervisor: segment aborted at `step` (peer death or abort
    /// directive); all partial work discarded.
    SegFailed { epoch: u32, step: u64 },
    /// Supervisor → worker: a peer died; stop the current segment.
    Abort { epoch: u32 },
    /// Supervisor → worker: discard state, restore the shipped checkpoint
    /// (committed at `step`), rebuild the mesh under the new `epoch`.
    Rollback {
        epoch: u32,
        step: u64,
        ckpt: Vec<u8>,
    },
    /// Supervisor → worker: job complete; ship tracks and exit.
    Done,
    /// Worker → supervisor: encoded flight-recorder tracks
    /// (`subsonic_obs::wire`).
    Tracks { blob: Vec<u8> },
    /// Worker → worker: one halo strip, packed across the **sender's**
    /// `face` (the receiver unpacks at `face.opposite()`).
    Halo {
        epoch: u32,
        step: u64,
        xch: u8,
        face: u8,
        data: Vec<f64>,
    },
    /// Worker → worker: first frame on a fresh TCP data connection,
    /// identifying the dialler and the epoch it is meshing for.
    Identify { worker: u32, epoch: u32 },
}

/// Typed decode failure.
#[derive(Debug)]
pub enum CodecError {
    /// Frame ended before the message did.
    Truncated,
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// A field held an out-of-range value.
    BadField(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadField(what) => write!(f, "bad field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<Truncated> for CodecError {
    fn from(_: Truncated) -> Self {
        CodecError::Truncated
    }
}

pub(crate) fn solver_to_u8(s: SolverKind) -> u8 {
    match s {
        SolverKind::LatticeBoltzmann => 0,
        SolverKind::FiniteDifference => 1,
    }
}

pub(crate) fn solver_from_u8(v: u8) -> Result<SolverKind, CodecError> {
    match v {
        0 => Ok(SolverKind::LatticeBoltzmann),
        1 => Ok(SolverKind::FiniteDifference),
        _ => Err(CodecError::BadField("solver kind")),
    }
}

pub(crate) fn transport_to_u8(t: TransportKind) -> u8 {
    match t {
        TransportKind::Tcp => 0,
        TransportKind::Udp => 1,
        TransportKind::Mem => 2,
    }
}

pub(crate) fn transport_from_u8(v: u8) -> Result<TransportKind, CodecError> {
    match v {
        0 => Ok(TransportKind::Tcp),
        1 => Ok(TransportKind::Udp),
        2 => Ok(TransportKind::Mem),
        _ => Err(CodecError::BadField("transport kind")),
    }
}

fn cfg_to(e: &mut Enc, cfg: &WorkerConfig) {
    e.u32(cfg.worker);
    e.u32(cfg.nworkers);
    e.u8(solver_to_u8(cfg.solver));
    e.u8(transport_to_u8(cfg.transport));
    e.u32(cfg.epoch);
    e.u64(cfg.start_step);
    for n in cfg.neighbors {
        e.u32(n);
    }
    e.u8(cfg.record as u8);
    e.bytes(cfg.addr.as_bytes());
    e.bytes(&cfg.faults.to_bytes());
}

fn cfg_from(d: &mut Dec<'_>) -> Result<WorkerConfig, CodecError> {
    let worker = d.u32()?;
    let nworkers = d.u32()?;
    let solver = solver_from_u8(d.u8()?)?;
    let transport = transport_from_u8(d.u8()?)?;
    let epoch = d.u32()?;
    let start_step = d.u64()?;
    let mut neighbors = [NO_NEIGHBOR; 4];
    for n in &mut neighbors {
        *n = d.u32()?;
    }
    let record = d.u8()? != 0;
    let addr = std::str::from_utf8(d.bytes()?).map_err(|_| CodecError::BadField("addr"))?;
    let faults = ChaosSpec::from_bytes(d.bytes()?).ok_or(CodecError::BadField("chaos spec"))?;
    Ok(WorkerConfig {
        worker,
        nworkers,
        solver,
        transport,
        epoch,
        start_step,
        neighbors,
        record,
        addr: addr.to_owned(),
        faults,
    })
}

/// The fixed fields of a decoded [`Msg::Halo`] frame; the strip lands in the
/// caller's buffer beside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloHeader {
    /// Mesh epoch the strip belongs to.
    pub epoch: u32,
    /// Step the strip was packed in.
    pub step: u64,
    /// Exchange index within the step's plan.
    pub xch: u8,
    /// The **sender's** face index.
    pub face: u8,
}

const TAG_HALO: u8 = 14;

fn halo_to(e: &mut Enc, epoch: u32, step: u64, xch: u8, face: u8, data: &[f64]) {
    e.u8(TAG_HALO);
    e.u32(epoch);
    e.u64(step);
    e.u8(xch);
    e.u8(face);
    e.u32(data.len() as u32);
    e.f64s(data);
}

/// Opens a frame that must be a halo: version, tag, fixed fields. The strip
/// is next in `d`.
fn halo_open(payload: &[u8]) -> Result<(Dec<'_>, HaloHeader), CodecError> {
    let mut d = Dec::new(payload);
    let ver = d.u8()?;
    if ver != PROTOCOL_VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    match d.u8()? {
        TAG_HALO => {}
        t => return Err(CodecError::BadTag(t)),
    }
    let h = HaloHeader {
        epoch: d.u32()?,
        step: d.u64()?,
        xch: d.u8()?,
        face: d.u8()?,
    };
    Ok((d, h))
}

/// Reads which strip a halo frame carries without touching the strip — what
/// a receiver needs to file a frame that arrived ahead of its turn. Any
/// other message is a [`CodecError::BadTag`].
pub fn halo_header(payload: &[u8]) -> Result<HaloHeader, CodecError> {
    halo_open(payload).map(|(_, h)| h)
}

/// Encodes one halo strip into `buf`, replacing its contents: the bytes
/// `encode_msg(&Msg::Halo { .. })` produces, without building the `Msg` or a
/// fresh buffer — the per-step path of a worker.
pub fn encode_halo_into(buf: &mut Vec<u8>, epoch: u32, step: u64, xch: u8, face: u8, data: &[f64]) {
    let mut e = Enc(std::mem::take(buf));
    e.0.clear();
    e.0.reserve(HALO_FIXED + data.len() * 8);
    e.u8(PROTOCOL_VERSION);
    halo_to(&mut e, epoch, step, xch, face, data);
    *buf = e.0;
}

/// Decodes a halo frame, replacing `data`'s contents with the strip (its
/// allocation is reused, and grows by what the frame holds, never by what
/// the length field claims). Any other message is a [`CodecError::BadTag`].
pub fn decode_halo_into(payload: &[u8], data: &mut Vec<f64>) -> Result<HaloHeader, CodecError> {
    let (mut d, h) = halo_open(payload)?;
    let n = d.u32()? as usize;
    let strip = d.f64s(n)?;
    data.clear();
    data.extend(strip);
    Ok(h)
}

/// Bytes of a halo frame besides the strip: version, tag, header, count.
const HALO_FIXED: usize = 2 + 4 + 8 + 1 + 1 + 4;

/// Encodes `msg` into a frame payload (no length prefix).
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    // the bulk of a big message is one blob: reserving for it up front
    // spares the doubling copies (and their slack) on a 1.7 MB checkpoint
    let bulk = match msg {
        Msg::Init { ckpt, .. } | Msg::Rollback { ckpt, .. } => ckpt.len(),
        Msg::SegDone { ckpt, log, .. } => ckpt.len() + log.len(),
        Msg::Tracks { blob } => blob.len(),
        Msg::Halo { data, .. } => data.len() * 8,
        _ => 0,
    };
    let mut e = Enc(Vec::with_capacity(bulk + 128));
    e.u8(PROTOCOL_VERSION);
    match msg {
        Msg::Hello { worker } => {
            e.u8(0);
            e.u32(*worker);
        }
        Msg::Init { cfg, ckpt } => {
            e.u8(1);
            cfg_to(&mut e, cfg);
            e.bytes(ckpt);
        }
        Msg::DataPort { epoch, port } => {
            e.u8(2);
            e.u32(*epoch);
            e.u16(*port);
        }
        Msg::PortMap { epoch, ports } => {
            e.u8(3);
            e.u32(*epoch);
            e.u32(ports.len() as u32);
            for &p in ports {
                e.u16(p);
            }
        }
        Msg::MeshReady { epoch } => {
            e.u8(4);
            e.u32(*epoch);
        }
        Msg::Run {
            epoch,
            from,
            until,
            pause_at,
        } => {
            e.u8(5);
            e.u32(*epoch);
            e.u64(*from);
            e.u64(*until);
            e.u64(*pause_at);
        }
        Msg::Paused { epoch, step } => {
            e.u8(6);
            e.u32(*epoch);
            e.u64(*step);
        }
        Msg::Progress { epoch, step } => {
            e.u8(7);
            e.u32(*epoch);
            e.u64(*step);
        }
        Msg::SegDone {
            epoch,
            step,
            state_hash,
            ckpt,
            log,
            t_calc_us,
            t_com_us,
            msgs_sent,
            doubles_sent,
            chaos_loss,
            chaos_dup,
            chaos_reorder,
            chaos_part,
        } => {
            e.u8(8);
            e.u32(*epoch);
            e.u64(*step);
            e.u64(*state_hash);
            e.bytes(ckpt);
            e.bytes(log);
            e.u64(*t_calc_us);
            e.u64(*t_com_us);
            e.u64(*msgs_sent);
            e.u64(*doubles_sent);
            e.u64(*chaos_loss);
            e.u64(*chaos_dup);
            e.u64(*chaos_reorder);
            e.u64(*chaos_part);
        }
        Msg::SegFailed { epoch, step } => {
            e.u8(9);
            e.u32(*epoch);
            e.u64(*step);
        }
        Msg::Abort { epoch } => {
            e.u8(10);
            e.u32(*epoch);
        }
        Msg::Rollback { epoch, step, ckpt } => {
            e.u8(11);
            e.u32(*epoch);
            e.u64(*step);
            e.bytes(ckpt);
        }
        Msg::Done => {
            e.u8(12);
        }
        Msg::Tracks { blob } => {
            e.u8(13);
            e.bytes(blob);
        }
        Msg::Halo {
            epoch,
            step,
            xch,
            face,
            data,
        } => halo_to(&mut e, *epoch, *step, *xch, *face, data),
        Msg::Identify { worker, epoch } => {
            e.u8(15);
            e.u32(*worker);
            e.u32(*epoch);
        }
    }
    e.0
}

/// Decodes a frame payload.
pub fn decode_msg(payload: &[u8]) -> Result<Msg, CodecError> {
    let mut d = Dec::new(payload);
    let ver = d.u8()?;
    if ver != PROTOCOL_VERSION {
        return Err(CodecError::BadVersion(ver));
    }
    let tag = d.u8()?;
    Ok(match tag {
        0 => Msg::Hello { worker: d.u32()? },
        1 => Msg::Init {
            cfg: cfg_from(&mut d)?,
            ckpt: d.bytes()?.to_vec(),
        },
        2 => Msg::DataPort {
            epoch: d.u32()?,
            port: d.u16()?,
        },
        3 => {
            let epoch = d.u32()?;
            let n = d.u32()? as usize;
            let ports = d.vec_of(n, 2, |d| d.u16())?;
            Msg::PortMap { epoch, ports }
        }
        4 => Msg::MeshReady { epoch: d.u32()? },
        5 => Msg::Run {
            epoch: d.u32()?,
            from: d.u64()?,
            until: d.u64()?,
            pause_at: d.u64()?,
        },
        6 => Msg::Paused {
            epoch: d.u32()?,
            step: d.u64()?,
        },
        7 => Msg::Progress {
            epoch: d.u32()?,
            step: d.u64()?,
        },
        8 => Msg::SegDone {
            epoch: d.u32()?,
            step: d.u64()?,
            state_hash: d.u64()?,
            ckpt: d.bytes()?.to_vec(),
            log: d.bytes()?.to_vec(),
            t_calc_us: d.u64()?,
            t_com_us: d.u64()?,
            msgs_sent: d.u64()?,
            doubles_sent: d.u64()?,
            chaos_loss: d.u64()?,
            chaos_dup: d.u64()?,
            chaos_reorder: d.u64()?,
            chaos_part: d.u64()?,
        },
        9 => Msg::SegFailed {
            epoch: d.u32()?,
            step: d.u64()?,
        },
        10 => Msg::Abort { epoch: d.u32()? },
        11 => Msg::Rollback {
            epoch: d.u32()?,
            step: d.u64()?,
            ckpt: d.bytes()?.to_vec(),
        },
        12 => Msg::Done,
        13 => Msg::Tracks {
            blob: d.bytes()?.to_vec(),
        },
        TAG_HALO => {
            let mut data = Vec::new();
            let h = decode_halo_into(payload, &mut data)?;
            Msg::Halo {
                epoch: h.epoch,
                step: h.step,
                xch: h.xch,
                face: h.face,
                data,
            }
        }
        15 => Msg::Identify {
            worker: d.u32()?,
            epoch: d.u32()?,
        },
        t => return Err(CodecError::BadTag(t)),
    })
}

/// Writes one length-prefixed frame with a single vectored write of
/// `[length, payload]` — one syscall and, under `TCP_NODELAY`, one segment
/// train, so the peer's reader wakes once per frame — resuming wherever a
/// short write stopped. Nothing is staged: the payload leaves from the
/// caller's buffer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds cap", payload.len()),
        ));
    }
    let header = (payload.len() as u32).to_le_bytes();
    let total = header.len() + payload.len();
    let mut sent = 0;
    loop {
        let head = &header[sent.min(header.len())..];
        let body = &payload[sent.saturating_sub(header.len())..];
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "link accepted no bytes",
                ))
            }
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if sent >= total {
            return w.flush();
        }
    }
}

/// Reads one length-prefixed frame (blocking; the caller arranges timeouts
/// at the socket layer).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = Dec::new(&len).u32()? as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn sample_cfg() -> WorkerConfig {
        let plan = subsonic_cluster::fault::FaultPlan::empty()
            .msg_fault(Some(0), None, 2.0, 5.0, 0.25, 0.125, 0.0625)
            .partition(vec![vec![0, 1], vec![2, 3]], 0.5, Some(1.0));
        WorkerConfig {
            worker: 2,
            nworkers: 4,
            solver: SolverKind::LatticeBoltzmann,
            transport: TransportKind::Tcp,
            epoch: 3,
            start_step: 42,
            neighbors: [1, NO_NEIGHBOR, 0, 3],
            record: true,
            addr: "127.0.0.1".to_string(),
            faults: ChaosSpec::compile(&plan, 0xfeed_beef, 4),
        }
    }

    #[test]
    fn every_message_roundtrips() {
        let msgs = vec![
            Msg::Hello { worker: 3 },
            Msg::Init {
                cfg: sample_cfg(),
                ckpt: vec![1, 2, 3, 4],
            },
            Msg::DataPort {
                epoch: 1,
                port: 40001,
            },
            Msg::PortMap {
                epoch: 1,
                ports: vec![40001, 40002, 0, 40004],
            },
            Msg::MeshReady { epoch: 1 },
            Msg::Run {
                epoch: 1,
                from: 10,
                until: 20,
                pause_at: NO_PAUSE,
            },
            Msg::Paused { epoch: 1, step: 13 },
            Msg::Progress { epoch: 1, step: 14 },
            Msg::SegDone {
                epoch: 1,
                step: 20,
                state_hash: 0xdead_beef,
                ckpt: vec![9; 17],
                log: vec![8; 5],
                t_calc_us: 1234,
                t_com_us: 567,
                msgs_sent: 80,
                doubles_sent: 4000,
                chaos_loss: 3,
                chaos_dup: 1,
                chaos_reorder: 2,
                chaos_part: 11,
            },
            Msg::SegFailed { epoch: 1, step: 17 },
            Msg::Abort { epoch: 1 },
            Msg::Rollback {
                epoch: 2,
                step: 10,
                ckpt: vec![5; 9],
            },
            Msg::Done,
            Msg::Tracks { blob: vec![7; 33] },
            Msg::Halo {
                epoch: 2,
                step: 11,
                xch: 0,
                face: 3,
                data: vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE],
            },
            Msg::Identify {
                worker: 1,
                epoch: 2,
            },
        ];
        for msg in msgs {
            let enc = encode_msg(&msg);
            let dec = decode_msg(&enc).unwrap();
            assert_eq!(dec, msg, "roundtrip failed");
        }
    }

    #[test]
    fn corruption_is_typed() {
        let enc = encode_msg(&Msg::Hello { worker: 1 });
        assert!(matches!(
            decode_msg(&enc[..enc.len() - 1]),
            Err(CodecError::Truncated)
        ));
        let mut bad = enc.clone();
        bad[0] = 99;
        assert!(matches!(decode_msg(&bad), Err(CodecError::BadVersion(99))));
        let mut bad = enc;
        bad[1] = 200;
        assert!(matches!(decode_msg(&bad), Err(CodecError::BadTag(200))));
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let mut wire = Vec::new();
        let a = encode_msg(&Msg::MeshReady { epoch: 7 });
        let b = encode_msg(&Msg::Done);
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap(), b);
        assert!(read_frame(&mut r).is_err()); // clean EOF surfaces as an error
    }

    /// A writer that takes at most `cap` bytes per call and counts calls.
    struct Trickle {
        cap: usize,
        wire: Vec<u8>,
        vectored_calls: usize,
        plain_calls: usize,
    }

    impl Trickle {
        fn new(cap: usize) -> Trickle {
            Trickle {
                cap,
                wire: Vec::new(),
                vectored_calls: 0,
                plain_calls: 0,
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.plain_calls += 1;
            let n = buf.len().min(self.cap);
            self.wire.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored_calls += 1;
            let mut left = self.cap;
            for b in bufs {
                let n = b.len().min(left);
                self.wire.extend_from_slice(&b[..n]);
                left -= n;
            }
            Ok(self.cap - left)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn a_frame_is_one_vectored_write() {
        let halo = encode_msg(&Msg::Halo {
            epoch: 0,
            step: 0,
            xch: 0,
            face: 0,
            data: vec![0.5; 3456],
        });
        assert_eq!(halo.len(), 27_668);
        for payload in [&halo[..], &[]] {
            let mut w = Trickle::new(usize::MAX);
            write_frame(&mut w, payload).unwrap();
            assert_eq!((w.vectored_calls, w.plain_calls), (1, 0));
            assert_eq!(w.wire, framed(payload));
        }
    }

    #[test]
    fn short_writes_resume_across_the_header_boundary() {
        // a shipped checkpoint: 1.7 MB
        let payload: Vec<u8> = (0..1_741_904u32).map(|i| ((i * 31) >> 3) as u8).collect();
        let want = framed(&payload);
        for cap in [1, 3, 4, 5, 4096] {
            let mut w = Trickle::new(cap);
            write_frame(&mut w, &payload).unwrap();
            assert!(w.wire == want, "cap {cap}: bytes on the wire differ");
            assert_eq!(w.plain_calls, 0);
        }
        let mut stuck = Trickle::new(0);
        let err = write_frame(&mut stuck, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    /// splitmix64: the tests' own source of arbitrary bytes.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|d| d.to_bits()).collect()
    }

    /// Every kind of message, with blobs long enough to mutate inside.
    fn one_of_each(seed: &mut u64) -> Vec<Msg> {
        let mut blob = |n: usize| (0..n).map(|_| mix(seed) as u8).collect::<Vec<u8>>();
        vec![
            Msg::Hello { worker: 3 },
            Msg::Init {
                cfg: sample_cfg(),
                ckpt: blob(40),
            },
            Msg::DataPort { epoch: 1, port: 9 },
            Msg::PortMap {
                epoch: 1,
                ports: vec![40001, 40002, 0, 40004],
            },
            Msg::MeshReady { epoch: 1 },
            Msg::Run {
                epoch: 1,
                from: 10,
                until: 20,
                pause_at: NO_PAUSE,
            },
            Msg::Paused { epoch: 1, step: 13 },
            Msg::Progress { epoch: 1, step: 14 },
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
            Msg::SegFailed { epoch: 1, step: 17 },
            Msg::Abort { epoch: 1 },
            Msg::Rollback {
                epoch: 2,
                step: 10,
                ckpt: blob(21),
            },
            Msg::Done,
            Msg::Tracks { blob: blob(17) },
            Msg::Halo {
                epoch: 2,
                step: 11,
                xch: 1,
                face: 3,
                data: vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE],
            },
            Msg::Identify {
                worker: 1,
                epoch: 2,
            },
        ]
    }

    /// Runs every decoder over `input`: each must return — `Ok` or a typed
    /// error, never a panic — and a strip can only be as long as the bytes
    /// that were there to fill it, whatever a length field claims.
    fn decoders_hold(input: &[u8]) {
        let _ = decode_msg(input);
        let _ = halo_header(input);
        let mut strip = Vec::new();
        let _ = decode_halo_into(input, &mut strip);
        // 4 is `Vec`'s smallest non-empty capacity for an 8-byte element
        assert!(strip.capacity() <= (input.len() / 8).max(4));
        if let Ok(Msg::Halo { data, .. }) = decode_msg(input) {
            assert!(data.len() <= input.len() / 8);
        }
    }

    proptest::proptest! {
        #[test]
        fn halo_fast_path_is_the_generic_codec(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..4096,
        ) {
            let mut s = seed;
            let (epoch, step) = (mix(&mut s) as u32, mix(&mut s));
            let (xch, face) = (mix(&mut s) as u8, mix(&mut s) as u8);
            // arbitrary bit patterns: NaNs and subnormals must survive too
            let data: Vec<f64> = (0..len).map(|_| f64::from_bits(mix(&mut s))).collect();
            let want = encode_msg(&Msg::Halo { epoch, step, xch, face, data: data.clone() });

            // encode: byte-identical, into a dirty reused buffer
            let mut frame = vec![0xee; mix(&mut s) as usize % 64];
            encode_halo_into(&mut frame, epoch, step, xch, face, &data);
            proptest::prop_assert!(frame == want);

            // decode: same fields, same bits, into a dirty reused buffer
            let mut strip = vec![f64::NAN; mix(&mut s) as usize % 64];
            let h = decode_halo_into(&want, &mut strip).unwrap();
            proptest::prop_assert_eq!(h, HaloHeader { epoch, step, xch, face });
            proptest::prop_assert_eq!(halo_header(&want).unwrap(), h);
            proptest::prop_assert!(bits(&strip) == bits(&data));
            match decode_msg(&want).unwrap() {
                Msg::Halo { epoch: e, step: st, xch: x, face: f, data: d } => {
                    proptest::prop_assert_eq!((e, st, x, f), (epoch, step, xch, face));
                    proptest::prop_assert!(bits(&d) == bits(&data));
                }
                other => panic!("decoded {other:?}"),
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_a_decoder(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..600,
        ) {
            let mut s = seed;
            let mut input: Vec<u8> = (0..len).map(|_| mix(&mut s) as u8).collect();
            decoders_hold(&input);
            // the same bytes behind a plausible version and tag get further in
            if len >= 2 {
                input[0] = PROTOCOL_VERSION;
                input[1] = (mix(&mut s) % 17) as u8;
                decoders_hold(&input);
            }
        }

        #[test]
        fn one_bad_byte_never_panics_a_decoder(seed in proptest::prelude::any::<u64>()) {
            let mut s = seed;
            for msg in one_of_each(&mut s) {
                let valid = encode_msg(&msg);
                let at = mix(&mut s) as usize % valid.len();
                let mut mutated = valid.clone();
                mutated[at] = mix(&mut s) as u8;
                decoders_hold(&mutated);
                // a length field blown up to its maximum
                mutated[at] = 0xff;
                decoders_hold(&mutated);
                decoders_hold(&valid[..at]);
            }
        }
    }

    /// The frame bytes, pinned as `(len, fnv1a)`: every kind of message
    /// (seed 1) back to back, and one halo frame.
    #[test]
    fn frame_bytes_are_pinned() {
        let all: Vec<u8> = one_of_each(&mut 1).iter().flat_map(encode_msg).collect();
        let halo = encode_msg(&Msg::Halo {
            epoch: 3,
            step: 77,
            xch: 1,
            face: 2,
            data: (0..96).map(|i| 0.25 * i as f64 - 3.0).collect(),
        });
        let pin = |b: &[u8]| (b.len(), crate::record::fnv1a(b));
        assert_eq!(
            [pin(&all), pin(&halo)],
            [(557, 0x7eda_9b75_2379_88f1), (788, 0x5d15_f034_2a8d_0ac3)]
        );
    }

    #[test]
    fn a_hostile_count_reserves_nothing() {
        // a chaos spec claiming u32::MAX fault windows (154 GB of them)
        let mut spec = vec![1u8];
        spec.extend_from_slice(&[0; 8]);
        spec.extend_from_slice(&[0xff; 4]);
        assert!(ChaosSpec::from_bytes(&spec).is_none());
        // a port map claiming u32::MAX ports
        let mut ports = vec![PROTOCOL_VERSION, 3];
        ports.extend_from_slice(&1u32.to_le_bytes());
        ports.extend_from_slice(&[0xff; 4]);
        assert!(matches!(decode_msg(&ports), Err(CodecError::Truncated)));
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = read_frame(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
