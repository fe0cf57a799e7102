//! The worker: one tile, one process (or thread), one state machine.
//!
//! A worker's whole life is driven by its control link to the supervisor:
//!
//! ```text
//! Hello ─▶ Init(cfg, ckpt) ─▶ ┌─ mesh: DataPort ─▶ PortMap ─▶ connect ─▶ MeshReady
//!                             │
//!                             └─ run:  Run ─▶ [steps…] ─▶ SegDone │ SegFailed
//!                                      Rollback(ckpt, epoch+1) ──▶ back to mesh
//!                                      Done ─▶ Tracks ─▶ exit
//! ```
//!
//! The same function runs as a real OS process (spawned by the `net-worker`
//! binary after the port-file handshake) and as an in-process thread over
//! in-memory links (replay, fast tests). Process workers die by SIGKILL;
//! thread workers emulate it with a `hard` abort flag polled on every step,
//! every receive and every fence hold — either way the peers observe a dead
//! link, not a goodbye.
//!
//! A control-reader thread blocks on the control link, decodes supervisor
//! frames into a queue and flips the `soft` abort flag the moment an
//! `Abort`/`Rollback` arrives, so a worker blocked in the middle of a halo
//! receive notices within one poll interval without the step loop touching
//! the control socket. The step loop itself allocates nothing once its
//! buffers have grown ([`HaloBufs`]) and reports `Progress` at most once per
//! [`PROGRESS_PERIOD`].

use crate::chaos::WireFaults;
use crate::link::{spawn_msg_reader, FrameTx, Link, Switchboard};
use crate::mesh::{connect, Mesh, MeshBinding, MeshEvent, MeshSpec};
use crate::record::{push_entry, state_hash2, LogEntry};
use crate::supervisor::PROGRESS_PERIOD;
use crate::wire::{
    decode_halo_into, encode_halo_into, encode_msg, halo_header, Msg, SolverKind, WorkerConfig,
    NO_NEIGHBOR,
};
use crate::NetError;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use subsonic_exec::checkpoint::{restore_tile2, SealedDump};
use subsonic_exec::{step_tiles, Halo, StepTiming, TileSet, D2};
use subsonic_grid::Face;
use subsonic_obs::codec::Fnv1a;
use subsonic_obs::{encode_tracks, Category, FlightRecorder, TrackRecorder};
use subsonic_solvers::{FiniteDifference2, LatticeBoltzmann2, Solver2, TileState2};

/// How long a worker waits in any control-plane lull before declaring the
/// supervisor lost.
const IDLE_DEADLINE: Duration = Duration::from_secs(120);
/// Bound on one mesh build.
const MESH_DEADLINE: Duration = Duration::from_secs(30);
/// Bound on one halo receive (a dead UDP peer produces no `Gone` event;
/// this is the backstop under the supervisor's abort).
const RECV_DEADLINE: Duration = Duration::from_secs(30);
/// How long a paused worker holds its fence before giving up on the kill.
const FENCE_HOLD: Duration = Duration::from_secs(30);

/// The 2D face a halo frame's face byte names, or `None` for any byte past
/// the four 2D faces: such a frame is dropped before it can index the
/// neighbour table or wait in the inbox.
fn face_from_index(idx: u8) -> Option<Face> {
    Face::from_index(usize::from(idx), 2)
}

/// Builds the solver a config names.
pub fn make_solver(kind: SolverKind) -> Arc<dyn Solver2> {
    match kind {
        SolverKind::LatticeBoltzmann => Arc::new(LatticeBoltzmann2),
        SolverKind::FiniteDifference => Arc::new(FiniteDifference2),
    }
}

/// FNV-1a over the little-endian bytes of a strip of doubles.
fn hash_doubles(data: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    data.iter().for_each(|&d| h.write_f64(d));
    h.finish()
}

enum CtrlEvent {
    Msg(Msg),
    Lost,
}

/// The worker's reused buffers. They outlive segments and meshes, so once
/// each has grown to the largest strip the step loop allocates nothing.
#[derive(Default)]
struct HaloBufs {
    /// `step_tiles`' strip: every strip is packed into it and decoded into it.
    strip: Vec<f64>,
    /// The outgoing halo frame.
    frame: Vec<u8>,
    /// Inbound frames that arrived ahead of their turn, still encoded, with
    /// the peer whose reader gets the buffer back.
    inbox: HashMap<(u64, u8, u8), (u32, Vec<u8>)>,
    /// Steps during which `strip` or `frame` had to grow.
    allocs: u64,
}

/// The halo endpoint of a segment's one tile (its id is the worker's):
/// frames in/out of the mesh, with an inbox so a fast peer running ahead
/// never confuses a slow one.
struct MeshHalo<'a> {
    id: usize,
    mesh: &'a mut Mesh,
    epoch: u32,
    /// Step currently being computed (set by the caller before each step).
    step: u64,
    neighbors: [Option<u32>; 4],
    frame: &'a mut Vec<u8>,
    inbox: &'a mut HashMap<(u64, u8, u8), (u32, Vec<u8>)>,
    soft: &'a AtomicBool,
    hard: &'a AtomicBool,
    record: bool,
    log: Vec<u8>,
}

impl MeshHalo<'_> {
    /// Decodes a frame known to carry the wanted strip and gives its buffer
    /// back to the link it came over.
    fn consume(&mut self, from: u32, payload: Vec<u8>, strip: &mut Vec<f64>) -> io::Result<()> {
        let decoded = decode_halo_into(&payload, strip);
        self.mesh.recycle(from, payload);
        decoded
            .map(|_| ())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl Halo<D2> for MeshHalo<'_> {
    fn has_neighbor(&self, tile: usize, f: Face) -> bool {
        debug_assert_eq!(tile, self.id);
        self.neighbors[f.index()].is_some()
    }

    fn send(&mut self, x: usize, tile: usize, f: Face, buf: &mut Vec<f64>) -> io::Result<()> {
        debug_assert_eq!(tile, self.id);
        let peer = self.neighbors[f.index()].ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "no neighbour across face")
        })?;
        encode_halo_into(
            self.frame,
            self.epoch,
            self.step,
            x as u8,
            f.index() as u8,
            buf,
        );
        self.mesh.send(peer, self.frame)
    }

    fn recv_into(&mut self, x: usize, tile: usize, f: Face, buf: &mut Vec<f64>) -> io::Result<()> {
        debug_assert_eq!(tile, self.id);
        let want = (self.step, x as u8, f.index() as u8);
        let t0 = Instant::now();
        let mut arrived = self.inbox.remove(&want);
        loop {
            if let Some((from, payload)) = arrived.take() {
                self.consume(from, payload, buf)?;
                if self.record {
                    push_entry(
                        &mut self.log,
                        &LogEntry::Recv {
                            step: self.step,
                            xch: want.1,
                            face: want.2,
                            len: buf.len() as u32,
                            hash: hash_doubles(buf),
                        },
                    );
                }
                return Ok(());
            }
            if self.hard.load(Ordering::SeqCst) || self.soft.load(Ordering::SeqCst) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "segment aborted",
                ));
            }
            if t0.elapsed() > RECV_DEADLINE {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "halo receive deadline",
                ));
            }
            match self.mesh.recv(Duration::from_millis(50)) {
                Ok(MeshEvent::Frame { from, payload }) => {
                    let Ok(h) = halo_header(&payload) else {
                        continue; // not a halo: nothing else travels here
                    };
                    if h.epoch != self.epoch {
                        continue; // stale world
                    }
                    // the sender names *its* face; we unpack at ours
                    let Some(mine) = face_from_index(h.face) else {
                        continue;
                    };
                    let key = (h.step, h.xch, mine.opposite().index() as u8);
                    if key == want {
                        arrived = Some((from, payload));
                    } else {
                        self.inbox.insert(key, (from, payload));
                    }
                }
                Ok(MeshEvent::Gone { from }) => {
                    if self.neighbors.contains(&Some(from)) {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("neighbour {from} died"),
                        ));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        }
    }
}

enum SegEnd {
    /// Reported `SegDone`; carries when the stepping ended and the
    /// checkpoint's dump-and-ship began.
    Committed(Instant),
    Aborted(u64),
    Killed,
}

/// The control link's sending half, remembering when it last spoke.
struct Ctrl {
    tx: Box<dyn FrameTx>,
    last_sent: Instant,
}

impl Ctrl {
    fn send(&mut self, msg: &Msg) -> Result<(), NetError> {
        self.last_sent = Instant::now();
        self.tx.send(&encode_msg(msg)).map_err(NetError::Io)
    }

    /// The heartbeat: reports `step` done unless the supervisor heard from
    /// this worker within the last [`PROGRESS_PERIOD`] anyway. A step slower
    /// than the period still reports every step.
    fn progress(&mut self, epoch: u32, step: u64) -> Result<(), NetError> {
        if self.last_sent.elapsed() < PROGRESS_PERIOD {
            return Ok(());
        }
        self.send(&Msg::Progress { epoch, step })
    }
}

/// Pulls the next control event, honouring the idle deadline and kill flag.
fn next_event(q: &Receiver<CtrlEvent>, hard: &AtomicBool) -> Result<Msg, NetError> {
    let t0 = Instant::now();
    loop {
        if hard.load(Ordering::SeqCst) {
            return Err(NetError::Timeout("worker killed"));
        }
        match q.recv_timeout(Duration::from_millis(50)) {
            Ok(CtrlEvent::Msg(msg)) => return Ok(msg),
            Ok(CtrlEvent::Lost) => return Err(NetError::Timeout("control link lost")),
            Err(RecvTimeoutError::Timeout) => {
                if t0.elapsed() > IDLE_DEADLINE {
                    return Err(NetError::Timeout("supervisor went silent"));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(NetError::Timeout("control link lost"))
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_segment(
    solver: &(dyn Solver2 + 'static),
    tile: &mut TileState2,
    mesh: &mut Mesh,
    bufs: &mut HaloBufs,
    cfg: &WorkerConfig,
    faults: &WireFaults,
    epoch: u32,
    from: u64,
    until: u64,
    pause_at: u64,
    ctrl: &mut Ctrl,
    soft: &AtomicBool,
    hard: &AtomicBool,
) -> Result<SegEnd, NetError> {
    // injected-fault counters are reported as deltas from segment start, so
    // a voided (aborted, later rolled-back) execution never pollutes the
    // committed totals — loss/dup/reorder totals stay deterministic
    let chaos_base = faults.counts();
    let neighbors: [Option<u32>; 4] =
        cfg.neighbors
            .map(|n| if n == NO_NEIGHBOR { None } else { Some(n) });
    // frames parked by a voided execution of this window must not meet its
    // re-run (their mesh is gone with them)
    bufs.inbox.clear();
    let mut halo = MeshHalo {
        id: cfg.worker as usize,
        mesh,
        epoch,
        step: from,
        neighbors,
        frame: &mut bufs.frame,
        inbox: &mut bufs.inbox,
        soft,
        hard,
        record: cfg.record,
        log: Vec::new(),
    };
    let neighbor = |_, f: Face| neighbors[f.index()].map(|w| w as usize);
    let mut set = TileSet::new::<D2>(vec![halo.id], neighbor, &halo);
    let mut timing = StepTiming::default();
    // the worker's own track keeps to segment-level spans
    let mut untraced = TrackRecorder::disabled();
    for s in from..until {
        if hard.load(Ordering::SeqCst) {
            return Ok(SegEnd::Killed);
        }
        if soft.load(Ordering::SeqCst) {
            return Ok(SegEnd::Aborted(s));
        }
        if s == pause_at {
            // the kill fence: report position and hold for the supervisor
            ctrl.send(&Msg::Paused { epoch, step: s })?;
            let t_hold = Instant::now();
            loop {
                std::thread::sleep(Duration::from_millis(5));
                if hard.load(Ordering::SeqCst) {
                    return Ok(SegEnd::Killed);
                }
                if soft.load(Ordering::SeqCst) {
                    return Ok(SegEnd::Aborted(s));
                }
                if t_hold.elapsed() > FENCE_HOLD {
                    break; // the kill never came; carry on
                }
            }
        }
        halo.step = s;
        faults.set_step(s);
        let held = bufs.strip.capacity() + halo.frame.capacity();
        let stepped = step_tiles::<D2>(
            solver,
            &mut set,
            std::slice::from_mut(tile),
            &mut halo,
            &mut timing,
            &mut bufs.strip,
            &mut untraced,
        );
        match stepped {
            Ok(()) => {}
            Err(_) if hard.load(Ordering::SeqCst) => return Ok(SegEnd::Killed),
            Err(_) => return Ok(SegEnd::Aborted(s)),
        }
        if bufs.strip.capacity() + halo.frame.capacity() != held {
            bufs.allocs += 1;
        }
        if cfg.record {
            push_entry(
                &mut halo.log,
                &LogEntry::StepHash {
                    step: tile.step,
                    hash: state_hash2(tile),
                },
            );
        }
        ctrl.progress(epoch, s + 1)?;
    }
    let t_stepped = Instant::now();
    let ckpt = SealedDump::of_tile2(tile);
    let chaos = faults.counts();
    ctrl.send(&Msg::SegDone {
        epoch,
        step: until,
        state_hash: ckpt.seal(),
        ckpt: ckpt.into_bytes(),
        log: std::mem::take(&mut halo.log),
        t_calc_us: timing.t_calc.as_micros() as u64,
        t_com_us: timing.t_com.as_micros() as u64,
        msgs_sent: timing.msgs_sent,
        doubles_sent: timing.doubles_sent,
        chaos_loss: chaos[0] - chaos_base[0],
        chaos_dup: chaos[1] - chaos_base[1],
        chaos_reorder: chaos[2] - chaos_base[2],
        chaos_part: chaos[3] - chaos_base[3],
    })?;
    Ok(SegEnd::Committed(t_stepped))
}

/// Runs the worker state machine over an already-connected control link.
///
/// `switchboard` is required for the in-memory transport; `hard` is the
/// thread-host kill switch (a process worker passes a flag nobody sets —
/// its SIGKILL needs no cooperation).
pub fn worker_run(
    link: Link,
    worker: u32,
    switchboard: Option<Arc<Switchboard>>,
    hard: Arc<AtomicBool>,
) -> Result<(), NetError> {
    let recorder = FlightRecorder::enabled(2048);
    let mut track = recorder.track(worker + 1, 0, "net-worker", "main");
    let t_hello = Instant::now();

    let mut ctrl = Ctrl {
        tx: link.tx,
        last_sent: Instant::now(),
    };
    let (q_tx, q): (Sender<CtrlEvent>, Receiver<CtrlEvent>) = channel();
    let soft = Arc::new(AtomicBool::new(false));
    let reader_soft = Arc::clone(&soft);
    // blocks on the link; ends when the link does — closed by the
    // supervisor, or by this worker dropping `ctrl` below
    let reader = spawn_msg_reader(link.rx, q_tx, move |msg| match msg {
        Some(msg) => {
            if matches!(msg, Msg::Abort { .. } | Msg::Rollback { .. }) {
                reader_soft.store(true, Ordering::SeqCst);
            }
            CtrlEvent::Msg(msg)
        }
        None => CtrlEvent::Lost,
    });

    let result = worker_loop(
        &mut ctrl,
        &q,
        worker,
        switchboard,
        &soft,
        &hard,
        &recorder,
        &mut track,
        t_hello,
    );
    // close the link (the last frame this worker had to say, `Tracks`, is
    // written; nothing inbound is needed any more): the reader sees EOF
    drop(ctrl);
    let _ = reader.join();
    result
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    ctrl: &mut Ctrl,
    q: &Receiver<CtrlEvent>,
    worker: u32,
    switchboard: Option<Arc<Switchboard>>,
    soft: &Arc<AtomicBool>,
    hard: &Arc<AtomicBool>,
    recorder: &FlightRecorder,
    track: &mut subsonic_obs::TrackRecorder,
    t_hello: Instant,
) -> Result<(), NetError> {
    ctrl.send(&Msg::Hello { worker })?;
    let (cfg, ckpt) = loop {
        // nothing but Init is valid pre-init; drop anything else
        if let Msg::Init { cfg, ckpt } = next_event(q, hard)? {
            break (cfg, ckpt);
        }
    };
    if cfg.worker != worker {
        return Err(NetError::Protocol(format!(
            "init for worker {} arrived at worker {worker}",
            cfg.worker
        )));
    }
    track.span_wall(Category::Sync, "handshake", t_hello, Instant::now());
    let solver = make_solver(cfg.solver);
    let mut tile = restore_tile2(&ckpt)?;
    drop(ckpt);
    let mut bufs = HaloBufs::default();
    let mut epoch = cfg.epoch;
    // one injector for the worker's whole life: the step loop ticks its step
    // clock, each mesh build resets its partition clock, committed segments
    // snapshot its counters
    let wire_faults = Arc::new(WireFaults::new(cfg.faults.clone(), worker));
    let peers: Vec<u32> = {
        let mut p: Vec<u32> = cfg
            .neighbors
            .iter()
            .copied()
            .filter(|&n| n != NO_NEIGHBOR)
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    };

    'mesh: loop {
        // ---- mesh phase ----
        let t_mesh = Instant::now();
        let binding = MeshBinding::bind(cfg.transport, &cfg.addr)?;
        let port = binding.port()?;
        ctrl.send(&Msg::DataPort { epoch, port })?;
        let ports = loop {
            match next_event(q, hard)? {
                Msg::PortMap { epoch: e, ports } if e == epoch => break ports,
                Msg::Rollback { epoch: e, ckpt, .. } if e > epoch => {
                    tile = restore_tile2(&ckpt)?;
                    epoch = e;
                    soft.store(false, Ordering::SeqCst);
                    continue 'mesh;
                }
                Msg::Done => {
                    return finish(ctrl, recorder, track);
                }
                _ => {} // stale epoch traffic
            }
        };
        let spec = MeshSpec {
            me: worker,
            epoch,
            peers: &peers,
            ports: &ports,
            deadline: MESH_DEADLINE,
            addr: &cfg.addr,
            faults: Some(Arc::clone(&wire_faults)),
        };
        let abort_soft = Arc::clone(soft);
        let abort_hard = Arc::clone(hard);
        let abort = move || abort_soft.load(Ordering::SeqCst) || abort_hard.load(Ordering::SeqCst);
        let mut mesh = match connect(binding, &spec, switchboard.as_deref(), &abort) {
            Ok(m) => m,
            Err(e) => {
                // a rollback racing the build cancels it; anything else is fatal
                if soft.load(Ordering::SeqCst) {
                    match wait_rollback(q, hard)? {
                        Some((new_epoch, ckpt)) => {
                            tile = restore_tile2(&ckpt)?;
                            epoch = new_epoch;
                            soft.store(false, Ordering::SeqCst);
                            continue 'mesh;
                        }
                        None => return finish(ctrl, recorder, track),
                    }
                }
                return Err(e);
            }
        };
        track.span_wall(Category::Net, "mesh build", t_mesh, Instant::now());
        ctrl.send(&Msg::MeshReady { epoch })?;

        // ---- running phase ----
        loop {
            match next_event(q, hard)? {
                Msg::Run {
                    epoch: e,
                    from,
                    until,
                    pause_at,
                } if e == epoch => {
                    let t_seg = Instant::now();
                    let end = run_segment(
                        solver.as_ref(),
                        &mut tile,
                        &mut mesh,
                        &mut bufs,
                        &cfg,
                        &wire_faults,
                        epoch,
                        from,
                        until,
                        pause_at,
                        ctrl,
                        soft,
                        hard,
                    )?;
                    track.span_wall(Category::Compute, "segment", t_seg, Instant::now());
                    match end {
                        SegEnd::Committed(t_stepped) => track.span_wall(
                            Category::Checkpoint,
                            "checkpoint ship",
                            t_stepped,
                            Instant::now(),
                        ),
                        SegEnd::Aborted(step) => {
                            track.instant_wall(Category::Fault, "worker failed", Instant::now());
                            ctrl.send(&Msg::SegFailed { epoch, step })?;
                        }
                        SegEnd::Killed => {
                            mesh.teardown();
                            return Err(NetError::Timeout("worker killed"));
                        }
                    }
                }
                Msg::Rollback { epoch: e, ckpt, .. } if e > epoch => {
                    mesh.teardown();
                    tile = restore_tile2(&ckpt)?;
                    epoch = e;
                    soft.store(false, Ordering::SeqCst);
                    track.instant_wall(Category::Recovery, "worker respawn", Instant::now());
                    continue 'mesh;
                }
                Msg::Done => {
                    mesh.teardown();
                    return finish(ctrl, recorder, track);
                }
                // Abort for the current epoch flips the soft flag in the
                // reader; stale traffic needs no action either way
                _ => {}
            }
        }
    }
}

/// Waits out the rollback that cancelled a mesh build (or `Done`).
fn wait_rollback(
    q: &Receiver<CtrlEvent>,
    hard: &AtomicBool,
) -> Result<Option<(u32, Vec<u8>)>, NetError> {
    loop {
        match next_event(q, hard)? {
            Msg::Rollback { epoch, ckpt, .. } => return Ok(Some((epoch, ckpt))),
            Msg::Done => return Ok(None),
            _ => {}
        }
    }
}

fn finish(
    ctrl: &mut Ctrl,
    recorder: &FlightRecorder,
    track: &mut subsonic_obs::TrackRecorder,
) -> Result<(), NetError> {
    track.instant_wall(Category::Sync, "run done", Instant::now());
    track.finish();
    let blob = encode_tracks(&recorder.finished_tracks());
    ctrl.send(&Msg::Tracks { blob })?;
    Ok(())
}

/// Entry point of the `net-worker` binary: the paper's port-file handshake.
///
/// Reads `SUBSONIC_NET_DIR` and `SUBSONIC_NET_WORKER` from the environment,
/// polls the run directory for the supervisor's `ports` file, dials the
/// control port it names and hands off to [`worker_run`].
pub fn process_worker_main() -> Result<(), NetError> {
    let dir = std::env::var("SUBSONIC_NET_DIR")
        .map_err(|_| NetError::Protocol("SUBSONIC_NET_DIR not set".into()))?;
    let worker: u32 = std::env::var("SUBSONIC_NET_WORKER")
        .ok()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| NetError::Protocol("SUBSONIC_NET_WORKER not set".into()))?;
    let port_file = std::path::Path::new(&dir).join("ports");
    let t0 = Instant::now();
    let port: u16 = loop {
        if t0.elapsed() > Duration::from_secs(30) {
            return Err(NetError::Timeout("port file"));
        }
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Some(p) = text
                .lines()
                .find_map(|l| l.strip_prefix("control="))
                .and_then(|p| p.trim().parse().ok())
            {
                break p;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let addr = crate::supervisor::default_host_addr();
    let stream = loop {
        if t0.elapsed() > Duration::from_secs(30) {
            return Err(NetError::Timeout("control dial"));
        }
        match std::net::TcpStream::connect((addr.as_str(), port)) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let link = crate::link::tcp_link(stream)?;
    worker_run(link, worker, None, Arc::new(AtomicBool::new(false)))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::chaos::ChaosSpec;
    use crate::link::mem_pair;
    use crate::wire::{decode_msg, TransportKind, NO_PAUSE};
    use subsonic_exec::Problem2;
    use subsonic_grid::Geometry2;
    use subsonic_solvers::FluidParams;

    /// A halo frame names its sender's face in one byte. Only bytes 0..4
    /// are 2D faces; anything else (a 3D face, a corrupt or hostile byte)
    /// maps to no face, so the frame is dropped before it can index the
    /// four-slot neighbour table or wait in the inbox.
    #[test]
    fn wire_face_bytes_past_the_four_2d_faces_are_dropped() {
        for byte in [4u8, 5, 255] {
            assert_eq!(face_from_index(byte), None, "face byte {byte}");
        }
        let faces = [Face::West, Face::East, Face::South, Face::North];
        for (byte, face) in (0u8..).zip(faces) {
            assert_eq!(face_from_index(byte), Some(face));
            assert_eq!(face_from_index(byte ^ 1), Some(face.opposite()));
        }
    }

    /// Runs one fault-free segment of `steps` steps on two workers meshed
    /// over the switchboard and returns each worker's buffer-growth count.
    fn segment_allocs(steps: u64) -> Vec<u64> {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1.5e-5;
        let problem = Problem2::new(Geometry2::channel(24, 16, 2), 2, 1, params)
            .with_init(|x, y| (1.0 + 1e-3 * (x as f64) + 2e-3 * (y as f64), 0.0, 0.0));
        let solver = make_solver(SolverKind::LatticeBoltzmann);
        let sw = Switchboard::default();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2u32)
                .map(|me| {
                    let (problem, solver, sw) = (&problem, &solver, &sw);
                    scope.spawn(move || {
                        let peer = 1 - me;
                        let cfg = WorkerConfig {
                            worker: me,
                            nworkers: 2,
                            solver: SolverKind::LatticeBoltzmann,
                            transport: TransportKind::Mem,
                            epoch: 0,
                            start_step: 0,
                            // periodic in x: the one peer is on both sides
                            neighbors: [peer, peer, NO_NEIGHBOR, NO_NEIGHBOR],
                            record: false,
                            addr: String::new(),
                            faults: ChaosSpec::default(),
                        };
                        let spec = MeshSpec {
                            me,
                            epoch: 0,
                            peers: &[peer],
                            ports: &[0, 0],
                            deadline: MESH_DEADLINE,
                            addr: "",
                            faults: None,
                        };
                        let mut mesh =
                            connect(MeshBinding::Mem, &spec, Some(sw), &|| false).unwrap();
                        let mut tile =
                            problem.make_tile(solver.as_ref(), problem.active_tiles()[me as usize]);
                        let mut bufs = HaloBufs::default();
                        // the far end stays open (and unread) for the segment
                        let (near, _far) = mem_pair();
                        let mut ctrl = Ctrl {
                            tx: near.tx,
                            last_sent: Instant::now(),
                        };
                        let flag = AtomicBool::new(false);
                        let end = run_segment(
                            solver.as_ref(),
                            &mut tile,
                            &mut mesh,
                            &mut bufs,
                            &cfg,
                            &WireFaults::new(ChaosSpec::default(), me),
                            0,
                            0,
                            steps,
                            NO_PAUSE,
                            &mut ctrl,
                            &flag,
                            &flag,
                        )
                        .unwrap();
                        assert!(matches!(end, SegEnd::Committed(_)));
                        assert_eq!(tile.step, steps);
                        assert!(bufs.inbox.is_empty(), "a committed segment leaves no frame");
                        bufs.allocs
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        })
    }

    #[test]
    fn a_longer_segment_allocates_no_more_buffers() {
        let short = segment_allocs(50);
        let long = segment_allocs(100);
        assert!(
            short.iter().all(|&allocs| allocs > 0),
            "the buffers start empty and must grow"
        );
        // they grow during the first steps and never again: twice the steps,
        // the same allocations
        assert_eq!(short, long);
    }

    #[test]
    fn progress_is_sent_only_after_a_silent_period() {
        let (near, mut far) = mem_pair();
        let mut ctrl = Ctrl {
            tx: near.tx,
            // spoke "in the future": not silent yet, however slow this test runs
            last_sent: Instant::now() + Duration::from_secs(3600),
        };
        ctrl.progress(0, 1).unwrap();
        let err = far.rx.recv(Duration::from_millis(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        let silent_since = Instant::now() - PROGRESS_PERIOD;
        ctrl.last_sent = silent_since;
        ctrl.progress(0, 2).unwrap();
        let frame = far.rx.recv(Duration::from_secs(5)).unwrap();
        assert_eq!(
            decode_msg(&frame).unwrap(),
            Msg::Progress { epoch: 0, step: 2 }
        );
        assert!(
            ctrl.last_sent > silent_since,
            "speaking restarts the period"
        );
    }
}
