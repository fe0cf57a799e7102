//! Reliable halo delivery over UDP datagrams (the paper's Appendix D).
//!
//! Skordos ran the halo traffic over raw UDP with a hand-rolled
//! acknowledgement/retransmission protocol because TCP's per-connection
//! buffers were too expensive on 1994 workstations. This module is that
//! design point made concrete: one UDP socket per worker, every DATA
//! datagram carries a per-peer sequence number, receivers ACK each sequence
//! and suppress duplicates, and the sender retransmits on an RFC 6298
//! timeout with exponential backoff. The sequencing/RTT/dedup state machine
//! is *reused* from `subsonic_cluster::transport` — the same
//! [`TransportState`]/[`RttEstimator`] that drive the discrete-event cluster
//! simulation now run against wall-clock time and a real socket, so the
//! simulated and real protocols cannot drift apart.
//!
//! A service thread owns the socket: it delivers in-order frames to the mesh
//! event stream, ACKs inbound DATA, and scans outstanding messages for due
//! retransmissions every few milliseconds. Fault injection is plan-driven
//! (see [`crate::chaos`]): first transmissions consult the [`WireFaults`]
//! injector for a deterministic drop/duplicate/hold fate, and every outbound
//! datagram — DATA, retransmission or ACK — is filtered by its partition
//! islands. The retransmission path must then deliver everything anyway, and
//! the in-order layer keeps the solver oblivious.
//!
//! Datagrams are epoch-tagged; a datagram from a pre-rollback world is
//! silently dropped (its sender state died with the old mesh).

use crate::chaos::{ChaosSpec, SendFate, WireFaults, REORDER_HOLD_S};
use crate::mesh::{Mesh, MeshEvent, MeshSpec};
use crate::wire::MAX_FRAME;
use crate::NetError;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use subsonic_cluster::transport::{TransportConfig, TransportState};

const DGRAM_MAGIC: u32 = 0x5544_5031; // "UDP1"
const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;
/// Loopback datagrams comfortably carry halo strips; anything bigger is a
/// protocol bug, not a fragmentation strategy.
const MAX_DGRAM_PAYLOAD: usize = 60_000;

/// A bound UDP endpoint awaiting the port map.
pub struct UdpBinding {
    socket: UdpSocket,
}

impl UdpBinding {
    /// Binds a fresh socket on `addr` (OS-picked port).
    pub fn bind(addr: &str) -> Result<UdpBinding, NetError> {
        let socket = UdpSocket::bind((addr, 0)).map_err(NetError::Io)?;
        Ok(UdpBinding { socket })
    }

    /// The bound port.
    pub fn port(&self) -> Result<u16, NetError> {
        Ok(self.socket.local_addr().map_err(NetError::Io)?.port())
    }
}

/// Sender-side bookkeeping the cluster state machine doesn't hold: the
/// actual payload (for retransmission) and the wall-clock due time.
struct Pending {
    peer: u32,
    payload: Vec<u8>,
    due: f64,
}

struct Core {
    me: u32,
    epoch: u32,
    socket: UdpSocket,
    peer_port: HashMap<u32, u16>,
    cfg: TransportConfig,
    state: TransportState,
    /// Outstanding payloads keyed like `TransportState::outstanding`.
    pending: BTreeMap<(usize, usize, u64), Pending>,
    /// In-order reassembly: next expected seq and stashed out-of-order
    /// frames, per peer.
    next_expected: HashMap<u32, u64>,
    stash: HashMap<u32, BTreeMap<u64, Vec<u8>>>,
    /// Wall clock for the RFC 6298 machinery (seconds since mesh build).
    t0: Instant,
    /// Address peers are dialled on.
    addr: String,
    /// Plan-driven wire-fault injector (no-op when the plan is empty).
    faults: Arc<WireFaults>,
}

impl Core {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn dgram(&self, kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut b = Vec::with_capacity(payload.len() + 21);
        b.extend_from_slice(&DGRAM_MAGIC.to_le_bytes());
        b.extend_from_slice(&self.epoch.to_le_bytes());
        b.push(kind);
        b.extend_from_slice(&self.me.to_le_bytes());
        b.extend_from_slice(&seq.to_le_bytes());
        b.extend_from_slice(payload);
        b
    }

    fn send_to_peer(&self, peer: u32, dgram: &[u8]) {
        if self.faults.blocked(peer) {
            return; // partition island boundary: cut DATA, retx and ACKs alike
        }
        if let Some(&port) = self.peer_port.get(&peer) {
            // a full socket buffer or a vanished peer is indistinguishable
            // from loss; the retransmission timer owns recovery either way
            let _ = self.socket.send_to(dgram, (self.addr.as_str(), port));
        }
    }

    /// Queues one frame to `peer` reliably.
    fn send_data(&mut self, peer: u32, frame: &[u8]) -> io::Result<()> {
        if frame.len() > MAX_DGRAM_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("halo frame of {} bytes exceeds datagram cap", frame.len()),
            ));
        }
        let now = self.now();
        let seq = self.state.alloc_seq(self.me as usize, peer as usize);
        let rto = self.state.register(
            &self.cfg,
            (self.me as usize, peer as usize, seq),
            frame.len() as f64,
            0,
            0,
            now,
        );
        self.pending.insert(
            (self.me as usize, peer as usize, seq),
            Pending {
                peer,
                payload: frame.to_vec(),
                due: now + rto,
            },
        );
        match self.faults.first_send_fate(peer, seq) {
            SendFate::Drop => {}
            SendFate::Hold => {
                // withhold the first copy and pull the retransmission timer
                // in close: the retx path releases it after later same-step
                // traffic has overtaken it on the wire
                let key = (self.me as usize, peer as usize, seq);
                if let Some(p) = self.pending.get_mut(&key) {
                    p.due = now + REORDER_HOLD_S;
                }
            }
            fate @ (SendFate::Deliver | SendFate::Dup) => {
                let dgram = self.dgram(KIND_DATA, seq, frame);
                self.send_to_peer(peer, &dgram);
                if fate == SendFate::Dup {
                    self.send_to_peer(peer, &dgram);
                }
            }
        }
        Ok(())
    }

    /// Retransmits everything past its due time, with exponential backoff.
    fn retransmit_due(&mut self) {
        let now = self.now();
        let due: Vec<(usize, usize, u64)> = self
            .pending
            .iter()
            .filter(|(_, p)| p.due <= now)
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            let rto = match self.state.outstanding.get_mut(&key) {
                Some(out) => {
                    out.attempts += 1;
                    out.rto = (out.rto * self.cfg.rto_backoff).min(self.cfg.max_rto_s);
                    out.rto
                }
                None => {
                    // acked between the scan and now
                    self.pending.remove(&key);
                    continue;
                }
            };
            let (peer, dgram) = match self.pending.get(&key) {
                Some(p) => (p.peer, self.dgram(KIND_DATA, key.2, &p.payload)),
                None => continue,
            };
            self.send_to_peer(peer, &dgram);
            let due = self.now() + rto;
            if let Some(p) = self.pending.get_mut(&key) {
                p.due = due;
            }
        }
    }

    /// Handles one inbound datagram, delivering in-order frames to `events`.
    fn on_dgram(&mut self, buf: &[u8], events: &Sender<MeshEvent>) {
        if buf.len() < 21 {
            return;
        }
        let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let epoch = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if magic != DGRAM_MAGIC || epoch != self.epoch {
            return; // garbage or a stale pre-rollback world
        }
        let kind = buf[8];
        let from = u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]);
        let mut seq_b = [0u8; 8];
        seq_b.copy_from_slice(&buf[13..21]);
        let seq = u64::from_le_bytes(seq_b);
        let payload = &buf[21..];
        match kind {
            KIND_DATA => {
                // always re-ACK — the ACK itself may have been lost
                let ack = self.dgram(KIND_ACK, seq, &[]);
                self.send_to_peer(from, &ack);
                if self
                    .state
                    .mark_delivered(from as usize, self.me as usize, seq)
                {
                    self.stash
                        .entry(from)
                        .or_default()
                        .insert(seq, payload.to_vec());
                }
                // drain the in-order prefix
                let next = self.next_expected.entry(from).or_insert(1);
                if let Some(stash) = self.stash.get_mut(&from) {
                    while let Some(frame) = stash.remove(next) {
                        let _ = events.send(MeshEvent::Frame {
                            from,
                            payload: frame,
                        });
                        *next += 1;
                    }
                }
            }
            KIND_ACK => {
                let now = self.now();
                if self
                    .state
                    .on_ack(self.me as usize, from as usize, seq, now)
                    .is_some()
                {
                    self.pending.remove(&(self.me as usize, from as usize, seq));
                }
            }
            _ => {}
        }
    }
}

/// Per-peer sending handle: all peers share the one core.
struct UdpTx {
    peer: u32,
    core: Arc<Mutex<Core>>,
}

impl crate::link::FrameTx for UdpTx {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        match self.core.lock() {
            Ok(mut core) => core.send_data(self.peer, frame),
            Err(_) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "udp core poisoned",
            )),
        }
    }
}

/// Assembles a [`Mesh`] over one UDP socket: per-peer senders plus the
/// service thread that receives, ACKs and retransmits.
pub(crate) fn build_mesh(
    binding: UdpBinding,
    spec: &MeshSpec<'_>,
    events_tx: Sender<MeshEvent>,
    events_rx: Receiver<MeshEvent>,
    shutdown: Arc<AtomicBool>,
) -> Result<Mesh, NetError> {
    let socket = binding.socket;
    socket
        .set_read_timeout(Some(Duration::from_millis(5)))
        .map_err(NetError::Io)?;
    let mut peer_port = HashMap::new();
    for &p in spec.peers {
        let port = *spec
            .ports
            .get(p as usize)
            .ok_or_else(|| NetError::Protocol(format!("port map has no entry for worker {p}")))?;
        peer_port.insert(p, port);
    }
    let cfg = TransportConfig {
        // wall-clock loopback: retransmit aggressively, cap low — these are
        // test-scale runs, not 1994 Ethernet
        min_rto_s: 0.02,
        max_rto_s: 0.5,
        initial_rto_s: 0.05,
        ..TransportConfig::default()
    };
    let faults = spec
        .faults
        .clone()
        .unwrap_or_else(|| Arc::new(WireFaults::new(ChaosSpec::default(), spec.me)));
    // partition windows are relative to each mesh epoch's start
    faults.reset_epoch();
    let core = Arc::new(Mutex::new(Core {
        me: spec.me,
        epoch: spec.epoch,
        socket: socket.try_clone().map_err(NetError::Io)?,
        peer_port,
        cfg,
        state: TransportState::default(),
        pending: BTreeMap::new(),
        next_expected: HashMap::new(),
        stash: HashMap::new(),
        t0: Instant::now(),
        addr: spec.addr.to_string(),
        faults,
    }));

    let mut tx: HashMap<u32, Box<dyn crate::link::FrameTx>> = HashMap::new();
    for &p in spec.peers {
        tx.insert(
            p,
            Box::new(UdpTx {
                peer: p,
                core: Arc::clone(&core),
            }),
        );
    }

    let service_core = Arc::clone(&core);
    let service_shutdown = Arc::clone(&shutdown);
    let service = std::thread::spawn(move || {
        let mut buf = vec![0u8; MAX_DGRAM_PAYLOAD + 64];
        while !service_shutdown.load(Ordering::SeqCst) {
            match socket.recv_from(&mut buf) {
                Ok((n, _)) => {
                    if let Ok(mut core) = service_core.lock() {
                        core.on_dgram(&buf[..n], &events_tx);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) => {}
                Err(_) => return,
            }
            if let Ok(mut core) = service_core.lock() {
                core.retransmit_due();
            }
        }
    });

    let _ = MAX_FRAME; // datagram cap is stricter; frame cap enforced upstream
    Ok(Mesh {
        tx,
        events: events_rx,
        returns: HashMap::new(),
        shutdown,
        threads: vec![service],
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::mesh::{connect, MeshBinding};
    use crate::wire::{decode_msg, encode_msg, Msg, TransportKind};

    fn pair(faults_a: Option<Arc<WireFaults>>) -> (Mesh, Mesh) {
        let a = MeshBinding::bind(TransportKind::Udp, "127.0.0.1").unwrap();
        let b = MeshBinding::bind(TransportKind::Udp, "127.0.0.1").unwrap();
        let ports = vec![a.port().unwrap(), b.port().unwrap()];
        let spec_a = MeshSpec {
            me: 0,
            epoch: 0,
            peers: &[1],
            ports: &ports,
            deadline: Duration::from_secs(5),
            addr: "127.0.0.1",
            faults: faults_a,
        };
        let spec_b = MeshSpec {
            me: 1,
            epoch: 0,
            peers: &[0],
            ports: &ports,
            deadline: Duration::from_secs(5),
            addr: "127.0.0.1",
            faults: None,
        };
        let ma = connect(a, &spec_a, None, &|| false).unwrap();
        let mb = connect(b, &spec_b, None, &|| false).unwrap();
        (ma, mb)
    }

    fn injector(loss: f64, dup: f64, reorder: f64) -> Option<Arc<WireFaults>> {
        let plan = subsonic_cluster::fault::FaultPlan::empty()
            .msg_fault(None, None, 0.0, 1e12, loss, dup, reorder);
        Some(Arc::new(WireFaults::new(
            ChaosSpec::compile(&plan, 0x5eed, 2),
            0,
        )))
    }

    fn halo(step: u64) -> Vec<u8> {
        encode_msg(&Msg::Halo {
            epoch: 0,
            step,
            xch: 0,
            face: 1,
            data: vec![step as f64; 8],
        })
    }

    fn recv_frame(m: &mut Mesh) -> Vec<u8> {
        match m.recv(Duration::from_secs(10)).unwrap() {
            MeshEvent::Frame { payload, .. } => payload,
            MeshEvent::Gone { .. } => panic!("unexpected Gone"),
        }
    }

    #[test]
    fn lossless_delivery_is_in_order() {
        let (mut a, mut b) = pair(None);
        for s in 0..20u64 {
            a.send(1, &halo(s)).unwrap();
        }
        for s in 0..20u64 {
            let f = recv_frame(&mut b);
            match decode_msg(&f).unwrap() {
                Msg::Halo { step, .. } => assert_eq!(step, s, "out-of-order delivery"),
                other => panic!("unexpected {other:?}"),
            }
        }
        a.teardown();
        b.teardown();
    }

    #[test]
    fn injected_drops_are_recovered_by_retransmission() {
        // ~1/3 of first transmissions from a are dropped by the plan; the
        // RFC 6298 timers must deliver everything anyway, in order
        let (mut a, mut b) = pair(injector(0.34, 0.0, 0.0));
        for s in 0..15u64 {
            a.send(1, &halo(s)).unwrap();
        }
        for s in 0..15u64 {
            let f = recv_frame(&mut b);
            match decode_msg(&f).unwrap() {
                Msg::Halo { step, .. } => assert_eq!(step, s, "loss broke ordering"),
                other => panic!("unexpected {other:?}"),
            }
        }
        a.teardown();
        b.teardown();
    }

    #[test]
    fn duplicates_and_reorders_are_absorbed() {
        // heavy duplication + reorder: the receiver's dedup and in-order
        // reassembly must hand the solver each frame exactly once, in order
        let (mut a, mut b) = pair(injector(0.0, 0.5, 0.5));
        for s in 0..15u64 {
            a.send(1, &halo(s)).unwrap();
        }
        for s in 0..15u64 {
            let f = recv_frame(&mut b);
            match decode_msg(&f).unwrap() {
                Msg::Halo { step, .. } => assert_eq!(step, s, "dup/reorder broke exactly-once"),
                other => panic!("unexpected {other:?}"),
            }
        }
        a.teardown();
        b.teardown();
    }
}
