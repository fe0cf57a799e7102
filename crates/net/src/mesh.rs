//! The worker-to-worker data plane: one mesh of frame links per epoch.
//!
//! A [`Mesh`] is what a worker sees after the bootstrap dance: a sender per
//! neighbouring worker plus one merged event stream of inbound frames. One
//! reader thread per link blocks on its socket and normalises every
//! transport to that shape. The thread is what makes "post every send of a
//! stage, then receive" deadlock-free for any strip size: a strip larger
//! than a socket buffer only leaves the sender because the peer's reader is
//! draining it while the peer itself is still sending. Consumed frame
//! buffers go back to the reader ([`Mesh::recycle`]), so the steady state
//! allocates nothing per frame. Peer death surfaces as a
//! [`MeshEvent::Gone`] (TCP reset / closed channel); the UDP plane has no
//! connection state and relies on the supervisor's abort directive instead.
//!
//! Meshes are epoch-scoped. A rollback tears the whole mesh down and builds
//! a fresh one under `epoch + 1`: TCP dials new connections whose `Identify`
//! frame names the epoch (stale dials are refused), UDP datagrams carry the
//! epoch and stale ones are dropped, and the in-memory switchboard keys
//! channels by epoch. Nothing sent before a rollback can reach a solver
//! after it.

use crate::chaos::WireFaults;
use crate::link::{tcp_link, Acceptor, FrameRx, FrameTx, Link, Switchboard, BLOCK};
use crate::wire::{decode_msg, encode_msg, Msg, TransportKind};
use crate::NetError;
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a mesh build waiting for dials re-checks its abort flag and
/// deadline; a dial itself ends the wait at once.
const ABORT_POLL: Duration = Duration::from_millis(50);

/// One event from the merged inbound stream.
#[derive(Debug)]
pub enum MeshEvent {
    /// A frame from `from`.
    Frame {
        /// Sending worker.
        from: u32,
        /// Raw frame payload (decode with `wire::decode_msg`).
        payload: Vec<u8>,
    },
    /// The link to `from` died (EOF, reset, or dropped channel).
    Gone {
        /// The dead peer.
        from: u32,
    },
}

/// A connected, epoch-scoped data plane.
pub struct Mesh {
    pub(crate) tx: HashMap<u32, Box<dyn FrameTx>>,
    pub(crate) events: Receiver<MeshEvent>,
    /// Buffer-return edge to each link's reader.
    pub(crate) returns: HashMap<u32, Sender<Vec<u8>>>,
    /// Stops the UDP service thread, which has no link to see closed.
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) threads: Vec<JoinHandle<()>>,
}

impl Mesh {
    /// Sends one frame to `peer`.
    pub fn send(&mut self, peer: u32, frame: &[u8]) -> io::Result<()> {
        match self.tx.get_mut(&peer) {
            Some(tx) => tx.send(frame),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("no link to worker {peer}"),
            )),
        }
    }

    /// Waits up to `timeout` for the next inbound event.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<MeshEvent> {
        match self.events.recv_timeout(timeout) {
            Ok(ev) => Ok(ev),
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no mesh event within timeout",
            )),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "all mesh readers exited",
            )),
        }
    }

    /// Hands the buffer of a consumed [`MeshEvent::Frame`] back to the
    /// reader of `from`'s link, which receives its next frame into it.
    pub fn recycle(&mut self, from: u32, payload: Vec<u8>) {
        if let Some(returns) = self.returns.get(&from) {
            let _ = returns.send(payload);
        }
    }

    /// Tears the mesh down: closes every link, then joins the readers. This
    /// is what dropping a mesh does; the call names the intent.
    pub fn teardown(self) {}

    /// Installs an established link: its sender, and a reader thread feeding
    /// `events`.
    fn install(&mut self, peer: u32, link: Link, events: &Sender<MeshEvent>) {
        let (returns_tx, returns) = channel();
        self.tx.insert(peer, link.tx);
        self.returns.insert(peer, returns_tx);
        self.threads
            .push(spawn_reader(peer, link.rx, events.clone(), returns));
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // closing the senders first is what ends the readers: each is
        // blocked on a link that now reports EOF (and the peers see it too)
        self.tx.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A bound but not yet connected data-plane endpoint; exists so the worker
/// can report its port *before* the all-ports map arrives.
pub enum MeshBinding {
    /// TCP listener awaiting neighbour dials.
    Tcp(TcpListener),
    /// Bound UDP socket.
    Udp(crate::udp::UdpBinding),
    /// Switchboard rendezvous (no OS resource to bind).
    Mem,
}

impl MeshBinding {
    /// Binds a data-plane endpoint for `kind` on `addr` (an IP or hostname,
    /// no port — the OS picks one).
    pub fn bind(kind: TransportKind, addr: &str) -> Result<MeshBinding, NetError> {
        match kind {
            TransportKind::Tcp => Ok(MeshBinding::Tcp(
                TcpListener::bind((addr, 0)).map_err(NetError::Io)?,
            )),
            TransportKind::Udp => Ok(MeshBinding::Udp(crate::udp::UdpBinding::bind(addr)?)),
            TransportKind::Mem => Ok(MeshBinding::Mem),
        }
    }

    /// The port to publish in `DataPort` (0 for the switchboard).
    pub fn port(&self) -> Result<u16, NetError> {
        match self {
            MeshBinding::Tcp(l) => Ok(l.local_addr().map_err(NetError::Io)?.port()),
            MeshBinding::Udp(b) => b.port(),
            MeshBinding::Mem => Ok(0),
        }
    }
}

/// Everything `connect` needs to wire a mesh.
pub struct MeshSpec<'a> {
    /// This worker.
    pub me: u32,
    /// Epoch the mesh belongs to.
    pub epoch: u32,
    /// Unique neighbouring worker ids.
    pub peers: &'a [u32],
    /// Data port per worker id (from the supervisor's `PortMap`).
    pub ports: &'a [u16],
    /// Hard bound on the whole mesh build.
    pub deadline: Duration,
    /// Address peers dial each other on (one machine for now, so a single
    /// address covers the whole mesh).
    pub addr: &'a str,
    /// Wire-fault injector for the UDP data plane (`None` = clean wire).
    /// Shared with the worker's step loop, which ticks its step clock.
    pub faults: Option<Arc<WireFaults>>,
}

/// Spawns the reader thread for one established link: a blocking read per
/// frame, into a buffer the consumer handed back when there is one. The
/// thread ends when the link does — closed from either side.
fn spawn_reader(
    peer: u32,
    mut rx: Box<dyn FrameRx>,
    events: Sender<MeshEvent>,
    returns: Receiver<Vec<u8>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        let mut payload = returns.try_recv().unwrap_or_default();
        let event = match rx.recv_into(BLOCK, &mut payload) {
            Ok(()) => MeshEvent::Frame {
                from: peer,
                payload,
            },
            Err(_) => MeshEvent::Gone { from: peer },
        };
        let gone = matches!(event, MeshEvent::Gone { .. });
        if events.send(event).is_err() || gone {
            return;
        }
    })
}

/// Establishes every neighbour link and assembles the [`Mesh`].
///
/// TCP dialling is asymmetric to avoid crossed connections: the higher
/// worker id dials the lower id's listener and identifies itself (and the
/// epoch) in its first frame; dials for stale epochs are dropped by the
/// acceptor. `abort` is polled throughout so a rollback or kill can cancel
/// a half-built mesh.
pub fn connect(
    binding: MeshBinding,
    spec: &MeshSpec<'_>,
    switchboard: Option<&Switchboard>,
    abort: &dyn Fn() -> bool,
) -> Result<Mesh, NetError> {
    let t0 = Instant::now();
    let (events_tx, events_rx) = channel();
    let shutdown = Arc::new(AtomicBool::new(false));
    let listener = match binding {
        MeshBinding::Udp(udp_binding) => {
            return crate::udp::build_mesh(udp_binding, spec, events_tx, events_rx, shutdown);
        }
        MeshBinding::Tcp(listener) => Some(listener),
        MeshBinding::Mem => None,
    };
    // from here on an early return drops `mesh`, which closes the links
    // installed so far and joins their readers
    let mut mesh = Mesh {
        tx: HashMap::new(),
        events: events_rx,
        returns: HashMap::new(),
        shutdown,
        threads: Vec::new(),
    };

    match listener {
        None => {
            let sw = switchboard
                .ok_or_else(|| NetError::Protocol("mem transport requires a switchboard".into()))?;
            for &p in spec.peers {
                let link = sw.connect(spec.epoch, spec.me, p, spec.me).ok_or_else(|| {
                    NetError::Protocol(format!("switchboard link to {p} already taken"))
                })?;
                mesh.install(p, link, &events_tx);
            }
        }
        Some(listener) => {
            // dial every lower-id neighbour; its listener was bound before
            // its port was published, so only a dead peer makes this retry
            for &p in spec.peers.iter().filter(|&&p| p < spec.me) {
                let port = *spec.ports.get(p as usize).ok_or_else(|| {
                    NetError::Protocol(format!("port map has no entry for worker {p}"))
                })?;
                let stream = loop {
                    if abort() {
                        return Err(NetError::Timeout("mesh build aborted"));
                    }
                    if t0.elapsed() > spec.deadline {
                        return Err(NetError::Timeout("mesh dial"));
                    }
                    match TcpStream::connect((spec.addr, port)) {
                        Ok(s) => break s,
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                };
                let mut link = tcp_link(stream).map_err(NetError::Io)?;
                link.tx
                    .send(&encode_msg(&Msg::Identify {
                        worker: spec.me,
                        epoch: spec.epoch,
                    }))
                    .map_err(NetError::Io)?;
                mesh.install(p, link, &events_tx);
            }
            // accept every higher-id neighbour, woken by the dial itself
            let mut expected: Vec<u32> = spec
                .peers
                .iter()
                .copied()
                .filter(|&p| p > spec.me)
                .collect();
            if !expected.is_empty() {
                let acceptor = Acceptor::start(listener).map_err(NetError::Io)?;
                while !expected.is_empty() {
                    if abort() {
                        return Err(NetError::Timeout("mesh build aborted"));
                    }
                    if t0.elapsed() > spec.deadline {
                        return Err(NetError::Timeout("mesh accept"));
                    }
                    match acceptor.next(ABORT_POLL) {
                        // the first frame must identify the dialler and epoch
                        Ok((first, link)) => match decode_msg(&first) {
                            Ok(Msg::Identify { worker, epoch }) if epoch == spec.epoch => {
                                if let Some(at) = expected.iter().position(|&w| w == worker) {
                                    expected.remove(at);
                                    mesh.install(worker, link, &events_tx);
                                }
                                // an unexpected id is dropped on the floor
                            }
                            // stale epoch or garbage: drop the connection
                            _ => {}
                        },
                        Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                        Err(e) => return Err(NetError::Io(e)),
                    }
                }
            }
        }
    }
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn build_pair(kind: TransportKind) -> (Mesh, Mesh) {
        let sw = Arc::new(Switchboard::default());
        let b0 = MeshBinding::bind(kind, "127.0.0.1").unwrap();
        let b1 = MeshBinding::bind(kind, "127.0.0.1").unwrap();
        let ports = vec![b0.port().unwrap(), b1.port().unwrap()];
        let never = || false;
        let sw0 = Arc::clone(&sw);
        let ports0 = ports.clone();
        let h = std::thread::spawn(move || {
            let spec = MeshSpec {
                me: 0,
                epoch: 0,
                peers: &[1],
                ports: &ports0,
                deadline: Duration::from_secs(10),
                addr: "127.0.0.1",
                faults: None,
            };
            connect(b0, &spec, Some(&sw0), &|| false).unwrap()
        });
        let spec = MeshSpec {
            me: 1,
            epoch: 0,
            peers: &[0],
            ports: &ports,
            deadline: Duration::from_secs(10),
            addr: "127.0.0.1",
            faults: None,
        };
        let m1 = connect(b1, &spec, Some(&sw), &never).unwrap();
        (h.join().unwrap(), m1)
    }

    fn halo_frame(step: u64) -> Vec<u8> {
        encode_msg(&Msg::Halo {
            epoch: 0,
            step,
            xch: 0,
            face: 1,
            data: vec![1.0, 2.0, step as f64],
        })
    }

    #[test]
    fn tcp_mesh_moves_frames_and_reports_death() {
        let (mut m0, mut m1) = build_pair(TransportKind::Tcp);
        m0.send(1, &halo_frame(3)).unwrap();
        match m1.recv(Duration::from_secs(5)).unwrap() {
            MeshEvent::Frame { from, payload } => {
                assert_eq!(from, 0);
                assert_eq!(
                    decode_msg(&payload).unwrap(),
                    decode_msg(&halo_frame(3)).unwrap()
                );
            }
            other => panic!("unexpected event {other:?}"),
        }
        m0.teardown();
        match m1.recv(Duration::from_secs(5)).unwrap() {
            MeshEvent::Gone { from } => assert_eq!(from, 0),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn mem_mesh_moves_frames_without_sockets() {
        let (mut m0, mut m1) = build_pair(TransportKind::Mem);
        m1.send(0, &halo_frame(7)).unwrap();
        match m0.recv(Duration::from_secs(5)).unwrap() {
            MeshEvent::Frame { from, .. } => assert_eq!(from, 1),
            other => panic!("unexpected event {other:?}"),
        }
        m1.teardown();
        match m0.recv(Duration::from_secs(5)).unwrap() {
            MeshEvent::Gone { from } => assert_eq!(from, 1),
            other => panic!("unexpected event {other:?}"),
        }
    }
}
