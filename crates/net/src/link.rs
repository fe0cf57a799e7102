//! Frame links: the byte-level transports a control or data connection runs
//! over.
//!
//! A link is a pair of half-duplex endpoints ([`FrameTx`], [`FrameRx`])
//! moving whole frames (the payloads of `wire::write_frame`). Two
//! implementations:
//!
//! * [`tcp_link`] — a loopback `TcpStream` split via `try_clone`. A frame
//!   leaves in one vectored write; the receive half reads the header and then
//!   the exact length straight into the frame buffer, keeping its place
//!   across read timeouts so a frame interrupted mid-flight resumes instead
//!   of desynchronising.
//! * In-memory channels ([`mem_pair`]) — `std::sync::mpsc` of owned frames;
//!   the sockets-free transport used by record/replay and the in-process
//!   host.
//!
//! Closing a link closes it: when the sending half of either implementation
//! is dropped, the local receiving half and the peer's both return
//! `UnexpectedEof` at once (TCP: `shutdown(Both)`, so the `try_clone`d read
//! half cannot keep the socket open). A reader thread can therefore block on
//! [`BLOCK`] and still be joined the moment its link is closed. Close only
//! when nothing inbound is still needed: unread bytes are discarded, and on
//! TCP a peer that writes into a closed link gets a reset.
//!
//! Both map peer death to `ErrorKind::UnexpectedEof`/`BrokenPipe` and
//! timeouts to `ErrorKind::TimedOut`/`WouldBlock`, which is all the callers
//! dispatch on.

use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::wire::{decode_msg, write_frame, Msg, MAX_FRAME};

/// The timeout that means "until a frame arrives or the link ends".
pub const BLOCK: Duration = Duration::MAX;

/// Sending half of a frame link.
pub trait FrameTx: Send {
    /// Queues one frame; an error means the peer is unreachable.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;
}

/// Receiving half of a frame link.
pub trait FrameRx: Send {
    /// Blocks up to `timeout` for the next frame. `TimedOut`/`WouldBlock`
    /// mean try again; `UnexpectedEof`/anything else means the link is gone.
    fn recv(&mut self, timeout: Duration) -> io::Result<Vec<u8>>;

    /// [`FrameRx::recv`] into a caller-owned buffer: on success `frame` holds
    /// the payload and the link keeps `frame`'s old allocation for the next
    /// one, so a reader that hands consumed buffers back stops allocating.
    fn recv_into(&mut self, timeout: Duration, frame: &mut Vec<u8>) -> io::Result<()> {
        *frame = self.recv(timeout)?;
        Ok(())
    }
}

/// A connected frame link, ready to split into its two halves.
pub struct Link {
    /// Sending half.
    pub tx: Box<dyn FrameTx>,
    /// Receiving half.
    pub rx: Box<dyn FrameRx>,
}

/// Spawns the reader of a control link: it blocks on the link, hands every
/// decoded message to `on` as `Some`, and ends — after one last `None` — when
/// the link does (closed from either side, or a frame that does not decode).
/// What `on` returns goes down `events`.
pub(crate) fn spawn_msg_reader<E: Send + 'static>(
    mut rx: Box<dyn FrameRx>,
    events: Sender<E>,
    mut on: impl FnMut(Option<Msg>) -> E + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        let msg = rx.recv(BLOCK).ok().and_then(|f| decode_msg(&f).ok());
        let ended = msg.is_none();
        if events.send(on(msg)).is_err() || ended {
            return;
        }
    })
}

// ---------------------------------------------------------------------------
// TCP

/// Sending half of a TCP link. Dropping it shuts the socket down in both
/// directions.
pub struct TcpTx {
    stream: TcpStream,
}

impl FrameTx for TcpTx {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, frame)
    }
}

impl Drop for TcpTx {
    fn drop(&mut self) {
        // the read half is a `try_clone` of this socket: without the
        // shutdown its descriptor would keep the connection open and neither
        // reader would ever see EOF
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// What [`TcpRx`] grows an undersized frame buffer to first.
const GROW_FLOOR: usize = 64 << 10;

/// Receiving half of a TCP link: remembers how far into a frame it is, so a
/// read timeout mid-frame resumes instead of desynchronising.
pub struct TcpRx {
    stream: TcpStream,
    /// `SO_RCVTIMEO` as last set on the socket (`None` = never set).
    timeout: Option<Option<Duration>>,
    header: [u8; 4],
    /// Bytes of the frame in flight already read, header included.
    got: usize,
    /// The frame in flight; swapped with the caller's buffer on completion.
    body: Vec<u8>,
}

/// One `read` into `buf`, retried if interrupted; a clean EOF is an error.
fn read_some(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match stream.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed the link",
                ))
            }
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

impl FrameRx for TcpRx {
    fn recv(&mut self, timeout: Duration) -> io::Result<Vec<u8>> {
        let mut frame = Vec::new();
        self.recv_into(timeout, &mut frame)?;
        Ok(frame)
    }

    fn recv_into(&mut self, timeout: Duration, frame: &mut Vec<u8>) -> io::Result<()> {
        // set_read_timeout(0) is invalid; clamp to something tiny instead
        let want = (timeout != BLOCK).then(|| timeout.max(Duration::from_millis(1)));
        if self.timeout != Some(want) {
            self.stream.set_read_timeout(want)?;
            self.timeout = Some(want);
        }
        const HEADER: usize = 4;
        while self.got < HEADER {
            self.got += read_some(&mut self.stream, &mut self.header[self.got..])?;
        }
        let len = u32::from_le_bytes(self.header) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap"),
            ));
        }
        while self.got < HEADER + len {
            let at = self.got - HEADER;
            if at >= self.body.len() {
                // grow with the bytes that arrive, not with the length field
                let grown = (self.body.len() * 2).max(GROW_FLOOR).min(len);
                self.body.resize(grown, 0);
            }
            let end = self.body.len().min(len);
            self.got += read_some(&mut self.stream, &mut self.body[at..end])?;
        }
        self.body.truncate(len);
        self.got = 0;
        std::mem::swap(frame, &mut self.body);
        Ok(())
    }
}

/// Splits a connected stream into a frame link.
pub fn tcp_link(stream: TcpStream) -> io::Result<Link> {
    stream.set_nodelay(true)?;
    let rx = TcpRx {
        stream: stream.try_clone()?,
        timeout: None,
        header: [0; 4],
        got: 0,
        body: Vec::new(),
    };
    Ok(Link {
        tx: Box::new(TcpTx { stream }),
        rx: Box::new(rx),
    })
}

/// How long an accepted connection may take to send its first frame before
/// it is dropped as a stray dial.
const FIRST_FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// A listener served by a thread: every accepted connection is turned into
/// a [`Link`], its first frame read, and both handed over a channel — so
/// whoever waits for dials blocks on the connection itself, with a deadline,
/// instead of polling a non-blocking socket.
pub(crate) struct Acceptor {
    dials: Receiver<io::Result<(Vec<u8>, Link)>>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    pub(crate) fn start(listener: TcpListener) -> io::Result<Acceptor> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, dials) = channel();
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::spawn(move || loop {
            let accepted = listener.accept();
            if thread_stop.load(Ordering::SeqCst) {
                return;
            }
            let dial = accepted.and_then(|(stream, _)| tcp_link(stream));
            let first = match dial {
                Ok(mut link) => match link.rx.recv(FIRST_FRAME_DEADLINE) {
                    Ok(frame) => Ok((frame, link)),
                    Err(_) => continue, // a dial that never speaks: drop it
                },
                Err(e) => Err(e),
            };
            let fatal = first.is_err();
            if tx.send(first).is_err() || fatal {
                return;
            }
        });
        Ok(Acceptor {
            dials,
            stop,
            addr,
            thread: Some(thread),
        })
    }

    /// The next connection's first frame and link, within `timeout`
    /// (`TimedOut` otherwise; any other error means the listener failed).
    pub(crate) fn next(&self, timeout: Duration) -> io::Result<(Vec<u8>, Link)> {
        match self.dials.recv_timeout(timeout) {
            Ok(dial) => dial,
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no dial within timeout",
            )),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "acceptor thread exited",
            )),
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // a blocking accept only returns on a connection: dial ourselves
        let woken = TcpStream::connect(self.addr).is_ok();
        if let Some(thread) = self.thread.take() {
            if woken || thread.is_finished() {
                let _ = thread.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory

/// `None` closes the link: no frame follows it.
type MemFrame = Option<Vec<u8>>;

/// Sending half of an in-memory link. Dropping it closes the link for both
/// receiving halves.
pub struct MemTx {
    peer: Sender<MemFrame>,
    local: Sender<MemFrame>,
}

impl FrameTx for MemTx {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.peer
            .send(Some(frame.to_vec()))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped the link"))
    }
}

impl Drop for MemTx {
    fn drop(&mut self) {
        let _ = self.peer.send(None);
        let _ = self.local.send(None);
    }
}

/// Receiving half of an in-memory link.
pub struct MemRx {
    rx: Receiver<MemFrame>,
    closed: bool,
}

impl FrameRx for MemRx {
    fn recv(&mut self, timeout: Duration) -> io::Result<Vec<u8>> {
        if !self.closed {
            match self.rx.recv_timeout(timeout) {
                Ok(Some(frame)) => return Ok(frame),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no frame within timeout",
                    ))
                }
                Ok(None) | Err(RecvTimeoutError::Disconnected) => self.closed = true,
            }
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "the link was closed",
        ))
    }
}

/// Creates a bidirectional in-memory link, returning the two ends.
pub fn mem_pair() -> (Link, Link) {
    let (to_b, b_rx) = channel();
    let (to_a, a_rx) = channel();
    let end = |peer: &Sender<MemFrame>, local: &Sender<MemFrame>, rx| Link {
        tx: Box::new(MemTx {
            peer: peer.clone(),
            local: local.clone(),
        }),
        rx: Box::new(MemRx { rx, closed: false }),
    };
    (end(&to_b, &to_a, a_rx), end(&to_a, &to_b, b_rx))
}

// ---------------------------------------------------------------------------
// Switchboard: rendezvous for in-memory data-plane links

use std::collections::HashMap;
use std::sync::Mutex;

type SlotEnds = (Option<Link>, Option<Link>);

/// In-process rendezvous point handing out data-plane [`Link`]s between
/// worker threads, keyed by `(epoch, lo, hi)`. The first caller of a key
/// creates both ends; each side collects its own. Fresh epochs get fresh
/// channels, so frames from a pre-rollback mesh can never leak into the new
/// one (the in-memory analogue of closing and re-opening sockets).
#[derive(Default)]
pub struct Switchboard {
    slots: Mutex<HashMap<(u32, u32, u32), SlotEnds>>,
}

impl Switchboard {
    /// Collects `me`'s end of the `(a, b)` link for `epoch`, creating the
    /// pair on first access. Returns `None` if this side already took its
    /// end (a protocol bug, surfaced to the caller as a dead link).
    pub fn connect(&self, epoch: u32, a: u32, b: u32, me: u32) -> Option<Link> {
        let (lo, hi) = (a.min(b), a.max(b));
        let mut slots = match self.slots.lock() {
            Ok(g) => g,
            Err(_) => return None,
        };
        let slot = slots.entry((epoch, lo, hi)).or_insert_with(|| {
            let (lo_end, hi_end) = mem_pair();
            (Some(lo_end), Some(hi_end))
        });
        if me == lo {
            slot.0.take()
        } else {
            slot.1.take()
        }
    }

    /// Drops every link of epochs older than `epoch` so stale ends unblock
    /// their peers.
    pub fn retire_before(&self, epoch: u32) {
        if let Ok(mut slots) = self.slots.lock() {
            slots.retain(|k, _| k.0 >= epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn mem_link_roundtrip_and_death() {
        let (mut a, mut b) = mem_pair();
        a.tx.send(b"hello").unwrap();
        assert_eq!(b.rx.recv(Duration::from_secs(1)).unwrap(), b"hello");
        let err = b.rx.recv(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop(a);
        let err = b.rx.recv(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        let err = b.tx.send(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn tcp_link_reassembles_across_timeouts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut a = tcp_link(client).unwrap();
        let mut b = tcp_link(server).unwrap();

        // nothing sent yet: the reader times out without losing sync
        let err = b.rx.recv(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(
            err.kind(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
        ));

        let big = vec![0xabu8; 200_000];
        a.tx.send(&big).unwrap();
        a.tx.send(b"tail").unwrap();
        assert_eq!(b.rx.recv(Duration::from_secs(5)).unwrap(), big);
        assert_eq!(b.rx.recv(Duration::from_secs(5)).unwrap(), b"tail");

        drop(a);
        let err = b.rx.recv(Duration::from_secs(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    fn tcp_pair() -> (Link, Link) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (tcp_link(client).unwrap(), tcp_link(server).unwrap())
    }

    /// Dropping the sending half must end BOTH receiving halves at once —
    /// the local one (whose `try_clone`d descriptor would otherwise keep a
    /// TCP connection open) and the peer's. A timeout here means some reader
    /// would have to be polled out of its read.
    fn dropping_tx_ends_both_readers((a, mut b): (Link, Link)) {
        let Link { tx, rx: mut a_rx } = a;
        drop(tx);
        for rx in [&mut b.rx, &mut a_rx] {
            let err = rx.recv(Duration::from_secs(5)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn closing_a_tcp_link_closes_it() {
        dropping_tx_ends_both_readers(tcp_pair());
    }

    #[test]
    fn closing_a_mem_link_closes_it() {
        dropping_tx_ends_both_readers(mem_pair());
    }

    #[test]
    fn a_reader_blocked_without_timeout_ends_with_its_link() {
        for (a, b) in [tcp_pair(), mem_pair()] {
            let Link { tx, rx: mut a_rx } = a;
            let reader = std::thread::spawn(move || a_rx.recv(BLOCK).unwrap_err().kind());
            drop(tx);
            assert_eq!(reader.join().unwrap(), io::ErrorKind::UnexpectedEof);
            drop(b);
        }
    }

    #[test]
    fn queued_frames_outlive_the_close_that_follows_them() {
        // the worker writes `Tracks` and closes; the supervisor must still
        // read it
        for (mut a, mut b) in [tcp_pair(), mem_pair()] {
            a.tx.send(b"last words").unwrap();
            drop(a);
            assert_eq!(b.rx.recv(Duration::from_secs(5)).unwrap(), b"last words");
            let err = b.rx.recv(Duration::from_secs(5)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn tcp_rx_resumes_a_frame_interrupted_by_a_timeout() {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut b = tcp_link(server).unwrap();

        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        // stop mid-header, then mid-body: each timeout must keep its place
        let mut sent = 0;
        for cut in [2, 4 + 30_000] {
            raw.write_all(&wire[sent..cut]).unwrap();
            sent = cut;
            let err = b.rx.recv(Duration::from_millis(30)).unwrap_err();
            assert!(matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ));
        }
        raw.write_all(&wire[sent..]).unwrap();
        assert_eq!(b.rx.recv(Duration::from_secs(5)).unwrap(), payload);
    }

    #[test]
    fn tcp_rx_receives_into_the_buffers_it_is_handed() {
        let (mut a, mut b) = tcp_pair();
        let frames: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 20_000]).collect();
        let mut buf = Vec::new();
        let mut capacities = Vec::new();
        for f in &frames {
            a.tx.send(f).unwrap();
            b.rx.recv_into(Duration::from_secs(5), &mut buf).unwrap();
            assert_eq!(&buf, f);
            capacities.push(buf.capacity());
        }
        // two allocations circulate (the caller's and the link's): nothing
        // grows after each has held one frame
        assert!(capacities[2..].iter().all(|&c| c == capacities[2]));
    }

    #[test]
    fn acceptor_hands_over_dials_and_stops_on_drop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let acceptor = Acceptor::start(listener).unwrap();
        let err = acceptor
            .next(Duration::from_millis(10))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let mut dialler = tcp_link(TcpStream::connect(addr).unwrap()).unwrap();
        dialler.tx.send(b"hello").unwrap();
        let (first, mut link) = acceptor.next(Duration::from_secs(5)).unwrap();
        assert_eq!(first, b"hello");
        link.tx.send(b"welcome").unwrap();
        assert_eq!(dialler.rx.recv(Duration::from_secs(5)).unwrap(), b"welcome");
        drop(acceptor); // joins the thread: a hang here is the failure
    }

    #[test]
    fn switchboard_pairs_both_ends_once() {
        let sw = Switchboard::default();
        let mut lo = sw.connect(0, 2, 1, 1).unwrap();
        let mut hi = sw.connect(0, 1, 2, 2).unwrap();
        lo.tx.send(b"east").unwrap();
        assert_eq!(hi.rx.recv(Duration::from_secs(1)).unwrap(), b"east");
        hi.tx.send(b"west").unwrap();
        assert_eq!(lo.rx.recv(Duration::from_secs(1)).unwrap(), b"west");
        // double-collection is a bug, not a hang
        assert!(sw.connect(0, 1, 2, 2).is_none());
        // a new epoch is a fresh pair
        assert!(sw.connect(1, 1, 2, 2).is_some());
        sw.retire_before(2);
        assert!(sw.connect(1, 1, 2, 1).is_some()); // recreated empty slot
    }
}
