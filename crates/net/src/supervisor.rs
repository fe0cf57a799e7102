//! The supervisor: spawns workers, commits coordinated checkpoints, detects
//! deaths, and recovers by shipping state.
//!
//! The supervisor is the only stateful authority in the job. Workers hold a
//! tile and a mesh; the supervisor holds the *committed* cut — one sealed
//! checkpoint per worker, in memory and, torn-write-safe, in the run
//! directory — plus the retry budgets and the fault schedule. Execution is
//! segment-at-a-time: broadcast `Run`, collect a `SegDone` from everyone
//! (each checkpoint verified as it arrives), adopt the new cut, broadcast
//! the next `Run`, and only then write the adopted cut to disk, while the
//! workers compute. Recovery ships the in-memory cut, so the write is off
//! the critical path; cut *k* is still on disk before cut *k + 1* is
//! adopted, and the last one before the job returns.
//! Any death inside a segment voids the whole segment:
//! kill detection (pause-fence `Paused` report, control-link EOF, or
//! heartbeat silence) triggers the recovery sequence — respawn the victim,
//! ship every worker its committed checkpoint, rebuild the mesh under
//! `epoch + 1`, re-issue the same window. Workers never talk to each other
//! about failure; epochs fence off every stale byte.
//!
//! Supervision is budgeted ([`RetryPolicy`]): simultaneous deaths are
//! batched into ONE recovery round (one epoch bump, one checkpoint-ship
//! round, one mesh rebuild — the recovery-storm bound), repeat offenders
//! respawn under exponential backoff, and a worker that keeps flapping is
//! *quarantined* — its tile degrades onto a fallback in-process thread so
//! the run finishes on the surviving mesh instead of burning the restart
//! budget. A segment that fails without any death (wire faults starving a
//! window) is retried by rollback under a separate, smaller budget. Live
//! migration rides the same machinery: at a commit boundary a healthy
//! worker's tile is checkpoint-shipped to a freshly spawned replacement
//! with no fault involved.
//!
//! Worker *hosting* is pluggable ([`WorkerHost`]): [`ProcessHost`] forks the
//! `net-worker` binary and kills with SIGKILL; [`ThreadHost`] runs the same
//! worker state machine on threads over in-memory links, where a kill is a
//! hard abort flag. Record/replay runs the thread host with the recorded
//! fault schedule and compares logs.

use crate::chaos::ChaosSpec;
use crate::link::{mem_pair, spawn_msg_reader, Acceptor, FrameRx, FrameTx, Link, Switchboard};
use crate::record::{FaultKind, FaultRecord, RunRecord};
use crate::wire::{
    decode_msg, encode_msg, Msg, SolverKind, TransportKind, WorkerConfig, NO_NEIGHBOR, NO_PAUSE,
};
use crate::worker::{make_solver, worker_run};
use crate::NetError;
use std::collections::{BTreeSet, HashMap};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use subsonic_cluster::fault::FaultPlan;
use subsonic_exec::checkpoint::SealedDump;
use subsonic_exec::{DumpError, GlobalFields2, Problem2, StepTiming};
use subsonic_grid::Face;
use subsonic_obs::{decode_tracks, Category, FlightRecorder};
use subsonic_solvers::TileState2;

/// Bound on one supervisor phase (handshake, mesh build, segment).
const PHASE_DEADLINE: Duration = Duration::from_secs(120);
/// Heartbeat silence after which a worker is declared dead mid-segment.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(20);
/// Longest a stepping worker stays silent on its control link: it sends
/// `Progress` once this long has passed since its last control frame (a
/// step slower than this reports every step). 200× below the timeout, so
/// the supervisor sleeps through a segment instead of waking per step.
pub(crate) const PROGRESS_PERIOD: Duration = Duration::from_millis(100);
/// Bound on a spawned worker dialling in and saying `Hello`.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(30);

/// The host interface workers bind and dial on. Defaults to loopback;
/// `SUBSONIC_NET_ADDR` overrides it for multi-interface machines.
pub fn default_host_addr() -> String {
    std::env::var("SUBSONIC_NET_ADDR").unwrap_or_else(|_| "127.0.0.1".to_string())
}

/// One scheduled kill: SIGKILL `worker` when it reaches the fence before
/// `at_step`, but only on the `attempt`-th execution of the window holding
/// that step (attempt 0 is the first try; attempt 1 kills the *recovery
/// replay* — a crash during recovery).
#[derive(Debug, Clone, Copy)]
pub struct NetKill {
    /// Victim worker id.
    pub worker: u32,
    /// Fence step: the kill lands before this step executes.
    pub at_step: u64,
    /// Which execution of the window to strike.
    pub attempt: u32,
}

/// One scheduled live migration: at the first commit boundary at or past
/// `after_step`, checkpoint-ship `worker`'s tile to a freshly spawned
/// replacement. No fault is involved — the old incarnation is retired at a
/// committed cut, so nothing rolls back and nothing is lost.
#[derive(Debug, Clone, Copy)]
pub struct NetMigration {
    /// The worker whose tile moves.
    pub worker: u32,
    /// Migrate at the first commit boundary `>= after_step`.
    pub after_step: u64,
}

/// Retry, timeout and backoff budgets for supervision.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total restart budget across the job; exceeding it fails the run.
    pub max_restarts: u32,
    /// Backoff before the *second* respawn of the same worker; doubles per
    /// subsequent death (the first respawn is immediate — recovery latency
    /// is a measured quantity).
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_max_ms: u64,
    /// Deaths of one worker after which it is quarantined: its tile
    /// degrades onto the host's fallback (in-process thread) so the run can
    /// finish on the surviving mesh.
    pub quarantine_after: u32,
    /// Budget for re-running a window that fails with *no* death (wire
    /// faults starving a segment) — per window, not per job.
    pub max_window_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_restarts: 4,
            backoff_base_ms: 25,
            backoff_max_ms: 1000,
            quarantine_after: 3,
            max_window_retries: 3,
        }
    }
}

/// Job configuration for a distributed run.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Halo data-plane wire.
    pub transport: TransportKind,
    /// Solver the workers instantiate.
    pub solver: SolverKind,
    /// Total integration steps.
    pub steps: u64,
    /// Checkpoint (segment) interval in steps.
    pub interval: u64,
    /// Record per-step hashes and receive digests for replay.
    pub record: bool,
    /// Directory for the port file and committed checkpoints.
    pub run_dir: PathBuf,
    /// Scheduled kills (empty for a clean run).
    pub kills: Vec<NetKill>,
    /// Wire-fault plan: loss/dup/reorder windows and partitions, realized
    /// as link-level filters inside every worker's transport.
    pub faults: FaultPlan,
    /// Seed keying the fault plan's deterministic fate draws.
    pub chaos_seed: u64,
    /// Scheduled live migrations (empty for a clean run).
    pub migrations: Vec<NetMigration>,
    /// Interface workers bind and dial on.
    pub addr: String,
    /// Retry/timeout/backoff budgets.
    pub retry: RetryPolicy,
}

impl NetConfig {
    /// A clean-run config with the given essentials.
    pub fn new(transport: TransportKind, steps: u64, interval: u64, run_dir: PathBuf) -> Self {
        NetConfig {
            transport,
            solver: SolverKind::LatticeBoltzmann,
            steps,
            interval,
            record: false,
            run_dir,
            kills: Vec::new(),
            faults: FaultPlan::empty(),
            chaos_seed: 0,
            migrations: Vec::new(),
            addr: default_host_addr(),
            retry: RetryPolicy::default(),
        }
    }
}

/// What a finished job reports.
pub struct NetOutcome {
    /// Gathered global fields at the final step.
    pub fields: GlobalFields2,
    /// Restarts consumed (fault recoveries; migrations not included).
    pub restarts: u32,
    /// Live migrations completed.
    pub migrations: u32,
    /// Windows re-run because they failed without any death.
    pub window_retries: u32,
    /// Workers degraded onto the host's fallback after flapping.
    pub quarantined: Vec<u32>,
    /// Wall-clock recovery latency per fault: kill detection to the first
    /// post-rollback `Run`.
    pub recovery_latency: Vec<Duration>,
    /// Wall-clock cost per migration: retire to mesh-ready.
    pub migration_cost: Vec<Duration>,
    /// Committed wire faults injected: `[loss, dup, reorder, partition]`
    /// (summed over committed segments only; the partition slot counts
    /// wall-clock-gated drops and is not deterministic across runs).
    pub chaos: [u64; 4],
    /// Faults executed, in order.
    pub faults: Vec<FaultRecord>,
    /// Aggregate committed-segment timing (merged across workers, appended
    /// across segments).
    pub timing: StepTiming,
    /// The recording, when `NetConfig::record` was set.
    pub record: Option<RunRecord>,
}

/// A hosted worker thread: its join handle and the hard-abort flag that
/// stands in for SIGKILL.
type ThreadWorker = (JoinHandle<Result<(), NetError>>, Arc<AtomicBool>);

/// Moves the links of `ids` out of a host's launched-but-uncollected list.
fn take_ready(ready: &mut Vec<(u32, Link)>, ids: &[u32]) -> Vec<(u32, Link)> {
    let (taken, rest) = std::mem::take(ready)
        .into_iter()
        .partition(|(w, _)| ids.contains(w));
    *ready = rest;
    taken
}

/// How workers are hosted: as OS processes or as in-process threads.
pub trait WorkerHost {
    /// Starts (or restarts) worker `id` without waiting for it to come up,
    /// so several can boot at once and the caller can work meanwhile.
    fn launch(&mut self, id: u32) -> Result<(), NetError>;
    /// Starts worker `id` on the host's *fallback* substrate — graceful
    /// degradation for a quarantined flapper. Defaults to a plain launch;
    /// [`ProcessHost`] hosts the tile on an in-process thread instead.
    fn launch_fallback(&mut self, id: u32) -> Result<(), NetError> {
        self.launch(id)
    }
    /// Waits for the launched workers `ids` and returns their control links,
    /// `Hello` verified, in whatever order they came up.
    fn collect(&mut self, ids: &[u32]) -> Result<Vec<(u32, Link)>, NetError>;
    /// Forcibly kills worker `id` — SIGKILL for processes, hard-abort for
    /// threads. The worker gets no chance to say goodbye.
    fn kill(&mut self, id: u32);
    /// Reaps worker `id` after exit (waitpid / join).
    fn reap(&mut self, id: u32);
    /// The switchboard in-process workers mesh through, if any.
    fn switchboard(&self) -> Option<Arc<Switchboard>> {
        None
    }
}

// ---------------------------------------------------------------------------
// Process host

/// Hosts workers as real OS processes speaking loopback TCP, bootstrapped by
/// the paper's port-file handshake: the supervisor writes `control=<port>`
/// into `<run_dir>/ports`; spawned workers read it and dial in. An acceptor
/// thread owns the listener, so waiting for a worker ends on its dial.
///
/// Quarantined workers degrade onto in-process threads (`fallback`): the
/// tile keeps running over the same real sockets, but there is no separate
/// process left to flap.
pub struct ProcessHost {
    bin: PathBuf,
    args: Vec<String>,
    run_dir: PathBuf,
    acceptor: Acceptor,
    children: HashMap<u32, Child>,
    fallback: HashMap<u32, ThreadWorker>,
    /// Control links of launched fallback workers not yet collected.
    ready: Vec<(u32, Link)>,
}

impl ProcessHost {
    /// Creates the host: binds the control listener and publishes the port
    /// file.
    pub fn new(bin: PathBuf, args: Vec<String>, run_dir: PathBuf) -> Result<ProcessHost, NetError> {
        std::fs::create_dir_all(&run_dir).map_err(NetError::Io)?;
        let listener =
            TcpListener::bind((default_host_addr().as_str(), 0)).map_err(NetError::Io)?;
        let port = listener.local_addr().map_err(NetError::Io)?.port();
        // atomic publish: workers must never read a half-written port file
        let tmp = run_dir.join("ports.tmp");
        std::fs::write(&tmp, format!("control={port}\n")).map_err(NetError::Io)?;
        std::fs::rename(&tmp, run_dir.join("ports")).map_err(NetError::Io)?;
        Ok(ProcessHost {
            bin,
            args,
            run_dir,
            acceptor: Acceptor::start(listener).map_err(NetError::Io)?,
            children: HashMap::new(),
            fallback: HashMap::new(),
            ready: Vec::new(),
        })
    }

    /// Builds the host from `SUBSONIC_NET_WORKER_BIN` (+ optional
    /// space-separated `SUBSONIC_NET_WORKER_ARGS`) — how the `reproduce`
    /// driver points workers back at its own binary.
    pub fn from_env(run_dir: PathBuf) -> Result<ProcessHost, NetError> {
        let bin = std::env::var("SUBSONIC_NET_WORKER_BIN")
            .map_err(|_| NetError::Protocol("SUBSONIC_NET_WORKER_BIN not set".into()))?;
        let args = std::env::var("SUBSONIC_NET_WORKER_ARGS")
            .map(|a| a.split_whitespace().map(str::to_string).collect::<Vec<_>>())
            .unwrap_or_default();
        ProcessHost::new(PathBuf::from(bin), args, run_dir)
    }
}

impl WorkerHost for ProcessHost {
    fn launch(&mut self, id: u32) -> Result<(), NetError> {
        let child = Command::new(&self.bin)
            .args(&self.args)
            .env("SUBSONIC_NET_DIR", &self.run_dir)
            .env("SUBSONIC_NET_WORKER", id.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(NetError::Io)?;
        self.children.insert(id, child);
        Ok(())
    }

    fn launch_fallback(&mut self, id: u32) -> Result<(), NetError> {
        if let Some((handle, hard)) = self.fallback.remove(&id) {
            hard.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
        if let Some(mut child) = self.children.remove(&id) {
            let _ = child.kill();
            let _ = child.wait();
        }
        // no switchboard: the thread binds the same real sockets a process
        // would, so the rest of the mesh needs no special case
        let (sup_end, worker_end) = mem_pair();
        let hard = Arc::new(AtomicBool::new(false));
        let worker_hard = Arc::clone(&hard);
        let handle = std::thread::spawn(move || worker_run(worker_end, id, None, worker_hard));
        self.fallback.insert(id, (handle, hard));
        self.ready.push((id, sup_end));
        Ok(())
    }

    fn collect(&mut self, ids: &[u32]) -> Result<Vec<(u32, Link)>, NetError> {
        let mut links = take_ready(&mut self.ready, ids);
        // the processes dial in on their own schedule: take each `Hello` as
        // it arrives and match it by the worker id it carries
        let deadline = Instant::now() + HANDSHAKE_DEADLINE;
        while links.len() < ids.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            let (first, link) = match self.acceptor.next(left) {
                Ok(dial) => dial,
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                    return Err(NetError::Timeout("worker handshake"))
                }
                Err(e) => return Err(NetError::Io(e)),
            };
            match decode_msg(&first) {
                Ok(Msg::Hello { worker })
                    if ids.contains(&worker) && links.iter().all(|(w, _)| *w != worker) =>
                {
                    links.push((worker, link))
                }
                _ => {} // stray dial: drop it
            }
        }
        Ok(links)
    }

    fn kill(&mut self, id: u32) {
        if let Some(child) = self.children.get_mut(&id) {
            let _ = child.kill(); // SIGKILL on unix
            let _ = child.wait();
        } else if let Some((_, hard)) = self.fallback.get(&id) {
            hard.store(true, Ordering::SeqCst);
        }
    }

    fn reap(&mut self, id: u32) {
        if let Some(mut child) = self.children.remove(&id) {
            let _ = child.wait();
        }
        if let Some((handle, hard)) = self.fallback.remove(&id) {
            hard.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Thread host

/// Hosts workers as in-process threads over in-memory control links and the
/// switchboard data plane — the sockets-free runtime used by replay and fast
/// tests. A kill is a hard-abort flag the worker polls on every step, every
/// receive and every fence hold; the thread then exits, dropping its link
/// ends, which is exactly what peers of a SIGKILLed process observe.
pub struct ThreadHost {
    switchboard: Arc<Switchboard>,
    workers: HashMap<u32, ThreadWorker>,
    /// Control links of launched workers not yet collected.
    ready: Vec<(u32, Link)>,
}

impl ThreadHost {
    /// An empty thread host with a fresh switchboard.
    pub fn new() -> ThreadHost {
        ThreadHost {
            switchboard: Arc::new(Switchboard::default()),
            workers: HashMap::new(),
            ready: Vec::new(),
        }
    }
}

impl Default for ThreadHost {
    fn default() -> Self {
        ThreadHost::new()
    }
}

impl WorkerHost for ThreadHost {
    fn launch(&mut self, id: u32) -> Result<(), NetError> {
        if let Some((handle, hard)) = self.workers.remove(&id) {
            hard.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
        let (sup_end, worker_end) = mem_pair();
        let hard = Arc::new(AtomicBool::new(false));
        let worker_hard = Arc::clone(&hard);
        let sw = Arc::clone(&self.switchboard);
        let handle = std::thread::spawn(move || worker_run(worker_end, id, Some(sw), worker_hard));
        self.workers.insert(id, (handle, hard));
        self.ready.push((id, sup_end));
        Ok(())
    }

    fn collect(&mut self, ids: &[u32]) -> Result<Vec<(u32, Link)>, NetError> {
        // the worker's Hello arrives on the event stream; identity is
        // guaranteed by construction here
        Ok(take_ready(&mut self.ready, ids))
    }

    fn kill(&mut self, id: u32) {
        if let Some((_, hard)) = self.workers.get(&id) {
            hard.store(true, Ordering::SeqCst);
        }
    }

    fn reap(&mut self, id: u32) {
        if let Some((handle, hard)) = self.workers.remove(&id) {
            // a worker that already finished ignores this; one still idling
            // on a dropped control link exits promptly instead of running
            // out its idle deadline under our join
            hard.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
    }

    fn switchboard(&self) -> Option<Arc<Switchboard>> {
        Some(Arc::clone(&self.switchboard))
    }
}

// ---------------------------------------------------------------------------
// Supervisor proper

/// What a control-link reader hands the supervisor: `(worker, life, ..)`.
enum Event {
    Msg(u32, u32, Msg),
    /// A `SegDone` for the given epoch, its checkpoint already verified by
    /// the reader that received it — in parallel across workers, while the
    /// other reports are still in flight.
    Report(u32, u32, u32, Result<SegReport, DumpError>),
    Gone(u32, u32),
}

/// Per-worker data a committed segment reports. Only a verified checkpoint
/// gets in here, so only verified checkpoints can become part of a cut.
struct SegReport {
    ckpt: SealedDump,
    log: Vec<u8>,
    timing: StepTiming,
    chaos: [u64; 4],
}

/// Reads one control link into the merged event stream ([`spawn_msg_reader`]),
/// ending with a `Gone` when the link does — the worker died, or the
/// supervisor dropped its sending half. A `SegDone` is turned into a
/// [`Event::Report`] here, its checkpoint verified on this thread.
fn spawn_sup_reader(
    worker: u32,
    life: u32,
    rx: Box<dyn FrameRx>,
    events: Sender<Event>,
) -> JoinHandle<()> {
    spawn_msg_reader(rx, events, move |msg| match msg {
        Some(Msg::SegDone {
            epoch,
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
            ..
        }) => {
            let report = SealedDump::new(ckpt).map(|ckpt| SegReport {
                ckpt,
                log,
                timing: StepTiming {
                    t_calc: Duration::from_micros(t_calc_us),
                    t_com: Duration::from_micros(t_com_us),
                    msgs_sent,
                    doubles_sent,
                    ..StepTiming::default()
                },
                chaos: [chaos_loss, chaos_dup, chaos_reorder, chaos_part],
            });
            Event::Report(worker, life, epoch, report)
        }
        Some(msg) => Event::Msg(worker, life, msg),
        None => Event::Gone(worker, life),
    })
}

struct Conn {
    tx: Box<dyn FrameTx>,
    life: u32,
    alive: bool,
}

struct Sup<'a> {
    conns: Vec<Conn>,
    events: Receiver<Event>,
    events_tx: Sender<Event>,
    readers: Vec<JoinHandle<()>>,
    host: &'a mut dyn WorkerHost,
    next_life: u32,
}

impl<'a> Sup<'a> {
    fn send(&mut self, w: u32, msg: &Msg) -> Result<(), NetError> {
        self.conns[w as usize]
            .tx
            .send(&encode_msg(msg))
            .map_err(NetError::Io)
    }

    /// Sends to every live worker, tolerating freshly-dead links.
    fn broadcast(&mut self, msg: &Msg, skip: Option<u32>) {
        let frame = encode_msg(msg);
        for (w, conn) in self.conns.iter_mut().enumerate() {
            if conn.alive && Some(w as u32) != skip {
                let _ = conn.tx.send(&frame);
            }
        }
    }

    /// Next event from a *current-life* connection (stale readers are
    /// silently drained).
    fn next(&mut self, deadline: Instant) -> Result<Event, NetError> {
        loop {
            if Instant::now() > deadline {
                return Err(NetError::Timeout("supervisor phase"));
            }
            match self.events.recv_timeout(Duration::from_millis(50)) {
                Ok(Event::Gone(w, life)) => {
                    if self.conns[w as usize].life == life && self.conns[w as usize].alive {
                        return Ok(Event::Gone(w, life));
                    }
                }
                Ok(event @ (Event::Msg(w, life, _) | Event::Report(w, life, ..))) => {
                    if self.conns[w as usize].life == life {
                        return Ok(event);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(NetError::Protocol("all supervisor readers exited".into()))
                }
            }
        }
    }

    /// Brings up the workers `ids` — on the fallback substrate where
    /// `quarantined` — and installs their connections and readers: launch
    /// them all, run `meanwhile` while they boot, then take their `Hello`s in
    /// whatever order they arrive. The first spawn, a respawn and a
    /// migration all come through here.
    fn spawn_workers(
        &mut self,
        ids: &[u32],
        quarantined: &[u32],
        meanwhile: impl FnOnce() -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        for &w in ids {
            if quarantined.contains(&w) {
                self.host.launch_fallback(w)?;
            } else {
                self.host.launch(w)?;
            }
        }
        meanwhile()?;
        let links = self.host.collect(ids)?;
        if links.len() != ids.len() {
            return Err(NetError::Protocol(format!(
                "{} of {} launched workers came up",
                links.len(),
                ids.len()
            )));
        }
        for (w, link) in links {
            let life = self.next_life;
            self.next_life += 1;
            self.readers
                .push(spawn_sup_reader(w, life, link.rx, self.events_tx.clone()));
            // replacing the connection drops — closes — the old incarnation's
            self.conns[w as usize] = Conn {
                tx: link.tx,
                life,
                alive: true,
            };
        }
        Ok(())
    }

    /// Runs the mesh phase for `epoch`: collect ports, broadcast the map,
    /// await readiness from all `n` workers. A worker dying mid-build is
    /// reported as `Ok(Some(victim))` — recoverable, not fatal.
    fn mesh_phase(&mut self, epoch: u32, n: u32) -> Result<Option<u32>, NetError> {
        let deadline = Instant::now() + PHASE_DEADLINE;
        let mut ports = vec![0u16; n as usize];
        let mut have = vec![false; n as usize];
        while have.iter().any(|h| !h) {
            match self.next(deadline)? {
                Event::Msg(w, _, Msg::DataPort { epoch: e, port }) if e == epoch => {
                    ports[w as usize] = port;
                    have[w as usize] = true;
                }
                Event::Msg(..) | Event::Report(..) => {}
                Event::Gone(w, _) => return Ok(Some(w)),
            }
        }
        self.broadcast(
            &Msg::PortMap {
                epoch,
                ports: ports.clone(),
            },
            None,
        );
        let mut ready = vec![false; n as usize];
        while ready.iter().any(|r| !r) {
            match self.next(deadline)? {
                Event::Msg(w, _, Msg::MeshReady { epoch: e }) if e == epoch => {
                    ready[w as usize] = true;
                }
                Event::Msg(..) | Event::Report(..) => {}
                Event::Gone(w, _) => return Ok(Some(w)),
            }
        }
        Ok(None)
    }
}

/// Runs `problem` to `cfg.steps` across one worker per active tile under
/// `host`, recovering from scheduled kills and genuine deaths alike.
/// Supervisor-side events land in `recorder`; worker tracks are merged into
/// it at shutdown.
pub fn run_problem(
    problem: &Problem2,
    cfg: &NetConfig,
    host: &mut dyn WorkerHost,
    recorder: &FlightRecorder,
) -> Result<NetOutcome, NetError> {
    let t_entry = Instant::now();
    if cfg.steps == 0 || cfg.interval == 0 {
        return Err(NetError::Protocol("steps and interval must be > 0".into()));
    }
    std::fs::create_dir_all(&cfg.run_dir).map_err(NetError::Io)?;
    let mut track = recorder.track(0, 0, "supervisor", "main");
    let solver = make_solver(cfg.solver);
    let active = problem.active_tiles();
    let n = active.len() as u32;
    if n == 0 {
        return Err(NetError::Protocol("problem has no active tiles".into()));
    }
    let tile_to_worker: HashMap<usize, u32> = active
        .iter()
        .enumerate()
        .map(|(w, &t)| (t, w as u32))
        .collect();
    let neighbors_of = |w: u32| -> [u32; 4] {
        let tile = active[w as usize];
        let mut out = [NO_NEIGHBOR; 4];
        for &f in Face::of_rank(2) {
            if let Some(nb) = problem.decomp.neighbor(tile, f) {
                if let Some(&peer) = tile_to_worker.get(&nb) {
                    out[f.index()] = peer;
                }
            }
        }
        out
    };

    let (events_tx, events) = channel();
    let mut sup = Sup {
        conns: Vec::new(),
        events,
        events_tx,
        readers: Vec::new(),
        host,
        next_life: 1,
    };
    // placeholder conns so spawn_workers can index-assign
    for _ in 0..n {
        let (dead_end, _) = mem_pair();
        sup.conns.push(Conn {
            tx: dead_end.tx,
            life: 0,
            alive: false,
        });
    }

    // the fault plan compiles ONCE: every worker incarnation in every epoch
    // sees the identical spec, so an identical plan replays identically
    let chaos_spec = ChaosSpec::compile(&cfg.faults, cfg.chaos_seed, n);
    let worker_cfg = |w: u32, epoch: u32, start_step: u64| WorkerConfig {
        worker: w,
        nworkers: n,
        solver: cfg.solver,
        transport: cfg.transport,
        epoch,
        start_step,
        neighbors: neighbors_of(w),
        record: cfg.record,
        addr: cfg.addr.clone(),
        faults: chaos_spec.clone(),
    };

    // the committed cut: one sealed checkpoint per worker. The copy in
    // memory is what recovery ships; the copy in the run directory trails it
    // by at most one cut (see `drive`)
    let mut ckpts: Vec<SealedDump> = Vec::new();
    let all: Vec<u32> = (0..n).collect();
    let result = (|| {
        // children first: the initial cut is produced while they boot, and
        // their `Hello`s are taken in arrival order
        sup.spawn_workers(&all, &[], || {
            for &t in &active {
                let tile = problem.make_tile(solver.as_ref(), t);
                ckpts.push(SealedDump::of_tile2(&tile));
            }
            Ok(())
        })?;
        for w in 0..n {
            let init = Msg::Init {
                cfg: worker_cfg(w, 0, 0),
                ckpt: ckpts[w as usize].as_bytes().to_vec(),
            };
            sup.send(w, &init)?;
        }
        drive(
            &mut sup,
            problem,
            cfg,
            &mut track,
            &worker_cfg,
            &mut ckpts,
            n,
            t_entry,
        )
    })();

    // tear the plumbing down regardless of outcome. Dropping a control
    // link's sender closes the link: the reader here and the worker's reader
    // both see EOF at once, so a worker still idling (error paths) exits
    // instead of running out its idle deadline under reap's join, and the
    // joins below wait for nothing but the exits themselves. On the success
    // path every worker has written its `Tracks` and `drive` has read them,
    // so the close discards nothing.
    sup.conns.clear();
    for r in sup.readers.drain(..) {
        let _ = r.join();
    }
    for w in 0..n {
        sup.host.reap(w);
    }
    let (tracks, outcome, t_done) = result?;
    for t in tracks {
        recorder.adopt(t);
    }
    track.span_wall(Category::Sync, "teardown", t_done, Instant::now());
    track.instant_wall(Category::Sync, "run done", Instant::now());
    track.finish();
    Ok(outcome)
}

/// Where worker `w`'s piece of the committed cut lives in the run directory.
fn ckpt_path(run_dir: &Path, w: usize) -> PathBuf {
    run_dir.join(format!("ckpt_w{w}.dump"))
}

/// Writes a cut to the run directory, worker by worker, each file temp →
/// fsync → rename → directory fsync.
fn persist_cut(
    run_dir: &Path,
    ckpts: &[SealedDump],
    track: &mut subsonic_obs::TrackRecorder,
) -> Result<(), NetError> {
    let t0 = Instant::now();
    for (w, ckpt) in ckpts.iter().enumerate() {
        ckpt.persist(&ckpt_path(run_dir, w))?;
    }
    track.span_wall(Category::Checkpoint, "cut persist", t0, Instant::now());
    Ok(())
}

type WorkerCfgFn<'f> = &'f dyn Fn(u32, u32, u64) -> WorkerConfig;

/// The segment/recovery loop, from the first mesh build to the workers'
/// last frames. Returns the worker tracks, the outcome, and when `Done` went
/// out.
///
/// The cut is adopted in memory the moment its last piece is in (each piece
/// was verified on arrival) and written to disk only after the next `Run` —
/// or `Done` — has left, so the workers compute through the fsyncs. Nothing
/// reads the files back during a job: recovery ships `ckpts`. The order on
/// disk is still strict — the write happens before the next cut can be
/// adopted, and the last one before this function returns — and a write
/// error still fails the job.
#[allow(clippy::too_many_arguments)]
fn drive(
    sup: &mut Sup<'_>,
    problem: &Problem2,
    cfg: &NetConfig,
    track: &mut subsonic_obs::TrackRecorder,
    worker_cfg: WorkerCfgFn<'_>,
    ckpts: &mut [SealedDump],
    n: u32,
    t_entry: Instant,
) -> Result<(Vec<subsonic_obs::TrackData>, NetOutcome, Instant), NetError> {
    let retry = cfg.retry;
    let mut epoch = 0u32;
    let mut committed = 0u64;
    let mut window_attempt = 0u32;
    let mut window_soft = 0u32; // soft retries of the CURRENT window
    let mut restarts = 0u32;
    let mut window_retries = 0u32; // soft retries, job total
    let mut migrations_run = 0u32;
    let mut faults: Vec<FaultRecord> = Vec::new();
    let mut recovery_latency: Vec<Duration> = Vec::new();
    let mut migration_cost: Vec<Duration> = Vec::new();
    let mut quarantined: Vec<u32> = Vec::new();
    let mut death_counts = vec![0u32; n as usize];
    let mut mig_done = vec![false; cfg.migrations.len()];
    let mut chaos = [0u64; 4];
    let mut logs: Vec<Vec<u8>> = vec![Vec::new(); n as usize];
    let mut total_timing = StepTiming::default();

    // deaths awaiting a recovery round; batching simultaneous deaths into
    // one round IS the recovery-storm bound — one epoch bump, one
    // checkpoint-ship round, one mesh rebuild, no matter how many died
    let mut pending: Vec<u32> = Vec::new();
    let mut t_detect = Instant::now();
    // the cut in `ckpts` is newer than what the run directory holds — true
    // of the initial cut too, which is written like any other: once the
    // workers are stepping
    let mut unpersisted = true;
    let mut setup_done = false;

    // declares w dead wherever detected: kill it, record the fault, queue
    // it for the next recovery round
    macro_rules! declare_dead {
        ($w:expr, $at_step:expr) => {{
            let w: u32 = $w;
            if !pending.contains(&w) {
                if pending.is_empty() {
                    t_detect = Instant::now();
                }
                sup.host.kill(w);
                sup.conns[w as usize].alive = false;
                pending.push(w);
                faults.push(FaultRecord {
                    kind: FaultKind::Kill,
                    victim: w,
                    at_step: $at_step,
                    epoch,
                    rollback_step: committed,
                });
            }
        }};
    }

    if let Some(w) = sup.mesh_phase(epoch, n)? {
        track.instant_wall(Category::Detection, "worker failed", Instant::now());
        declare_dead!(w, committed);
    }

    'job: loop {
        // --- recovery rounds: drain pending deaths, one batch per round ---
        while !pending.is_empty() {
            let batch = std::mem::take(&mut pending);
            restarts += batch.len() as u32;
            if restarts > retry.max_restarts {
                return Err(NetError::RetriesExhausted { restarts });
            }
            window_attempt += 1;
            epoch += 1;
            // flapping workers respawn under exponential backoff; a first
            // death respawns immediately (recovery latency is a measured
            // quantity). One sleep covers the whole batch.
            let mut sleep_ms = 0u64;
            for &v in &batch {
                death_counts[v as usize] += 1;
                let count = u64::from(death_counts[v as usize]);
                if count > 1 {
                    let ms =
                        (retry.backoff_base_ms << (count - 1).min(16)).min(retry.backoff_max_ms);
                    sleep_ms = sleep_ms.max(ms);
                }
            }
            if sleep_ms > 0 {
                track.instant_wall(Category::Recovery, "respawn backoff", Instant::now());
                std::thread::sleep(Duration::from_millis(sleep_ms));
            }
            track.instant_wall(Category::Recovery, "worker respawn", Instant::now());
            for &v in &batch {
                sup.host.reap(v);
                if death_counts[v as usize] >= retry.quarantine_after && !quarantined.contains(&v) {
                    quarantined.push(v);
                    track.instant_wall(Category::Recovery, "worker quarantined", Instant::now());
                }
            }
            sup.spawn_workers(&batch, &quarantined, || Ok(()))?;
            let t_ship = Instant::now();
            for &v in &batch {
                let init = Msg::Init {
                    cfg: worker_cfg(v, epoch, committed),
                    ckpt: ckpts[v as usize].as_bytes().to_vec(),
                };
                sup.send(v, &init)?;
            }
            for w in 0..n {
                if !batch.contains(&w) {
                    let rb = Msg::Rollback {
                        epoch,
                        step: committed,
                        ckpt: ckpts[w as usize].as_bytes().to_vec(),
                    };
                    sup.send(w, &rb)?;
                }
            }
            track.span_wall(
                Category::Checkpoint,
                "checkpoint ship",
                t_ship,
                Instant::now(),
            );
            if let Some(sw) = sup.host.switchboard() {
                sw.retire_before(epoch);
            }
            let mesh_death = sup.mesh_phase(epoch, n)?;
            for _ in &batch {
                recovery_latency.push(t_detect.elapsed());
            }
            if let Some(w) = mesh_death {
                track.instant_wall(Category::Detection, "worker failed", Instant::now());
                declare_dead!(w, committed);
            }
        }

        if committed >= cfg.steps {
            break 'job;
        }

        // --- live migrations land at commit boundaries ---
        for (done, &m) in mig_done.iter_mut().zip(&cfg.migrations) {
            if *done || m.worker >= n || committed < m.after_step {
                continue;
            }
            *done = true;
            let t_mig = Instant::now();
            epoch += 1;
            faults.push(FaultRecord {
                kind: FaultKind::Migration,
                victim: m.worker,
                at_step: committed,
                epoch,
                rollback_step: committed,
            });
            track.instant_wall(Category::Recovery, "live migration", Instant::now());
            // the old incarnation is idle at a committed cut: retire it,
            // ship its sealed checkpoint to a fresh spawn, rebuild the mesh
            sup.conns[m.worker as usize].alive = false;
            sup.host.kill(m.worker);
            sup.host.reap(m.worker);
            sup.spawn_workers(&[m.worker], &quarantined, || Ok(()))?;
            let init = Msg::Init {
                cfg: worker_cfg(m.worker, epoch, committed),
                ckpt: ckpts[m.worker as usize].as_bytes().to_vec(),
            };
            sup.send(m.worker, &init)?;
            for w in 0..n {
                if w != m.worker {
                    let rb = Msg::Rollback {
                        epoch,
                        step: committed,
                        ckpt: ckpts[w as usize].as_bytes().to_vec(),
                    };
                    sup.send(w, &rb)?;
                }
            }
            if let Some(sw) = sup.host.switchboard() {
                sw.retire_before(epoch);
            }
            match sup.mesh_phase(epoch, n)? {
                None => {
                    migration_cost.push(t_mig.elapsed());
                    migrations_run += 1;
                }
                Some(w) => {
                    track.instant_wall(Category::Detection, "worker failed", Instant::now());
                    declare_dead!(w, committed);
                    continue 'job;
                }
            }
        }

        // --- run one segment ---
        let until = (committed + cfg.interval).min(cfg.steps);
        let armed: Vec<NetKill> = cfg
            .kills
            .iter()
            .copied()
            .filter(|k| {
                k.worker < n
                    && k.at_step >= committed
                    && k.at_step < until
                    && k.attempt == window_attempt
            })
            .collect();
        let t_seg = Instant::now();
        for w in 0..n {
            let pause_at = armed
                .iter()
                .filter(|k| k.worker == w)
                .map(|k| k.at_step)
                .min()
                .unwrap_or(NO_PAUSE);
            sup.send(
                w,
                &Msg::Run {
                    epoch,
                    from: committed,
                    until,
                    pause_at,
                },
            )?;
        }
        if !setup_done {
            track.span_wall(Category::Sync, "job setup", t_entry, Instant::now());
            setup_done = true;
        }
        // the workers are stepping: now the adopted cut goes to disk
        if unpersisted {
            persist_cut(&cfg.run_dir, ckpts, track)?;
            unpersisted = false;
        }

        // collect the segment
        let deadline = Instant::now() + PHASE_DEADLINE;
        let mut reports: Vec<Option<SegReport>> = (0..n).map(|_| None).collect();
        let mut failed = vec![false; n as usize];
        let mut aborted = false;
        let mut last_heard: Vec<Instant> = vec![Instant::now(); n as usize];

        // on the first casualty — death or soft failure — abort everyone
        // else so peers blocked on the casualty's halos converge fast
        // instead of running out their receive deadlines
        macro_rules! abort_once {
            ($skip:expr) => {
                if !aborted {
                    sup.broadcast(&Msg::Abort { epoch }, Some($skip));
                    aborted = true;
                }
            };
        }

        loop {
            let all_accounted = (0..n).all(|w| {
                reports[w as usize].is_some() || failed[w as usize] || pending.contains(&w)
            });
            if all_accounted {
                break;
            }
            match sup.next(deadline)? {
                Event::Msg(w, _, msg) => {
                    last_heard[w as usize] = Instant::now();
                    match msg {
                        Msg::Paused { epoch: e, step } if e == epoch => {
                            // the kill fence: strike
                            track.instant_wall(Category::Fault, "worker killed", Instant::now());
                            declare_dead!(w, step);
                            abort_once!(w);
                        }
                        Msg::SegFailed { epoch: e, .. } if e == epoch => {
                            failed[w as usize] = true;
                            abort_once!(w);
                        }
                        _ => {} // Hello, Progress, stale-epoch traffic
                    }
                }
                Event::Report(w, _, e, report) if e == epoch => {
                    // a checkpoint that fails its seal fails the job
                    let mut report = report?;
                    report.timing.steps = until - committed;
                    reports[w as usize] = Some(report);
                }
                Event::Report(..) => {} // a voided epoch's report
                Event::Gone(w, _) => {
                    // an uncommanded death (or the fence kill's EOF racing
                    // the Paused report)
                    track.instant_wall(Category::Detection, "worker failed", Instant::now());
                    declare_dead!(w, committed);
                    abort_once!(w);
                }
            }
            // heartbeat sweep: a hung worker is a dead worker
            for w in 0..n {
                if reports[w as usize].is_none()
                    && !failed[w as usize]
                    && !pending.contains(&w)
                    && last_heard[w as usize].elapsed() > HEARTBEAT_TIMEOUT
                {
                    track.instant_wall(Category::Detection, "heartbeat miss", Instant::now());
                    declare_dead!(w, committed);
                    abort_once!(w);
                }
            }
        }

        if !pending.is_empty() {
            continue 'job; // the recovery rounds at the top re-run the window
        }

        if failed.iter().any(|&f| f) {
            // the window failed with nobody dead: wire faults starved a
            // segment past a deadline. Roll everyone back to the committed
            // cut and re-run under a fresh epoch — without bumping the
            // window attempt, so armed kills still strike the execution
            // they were scheduled for.
            window_retries += 1;
            window_soft += 1;
            if window_soft > retry.max_window_retries {
                return Err(NetError::Protocol(format!(
                    "window at step {committed} failed {window_soft} times with no death"
                )));
            }
            epoch += 1;
            track.instant_wall(Category::Recovery, "window retry", Instant::now());
            for w in 0..n {
                let rb = Msg::Rollback {
                    epoch,
                    step: committed,
                    ckpt: ckpts[w as usize].as_bytes().to_vec(),
                };
                sup.send(w, &rb)?;
            }
            if let Some(sw) = sup.host.switchboard() {
                sw.retire_before(epoch);
            }
            if let Some(w) = sup.mesh_phase(epoch, n)? {
                track.instant_wall(Category::Detection, "worker failed", Instant::now());
                declare_dead!(w, committed);
            }
            continue 'job;
        }

        // adopt the cut: every piece is in and was verified on arrival, so
        // from here on it is what a rollback ships
        let t_commit = Instant::now();
        let mut seg_timing = StepTiming::default();
        for w in 0..n {
            let report = reports[w as usize]
                .take()
                .ok_or_else(|| NetError::Protocol("segment report missing".into()))?;
            ckpts[w as usize] = report.ckpt;
            logs[w as usize].extend_from_slice(&report.log);
            seg_timing.merge(&report.timing);
            for (total, delta) in chaos.iter_mut().zip(report.chaos) {
                *total += delta;
            }
        }
        total_timing.append(&seg_timing);
        track.span_wall(
            Category::Checkpoint,
            "segment commit",
            t_commit,
            Instant::now(),
        );
        track.span_wall_arg(
            Category::Compute,
            "segment",
            t_seg,
            Instant::now(),
            Some(("end_step", until as f64)),
        );
        committed = until;
        window_attempt = 0;
        window_soft = 0;
        unpersisted = true;
    }

    // shut the workers down; while they ship their tracks and exit, write
    // the last cut and gather the final fields from it. The gather decodes
    // without a second verify: every piece of the cut was verified when it
    // arrived
    sup.broadcast(&Msg::Done, None);
    let t_done = Instant::now();
    if unpersisted {
        persist_cut(&cfg.run_dir, ckpts, track)?;
    }
    let tiles: Vec<TileState2> = ckpts
        .iter()
        .map(SealedDump::restore)
        .collect::<Result<_, _>>()?;
    let fields = GlobalFields2::gather(problem.geom.nx(), problem.geom.ny(), 1.0, tiles.iter());
    drop(tiles);
    let deadline = Instant::now() + PHASE_DEADLINE;
    let mut blobs: Vec<Option<Vec<u8>>> = (0..n).map(|_| None).collect();
    while blobs.iter().any(|b| b.is_none()) {
        match sup.next(deadline) {
            Ok(Event::Msg(w, _, Msg::Tracks { blob })) => blobs[w as usize] = Some(blob),
            Ok(Event::Msg(..) | Event::Report(..)) => {}
            Ok(Event::Gone(w, _)) => {
                // a worker that dies before shipping tracks loses them
                sup.conns[w as usize].alive = false;
                blobs[w as usize].get_or_insert_with(Vec::new);
            }
            Err(_) => break, // tracks are best-effort; the physics is committed
        }
    }
    let mut tracks = Vec::new();
    for blob in blobs.into_iter().flatten() {
        if let Ok(mut decoded) = decode_tracks(&blob) {
            tracks.append(&mut decoded);
        }
    }

    let record = cfg.record.then(|| RunRecord {
        nx: problem.geom.nx() as u64,
        ny: problem.geom.ny() as u64,
        px: problem.decomp.parts()[0] as u32,
        py: problem.decomp.parts()[1] as u32,
        steps: cfg.steps,
        interval: cfg.interval,
        solver: cfg.solver,
        transport: cfg.transport,
        faults: faults.clone(),
        logs: logs.clone(),
        final_hashes: ckpts
            .iter()
            .map(|c| crate::record::fnv1a(c.as_bytes()))
            .collect(),
    });

    Ok((
        tracks,
        NetOutcome {
            fields,
            restarts,
            migrations: migrations_run,
            window_retries,
            quarantined,
            recovery_latency,
            migration_cost,
            chaos,
            faults,
            timing: total_timing,
            record,
        },
        t_done,
    ))
}

/// Replays a recording in-process over in-memory links (no sockets),
/// re-injecting the recorded fault schedule, and checks the fresh run
/// against the recording byte-for-byte. Returns the replay outcome on
/// success.
pub fn replay(
    problem: &Problem2,
    record: &RunRecord,
    run_dir: &Path,
    recorder: &FlightRecorder,
) -> Result<NetOutcome, NetError> {
    // Re-arm each recorded kill on the execution attempt it struck. Every
    // recovery round bumps the epoch exactly once, so within one window
    // (same rollback_step) the attempt a kill fired on is the number of
    // DISTINCT earlier epochs among that window's kills. Soft window
    // retries and migrations bump the epoch without touching the attempt,
    // and neither occurs during a Mem replay before a kill fires, because
    // the replay injects no wire faults.
    let kills: Vec<NetKill> = record
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::Kill)
        .map(|f| {
            let attempt = record
                .faults
                .iter()
                .filter(|g| {
                    g.kind == FaultKind::Kill
                        && g.rollback_step == f.rollback_step
                        && g.epoch < f.epoch
                })
                .map(|g| g.epoch)
                .collect::<BTreeSet<u32>>()
                .len() as u32;
            NetKill {
                worker: f.victim,
                at_step: f.at_step,
                attempt,
            }
        })
        .collect();
    let migrations: Vec<NetMigration> = record
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::Migration)
        .map(|f| NetMigration {
            worker: f.victim,
            after_step: f.rollback_step,
        })
        .collect();
    let cfg = NetConfig {
        transport: TransportKind::Mem,
        solver: record.solver,
        steps: record.steps,
        interval: record.interval,
        record: true,
        run_dir: run_dir.to_path_buf(),
        kills,
        faults: FaultPlan::empty(),
        chaos_seed: 0,
        migrations,
        addr: default_host_addr(),
        retry: RetryPolicy {
            max_restarts: (record.faults.len() as u32).max(1) + 1,
            ..RetryPolicy::default()
        },
    };
    let mut host = ThreadHost::new();
    let outcome = run_problem(problem, &cfg, &mut host, recorder)?;
    let replay_record = outcome
        .record
        .as_ref()
        .ok_or_else(|| NetError::Protocol("replay produced no record".into()))?;
    record.check_against(replay_record)?;
    Ok(outcome)
}
