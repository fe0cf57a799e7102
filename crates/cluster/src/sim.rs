//! The cluster simulation proper: event loop and runtime protocols.
//!
//! [`ClusterSim`] wires together hosts, the network, and the parallel
//! subprocesses, and implements the paper's runtime protocols:
//!
//! * **job submission** (section 4.1) — idle-user-first host selection;
//! * the **monitoring program** — periodic load checks, migration triggers
//!   (5-minute load average above 1.5), restart bookkeeping;
//! * **synchronisation and migration** (section 5, Appendix B) — every
//!   process posts its integration step, the maximum plus one becomes the
//!   synchronisation step, everyone runs exactly to it and pauses, the
//!   migrating processes save dump files to the shared file server, the
//!   submit program finds free hosts, dumps are reloaded, channels reopen
//!   (CONT) and the computation continues;
//! * **staggered checkpointing** (section 5.2) — processes save their state
//!   "one after the other in an orderly fashion, allowing sufficient time
//!   gaps" so the network and file server are not monopolised.

use crate::bus::{Completion, NetworkConfig, NetworkModel, TransferPayload};
use crate::events::{EventKind, EventQueue};
use crate::fault::{FaultEvent, FaultPlan, TRANSPORT_STREAM_SALT};
use crate::host::{HostKind, HostState};
use crate::policy::{CommOrdering, DetectorMode, DetectorPolicy, MonitorPolicy, SubmitPolicy};
use crate::process::{CkptResume, ProcState, SimProcess, StagedHalo};
use crate::stats::{
    BackgroundEvent, BackgroundEventKind, ClusterStats, DeliveryFailureRecord, MigrationRecord,
    ProcStats, RecoveryRecord,
};
use crate::transport::{
    windows_from_plan, MsgFaultWindow, PartitionState, RttEstimator, TransportConfig,
    TransportState,
};
use crate::user::{exp_sample, UserModelConfig};
use crate::workload::{PhaseSpec, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use subsonic_obs::{Category, FlightRecorder, TrackRecorder};

/// Flight-recorder process id for cluster-simulation tracks.
const TRACE_PID: u32 = 1;

/// Full configuration of a simulated cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Workstations available (the paper's pool of 25).
    pub hosts: Vec<HostKind>,
    /// Network model parameters.
    pub net: NetworkConfig,
    /// The decomposed numerical workload.
    pub workload: WorkloadSpec,
    /// Host-selection policy.
    pub submit: SubmitPolicy,
    /// Monitoring policy.
    pub monitor: MonitorPolicy,
    /// User/background-job model.
    pub user: UserModelConfig,
    /// Communication ordering (Appendix C).
    pub ordering: CommOrdering,
    /// Periodic checkpoint interval (paper: every 10–20 minutes); `None`
    /// disables checkpointing.
    pub checkpoint_period_s: Option<f64>,
    /// Gap between consecutive staggered saves.
    pub checkpoint_gap_s: f64,
    /// Dump-file size per subregion node, bytes ("a couple of megabytes per
    /// process").
    pub dump_bytes_per_node: f64,
    /// Channel-reopen handshake time at resume.
    pub handshake_s: f64,
    /// CPU share floor of the nice'd subprocess under one competing job.
    pub nice_floor: f64,
    /// Fractional jitter on compute-phase durations, uniform in
    /// `[1, 1 + jitter]` — the "small delays [that] are inevitable in
    /// time-sharing UNIX systems" of Appendix C. Zero for exact timing.
    pub compute_jitter: f64,
    /// Injected failures (host crashes/reboots, transient stalls, bus
    /// saturation bursts). The empty plan schedules nothing and leaves every
    /// seeded result bit-identical.
    pub faults: FaultPlan,
    /// Heartbeat failure detector of the monitoring program.
    pub detector: DetectorPolicy,
    /// Reliable-transport tuning (engaged only when the fault plan contains
    /// message-level faults; otherwise the legacy statistical wire path runs
    /// and these knobs are inert).
    pub transport: TransportConfig,
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
}

/// Re-planning period while a host's processor-sharing rate is still
/// relaxing toward the instantaneous competitor count.
const CPU_RELAX_TICK_S: f64 = 15.0;
/// Demand convergence tolerance below which relaxation ticks stop.
const CPU_RELAX_EPS: f64 = 0.02;
/// Longest rendezvous stall a slow receiver is charged catch-up for: the
/// protocol work a host can defer while computing is bounded (receive
/// buffers fill and the sender's window closes), so the catch-up term of
/// the step-coupling model saturates here. Calibrated against the section-7
/// heterogeneous-pool measurements (see DESIGN.md).
const STALL_CATCHUP_CAP_S: f64 = 0.5;
/// Catch-up work per second of stall, relative to the receiver's speed
/// deficit: the deferred protocol processing spans the kernel stack and the
/// application's receive loop, so the charge exceeds the bare rate deficit.
/// Calibrated so the simulated heterogeneous-pool step time reproduces the
/// section-7 measurement (t20/t16 ≈ 1.16, see DESIGN.md).
const STALL_CATCHUP_GAIN: f64 = 1.1;
/// Seed salt separating the user/background RNG stream from the bus stream:
/// policy-only configuration changes reorder bus draws but must never perturb
/// the background environment.
const USER_STREAM_SALT: u64 = 0xC0FF_EE00_5EED_0001;

impl ClusterConfig {
    /// Processor-sharing weight of the nice'd subprocess, derived from
    /// `nice_floor` so that the steady-state share under exactly one
    /// competing full-time job equals the floor: `w / (w + 1) = floor`.
    pub fn nice_weight(&self) -> f64 {
        self.nice_floor / (1.0 - self.nice_floor)
    }

    /// A quiet-cluster configuration for performance measurement (the
    /// conditions of section 7: no user load, no checkpoints, no monitor).
    pub fn measurement(workload: WorkloadSpec) -> Self {
        Self {
            hosts: HostKind::paper_cluster(),
            net: NetworkConfig::default(),
            workload,
            submit: SubmitPolicy::default(),
            monitor: MonitorPolicy {
                enabled: false,
                ..MonitorPolicy::default()
            },
            user: UserModelConfig::quiet(),
            ordering: CommOrdering::Fcfs,
            checkpoint_period_s: None,
            checkpoint_gap_s: 20.0,
            dump_bytes_per_node: 96.0,
            handshake_s: 0.5,
            nice_floor: 0.25,
            compute_jitter: 0.0,
            faults: FaultPlan::empty(),
            detector: DetectorPolicy::default(),
            transport: TransportConfig::default(),
            seed: 1,
        }
    }

    /// A production configuration: users, jobs, monitoring, migration and
    /// checkpointing all on (the paper's 12-hour overnight runs).
    pub fn production(workload: WorkloadSpec, seed: u64) -> Self {
        Self {
            monitor: MonitorPolicy::default(),
            user: UserModelConfig::default(),
            checkpoint_period_s: Some(900.0),
            seed,
            ..Self::measurement(workload)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SyncState {
    Idle,
    Draining { target: u64 },
    Migrating,
}

#[derive(Debug, Clone)]
struct CkptRound {
    order: Vec<usize>,
    next: usize,
    /// Minimum integration step among the saves of this round — the
    /// coordinated-checkpoint step crash recovery can roll back to once the
    /// round completes (the staggered saves of section 5.2 bound a
    /// consistent cut at their minimum step).
    min_step: u64,
    /// Processes that actually saved this round (a round that skipped a
    /// paused/migrating process does not advance the recovery point).
    saved: usize,
}

/// A failure-triggered recovery in progress (between declaration and the
/// global resume).
#[derive(Debug, Clone, Copy)]
struct RecoveryCtx {
    pid: usize,
    from_host: usize,
    fault_time: f64,
    detect_time: f64,
    step_at_failure: u64,
    false_positive: bool,
}

/// What started a suspicion chain on a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainTrigger {
    /// Out-of-band silence: the host crashed or froze (heartbeats stopped).
    HostSilent,
    /// The reliable transport reported delivery failures toward this host;
    /// the monitor can only judge it by traffic evidence (fixed mode) or
    /// wire probes (accrual mode).
    CommSuspect,
}

/// Per-host failure-detector context (evidence clock, probe RTT estimate,
/// and the state of the current suspicion chain, if any).
#[derive(Debug, Clone)]
struct DetCtx {
    /// What started the current chain.
    trigger: ChainTrigger,
    /// When the current suspicion chain began.
    chain_started: f64,
    /// `probe_epoch` value the current chain runs under (`u64::MAX` = no
    /// chain has ever run; any probe-epoch bump invalidates the chain).
    chain_epoch: u64,
    /// Latest proof of life the monitor has for this host: a delivered DATA
    /// or ACK sent by its subprocess, or a probe reply.
    last_evidence: f64,
    /// RTT estimate of monitor ↔ host wire probes (accrual mode): the
    /// congestion-awareness — a loaded bus inflates the expected-reply
    /// horizon instead of burning through a fixed miss budget.
    rtt: RttEstimator,
    /// Wire-probe sequence counter.
    probe_seq: u64,
    /// Outstanding wire probes: sequence number → send time.
    probe_sent: BTreeMap<u64, f64>,
}

impl DetCtx {
    fn new() -> Self {
        Self {
            trigger: ChainTrigger::HostSilent,
            chain_started: 0.0,
            chain_epoch: u64::MAX,
            last_evidence: 0.0,
            rtt: RttEstimator::default(),
            probe_seq: 0,
            probe_sent: BTreeMap::new(),
        }
    }
}

/// The discrete-event cluster simulation.
pub struct ClusterSim {
    cfg: ClusterConfig,
    q: EventQueue,
    /// RNG stream of the network model (collision/loss draws).
    rng_bus: SmallRng,
    /// RNG stream of the user/background model.
    rng_user: SmallRng,
    /// RNG stream of the reliable transport (injected loss/dup/reorder draws
    /// and the wire sampling of transport messages). Never drawn from when
    /// the transport is disengaged, so fault-free plans stay bit-identical.
    rng_transport: SmallRng,
    hosts: Vec<HostState>,
    procs: Vec<SimProcess>,
    net: NetworkModel,
    sync: SyncState,
    ckpt: Option<CkptRound>,
    target_steps: Option<u64>,
    done_count: usize,
    paused_count: usize,
    /// Processes currently dead (crashed or declared dead), excluded from the
    /// synchronisation barrier count.
    failed_count: usize,
    /// The failure-triggered recovery in progress, if any.
    recovering: Option<RecoveryCtx>,
    /// Step of the last *completed* coordinated checkpoint round (0 = the
    /// initial state; every process starts from its submitted dump file).
    last_ckpt_step: u64,
    /// A `ResumeAll` is already scheduled (guards against double resumes when
    /// a crash re-checks migrator readiness).
    resume_pending: bool,
    pending_migrators: Vec<usize>,
    migration_signal_time: f64,
    migration_pause_time: f64,
    migration_from: Vec<(usize, usize)>, // (proc, origin host)
    stats: ClusterStats,
    finished_at: Option<f64>,
    /// Events dispatched so far (simulation throughput accounting).
    events_processed: u64,
    /// Flight-recorder session (disabled by default: recording costs nothing
    /// and alters nothing — all timestamps are simulated time, so an enabled
    /// recorder observes a byte-identical event sequence).
    recorder: FlightRecorder,
    /// One sim-time trace track per process (empty when disabled).
    tracks: Vec<TrackRecorder>,
    /// Control-plane track: faults, detection, recovery, migration, wire.
    ctrl: TrackRecorder,
    /// Whether the per-message reliable transport is engaged (the fault plan
    /// contains message-level faults). When `false`, halos ride the legacy
    /// statistical wire path and the transport draws nothing.
    transport_active: bool,
    /// Reliable-transport state (sequence numbers, outstanding messages,
    /// dedup sets, per-link RTT estimates).
    transport: TransportState,
    /// Injected message-fault windows, indexed by the Start/End events.
    msg_windows: Vec<MsgFaultWindow>,
    /// Injected network partitions, indexed by the Start/End events.
    net_partitions: Vec<PartitionState>,
    /// Per-host failure-detector context.
    det: Vec<DetCtx>,
    /// Reused completion buffer for the `NetDone` hot path.
    net_done_buf: Vec<Completion>,
    /// Ring histogram of process step counts: `step_counts[i]` = processes
    /// at step `step_lo + i`. Keeps the skew statistic O(1) per step
    /// completion instead of a full scan of the pool (which was quadratic in
    /// cluster size per lockstep round).
    step_counts: VecDeque<u32>,
    /// Step of the slowest process (`step_counts` front).
    step_lo: u64,
}

impl ClusterSim {
    /// Builds the simulation: assigns every process to a host with the
    /// submit policy and starts the first step.
    pub fn new(cfg: ClusterConfig) -> Self {
        let n_proc = cfg.workload.processes();
        assert!(n_proc > 0, "empty workload");
        assert!(
            n_proc <= cfg.hosts.len(),
            "more processes ({n_proc}) than workstations ({})",
            cfg.hosts.len()
        );
        let rng_bus = SmallRng::seed_from_u64(cfg.seed);
        let mut rng_user = SmallRng::seed_from_u64(cfg.seed ^ USER_STREAM_SALT);
        let rng_transport = SmallRng::seed_from_u64(cfg.seed ^ TRANSPORT_STREAM_SALT);
        let transport_active = cfg.faults.has_message_faults();
        let (msg_windows, net_partitions) = windows_from_plan(&cfg.faults);
        let mut hosts: Vec<HostState> = cfg.hosts.iter().map(|&k| HostState::new(k)).collect();
        // initial user states
        if cfg.user.enabled {
            let p_active = cfg.user.mean_active_s / (cfg.user.mean_active_s + cfg.user.mean_idle_s);
            for h in &mut hosts {
                h.user_active = rng_user.gen::<f64>() < p_active;
                // long-idle so the 20-minute rule can be satisfied at t = 0
                h.idle_since = -2.0 * cfg.submit.idle_threshold_s;
            }
        } else {
            for h in &mut hosts {
                h.idle_since = -2.0 * cfg.submit.idle_threshold_s;
            }
        }

        let n_hosts = hosts.len();
        let mut sim = Self {
            net: NetworkModel::new(cfg.net),
            q: EventQueue::new(),
            rng_bus,
            rng_user,
            rng_transport,
            hosts,
            procs: Vec::new(),
            sync: SyncState::Idle,
            ckpt: None,
            target_steps: None,
            done_count: 0,
            paused_count: 0,
            failed_count: 0,
            recovering: None,
            last_ckpt_step: 0,
            resume_pending: false,
            pending_migrators: Vec::new(),
            migration_signal_time: 0.0,
            migration_pause_time: 0.0,
            migration_from: Vec::new(),
            stats: ClusterStats::default(),
            finished_at: None,
            events_processed: 0,
            recorder: FlightRecorder::disabled(),
            tracks: Vec::new(),
            ctrl: TrackRecorder::disabled(),
            transport_active,
            transport: TransportState::default(),
            msg_windows,
            net_partitions,
            det: vec![DetCtx::new(); n_hosts],
            net_done_buf: Vec::new(),
            step_counts: VecDeque::from([n_proc as u32]),
            step_lo: 0,
            cfg,
        };

        // submit: place every process, in the order repeated `select` calls
        // would, from one ranking of the pool
        let ranked = sim.cfg.submit.rank(0.0, sim.hosts.iter().enumerate());
        assert!(
            ranked.len() >= n_proc,
            "no free workstation for a parallel subprocess"
        );
        for (pid, &host) in ranked[..n_proc].iter().enumerate() {
            sim.hosts[host].touch(0.0);
            sim.hosts[host].assigned_proc = Some(pid);
            sim.procs.push(SimProcess::new(pid, host));
        }

        // background events
        if sim.cfg.user.enabled {
            for h in 0..sim.hosts.len() {
                let mean = if sim.hosts[h].user_active {
                    sim.cfg.user.mean_active_s
                } else {
                    sim.cfg.user.mean_idle_s
                };
                let d = exp_sample(&mut sim.rng_user, mean);
                sim.q.schedule(d, EventKind::UserFlip { host: h });
                let a = exp_sample(&mut sim.rng_user, 1.0 / sim.cfg.user.job_rate_per_s);
                sim.q.schedule(a, EventKind::JobArrival { host: h });
            }
        }
        if sim.cfg.monitor.enabled {
            sim.q
                .schedule(sim.cfg.monitor.period_s, EventKind::MonitorTick);
        }
        if let Some(p) = sim.cfg.checkpoint_period_s {
            sim.q.schedule(p, EventKind::CheckpointTick);
        }

        // injected faults — an empty plan schedules nothing, so the event
        // sequence numbering (and hence every RNG-coupled result) is
        // bit-identical to a build without the fault layer
        let fault_events = sim.cfg.faults.events.clone();
        for ev in fault_events {
            match ev {
                FaultEvent::HostCrash {
                    host,
                    at,
                    reboot_after,
                } => {
                    assert!(host < sim.hosts.len(), "fault host {host} out of range");
                    let at = at.max(0.0);
                    sim.q.schedule_at(at, EventKind::HostCrash { host });
                    if let Some(r) = reboot_after {
                        sim.q.schedule_at(at + r, EventKind::HostReboot { host });
                    }
                }
                FaultEvent::HostFreeze { host, at, duration } => {
                    assert!(host < sim.hosts.len(), "fault host {host} out of range");
                    let at = at.max(0.0);
                    sim.q.schedule_at(at, EventKind::HostFreezeStart { host });
                    sim.q
                        .schedule_at(at + duration.max(0.0), EventKind::HostFreezeEnd { host });
                }
                FaultEvent::BusBurst { at, duration } => {
                    let at = at.max(0.0);
                    sim.q.schedule_at(at, EventKind::BusBurstStart);
                    sim.q
                        .schedule_at(at + duration.max(0.0), EventKind::BusBurstEnd);
                }
                // message-level faults were split into the live window /
                // partition tables by `windows_from_plan`; their open/close
                // events are scheduled below against those table indices
                FaultEvent::MsgFault { .. } | FaultEvent::NetPartition { .. } => {}
            }
        }
        for idx in 0..sim.msg_windows.len() {
            let (at, duration) = (sim.msg_windows[idx].at, sim.msg_windows[idx].duration);
            sim.q.schedule_at(at, EventKind::MsgFaultStart { idx });
            sim.q
                .schedule_at(at + duration, EventKind::MsgFaultEnd { idx });
        }
        for idx in 0..sim.net_partitions.len() {
            let mut seen = std::collections::BTreeSet::new();
            for g in &sim.net_partitions[idx].groups {
                for &h in g {
                    assert!(h < n_hosts, "partition host {h} out of range");
                    assert!(seen.insert(h), "partition groups must be disjoint");
                }
            }
            let at = sim.net_partitions[idx].at;
            sim.q.schedule_at(at, EventKind::PartitionStart { idx });
            if let Some(heal) = sim.net_partitions[idx].heal_after {
                sim.q
                    .schedule_at(at + heal.max(0.0), EventKind::PartitionEnd { idx });
            }
        }

        // start every process on phase 0
        for pid in 0..n_proc {
            sim.start_phase(pid);
        }
        sim
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.q.now()
    }

    /// Attaches a flight recorder: one sim-time track per process (compute /
    /// halo-wait / checkpoint spans) plus a control track for faults,
    /// detection, recovery, migrations and wire transfers. All timestamps
    /// come from the simulated clock, so the trace is deterministic given
    /// the seed and recording never perturbs the event sequence.
    pub fn with_recorder(mut self, recorder: &FlightRecorder) -> Self {
        self.recorder = recorder.clone();
        if self.recorder.is_enabled() {
            self.tracks = (0..self.procs.len())
                .map(|pid| {
                    self.recorder.track(
                        TRACE_PID,
                        pid as u32,
                        "cluster-sim",
                        &format!("proc {pid}"),
                    )
                })
                .collect();
            self.ctrl =
                self.recorder
                    .track(TRACE_PID, self.procs.len() as u32, "cluster-sim", "runtime");
        }
        self
    }

    /// Records a sim-time span on process `pid`'s track (no-op when the
    /// recorder is disabled — `tracks` is empty then).
    #[inline]
    fn rec_span(&mut self, pid: usize, cat: Category, name: &'static str, t0: f64, t1: f64) {
        if let Some(tr) = self.tracks.get_mut(pid) {
            tr.span_sim(cat, name, t0, t1);
        }
    }

    /// Runs until `t_end` (simulated seconds) or until every process has
    /// completed `target_steps`, whichever comes first. Returns statistics.
    pub fn run(&mut self, t_end: f64, target_steps: Option<u64>) -> ClusterStats {
        self.target_steps = target_steps;
        // The end-of-window sentinel is cancelled by handle when the run
        // stops early (every process reached its target): the PR 6 queue had
        // no cancellation, so the stale `Stop` leaked into a subsequent
        // `run()` call and could end it instantly.
        let stop = self.q.schedule_at_cancellable(t_end, EventKind::Stop);
        while let Some((_, ev)) = self.q.pop() {
            match ev {
                EventKind::Stop => break,
                other => self.dispatch(other),
            }
            if self.done_count == self.procs.len() {
                break;
            }
        }
        self.q.cancel(stop);
        self.finalize()
    }

    // ------------------------------------------------------------------
    // event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: EventKind) {
        self.events_processed += 1;
        self.stats.peak_queue_events = self.stats.peak_queue_events.max(self.q.len());
        self.stats.peak_net_transfers = self.stats.peak_net_transfers.max(self.net.active());
        match ev {
            EventKind::ComputeDone { proc_id, epoch } => self.on_compute_done(proc_id, epoch),
            EventKind::NetDone { epoch } => self.on_net_done(epoch),
            EventKind::CpuRelax { host } => self.on_cpu_relax(host),
            EventKind::UserFlip { host } => self.on_user_flip(host),
            EventKind::JobArrival { host } => self.on_job_arrival(host),
            EventKind::JobDeparture { host } => self.on_job_departure(host),
            EventKind::MonitorTick => self.on_monitor_tick(),
            EventKind::CheckpointTick => self.on_checkpoint_tick(),
            EventKind::CheckpointToken { order_index } => self.on_checkpoint_token(order_index),
            EventKind::DumpTransferDone { .. } => {
                unreachable!("dump completions arrive as NetDone payloads")
            }
            EventKind::SubmitRetry => self.on_submit_retry(),
            EventKind::ResendHalo {
                to_proc,
                step,
                xch,
                from_proc,
            } => self.on_resend_halo(to_proc, step, xch, from_proc),
            EventKind::StagedCatchup {
                to_proc,
                from_proc,
                bytes,
                step,
                xch,
            } => self.on_staged_catchup(to_proc, from_proc, bytes, step, xch),
            EventKind::ResendDump { proc_id } => self.on_resend_dump(proc_id),
            EventKind::ResumeAll => self.on_resume_all(),
            EventKind::HostCrash { host } => self.on_host_crash(host),
            EventKind::HostReboot { host } => self.on_host_reboot(host),
            EventKind::HostFreezeStart { host } => self.on_host_freeze_start(host),
            EventKind::HostFreezeEnd { host } => self.on_host_freeze_end(host),
            EventKind::BusBurstStart => {
                self.stats.bus_bursts += 1;
                self.net.set_forced_saturation(true);
                let now = self.now();
                self.ctrl.instant_sim(Category::Net, "bus burst start", now);
            }
            EventKind::BusBurstEnd => {
                self.net.set_forced_saturation(false);
                let now = self.now();
                self.ctrl.instant_sim(Category::Net, "bus burst end", now);
            }
            EventKind::HeartbeatProbe {
                host,
                misses,
                probe_epoch,
            } => self.on_heartbeat_probe(host, misses, probe_epoch),
            EventKind::RetxTimer {
                from_proc,
                to_proc,
                seq,
                attempt,
            } => self.on_retx_timer(from_proc, to_proc, seq, attempt),
            EventKind::TransportSend {
                from_proc,
                to_proc,
                seq,
                attempt,
                lost,
            } => self.on_transport_send(from_proc, to_proc, seq, attempt, lost),
            EventKind::MsgFaultStart { idx } => self.on_msg_fault_start(idx),
            EventKind::MsgFaultEnd { idx } => self.on_msg_fault_end(idx),
            EventKind::PartitionStart { idx } => self.on_partition_start(idx),
            EventKind::PartitionEnd { idx } => self.on_partition_end(idx),
            EventKind::Stop => {}
        }
    }

    // ------------------------------------------------------------------
    // process execution
    // ------------------------------------------------------------------

    /// Effective compute rate of a process right now: the host's hardware
    /// speed times its processor-sharing CPU share (governed by the 1-minute
    /// load average of competing jobs and the `nice` weight), divided by any
    /// deliberate slowdown factor.
    fn rate_of(&self, pid: usize) -> f64 {
        let p = &self.procs[pid];
        let h = &self.hosts[p.host];
        h.kind
            .node_rate(self.cfg.workload.method, self.cfg.workload.three_d)
            * h.cpu_share(self.now(), self.cfg.nice_weight())
            / h.slowdown
    }

    fn start_phase(&mut self, pid: usize) {
        let phase = self.procs[pid].phase;
        match self.cfg.workload.plan[phase] {
            PhaseSpec::Compute { fraction } => {
                let work = fraction * self.cfg.workload.tiles[pid].nodes as f64;
                self.begin_compute(pid, work);
            }
            PhaseSpec::Exchange { xch } => {
                self.do_sends(pid, xch);
                self.try_finish_recv(pid, xch);
            }
        }
    }

    /// Deterministic per-(process, step, phase) jitter factor in
    /// `[1, 1 + jitter]`. A hash rather than the shared RNG stream, so two
    /// runs that differ only in policy (e.g. FCFS vs strict ordering) see the
    /// *identical* sequence of compute durations — the Appendix-C comparison
    /// is then apples-to-apples.
    fn jitter_factor(&self, pid: usize) -> f64 {
        let p = &self.procs[pid];
        let mut h = self.cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (pid as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ p.step.wrapping_mul(0x94D0_49BB_1331_11EB)
            ^ (p.phase as u64).wrapping_add(0x2545_F491_4F6C_DD1D);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        1.0 + self.cfg.compute_jitter * (h as f64 / u64::MAX as f64)
    }

    fn begin_compute(&mut self, pid: usize, mut work: f64) {
        if work <= 0.0 {
            self.advance_phase(pid);
            return;
        }
        if self.cfg.compute_jitter > 0.0 {
            work *= self.jitter_factor(pid);
        }
        let now = self.now();
        let rate = self.rate_of(pid);
        let p = &mut self.procs[pid];
        p.state = ProcState::Computing {
            remaining: work,
            rate,
            since: now,
        };
        let epoch = p.bump_epoch();
        self.q.schedule(
            work / rate,
            EventKind::ComputeDone {
                proc_id: pid,
                epoch,
            },
        );
    }

    fn on_compute_done(&mut self, pid: usize, epoch: u64) {
        let now = self.now();
        let p = &mut self.procs[pid];
        if p.epoch != epoch {
            return; // superseded (rate change, checkpoint, ...)
        }
        if let ProcState::Computing { since, .. } = p.state {
            p.t_calc += now - since;
            self.rec_span(pid, Category::Compute, "compute", since, now);
            self.advance_phase(pid);
        }
    }

    fn advance_phase(&mut self, pid: usize) {
        self.procs[pid].phase += 1;
        if self.procs[pid].phase == self.cfg.workload.plan.len() {
            self.complete_step(pid);
        } else {
            self.start_phase(pid);
        }
    }

    fn complete_step(&mut self, pid: usize) {
        let now = self.now();
        let from_step = self.procs[pid].step;
        self.procs[pid].step += 1;
        self.procs[pid].phase = 0;
        self.note_step_advance(from_step);

        if let Some(t) = self.target_steps {
            if self.procs[pid].step >= t {
                self.procs[pid].state = ProcState::Done;
                self.done_count += 1;
                if self.done_count == self.procs.len() {
                    self.finished_at = Some(now);
                }
                // finishing shrinks the barrier population: re-check a drain
                self.maybe_all_paused();
                return;
            }
        }
        if let SyncState::Draining { target } = self.sync {
            if self.procs[pid].step == target {
                self.procs[pid].state = ProcState::AtSyncBarrier;
                self.procs[pid].pause_since = now;
                self.paused_count += 1;
                self.maybe_all_paused();
                return;
            }
        }
        self.start_phase(pid);
    }

    /// Live processes the synchronisation barrier waits for: everyone not
    /// done and not dead.
    fn live_expected(&self) -> usize {
        self.procs.len() - self.done_count - self.failed_count
    }

    /// Fires the barrier completion if every live process has paused (called
    /// on barrier arrivals *and* when a crash removes a straggler).
    fn maybe_all_paused(&mut self) {
        if matches!(self.sync, SyncState::Draining { .. })
            && self.paused_count >= self.live_expected()
        {
            self.on_all_paused();
        }
    }

    /// O(1) skew bookkeeping for a process advancing `from_step` →
    /// `from_step + 1`. Samples `max_observed_skew` at exactly the points
    /// the old full-pool scan did (step completions only).
    fn note_step_advance(&mut self, from_step: u64) {
        let i = (from_step - self.step_lo) as usize;
        self.step_counts[i] -= 1;
        if i + 1 == self.step_counts.len() {
            self.step_counts.push_back(0);
        }
        self.step_counts[i + 1] += 1;
        while self.step_counts.front() == Some(&0) {
            self.step_counts.pop_front();
            self.step_lo += 1;
        }
        let skew = (self.step_counts.len() - 1) as u64;
        if skew > self.stats.max_observed_skew {
            self.stats.max_observed_skew = skew;
        }
    }

    /// Rebuilds the step histogram from scratch after a rollback moved step
    /// counters backwards (recovery only — never on the hot path). Does not
    /// sample the skew statistic: like the old scan, skew is only observed
    /// at step completions.
    fn rebuild_step_hist(&mut self) {
        self.step_lo = self.procs.iter().map(|p| p.step).min().unwrap_or(0);
        self.step_counts.clear();
        for p in &self.procs {
            let i = (p.step - self.step_lo) as usize;
            if i >= self.step_counts.len() {
                self.step_counts.resize(i + 1, 0);
            }
            self.step_counts[i] += 1;
        }
        if self.step_counts.is_empty() {
            self.step_counts.push_back(0);
        }
    }

    // ------------------------------------------------------------------
    // communication
    // ------------------------------------------------------------------

    fn do_sends(&mut self, pid: usize, xch: usize) {
        let step = self.procs[pid].step;
        // indexed re-borrow instead of cloning the link list: this runs once
        // per exchange phase and the clone's allocation dominated it
        for li in 0..self.cfg.workload.tiles[pid].neighbors[xch].len() {
            let (peer, bytes) = self.cfg.workload.tiles[pid].neighbors[xch][li];
            debug_assert_ne!(peer, pid, "self-links are not supported by the cluster sim");
            let gated = self.cfg.ordering == CommOrdering::Strict
                && peer > pid
                && !self.procs[pid].have_all(
                    step,
                    xch,
                    self.senders(pid, xch).filter(|&p| p < pid),
                );
            if gated {
                self.procs[pid].deferred_sends.push((peer, bytes, xch));
            } else {
                self.offer_halo(pid, peer, bytes, step, xch);
            }
        }
    }

    /// Offers a halo to `to`: the wire transfer starts only if the receiver
    /// has posted the matching receive (it is blocked in `WaitingRecv` for
    /// exactly this `(step, xch)`). Otherwise the send is staged and released
    /// when the receiver posts the receive in [`ClusterSim::try_finish_recv`].
    ///
    /// This is the per-edge, per-exchange dependency coupling: an early
    /// sender cannot stream its boundary into a peer that is still computing
    /// (TCP flow control stalls the bulk transfer until the reader drains its
    /// socket), so a process's exchange phase genuinely waits on each
    /// neighbour's step-`n` data crossing the wire *after* it asked for it —
    /// which is what makes the pool's slowest machine govern the step time.
    fn offer_halo(&mut self, from: usize, to: usize, bytes: f64, step: u64, xch: usize) {
        let ready = self.procs[to].step == step
            && matches!(self.procs[to].state, ProcState::WaitingRecv { xch: wx } if wx == xch);
        if ready {
            self.send_halo(from, to, bytes, step, xch);
        } else {
            let since = self.now();
            self.procs[to].staged_in.push(StagedHalo {
                from,
                bytes,
                step,
                xch,
                since,
            });
            self.stats.rendezvous_staged += 1;
        }
    }

    /// Endpoint CPU cap on a halo transfer's wire rate: the protocol stack
    /// is CPU-bound (section 7's `V_com`), so the slower of the two hosts
    /// limits how fast the message's bytes move through its bus share.
    fn halo_rate_scale(&self, from: usize, to: usize) -> f64 {
        let m = self.cfg.workload.method;
        let d3 = self.cfg.workload.three_d;
        let u_ref = HostKind::Hp715_50.node_rate(m, d3);
        let rel_from = self.hosts[self.procs[from].host].kind.node_rate(m, d3) / u_ref;
        let rel_to = self.hosts[self.procs[to].host].kind.node_rate(m, d3) / u_ref;
        rel_from.min(rel_to).min(1.0)
    }

    fn send_halo(&mut self, from: usize, to: usize, bytes: f64, step: u64, xch: usize) {
        if self.transport_active {
            self.transport_send(from, to, bytes, step, xch);
            return;
        }
        let now = self.now();
        let scale = self.halo_rate_scale(from, to);
        self.net.start_transfer_scaled(
            now,
            bytes,
            scale,
            TransferPayload::Halo {
                to_proc: to,
                step,
                xch,
                from_proc: from,
            },
            &mut self.rng_bus,
        );
        self.reschedule_net();
    }

    // ------------------------------------------------------------------
    // reliable transport (Appendix D state machine)
    // ------------------------------------------------------------------

    /// Whether any active partition severs the two hosts.
    fn link_severed(&self, host_a: usize, host_b: usize) -> bool {
        self.net_partitions.iter().any(|p| p.severs(host_a, host_b))
    }

    /// Whether any active partition cuts the monitor (island 0) off `host`.
    fn monitor_severed(&self, host: usize) -> bool {
        self.net_partitions.iter().any(|p| p.severs_monitor(host))
    }

    /// Hands one halo to the reliable transport: allocate a sequence number,
    /// arm the retransmission timer, and put the first DATA transmission on
    /// the wire.
    fn transport_send(&mut self, from: usize, to: usize, bytes: f64, step: u64, xch: usize) {
        let now = self.now();
        let seq = self.transport.alloc_seq(from, to);
        let rto =
            self.transport
                .register(&self.cfg.transport, (from, to, seq), bytes, step, xch, now);
        self.stats.transport.data_sent += 1;
        self.q.schedule(
            rto,
            EventKind::RetxTimer {
                from_proc: from,
                to_proc: to,
                seq,
                attempt: 1,
            },
        );
        self.transmit_data(from, to, seq, 1);
    }

    /// One transmission attempt of an outstanding DATA message: samples the
    /// injected faults (loss, duplication, reordering — fixed draw order so
    /// results are reproducible), applies partition severing, and puts the
    /// surviving transmissions on the wire. A reordered transmission is held
    /// back with its loss verdict pre-sampled, so the RNG draw sequence does
    /// not depend on the hold-back delay.
    fn transmit_data(&mut self, from: usize, to: usize, seq: u64, attempt: u32) {
        let severed = self.link_severed(self.procs[from].host, self.procs[to].host);
        if severed {
            self.stats.transport.partition_drops += 1;
        }
        let (mut inj_lost, mut inj_dup, mut inj_reorder) = (false, false, false);
        for i in 0..self.msg_windows.len() {
            let w = self.msg_windows[i];
            if !w.matches(from, to) {
                continue;
            }
            if w.loss > 0.0 && self.rng_transport.gen::<f64>() < w.loss {
                inj_lost = true;
            }
            if w.dup > 0.0 && self.rng_transport.gen::<f64>() < w.dup {
                inj_dup = true;
            }
            if w.reorder > 0.0 && self.rng_transport.gen::<f64>() < w.reorder {
                inj_reorder = true;
            }
        }
        if inj_lost && !severed {
            self.stats.transport.injected_losses += 1;
        }
        let lost = severed || inj_lost;
        if inj_reorder {
            self.stats.transport.injected_reorders += 1;
            let delay = self.rng_transport.gen::<f64>() * self.cfg.transport.reorder_delay_s;
            self.q.schedule(
                delay,
                EventKind::TransportSend {
                    from_proc: from,
                    to_proc: to,
                    seq,
                    attempt,
                    lost,
                },
            );
        } else {
            self.wire_data(from, to, seq, attempt, lost);
        }
        if inj_dup {
            // the duplicate is an independent wire copy with its own loss
            // draw; it does not re-sample duplication (no duplication chains)
            self.stats.transport.injected_dups += 1;
            let mut dup_lost = severed;
            for i in 0..self.msg_windows.len() {
                let w = self.msg_windows[i];
                if w.matches(from, to) && w.loss > 0.0 && self.rng_transport.gen::<f64>() < w.loss {
                    dup_lost = true;
                }
            }
            self.wire_data(from, to, seq, attempt, dup_lost);
        }
    }

    /// Puts one DATA transmission on the bus. A held-back transmission whose
    /// message was acknowledged in the meantime (its duplicate raced ahead)
    /// simply evaporates.
    fn wire_data(&mut self, from: usize, to: usize, seq: u64, attempt: u32, lost: bool) {
        let Some(msg) = self.transport.outstanding.get(&(from, to, seq)) else {
            return;
        };
        let (bytes, step, xch) = (msg.bytes, msg.step, msg.xch);
        let now = self.now();
        let scale = self.halo_rate_scale(from, to);
        self.net.start_transfer_faulted(
            now,
            bytes,
            scale,
            TransferPayload::HaloData {
                to_proc: to,
                step,
                xch,
                from_proc: from,
                seq,
                attempt,
            },
            &mut self.rng_transport,
            lost,
        );
        self.reschedule_net();
    }

    /// A reorder-delayed transmission finally enters the wire.
    fn on_transport_send(&mut self, from: usize, to: usize, seq: u64, attempt: u32, lost: bool) {
        self.wire_data(from, to, seq, attempt, lost);
    }

    /// A retransmission timeout expired. Stale timers (the message was
    /// acknowledged, or a newer attempt re-armed the timer) fall through the
    /// lookup / attempt check and do nothing.
    fn on_retx_timer(&mut self, from_proc: usize, to_proc: usize, seq: u64, attempt: u32) {
        let now = self.now();
        let tcfg = self.cfg.transport;
        let Some(msg) = self
            .transport
            .outstanding
            .get_mut(&(from_proc, to_proc, seq))
        else {
            return; // acknowledged (or recovery voided the sender state)
        };
        if msg.attempts != attempt {
            return; // a newer attempt owns the live timer
        }
        msg.attempts += 1;
        let give_up_now = !msg.gave_up && msg.attempts > tcfg.max_attempts;
        if give_up_now {
            msg.gave_up = true;
            msg.rto = tcfg.max_rto_s;
        } else if !msg.gave_up {
            msg.rto = (msg.rto * tcfg.rto_backoff).min(tcfg.max_rto_s);
        }
        let (rto, attempts, step, xch) = (msg.rto, msg.attempts, msg.step, msg.xch);
        self.stats.transport.retransmits += 1;
        self.ctrl.instant_sim_arg(
            Category::Net,
            "retransmit",
            now,
            Some(("to_proc", to_proc as f64)),
        );
        self.q.schedule(
            rto,
            EventKind::RetxTimer {
                from_proc,
                to_proc,
                seq,
                attempt: attempts,
            },
        );
        self.transmit_data(from_proc, to_proc, seq, attempts);
        if give_up_now {
            // the observable symptom section 7 describes: the transport
            // "fails to deliver messages after excessive retransmissions"
            self.stats.transport.give_ups += 1;
            self.stats.delivery_failures.push(DeliveryFailureRecord {
                from_proc,
                to_proc,
                step,
                xch,
                at: now,
                attempts,
            });
            self.ctrl.instant_sim_arg(
                Category::Fault,
                "delivery failure",
                now,
                Some(("to_proc", to_proc as f64)),
            );
            self.report_comm_failure(to_proc);
        }
    }

    /// The transport reported a delivery failure toward `suspect_proc`: open
    /// a communication-triggered suspicion chain on its host, unless one is
    /// already running there.
    fn report_comm_failure(&mut self, suspect_proc: usize) {
        if !self.cfg.detector.enabled {
            return;
        }
        let host = self.procs[suspect_proc].host;
        if self.det[host].chain_epoch == self.hosts[host].probe_epoch {
            return; // a chain (either trigger) is already live on this host
        }
        let now = self.now();
        self.hosts[host].bump_probe_epoch();
        let probe_epoch = self.hosts[host].probe_epoch;
        let d = &mut self.det[host];
        d.trigger = ChainTrigger::CommSuspect;
        d.chain_started = now;
        d.chain_epoch = probe_epoch;
        self.ctrl.instant_sim_arg(
            Category::Detection,
            "comm suspect",
            now,
            Some(("host", host as f64)),
        );
        self.q.schedule(
            self.cfg.detector.timeout_s,
            EventKind::HeartbeatProbe {
                host,
                misses: 1,
                probe_epoch,
            },
        );
    }

    /// Fresh proof of life for `host`: delivered DATA or ACK traffic sent by
    /// its subprocess (the monitor snoops the shared bus), or a probe reply.
    /// Evidence immediately ends a communication-triggered suspicion chain;
    /// out-of-band-silence chains re-verify the host directly at each probe,
    /// so stale in-flight traffic cannot mask a crash.
    fn note_evidence(&mut self, host: usize) {
        let now = self.now();
        let d = &mut self.det[host];
        d.last_evidence = now;
        if d.chain_epoch == self.hosts[host].probe_epoch && d.trigger == ChainTrigger::CommSuspect {
            self.hosts[host].bump_probe_epoch();
        }
    }

    /// A DATA message reached its receiver: ACK on the reverse link, then
    /// deliver to the solver unless the sequence number is a duplicate.
    fn on_halo_data_arrival(
        &mut self,
        to: usize,
        step: u64,
        xch: usize,
        from: usize,
        seq: u64,
        attempt: u32,
    ) {
        let now = self.now();
        self.note_evidence(self.procs[from].host);
        if !self.hosts[self.procs[to].host].available() {
            return; // a dead or frozen application cannot acknowledge
        }
        let mut ack_lost = self.link_severed(self.procs[to].host, self.procs[from].host);
        if ack_lost {
            self.stats.transport.partition_drops += 1;
        }
        for i in 0..self.msg_windows.len() {
            let w = self.msg_windows[i];
            if w.matches_ack(to, from) && w.loss > 0.0 && self.rng_transport.gen::<f64>() < w.loss {
                if !ack_lost {
                    self.stats.transport.injected_losses += 1;
                }
                ack_lost = true;
            }
        }
        self.stats.transport.acks_sent += 1;
        self.net.start_transfer_faulted(
            now,
            self.cfg.transport.ack_bytes,
            1.0,
            TransferPayload::Ack {
                to_proc: from,
                from_proc: to,
                seq,
                attempt,
            },
            &mut self.rng_transport,
            ack_lost,
        );
        self.reschedule_net();
        if self.transport.mark_delivered(from, to, seq) {
            self.deliver_halo(to, step, xch, from);
        } else {
            self.stats.transport.dup_suppressed += 1;
        }
    }

    /// An ACK returned to the original sender: settle the outstanding
    /// message (stale retransmission timers die on lookup) and feed the RTT
    /// estimator.
    fn on_ack_arrival(&mut self, sender: usize, acker: usize, seq: u64) {
        let now = self.now();
        self.note_evidence(self.procs[acker].host);
        match self.transport.on_ack(sender, acker, seq, now) {
            Some(_) => self.stats.transport.acks_received += 1,
            None => self.stats.transport.late_acks += 1,
        }
    }

    /// The accrual detector sends one wire probe to a suspect host. Probes
    /// ride the modelled network (they queue behind bulk traffic, which is
    /// what makes the detector congestion-aware) but are monitor ↔ host
    /// traffic, not process-link traffic, so injected message faults do not
    /// apply to them; partitions do.
    fn send_probe(&mut self, host: usize) {
        let now = self.now();
        let lost = self.monitor_severed(host);
        if lost {
            self.stats.transport.partition_drops += 1;
        }
        let d = &mut self.det[host];
        d.probe_seq += 1;
        let seq = d.probe_seq;
        d.probe_sent.insert(seq, now);
        self.stats.transport.probes_sent += 1;
        self.net.start_transfer_faulted(
            now,
            self.cfg.transport.probe_bytes,
            1.0,
            TransferPayload::Probe { host, seq },
            &mut self.rng_transport,
            lost,
        );
        self.reschedule_net();
    }

    /// A probe reached the suspect host; a live, unfrozen host replies.
    fn on_probe_arrival(&mut self, host: usize, seq: u64) {
        if !self.hosts[host].answers_probes() {
            return;
        }
        let now = self.now();
        let lost = self.monitor_severed(host);
        if lost {
            self.stats.transport.partition_drops += 1;
        }
        self.net.start_transfer_faulted(
            now,
            self.cfg.transport.probe_bytes,
            1.0,
            TransferPayload::ProbeReply { host, seq },
            &mut self.rng_transport,
            lost,
        );
        self.reschedule_net();
    }

    /// The monitor got a probe reply: sample the round-trip into the host's
    /// RTT estimate and register the evidence (which ends a comm-triggered
    /// chain — the host answered, so it is alive, just slow).
    fn on_probe_reply(&mut self, host: usize, seq: u64) {
        let now = self.now();
        self.stats.transport.probe_replies += 1;
        if let Some(sent) = self.det[host].probe_sent.remove(&seq) {
            self.det[host].rtt.sample(now - sent);
        }
        self.note_evidence(host);
    }

    /// An injected message-fault window opens.
    fn on_msg_fault_start(&mut self, idx: usize) {
        self.msg_windows[idx].active = true;
        self.stats.msg_fault_windows += 1;
        self.ctrl.instant_sim_arg(
            Category::Fault,
            "msg faults on",
            self.now(),
            Some(("idx", idx as f64)),
        );
    }

    /// The message-fault window closes.
    fn on_msg_fault_end(&mut self, idx: usize) {
        self.msg_windows[idx].active = false;
        self.ctrl.instant_sim_arg(
            Category::Fault,
            "msg faults off",
            self.now(),
            Some(("idx", idx as f64)),
        );
    }

    /// An injected network partition begins.
    fn on_partition_start(&mut self, idx: usize) {
        self.net_partitions[idx].active = true;
        self.stats.partitions += 1;
        self.ctrl.instant_sim_arg(
            Category::Fault,
            "partition",
            self.now(),
            Some(("idx", idx as f64)),
        );
    }

    /// The partition heals; retransmissions start getting through again.
    fn on_partition_end(&mut self, idx: usize) {
        self.net_partitions[idx].active = false;
        self.ctrl.instant_sim_arg(
            Category::Fault,
            "partition healed",
            self.now(),
            Some(("idx", idx as f64)),
        );
    }

    /// CPU-bound catch-up a receiver pays before a stalled sender's bytes
    /// flow. A reference-speed host reopens the stalled connection for free,
    /// but a slower host must first work through the protocol processing it
    /// deferred while it was computing, at its speed deficit:
    /// `min(τ, cap)·(1/rel − 1)` seconds for a stall of `τ`. This is the
    /// step-coupling term that makes the slowest machines govern the step
    /// time the way section 7 measures: the longer a slow host computes past
    /// its peers, the longer its held-back senders take to get going again
    /// once it finally asks for the data.
    fn stall_catchup_delay(&self, pid: usize, stalled_for: f64) -> f64 {
        let m = self.cfg.workload.method;
        let d3 = self.cfg.workload.three_d;
        let u_ref = HostKind::Hp715_50.node_rate(m, d3);
        let rel = self.hosts[self.procs[pid].host].kind.node_rate(m, d3) / u_ref;
        if rel >= 1.0 {
            0.0
        } else {
            STALL_CATCHUP_GAIN * stalled_for.min(STALL_CATCHUP_CAP_S) * (1.0 / rel - 1.0)
        }
    }

    fn reschedule_net(&mut self) {
        if let Some(t) = self.net.next_completion() {
            let epoch = self.net.epoch();
            self.q
                .schedule_at(t.max(self.now()), EventKind::NetDone { epoch });
        }
    }

    /// Every peer `pid` receives from in exchange `xch`; the lower-ranked
    /// ones gate strict-ordering sends.
    fn senders(&self, pid: usize, xch: usize) -> impl Iterator<Item = usize> + '_ {
        self.cfg.workload.tiles[pid].neighbors[xch]
            .iter()
            .map(|&(peer, _)| peer)
    }

    fn try_finish_recv(&mut self, pid: usize, xch: usize) {
        let now = self.now();
        let step = self.procs[pid].step;
        if self.procs[pid].have_all(step, xch, self.senders(pid, xch)) {
            if !self.procs[pid].consume(step, xch) {
                self.stats.out_of_order_consumes += 1;
            }
            self.advance_phase(pid);
        } else {
            let p = &mut self.procs[pid];
            p.state = ProcState::WaitingRecv { xch };
            p.wait_since = now;
            // prune staged entries for already-completed exchanges; entries
            // matching the newly posted receive stay staged and go onto the
            // wire one at a time (the receiver's event loop drains one
            // socket at a time, so held-back senders unblock serially)
            self.procs[pid]
                .staged_in
                .retain(|s| s.step > step || (s.step == step && s.xch >= xch));
            self.release_next_staged(pid);
        }
    }

    /// Puts the next staged halo matching `pid`'s posted receive onto the
    /// wire, if any. Called when the receive is posted and again on every
    /// delivery to `pid`, which serialises the release of held-back sends.
    fn release_next_staged(&mut self, pid: usize) {
        let ProcState::WaitingRecv { xch } = self.procs[pid].state else {
            return;
        };
        let step = self.procs[pid].step;
        if self.procs[pid].catchup_pending {
            return;
        }
        if let Some(i) = self.procs[pid]
            .staged_in
            .iter()
            .position(|s| s.step == step && s.xch == xch)
        {
            let s = self.procs[pid].staged_in.remove(i);
            let stalled_for = self.now() - s.since;
            self.stats.rendezvous_wait_total += stalled_for;
            let delay = self.stall_catchup_delay(pid, stalled_for);
            if delay > 0.0 {
                self.procs[pid].catchup_pending = true;
                self.q.schedule(
                    delay,
                    EventKind::StagedCatchup {
                        to_proc: pid,
                        from_proc: s.from,
                        bytes: s.bytes,
                        step: s.step,
                        xch: s.xch,
                    },
                );
            } else {
                self.send_halo(s.from, pid, s.bytes, s.step, s.xch);
            }
        }
    }

    fn on_staged_catchup(&mut self, to: usize, from: usize, bytes: f64, step: u64, xch: usize) {
        self.procs[to].catchup_pending = false;
        self.send_halo(from, to, bytes, step, xch);
    }

    fn on_net_done(&mut self, epoch: u64) {
        if epoch != self.net.epoch() {
            return;
        }
        let now = self.now();
        let mut done = std::mem::take(&mut self.net_done_buf);
        self.net.complete_due_into(now, &mut done);
        let ack = self.cfg.net.udp_ack_timeout_s;
        for c in done.drain(..) {
            if !c.delivered {
                // Appendix D: the datagram was lost; the application notices
                // at the acknowledgement timeout and resends precisely the
                // missing data ("the failure problem is handled directly").
                match c.payload {
                    TransferPayload::Halo {
                        to_proc,
                        step,
                        xch,
                        from_proc,
                    } => {
                        self.q.schedule(
                            ack,
                            EventKind::ResendHalo {
                                to_proc,
                                step,
                                xch,
                                from_proc,
                            },
                        );
                    }
                    TransferPayload::Dump { proc_id } => {
                        self.q.schedule(ack, EventKind::ResendDump { proc_id });
                    }
                    // reliable-transport messages have no out-of-band
                    // resend: the sender's retransmission timer covers DATA,
                    // an unacknowledged DATA covers its lost ACK, and probe
                    // loss simply reads as more silence to the detector
                    TransferPayload::HaloData { .. }
                    | TransferPayload::Ack { .. }
                    | TransferPayload::Probe { .. }
                    | TransferPayload::ProbeReply { .. } => {}
                }
                continue;
            }
            match c.payload {
                TransferPayload::Halo {
                    to_proc,
                    step,
                    xch,
                    from_proc,
                } => {
                    self.ctrl.span_sim_arg(
                        Category::Net,
                        "halo wire",
                        c.started,
                        now,
                        Some(("to_proc", to_proc as f64)),
                    );
                    self.deliver_halo(to_proc, step, xch, from_proc);
                }
                TransferPayload::Dump { proc_id } => {
                    self.ctrl.span_sim_arg(
                        Category::Net,
                        "dump wire",
                        c.started,
                        now,
                        Some(("proc", proc_id as f64)),
                    );
                    self.on_dump_done(proc_id);
                }
                TransferPayload::HaloData {
                    to_proc,
                    step,
                    xch,
                    from_proc,
                    seq,
                    attempt,
                } => {
                    self.ctrl.span_sim_arg(
                        Category::Net,
                        "data wire",
                        c.started,
                        now,
                        Some(("to_proc", to_proc as f64)),
                    );
                    self.on_halo_data_arrival(to_proc, step, xch, from_proc, seq, attempt);
                }
                TransferPayload::Ack {
                    to_proc,
                    from_proc,
                    seq,
                    ..
                } => self.on_ack_arrival(to_proc, from_proc, seq),
                TransferPayload::Probe { host, seq } => self.on_probe_arrival(host, seq),
                TransferPayload::ProbeReply { host, seq } => self.on_probe_reply(host, seq),
            }
        }
        self.net_done_buf = done;
        self.reschedule_net();
    }

    fn on_resend_halo(&mut self, to_proc: usize, step: u64, xch: usize, from_proc: usize) {
        let bytes = self.cfg.workload.tiles[from_proc].neighbors[xch]
            .iter()
            .find(|&&(peer, _)| peer == to_proc)
            .map(|&(_, b)| b)
            .unwrap_or(0.0);
        // the receiver was waiting when the lost datagram was sent and still
        // is (it cannot advance without the data), so the offer re-sends
        // immediately; the staging path only catches stale duplicates
        self.offer_halo(from_proc, to_proc, bytes, step, xch);
    }

    fn on_resend_dump(&mut self, pid: usize) {
        let now = self.now();
        let bytes = self.cfg.workload.tiles[pid].nodes as f64 * self.cfg.dump_bytes_per_node;
        self.net.start_transfer(
            now,
            bytes,
            TransferPayload::Dump { proc_id: pid },
            &mut self.rng_bus,
        );
        self.reschedule_net();
    }

    fn deliver_halo(&mut self, pid: usize, step: u64, xch: usize, from: usize) {
        let now = self.now();
        if !self.procs[pid].receive(step, xch, from) {
            // the same halo applied twice. With the transport engaged this
            // only happens legitimately across a recovery rollback (stale
            // pre-rollback wire arrivals meet the re-execution's re-sends);
            // within one epoch the sequence-number dedup makes it impossible
            self.stats.duplicate_halo_applies += 1;
        }

        // strict ordering: the arrival may release deferred sends
        if self.cfg.ordering == CommOrdering::Strict && !self.procs[pid].deferred_sends.is_empty() {
            let cur_step = self.procs[pid].step;
            let deferred = std::mem::take(&mut self.procs[pid].deferred_sends);
            for (peer, bytes, dxch) in deferred {
                let lower = self.senders(pid, dxch).filter(|&p| p < pid);
                let ok = self.procs[pid].have_all(cur_step, dxch, lower);
                if ok {
                    self.offer_halo(pid, peer, bytes, cur_step, dxch);
                } else {
                    self.procs[pid].deferred_sends.push((peer, bytes, dxch));
                }
            }
        }

        if let ProcState::WaitingRecv { xch: wx } = self.procs[pid].state {
            let cur_step = self.procs[pid].step;
            if wx == xch
                && cur_step == step
                && self.procs[pid].have_all(cur_step, xch, self.senders(pid, xch))
            {
                let p = &mut self.procs[pid];
                let waited_since = p.wait_since;
                p.t_com += now - waited_since;
                if !p.consume(cur_step, xch) {
                    self.stats.out_of_order_consumes += 1;
                }
                self.rec_span(pid, Category::Halo, "halo wait", waited_since, now);
                self.advance_phase(pid);
                return;
            }
        }
        // a delivery frees the receiver's event loop to accept the next
        // held-back sender, if the process is (still) blocked in a receive
        self.release_next_staged(pid);
    }

    // ------------------------------------------------------------------
    // users, jobs, scheduling
    // ------------------------------------------------------------------

    fn record_background(&mut self, host: usize, kind: BackgroundEventKind) {
        let t = self.now();
        self.stats
            .background_events
            .push(BackgroundEvent { t, host, kind });
    }

    fn on_user_flip(&mut self, host: usize) {
        let now = self.now();
        self.record_background(host, BackgroundEventKind::UserFlip);
        self.hosts[host].touch(now);
        let active = self.hosts[host].user_active;
        self.hosts[host].user_active = !active;
        if active {
            self.hosts[host].idle_since = now;
        }
        let mean = if self.hosts[host].user_active {
            self.cfg.user.mean_active_s
        } else {
            self.cfg.user.mean_idle_s
        };
        let d = exp_sample(&mut self.rng_user, mean);
        self.q.schedule(d, EventKind::UserFlip { host });
    }

    fn on_job_arrival(&mut self, host: usize) {
        let now = self.now();
        self.record_background(host, BackgroundEventKind::JobArrival);
        self.hosts[host].touch(now);
        self.hosts[host].competitors += 1;
        self.on_rate_change(host);
        self.maybe_schedule_relax(host);
        let dur = exp_sample(&mut self.rng_user, self.cfg.user.mean_job_s);
        self.q.schedule(dur, EventKind::JobDeparture { host });
        let next = exp_sample(&mut self.rng_user, 1.0 / self.cfg.user.job_rate_per_s);
        self.q.schedule(next, EventKind::JobArrival { host });
    }

    fn on_job_departure(&mut self, host: usize) {
        let now = self.now();
        self.record_background(host, BackgroundEventKind::JobDeparture);
        self.hosts[host].touch(now);
        self.hosts[host].competitors = self.hosts[host].competitors.saturating_sub(1);
        self.on_rate_change(host);
        self.maybe_schedule_relax(host);
    }

    /// Whether the host's smoothed CPU demand still differs measurably from
    /// its instantaneous competitor count (the processor-sharing rate will
    /// keep drifting until they meet).
    fn demand_unsettled(&self, host: usize) -> bool {
        let h = &self.hosts[host];
        (h.cpu_demand(self.now()) - h.competitors as f64).abs() > CPU_RELAX_EPS
    }

    /// Starts a chain of rate re-planning ticks on `host` if its smoothed CPU
    /// demand has not yet converged and a subprocess runs there.
    fn maybe_schedule_relax(&mut self, host: usize) {
        if self.hosts[host].relax_scheduled
            || self.hosts[host].assigned_proc.is_none()
            || !self.demand_unsettled(host)
        {
            return;
        }
        self.hosts[host].relax_scheduled = true;
        self.q
            .schedule(CPU_RELAX_TICK_S, EventKind::CpuRelax { host });
    }

    fn on_cpu_relax(&mut self, host: usize) {
        self.hosts[host].relax_scheduled = false;
        let now = self.now();
        self.hosts[host].touch(now);
        self.on_rate_change(host);
        self.maybe_schedule_relax(host);
    }

    /// The host's CPU share changed: re-plan the in-flight compute phase.
    fn on_rate_change(&mut self, host: usize) {
        let Some(pid) = self.hosts[host].assigned_proc else {
            return;
        };
        let now = self.now();
        let new_rate = self.rate_of(pid);
        let p = &mut self.procs[pid];
        if let ProcState::Computing {
            remaining,
            rate,
            since,
        } = p.state
        {
            let worked = (now - since) * rate;
            let left = (remaining - worked).max(0.0);
            p.t_calc += now - since;
            p.state = ProcState::Computing {
                remaining: left,
                rate: new_rate,
                since: now,
            };
            let epoch = p.bump_epoch();
            self.q.schedule(
                left / new_rate,
                EventKind::ComputeDone {
                    proc_id: pid,
                    epoch,
                },
            );
            self.rec_span(pid, Category::Compute, "compute", since, now);
        }
    }

    // ------------------------------------------------------------------
    // the monitoring program and migration (section 5, Appendix B)
    // ------------------------------------------------------------------

    fn on_monitor_tick(&mut self) {
        let now = self.now();
        if self.cfg.monitor.enabled {
            self.q
                .schedule(self.cfg.monitor.period_s, EventKind::MonitorTick);
        }
        if self.sync != SyncState::Idle || self.done_count > 0 {
            return;
        }
        let mut any = false;
        for h in 0..self.hosts.len() {
            let Some(pid) = self.hosts[h].assigned_proc else {
                continue;
            };
            if !self.hosts[h].available() {
                continue; // dead/stalled hosts are the detector's business
            }
            let l5 = self.hosts[h].load5.at(now, self.hosts[h].run_queue());
            if l5 > self.cfg.monitor.load5_migrate {
                self.procs[pid].migrate_requested = true;
                any = true;
            }
        }
        if any {
            self.initiate_sync();
        }
    }

    /// Appendix B: every process posts its current integration step to the
    /// shared file; the maximum plus one becomes the synchronisation step.
    fn initiate_sync(&mut self) {
        let t_max = self.procs.iter().map(|p| p.step).max().unwrap_or(0);
        self.sync = SyncState::Draining { target: t_max + 1 };
        self.migration_signal_time = self.now();
        self.paused_count = 0;
    }

    /// Requests a migration of `pid` by hand (the paper's `kill -USR2`
    /// interface for the regular user of a workstation).
    pub fn request_migration(&mut self, pid: usize) {
        if self.sync == SyncState::Idle && self.done_count == 0 {
            self.procs[pid].migrate_requested = true;
            self.initiate_sync();
        }
    }

    fn on_all_paused(&mut self) {
        let now = self.now();
        self.migration_pause_time = now;
        self.sync = SyncState::Migrating;
        self.pending_migrators = (0..self.procs.len())
            .filter(|&pid| {
                self.procs[pid].migrate_requested && self.procs[pid].state != ProcState::Failed
            })
            .collect();
        if self.pending_migrators.is_empty() {
            self.resume_pending = true;
            self.q.schedule(0.0, EventKind::ResumeAll);
            return;
        }
        for &pid in &self.pending_migrators.clone() {
            self.procs[pid].state = ProcState::MigrSaving;
            let bytes = self.cfg.workload.tiles[pid].nodes as f64 * self.cfg.dump_bytes_per_node;
            self.net.start_transfer(
                now,
                bytes,
                TransferPayload::Dump { proc_id: pid },
                &mut self.rng_bus,
            );
        }
        self.reschedule_net();
    }

    fn on_dump_done(&mut self, pid: usize) {
        let now = self.now();
        match self.procs[pid].state.clone() {
            ProcState::MigrSaving => {
                // leave the busy host, ask submit for a new one
                let old = self.procs[pid].host;
                self.hosts[old].touch(now);
                self.hosts[old].assigned_proc = None;
                self.migration_from.push((pid, old));
                self.procs[pid].state = ProcState::MigrWaitingHost;
                self.q
                    .schedule(self.cfg.submit.search_duration_s, EventKind::SubmitRetry);
            }
            ProcState::MigrLoading => {
                self.procs[pid].state = ProcState::MigrReady;
                self.check_migrators_ready();
            }
            ProcState::CkptSaving { resume } => {
                let p = &mut self.procs[pid];
                let since = p.pause_since;
                let paused = now - since;
                p.t_paused += paused;
                self.stats.checkpoint_pause_total += paused;
                self.rec_span(pid, Category::Checkpoint, "ckpt save", since, now);
                self.resume_from(pid, resume);
                if let Some(round) = &mut self.ckpt {
                    let next = round.next;
                    self.q.schedule(
                        self.cfg.checkpoint_gap_s,
                        EventKind::CheckpointToken { order_index: next },
                    );
                }
            }
            _ => {
                // A stale dump completion: the fault layer interrupted the
                // process (crash, freeze, declaration, recovery rollback)
                // after the transfer went onto the wire. The bytes land at
                // the file server; nobody is waiting for them any more.
            }
        }
    }

    /// Schedules the global resume once every pending migrator has either
    /// reloaded its dump or died (a crashed migrator must not stall the
    /// others forever).
    fn check_migrators_ready(&mut self) {
        if self.sync != SyncState::Migrating
            || self.resume_pending
            || self.pending_migrators.is_empty()
        {
            return;
        }
        let all_settled = self.pending_migrators.iter().all(|&m| {
            matches!(
                self.procs[m].state,
                ProcState::MigrReady | ProcState::Failed
            )
        });
        if all_settled {
            self.resume_pending = true;
            self.q.schedule(self.cfg.handshake_s, EventKind::ResumeAll);
        }
    }

    fn on_submit_retry(&mut self) {
        let now = self.now();
        let waiting: Vec<usize> = self
            .pending_migrators
            .iter()
            .copied()
            .filter(|&pid| self.procs[pid].state == ProcState::MigrWaitingHost)
            .collect();
        if waiting.is_empty() {
            return;
        }
        let mut any_unplaced = false;
        for pid in waiting {
            match self.cfg.submit.select(now, self.hosts.iter().enumerate()) {
                Some(h) => {
                    self.hosts[h].touch(now);
                    self.hosts[h].assigned_proc = Some(pid);
                    self.procs[pid].host = h;
                    self.procs[pid].state = ProcState::MigrLoading;
                    self.maybe_schedule_relax(h);
                    let bytes =
                        self.cfg.workload.tiles[pid].nodes as f64 * self.cfg.dump_bytes_per_node;
                    self.net.start_transfer(
                        now,
                        bytes,
                        TransferPayload::Dump { proc_id: pid },
                        &mut self.rng_bus,
                    );
                }
                None => any_unplaced = true,
            }
        }
        self.reschedule_net();
        if any_unplaced {
            self.q.schedule(30.0, EventKind::SubmitRetry);
        }
    }

    fn on_resume_all(&mut self) {
        let now = self.now();
        self.resume_pending = false;
        if let Some(ctx) = self.recovering.take() {
            self.finish_recovery(ctx);
            return;
        }
        for pid in 0..self.procs.len() {
            match self.procs[pid].state {
                ProcState::AtSyncBarrier | ProcState::MigrReady => {
                    let p = &mut self.procs[pid];
                    let since = p.pause_since;
                    p.t_paused += now - since;
                    p.state = ProcState::Done; // placeholder, start_phase overwrites
                    self.rec_span(pid, Category::Sync, "paused", since, now);
                    self.start_phase(pid);
                }
                _ => {}
            }
        }
        for &(pid, from) in &self.migration_from {
            self.stats.migrations.push(MigrationRecord {
                proc_id: pid,
                from_host: from,
                to_host: self.procs[pid].host,
                signal_time: self.migration_signal_time,
                pause_time: self.migration_pause_time,
                resume_time: now,
            });
            self.ctrl.span_sim_arg(
                Category::Migration,
                "migration",
                self.migration_signal_time,
                now,
                Some(("proc", pid as f64)),
            );
        }
        self.migration_from.clear();
        self.pending_migrators.clear();
        for p in &mut self.procs {
            p.migrate_requested = false;
        }
        self.sync = SyncState::Idle;
        self.paused_count = 0;
    }

    // ------------------------------------------------------------------
    // fault injection, failure detection, crash recovery
    // ------------------------------------------------------------------

    /// The workstation loses power: the host goes down and the parallel
    /// subprocess on it (if any) dies instantly. Background chains (user
    /// flips, job arrivals) keep running untouched — their RNG stream must
    /// not depend on fault timing — and their effects on a dead host are
    /// harmless because placement skips unavailable machines.
    fn on_host_crash(&mut self, host: usize) {
        let now = self.now();
        self.stats.host_crashes += 1;
        self.hosts[host].touch(now);
        if !self.hosts[host].up {
            return; // already down
        }
        self.hosts[host].up = false;
        self.hosts[host].frozen = false;
        let Some(pid) = self.hosts[host].assigned_proc else {
            return; // an empty workstation died; nobody notices until submit
        };
        let state = self.procs[pid].state.clone();
        if state == ProcState::Done {
            return; // results already delivered; the loss costs nothing
        }
        {
            let p = &mut self.procs[pid];
            let (wait_since, pause_since) = (p.wait_since, p.pause_since);
            match state {
                ProcState::Computing { since, .. } => p.t_calc += now - since,
                ProcState::WaitingRecv { .. } => p.t_com += now - p.wait_since,
                ProcState::Failed => return, // double-kill
                _ => p.t_paused += now - p.pause_since,
            }
            // the work the crash interrupted, so the timeline has no gap
            match state {
                ProcState::Computing { since, .. } => {
                    self.rec_span(pid, Category::Compute, "compute", since, now)
                }
                ProcState::WaitingRecv { .. } => {
                    self.rec_span(pid, Category::Halo, "halo wait", wait_since, now)
                }
                _ => self.rec_span(pid, Category::Sync, "paused", pause_since, now),
            }
            self.ctrl.instant_sim_arg(
                Category::Fault,
                "host crash",
                now,
                Some(("host", host as f64)),
            );
            if state == ProcState::AtSyncBarrier {
                // it no longer counts toward the barrier
                self.paused_count = self.paused_count.saturating_sub(1);
            }
            let p = &mut self.procs[pid];
            p.bump_epoch();
            p.state = ProcState::Failed;
            p.pause_since = now; // the moment heartbeats stopped
            self.failed_count += 1;
        }
        // a dead straggler must not hang an in-progress drain or migration
        self.maybe_all_paused();
        self.check_migrators_ready();
        self.start_probe_chain(host);
    }

    /// The crashed machine finishes rebooting and rejoins the pool. Its dead
    /// subprocess (if still assigned) stays dead — the reboot restores the
    /// *host*, not the process — so a pending detection still declares.
    fn on_host_reboot(&mut self, host: usize) {
        let now = self.now();
        self.hosts[host].touch(now);
        if self.hosts[host].up {
            return;
        }
        self.stats.host_reboots += 1;
        self.hosts[host].up = true;
    }

    /// A transient stall begins: the subprocess stops making progress but
    /// stays alive. Only actively running states are interrupted; a process
    /// that is already paused (barrier, migration, checkpoint save) does not
    /// notice a stall on its host.
    fn on_host_freeze_start(&mut self, host: usize) {
        let now = self.now();
        self.stats.host_freezes += 1;
        self.hosts[host].touch(now);
        if !self.hosts[host].up || self.hosts[host].frozen {
            return;
        }
        self.hosts[host].frozen = true;
        let Some(pid) = self.hosts[host].assigned_proc else {
            return;
        };
        let resume = match self.procs[pid].state.clone() {
            ProcState::Computing {
                remaining,
                rate,
                since,
            } => {
                let worked = (now - since) * rate;
                self.procs[pid].t_calc += now - since;
                self.rec_span(pid, Category::Compute, "compute", since, now);
                Some(CkptResume::Compute {
                    remaining: (remaining - worked).max(0.0),
                })
            }
            ProcState::WaitingRecv { xch } => {
                let p = &mut self.procs[pid];
                let waited_since = p.wait_since;
                p.t_com += now - waited_since;
                self.rec_span(pid, Category::Halo, "halo wait", waited_since, now);
                Some(CkptResume::Waiting { xch })
            }
            _ => None,
        };
        if let Some(resume) = resume {
            let p = &mut self.procs[pid];
            p.bump_epoch();
            p.pause_since = now;
            p.state = ProcState::Frozen { resume };
            self.ctrl.instant_sim_arg(
                Category::Fault,
                "freeze start",
                now,
                Some(("host", host as f64)),
            );
            self.start_probe_chain(host);
        }
    }

    /// The stall lifts. If the detector has not yet declared the process
    /// dead, it resumes exactly where it was interrupted (heartbeats restart,
    /// cancelling the probe chain); if recovery rolled it back meanwhile it
    /// restarts its current phase from the rollback step.
    fn on_host_freeze_end(&mut self, host: usize) {
        let now = self.now();
        self.hosts[host].touch(now);
        if !self.hosts[host].frozen {
            return; // crash superseded the stall, or never froze
        }
        self.hosts[host].frozen = false;
        self.hosts[host].probe_epoch += 1; // heartbeats resume: drop the chain
        let Some(pid) = self.hosts[host].assigned_proc else {
            return;
        };
        if let ProcState::Frozen { resume } = self.procs[pid].state.clone() {
            let p = &mut self.procs[pid];
            let since = p.pause_since;
            p.t_paused += now - since;
            self.rec_span(pid, Category::Fault, "frozen", since, now);
            self.ctrl.instant_sim_arg(
                Category::Fault,
                "freeze end",
                now,
                Some(("host", host as f64)),
            );
            let p = &mut self.procs[pid];
            if self.sync == SyncState::Migrating {
                // the runtime is mid-migration/recovery: wait for ResumeAll
                p.pause_since = now;
                p.state = ProcState::AtSyncBarrier;
            } else {
                self.resume_from(pid, resume);
            }
        }
    }

    /// Continues a process from a saved mid-step continuation.
    fn resume_from(&mut self, pid: usize, resume: CkptResume) {
        match resume {
            CkptResume::Compute { remaining } => self.begin_compute(pid, remaining),
            CkptResume::Waiting { xch } => self.try_finish_recv(pid, xch),
            CkptResume::Restart => self.start_phase(pid),
        }
    }

    /// Starts (or restarts) the heartbeat probe chain against `host` after
    /// its subprocess stopped answering.
    fn start_probe_chain(&mut self, host: usize) {
        if !self.cfg.detector.enabled {
            return;
        }
        let now = self.now();
        self.hosts[host].probe_epoch += 1;
        let probe_epoch = self.hosts[host].probe_epoch;
        let d = &mut self.det[host];
        d.trigger = ChainTrigger::HostSilent;
        d.chain_started = now;
        d.chain_epoch = probe_epoch;
        d.last_evidence = now; // heartbeats flowed until this instant
        self.q.schedule(
            self.cfg.detector.timeout_s,
            EventKind::HeartbeatProbe {
                host,
                misses: 1,
                probe_epoch,
            },
        );
    }

    /// Whether declaring `pid` dead right now is meaningful: the process is
    /// plainly dead/stalled, or doing interruptible solver work. Mid-protocol
    /// states (barrier, checkpoint save, migration legs) postpone the
    /// declaration instead — killing those would tangle two protocols.
    fn declarable(&self, pid: usize) -> bool {
        matches!(
            self.procs[pid].state,
            ProcState::Failed
                | ProcState::Frozen { .. }
                | ProcState::Computing { .. }
                | ProcState::WaitingRecv { .. }
        )
    }

    fn on_heartbeat_probe(&mut self, host: usize, misses: u32, probe_epoch: u64) {
        if probe_epoch != self.hosts[host].probe_epoch {
            return; // stale chain (host recovered or was re-suspected)
        }
        let Some(pid) = self.hosts[host].assigned_proc else {
            return;
        };
        match (self.cfg.detector.mode, self.det[host].trigger) {
            (DetectorMode::FixedTimeout, ChainTrigger::HostSilent) => {
                self.fixed_probe_host_silent(host, pid, misses, probe_epoch)
            }
            (DetectorMode::FixedTimeout, ChainTrigger::CommSuspect) => {
                self.fixed_probe_comm(host, pid, misses, probe_epoch)
            }
            (DetectorMode::Accrual, trigger) => {
                self.accrual_probe(host, pid, misses, probe_epoch, trigger)
            }
        }
    }

    /// The classic fixed-timeout schedule against an out-of-band-silent host
    /// (crash or freeze): count misses, declare at `max_misses`.
    fn fixed_probe_host_silent(&mut self, host: usize, pid: usize, misses: u32, probe_epoch: u64) {
        let silent = !self.hosts[host].available()
            || matches!(
                self.procs[pid].state,
                ProcState::Failed | ProcState::Frozen { .. }
            );
        if !silent {
            return; // heartbeats are back; the suspicion evaporates
        }
        if misses >= self.cfg.detector.max_misses {
            if self.sync != SyncState::Idle || self.recovering.is_some() {
                // the runtime is mid-sync/migration/recovery: declaring now
                // would tangle two protocols, so keep probing until idle
                self.q.schedule(
                    self.cfg.detector.timeout_s,
                    EventKind::HeartbeatProbe {
                        host,
                        misses,
                        probe_epoch,
                    },
                );
                return;
            }
            self.declare_failure(host, pid);
        } else {
            let wait = self.cfg.detector.probe_wait(misses + 1);
            self.q.schedule(
                wait,
                EventKind::HeartbeatProbe {
                    host,
                    misses: misses + 1,
                    probe_epoch,
                },
            );
        }
    }

    /// The fixed-timeout schedule against a comm-suspected host. The host
    /// looks fine out of band (its process is alive), so the only signals
    /// are traffic evidence (which ends the chain eagerly via
    /// [`ClusterSim::note_evidence`], and is re-checked here) and the miss
    /// budget. A lossy-but-alive link therefore burns straight through the
    /// budget — the fixed detector's false-positive mode the `partition`
    /// experiment measures.
    fn fixed_probe_comm(&mut self, host: usize, pid: usize, misses: u32, probe_epoch: u64) {
        let d = &self.det[host];
        if d.last_evidence >= d.chain_started {
            self.hosts[host].bump_probe_epoch(); // traffic resumed
            return;
        }
        if misses >= self.cfg.detector.max_misses {
            if self.sync != SyncState::Idle || self.recovering.is_some() || !self.declarable(pid) {
                self.q.schedule(
                    self.cfg.detector.timeout_s,
                    EventKind::HeartbeatProbe {
                        host,
                        misses,
                        probe_epoch,
                    },
                );
                return;
            }
            self.declare_failure(host, pid);
        } else {
            let wait = self.cfg.detector.probe_wait(misses + 1);
            self.q.schedule(
                wait,
                EventKind::HeartbeatProbe {
                    host,
                    misses: misses + 1,
                    probe_epoch,
                },
            );
        }
    }

    /// The accrual (φ) detector: suspicion is the ratio of observed silence
    /// to the expected-evidence horizon, and the horizon stretches with the
    /// measured probe RTT — congestion inflates the RTT estimate, which
    /// raises the bar instead of burning a fixed miss budget. Declares only
    /// once φ crosses `phi_threshold` *and* at least one wire probe has had
    /// a chance to come back.
    fn accrual_probe(
        &mut self,
        host: usize,
        pid: usize,
        misses: u32,
        probe_epoch: u64,
        trigger: ChainTrigger,
    ) {
        let now = self.now();
        match trigger {
            ChainTrigger::HostSilent => {
                let silent = !self.hosts[host].available()
                    || matches!(
                        self.procs[pid].state,
                        ProcState::Failed | ProcState::Frozen { .. }
                    );
                if !silent {
                    return;
                }
            }
            ChainTrigger::CommSuspect => {
                let d = &self.det[host];
                if d.last_evidence >= d.chain_started {
                    self.hosts[host].bump_probe_epoch();
                    return;
                }
            }
        }
        let d = &self.det[host];
        let expected = self
            .cfg
            .detector
            .timeout_s
            .max(d.rtt.expected(self.cfg.detector.rtt_inflation));
        let phi = (now - d.last_evidence) / expected;
        let threshold_at = d.last_evidence + self.cfg.detector.phi_threshold * expected;
        self.stats.suspicion_peak = self.stats.suspicion_peak.max(phi);
        if phi >= self.cfg.detector.phi_threshold - 1e-9 && misses > 1 {
            if self.sync != SyncState::Idle || self.recovering.is_some() || !self.declarable(pid) {
                self.q.schedule(
                    self.cfg.detector.timeout_s,
                    EventKind::HeartbeatProbe {
                        host,
                        misses,
                        probe_epoch,
                    },
                );
                return;
            }
            self.declare_failure(host, pid);
            return;
        }
        // ask the host directly over the modelled network and look again at
        // the earlier of the backed-off schedule and the φ-crossing time (or
        // one timeout, when φ is already over but no probe has answered yet)
        self.send_probe(host);
        let crossing = threshold_at - now;
        let wait = if crossing <= 0.0 {
            self.cfg.detector.timeout_s
        } else {
            self.cfg.detector.probe_wait(misses + 1).min(crossing)
        };
        self.q.schedule(
            wait,
            EventKind::HeartbeatProbe {
                host,
                misses: misses + 1,
                probe_epoch,
            },
        );
    }

    /// The detector gives up on the process: declare it dead and launch the
    /// checkpoint-restart recovery. If the process was merely stalled (a
    /// freeze outlasting the probe schedule) this is a false positive — the
    /// monitor kills the unresponsive process and restarts it anyway, which
    /// is exactly what a real timeout-based monitor would do.
    fn declare_failure(&mut self, host: usize, pid: usize) {
        let now = self.now();
        let state = self.procs[pid].state.clone();
        let false_positive = match state {
            ProcState::Frozen { .. } => {
                let p = &mut self.procs[pid];
                p.t_paused += now - p.pause_since;
                // keep pause_since: it marks when progress stopped (fault time)
                let fault = p.pause_since;
                p.bump_epoch();
                p.state = ProcState::Failed;
                p.pause_since = fault;
                self.failed_count += 1;
                self.rec_span(pid, Category::Fault, "frozen (declared dead)", fault, now);
                true
            }
            // a comm-triggered chain convicted a process that is actually
            // alive (lossy or congested link): the monitor kills and
            // restarts it anyway — the false-positive restart whose cost the
            // recovery model's fp-rate term charges
            ProcState::Computing { since, .. } => {
                let suspected_since = self.det[host].chain_started;
                self.procs[pid].t_calc += now - since;
                self.rec_span(pid, Category::Compute, "compute", since, now);
                let p = &mut self.procs[pid];
                p.bump_epoch();
                p.state = ProcState::Failed;
                p.pause_since = suspected_since; // fault time = suspicion start
                self.failed_count += 1;
                self.rec_span(
                    pid,
                    Category::Fault,
                    "declared dead (live)",
                    suspected_since,
                    now,
                );
                true
            }
            ProcState::WaitingRecv { .. } => {
                let suspected_since = self.det[host].chain_started;
                let ws = self.procs[pid].wait_since;
                self.procs[pid].t_com += now - ws;
                self.rec_span(pid, Category::Halo, "halo wait", ws, now);
                let p = &mut self.procs[pid];
                p.bump_epoch();
                p.state = ProcState::Failed;
                p.pause_since = suspected_since;
                self.failed_count += 1;
                self.rec_span(
                    pid,
                    Category::Fault,
                    "declared dead (live)",
                    suspected_since,
                    now,
                );
                true
            }
            _ => false, // ProcState::Failed — the real crash
        };
        self.hosts[host].probe_epoch += 1; // chain consumed
        self.begin_recovery(pid, host, false_positive);
    }

    /// Extends the section-4.1 migration machinery into failure-triggered
    /// re-submission: pause every live process where it stands, re-submit the
    /// dead one to a fresh host, reload the last coordinated checkpoint, and
    /// resume everyone from the checkpointed step (the lost steps are
    /// recomputed).
    fn begin_recovery(&mut self, pid: usize, from_host: usize, false_positive: bool) {
        let now = self.now();
        let fault_time = self.procs[pid].pause_since;
        self.recovering = Some(RecoveryCtx {
            pid,
            from_host,
            fault_time,
            detect_time: now,
            step_at_failure: self.procs[pid].step,
            false_positive,
        });
        // detection latency: heartbeats stopped at fault_time, the detector
        // declared at now
        self.ctrl.span_sim_arg(
            Category::Detection,
            "detect",
            fault_time,
            now,
            Some(("proc", pid as f64)),
        );
        self.ckpt = None; // abandon any checkpoint round in progress
        self.sync = SyncState::Migrating;
        self.hosts[from_host].touch(now);
        self.hosts[from_host].assigned_proc = None;
        // stop the world: every live process pauses where it stands
        for i in 0..self.procs.len() {
            if i == pid {
                continue;
            }
            let state = self.procs[i].state.clone();
            let p = &mut self.procs[i];
            let (wait_since, pause_since) = (p.wait_since, p.pause_since);
            match state {
                ProcState::Computing { since, .. } => {
                    p.t_calc += now - since;
                    self.rec_span(i, Category::Compute, "compute", since, now);
                }
                ProcState::WaitingRecv { .. } => {
                    p.t_com += now - wait_since;
                    self.rec_span(i, Category::Halo, "halo wait", wait_since, now);
                }
                ProcState::CkptSaving { .. } => {
                    p.t_paused += now - pause_since;
                    self.rec_span(i, Category::Checkpoint, "ckpt save", pause_since, now);
                }
                // frozen processes stay frozen (their stall outlives the
                // pause); failed ones await their own recovery; done ones
                // are rolled back at resume
                _ => continue,
            }
            let p = &mut self.procs[i];
            p.bump_epoch();
            p.state = ProcState::AtSyncBarrier;
            p.pause_since = now;
        }
        // the victim: dead time so far is pause, then it queues for submit
        {
            let p = &mut self.procs[pid];
            let since = p.pause_since;
            p.t_paused += now - since;
            p.pause_since = now;
            p.bump_epoch();
            p.state = ProcState::MigrWaitingHost;
            self.rec_span(pid, Category::Fault, "down", since, now);
        }
        self.failed_count = self.failed_count.saturating_sub(1);
        self.pending_migrators = vec![pid];
        self.q
            .schedule(self.cfg.submit.search_duration_s, EventKind::SubmitRetry);
    }

    /// The recovered process has reloaded the checkpoint on its new host and
    /// the channels have reopened: roll *everyone* back to the coordinated
    /// checkpoint step and restart computation from there.
    fn finish_recovery(&mut self, ctx: RecoveryCtx) {
        let now = self.now();
        let rollback = self.last_ckpt_step;
        // two passes: every process must be rewound before any restarts,
        // because a restarted process's first phase can be an exchange whose
        // offer lands (staged) in a peer that has not been rewound yet —
        // rolling that peer back afterwards would discard the offer
        let mut restart = Vec::with_capacity(self.procs.len());
        for i in 0..self.procs.len() {
            match self.procs[i].state.clone() {
                ProcState::AtSyncBarrier | ProcState::MigrReady => {
                    let p = &mut self.procs[i];
                    let since = p.pause_since;
                    p.t_paused += now - since;
                    p.rollback_to(rollback);
                    p.state = ProcState::Done; // placeholder, start_phase overwrites
                    restart.push(i);
                    self.rec_span(i, Category::Sync, "paused", since, now);
                }
                ProcState::Done => {
                    // a finished process restarts too: the global rollback
                    // invalidates the steps it computed past the checkpoint
                    self.done_count -= 1;
                    self.procs[i].rollback_to(rollback);
                    restart.push(i);
                }
                ProcState::Frozen { .. } => {
                    // still stalled: rewound, restarts its phase at thaw
                    let p = &mut self.procs[i];
                    p.rollback_to(rollback);
                    p.state = ProcState::Frozen {
                        resume: CkptResume::Restart,
                    };
                }
                ProcState::Failed => {
                    // a second casualty: rewound, awaits its own recovery
                    self.procs[i].rollback_to(rollback);
                }
                other => debug_assert!(false, "recovery resume found state {other:?}"),
            }
        }
        // every step counter moved backwards: rebuild the skew histogram
        self.rebuild_step_hist();
        // the rollback voids every outstanding DATA message — the whole
        // exchange re-executes with fresh sequence numbers, and the stale
        // retransmission timers die on their next lookup. Receiver dedup
        // sets survive to absorb stale pre-rollback wire arrivals. This must
        // happen before any restart: a restarted process's first phase can
        // put a new DATA message on the wire synchronously, and clearing
        // afterwards would orphan it from its retransmission timer.
        self.transport.clear_outstanding();
        for i in restart {
            self.start_phase(i);
        }
        let lost_steps = ctx.step_at_failure.saturating_sub(rollback);
        self.ctrl.span_sim_arg(
            Category::Recovery,
            "recover",
            ctx.detect_time,
            now,
            Some(("lost_steps", lost_steps as f64)),
        );
        self.stats.recoveries.push(RecoveryRecord {
            proc_id: ctx.pid,
            from_host: ctx.from_host,
            to_host: self.procs[ctx.pid].host,
            fault_time: ctx.fault_time,
            detect_time: ctx.detect_time,
            resume_time: now,
            rollback_step: rollback,
            lost_steps,
            false_positive: ctx.false_positive,
        });
        self.pending_migrators.clear();
        self.sync = SyncState::Idle;
        self.paused_count = 0;
    }

    // ------------------------------------------------------------------
    // staggered checkpointing (section 5.2)
    // ------------------------------------------------------------------

    fn on_checkpoint_tick(&mut self) {
        if let Some(period) = self.cfg.checkpoint_period_s {
            self.q.schedule(period, EventKind::CheckpointTick);
        }
        if self.ckpt.is_some() || self.sync != SyncState::Idle || self.done_count > 0 {
            return; // skip a round rather than overlap
        }
        self.ckpt = Some(CkptRound {
            order: (0..self.procs.len()).collect(),
            next: 0,
            min_step: u64::MAX,
            saved: 0,
        });
        self.q
            .schedule(0.0, EventKind::CheckpointToken { order_index: 0 });
    }

    fn on_checkpoint_token(&mut self, idx: usize) {
        let now = self.now();
        let Some(round) = &mut self.ckpt else {
            return;
        };
        if idx >= round.order.len() {
            // the coordinated checkpoint only advances the recovery line if
            // every process saved this round: a skipped process still has only
            // its previous dump on the file server
            if round.saved == self.procs.len() && round.min_step != u64::MAX {
                self.last_ckpt_step = round.min_step;
            }
            self.stats.checkpoint_rounds += 1;
            self.ckpt = None;
            return;
        }
        round.next = idx + 1;
        let pid = round.order[idx];
        let resume = match self.procs[pid].state.clone() {
            ProcState::Computing {
                remaining,
                rate,
                since,
            } => {
                let worked = (now - since) * rate;
                self.procs[pid].t_calc += now - since;
                self.rec_span(pid, Category::Compute, "compute", since, now);
                Some(CkptResume::Compute {
                    remaining: (remaining - worked).max(0.0),
                })
            }
            ProcState::WaitingRecv { xch } => {
                let p = &mut self.procs[pid];
                let since = p.wait_since;
                p.t_com += now - since;
                self.rec_span(pid, Category::Halo, "halo wait", since, now);
                Some(CkptResume::Waiting { xch })
            }
            // paused / migrating / done processes skip their save
            _ => None,
        };
        match resume {
            Some(resume) => {
                let step = self.procs[pid].step;
                if let Some(round) = &mut self.ckpt {
                    // the coordinated rollback point is the slowest saver's step
                    round.min_step = round.min_step.min(step);
                    round.saved += 1;
                }
                let p = &mut self.procs[pid];
                p.bump_epoch(); // invalidate any in-flight ComputeDone
                p.pause_since = now;
                p.state = ProcState::CkptSaving { resume };
                let bytes =
                    self.cfg.workload.tiles[pid].nodes as f64 * self.cfg.dump_bytes_per_node;
                self.net.start_transfer(
                    now,
                    bytes,
                    TransferPayload::Dump { proc_id: pid },
                    &mut self.rng_bus,
                );
                self.reschedule_net();
            }
            None => {
                self.q.schedule(
                    self.cfg.checkpoint_gap_s,
                    EventKind::CheckpointToken {
                        order_index: idx + 1,
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // finishing
    // ------------------------------------------------------------------

    fn finalize(&mut self) -> ClusterStats {
        let now = self.now();
        for t in &mut self.tracks {
            t.finish();
        }
        self.ctrl.finish();
        let mut stats = self.stats.clone();
        stats.procs = self
            .procs
            .iter()
            .map(|p| {
                let mut s = ProcStats {
                    t_calc: p.t_calc,
                    t_com: p.t_com,
                    t_paused: p.t_paused,
                    steps: p.step,
                };
                match p.state {
                    ProcState::Computing { since, .. } => s.t_calc += now - since,
                    ProcState::WaitingRecv { .. } => s.t_com += now - p.wait_since,
                    ProcState::AtSyncBarrier
                    | ProcState::MigrSaving
                    | ProcState::MigrWaitingHost
                    | ProcState::MigrLoading
                    | ProcState::MigrReady
                    | ProcState::CkptSaving { .. }
                    | ProcState::Frozen { .. }
                    | ProcState::Failed => s.t_paused += now - p.pause_since,
                    ProcState::Done => {}
                }
                s
            })
            .collect();
        stats.net_bytes = self.net.bytes_delivered;
        stats.net_messages = self.net.messages;
        stats.net_errors = self.net.errors;
        stats.net_losses = self.net.losses;
        stats.net_busy = self.net.busy_time;
        stats.net_forced_completions = self.net.forced_completions;
        stats.engine_bytes = self.q.approx_bytes() + self.net.approx_bytes();
        stats.finished_at = self.finished_at.unwrap_or(now);
        stats
    }

    /// Step counters of all processes (for protocol tests).
    pub fn steps(&self) -> Vec<u64> {
        self.procs.iter().map(|p| p.step).collect()
    }

    /// Host each process currently runs on.
    pub fn placements(&self) -> Vec<usize> {
        self.procs.iter().map(|p| p.host).collect()
    }

    /// Forces the number of competing full-time jobs on a host (for
    /// experiments that freeze or slow a workstation deliberately).
    pub fn set_competitors(&mut self, host: usize, n: u32) {
        let now = self.now();
        self.hosts[host].touch(now);
        self.hosts[host].competitors = n;
        self.on_rate_change(host);
        self.maybe_schedule_relax(host);
    }

    /// Applies a deliberate slowdown factor (`>= 1`) to a host's CPU; the
    /// assigned subprocess's compute rate divides by it immediately.
    pub fn set_host_slowdown(&mut self, host: usize, factor: f64) {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "slowdown factor {factor} must be >= 1"
        );
        self.hosts[host].slowdown = factor;
        self.on_rate_change(host);
    }

    /// Discrete events dispatched so far (simulation throughput accounting).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Workstation states (for fault-injection tests).
    pub fn hosts(&self) -> &[HostState] {
        &self.hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsonic_solvers::MethodKind;

    fn small_workload() -> WorkloadSpec {
        WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 200, 100, 2, 1)
    }

    #[test]
    fn quiet_run_completes_target_steps() {
        let cfg = ClusterConfig::measurement(small_workload());
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(1.0e6, Some(20));
        assert_eq!(sim.steps(), vec![20, 20]);
        assert!(stats.finished_at > 0.0);
        assert!(stats.procs.iter().all(|p| p.steps == 20));
        assert!(stats.net_messages >= 2 * 20);
    }

    #[test]
    fn quiet_run_is_deterministic() {
        let run = || {
            let cfg = ClusterConfig::measurement(small_workload());
            ClusterSim::new(cfg).run(1.0e6, Some(10)).finished_at
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn step_time_matches_hand_calculation() {
        // one 100x100 LB tile per proc on 715s, quiet bus: per step
        // T_calc = 10000/39132 s; T_com = message transfer both directions
        // sharing the bus.
        let cfg = ClusterConfig::measurement(small_workload());
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(1.0e6, Some(20));
        let t_calc_expected = 20.0 * 10_000.0 / 39_132.0;
        for p in &stats.procs {
            assert!(
                (p.t_calc - t_calc_expected).abs() / t_calc_expected < 1e-9,
                "t_calc {} vs {}",
                p.t_calc,
                t_calc_expected
            );
            assert!(p.t_com > 0.0, "no communication time recorded");
        }
    }

    #[test]
    fn migration_waits_until_a_host_frees_up() {
        // a 2-process job on a 2-host cluster: when one host gets busy there
        // is nowhere to go, so the migrator waits in MigrWaitingHost with the
        // submit program retrying until the competing job ends
        let w = WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 120, 60, 2, 1);
        let mut cfg = ClusterConfig::measurement(w);
        cfg.hosts = vec![crate::host::HostKind::Hp715_50; 2];
        let mut sim = ClusterSim::new(cfg);
        sim.run(5.0, None);
        let victim = sim.placements()[1];
        sim.set_competitors(victim, 1);
        sim.request_migration(1);
        // nothing is free: after a while the process is still unplaced
        sim.run(300.0, None);
        let placements_mid = sim.placements();
        assert_eq!(placements_mid[1], victim, "migrated with no free host?");
        // the job departs; the retry finds the now-free... the *old* host is
        // still busy, but let the competitor leave and the retry succeed
        sim.set_competitors(victim, 0);
        let stats = sim.run(2000.0, None);
        assert_eq!(stats.migrations.len(), 1, "migration should complete");
        // everyone is stepping again
        let steps = sim.steps();
        assert!(steps.iter().all(|&s| s > 0));
        let spread = steps.iter().max().unwrap() - steps.iter().min().unwrap();
        assert!(
            spread <= 1,
            "out of sync after delayed migration: {steps:?}"
        );
    }

    #[test]
    fn manual_migration_moves_the_process() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        cfg.monitor.enabled = false;
        let mut sim = ClusterSim::new(cfg);
        let before = sim.placements();
        sim.run(5.0, None); // let it run a bit
        sim.request_migration(0);
        let stats = sim.run(200.0, None);
        assert_eq!(stats.migrations.len(), 1);
        let m = &stats.migrations[0];
        assert_eq!(m.proc_id, 0);
        assert_eq!(m.from_host, before[0]);
        assert_ne!(m.to_host, before[0]);
        assert!(m.total_duration() > 0.0);
        // both processes keep stepping after the resume
        let steps = sim.steps();
        assert!(steps[0] > 0 && steps[1] > 0);
        assert!(
            (steps[0] as i64 - steps[1] as i64).unsigned_abs() <= 1,
            "processes out of sync after migration: {steps:?}"
        );
    }

    /// Host that process 0 lands on under `cfg` (placement is deterministic,
    /// so building a throwaway sim reveals it).
    fn host_of_proc0(cfg: &ClusterConfig) -> usize {
        ClusterSim::new(cfg.clone()).placements()[0]
    }

    #[test]
    fn host_crash_is_detected_and_recovered() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        cfg.checkpoint_period_s = Some(30.0);
        cfg.checkpoint_gap_s = 1.0;
        let victim = host_of_proc0(&cfg);
        cfg.faults = FaultPlan::empty().crash(victim, 60.0, None);
        let mut sim = ClusterSim::new(cfg.clone());
        let stats = sim.run(1000.0, None);
        assert_eq!(stats.host_crashes, 1);
        assert_eq!(stats.recoveries.len(), 1, "exactly one recovery expected");
        let r = &stats.recoveries[0];
        assert_eq!(r.proc_id, 0);
        assert_eq!(r.from_host, victim);
        assert_ne!(r.to_host, victim, "cannot restart on a dead host");
        assert!(!r.false_positive);
        // the detector's schedule: probes at +5, +15, declaration at +35
        let expected = cfg.detector.detection_latency();
        assert!(
            (r.detection_latency() - expected).abs() < 1e-9,
            "detection latency {} vs schedule {}",
            r.detection_latency(),
            expected
        );
        // a checkpoint round completed before the crash, so the rollback is
        // not all the way to step 0
        assert!(r.rollback_step > 0, "no checkpoint to roll back to?");
        assert!(r.lost_steps > 0, "the victim should lose some work");
        // the computation is alive and in lockstep afterwards
        let steps = sim.steps();
        assert!(steps.iter().all(|&s| s > r.rollback_step));
        let spread = steps.iter().max().unwrap() - steps.iter().min().unwrap();
        assert!(spread <= 1, "out of sync after recovery: {steps:?}");
        // the dead host is still down and empty
        assert!(!sim.hosts()[victim].up);
        assert_eq!(sim.hosts()[victim].assigned_proc, None);
    }

    #[test]
    fn crash_without_checkpoints_rolls_back_to_the_start() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        let victim = host_of_proc0(&cfg);
        cfg.faults = FaultPlan::empty().crash(victim, 10.0, None);
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(1.0e4, Some(60));
        assert_eq!(stats.recoveries.len(), 1);
        let r = &stats.recoveries[0];
        assert_eq!(
            r.rollback_step, 0,
            "no checkpoints: recovery restarts from the dump"
        );
        assert!(r.lost_steps > 0);
        // the run still completes its target in full
        assert_eq!(sim.steps(), vec![60, 60]);
    }

    #[test]
    fn crashed_host_reboots_and_rejoins() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        let victim = host_of_proc0(&cfg);
        cfg.faults = FaultPlan::empty().crash(victim, 20.0, Some(120.0));
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(600.0, None);
        assert_eq!(stats.host_crashes, 1);
        assert_eq!(stats.host_reboots, 1);
        assert_eq!(
            stats.recoveries.len(),
            1,
            "the reboot must not cancel the recovery"
        );
        assert!(sim.hosts()[victim].up, "host should be back up");
        assert_eq!(sim.hosts()[victim].assigned_proc, None, "but empty");
    }

    #[test]
    fn short_freeze_resumes_in_place() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        let victim = host_of_proc0(&cfg);
        // 10 s stall, well under the 35 s detection schedule
        cfg.faults = FaultPlan::empty().freeze(victim, 10.0, 10.0);
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(1.0e4, Some(100));
        assert_eq!(stats.host_freezes, 1);
        assert!(
            stats.recoveries.is_empty(),
            "a short stall must not trigger a restart"
        );
        assert_eq!(sim.steps(), vec![100, 100]);
        // the stall shows up as pause time on the frozen process
        assert!(
            stats.procs[0].t_paused >= 10.0 - 1e-9,
            "paused {}",
            stats.procs[0].t_paused
        );
    }

    #[test]
    fn long_freeze_becomes_a_false_positive_restart() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        let victim = host_of_proc0(&cfg);
        // the stall outlasts the detector's 35 s schedule
        cfg.faults = FaultPlan::empty().freeze(victim, 30.0, 200.0);
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(1000.0, None);
        assert_eq!(stats.host_freezes, 1);
        assert_eq!(stats.recoveries.len(), 1);
        assert!(
            stats.recoveries[0].false_positive,
            "this restart killed a live process"
        );
        assert_ne!(stats.recoveries[0].to_host, victim);
        // the computation survives the spurious restart
        let steps = sim.steps();
        let spread = steps.iter().max().unwrap() - steps.iter().min().unwrap();
        assert!(
            spread <= 1,
            "out of sync after false-positive recovery: {steps:?}"
        );
    }

    #[test]
    fn bus_burst_congests_and_passes() {
        let run = |faults: FaultPlan| {
            let mut cfg = ClusterConfig::measurement(small_workload());
            cfg.faults = faults;
            let mut sim = ClusterSim::new(cfg);
            sim.run(f64::INFINITY, Some(100))
        };
        let quiet = run(FaultPlan::empty());
        let bursty = run(FaultPlan::empty().bus_burst(5.0, 10.0));
        assert_eq!(bursty.bus_bursts, 1);
        assert!(
            bursty.finished_at > quiet.finished_at,
            "a saturated bus must slow the run: {} vs {}",
            bursty.finished_at,
            quiet.finished_at
        );
        // and both runs still complete every step
        assert!(bursty.procs.iter().all(|p| p.steps == 100));
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        // the fault layer off vs explicitly empty: not one event differs
        let run = |faults: FaultPlan| {
            let mut cfg = ClusterConfig::measurement(small_workload());
            cfg.faults = faults;
            ClusterSim::new(cfg).run(1.0e6, Some(50))
        };
        let a = run(FaultPlan::empty());
        let b = run(FaultPlan::default());
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.net_messages, b.net_messages);
        assert_eq!(a.net_busy, b.net_busy);
    }

    // ------------------------------------------------------------------
    // reliable transport
    // ------------------------------------------------------------------

    #[test]
    fn lossy_link_retransmits_and_delivers_exactly_once() {
        let run = || {
            let mut cfg = ClusterConfig::measurement(small_workload());
            cfg.faults = FaultPlan::empty().msg_fault(None, None, 0.0, 60.0, 0.35, 0.0, 0.0);
            let mut sim = ClusterSim::new(cfg);
            let stats = sim.run(1.0e4, Some(100));
            assert_eq!(sim.steps(), vec![100, 100], "run must complete");
            stats
        };
        let stats = run();
        assert!(stats.transport.data_sent > 0, "transport not engaged");
        assert!(stats.transport.injected_losses > 0, "window drew no losses");
        assert!(
            stats.transport.retransmits > 0,
            "losses need retransmission"
        );
        assert!(stats.transport.acks_received > 0);
        assert_eq!(stats.duplicate_halo_applies, 0, "exactly-once violated");
        assert_eq!(stats.out_of_order_consumes, 0, "in-order violated");
        assert_eq!(stats.msg_fault_windows, 1);
        // the whole machinery is seeded: a rerun reproduces every counter
        let again = run();
        assert_eq!(stats.finished_at, again.finished_at);
        assert_eq!(stats.transport.retransmits, again.transport.retransmits);
    }

    #[test]
    fn duplication_and_reordering_are_absorbed_in_order() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        cfg.faults = FaultPlan::empty().msg_fault(None, None, 0.0, 60.0, 0.0, 0.5, 0.8);
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(1.0e4, Some(100));
        assert_eq!(sim.steps(), vec![100, 100]);
        assert!(stats.transport.injected_dups > 0);
        assert!(stats.transport.injected_reorders > 0);
        assert!(
            stats.transport.dup_suppressed > 0,
            "duplicate wire copies must be caught by the sequence numbers"
        );
        assert!(stats.transport.late_acks > 0, "dup re-ACKs arrive late");
        assert_eq!(stats.duplicate_halo_applies, 0, "exactly-once violated");
        assert_eq!(stats.out_of_order_consumes, 0, "in-order violated");
    }

    #[test]
    fn partition_blocks_traffic_until_heal() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        cfg.detector.enabled = false; // isolate the transport semantics
        cfg.transport.max_attempts = 3; // give up quickly
        let victim = host_of_proc0(&cfg);
        cfg.faults = FaultPlan::empty().partition(vec![vec![victim]], 10.0, Some(30.0));
        let mut sim = ClusterSim::new(cfg);
        let stats = sim.run(1.0e4, Some(100));
        assert_eq!(stats.partitions, 1);
        assert!(stats.transport.partition_drops > 0);
        assert!(
            !stats.delivery_failures.is_empty(),
            "a 30 s partition must outlast the give-up threshold"
        );
        assert!(stats.transport.give_ups >= 1);
        assert!(stats.recoveries.is_empty(), "no detector, no restart");
        // continued retransmission at the capped RTO rides out the heal
        assert_eq!(sim.steps(), vec![100, 100], "run must complete after heal");
        assert_eq!(stats.duplicate_halo_applies, 0);
        assert_eq!(stats.out_of_order_consumes, 0);
    }

    // ------------------------------------------------------------------
    // congestion-aware failure detection
    // ------------------------------------------------------------------

    fn pure_loss_cfg(mode: DetectorMode) -> ClusterConfig {
        let mut cfg = ClusterConfig::measurement(small_workload());
        cfg.detector.mode = mode;
        cfg.transport.max_attempts = 4; // give-up ≈ 3 s into the outage
                                        // every DATA message from proc 0 to proc 1 vanishes for 100 s; the
                                        // hosts themselves stay perfectly healthy
        cfg.faults = FaultPlan::empty().msg_fault(Some(0), Some(1), 5.0, 100.0, 1.0, 0.0, 0.0);
        cfg
    }

    #[test]
    fn pure_loss_gives_the_fixed_detector_a_false_positive() {
        let mut sim = ClusterSim::new(pure_loss_cfg(DetectorMode::FixedTimeout));
        let stats = sim.run(1.0e4, Some(60));
        assert!(
            stats.false_positive_recoveries() >= 1,
            "a starved miss budget must convict the live process"
        );
        assert_eq!(sim.steps(), vec![60, 60], "run survives the spurious kill");
    }

    #[test]
    fn accrual_detector_survives_pure_loss_without_false_positives() {
        let mut sim = ClusterSim::new(pure_loss_cfg(DetectorMode::Accrual));
        let stats = sim.run(1.0e4, Some(60));
        assert!(
            stats.transport.give_ups >= 1,
            "the transport must still report the outage"
        );
        assert!(stats.transport.probes_sent > 0, "suspicion must probe");
        assert!(
            stats.transport.probe_replies > 0,
            "the live host answers over the healthy monitor link"
        );
        assert_eq!(
            stats.recoveries.len(),
            0,
            "probe replies are proof of life: no restart"
        );
        assert_eq!(sim.steps(), vec![60, 60]);
    }

    #[test]
    fn accrual_detects_a_real_crash_within_twice_the_fixed_latency() {
        let run = |mode: DetectorMode| {
            let mut cfg = ClusterConfig::measurement(small_workload());
            cfg.detector.mode = mode;
            let victim = host_of_proc0(&cfg);
            cfg.faults = FaultPlan::empty().crash(victim, 60.0, None);
            ClusterSim::new(cfg).run(2000.0, None)
        };
        let fixed = run(DetectorMode::FixedTimeout);
        let accrual = run(DetectorMode::Accrual);
        assert_eq!(fixed.recoveries.len(), 1);
        assert_eq!(accrual.recoveries.len(), 1);
        assert!(!accrual.recoveries[0].false_positive);
        let lf = fixed.recoveries[0].detection_latency();
        let la = accrual.recoveries[0].detection_latency();
        assert!((lf - 35.0).abs() < 1e-9, "fixed schedule drifted: {lf}");
        // φ = 8 × the 5 s horizon crossed at +40 s (probed at 5/15/35/40)
        assert!((la - 40.0).abs() < 1e-6, "accrual crossing drifted: {la}");
        assert!(la <= 2.0 * lf, "accrual too slow: {la} vs {lf}");
        assert!(accrual.transport.probes_sent >= 3);
        assert!(accrual.suspicion_peak >= 8.0 - 1e-9);
    }

    #[test]
    fn probe_backoff_clamp_bounds_detection_latency() {
        let mut cfg = ClusterConfig::measurement(small_workload());
        cfg.detector = DetectorPolicy {
            enabled: true,
            timeout_s: 3.0,
            backoff: 2.0,
            max_misses: 4,
            max_probe_interval_s: 4.0, // waits 3, 4, 4, 4 instead of 3, 6, 12, 24
            ..DetectorPolicy::default()
        };
        assert!((cfg.detector.detection_latency() - 15.0).abs() < 1e-12);
        let victim = host_of_proc0(&cfg);
        cfg.faults = FaultPlan::empty().crash(victim, 50.0, None);
        let mut sim = ClusterSim::new(cfg.clone());
        let stats = sim.run(1000.0, None);
        assert_eq!(stats.recoveries.len(), 1);
        let lat = stats.recoveries[0].detection_latency();
        assert!(
            (lat - cfg.detector.detection_latency()).abs() < 1e-9,
            "clamped schedule not honoured: {lat}"
        );
    }
}
