//! The seven workloads. Each is a [`Case`]: how to set it up, how to run one
//! fixed-work round (timed call + verification), and which layer numbers
//! its traced pass adds. Inputs come from the seed only: initial-condition
//! perturbation for the fluid problems, fault placement for `procs_udp_kill`,
//! `ClusterConfig.seed` and the fault plan for the simulator.

use crate::fluid::{d2, d3, TileProbe};
use crate::harness::{mix, noise, Call, Meter, Round};
use crate::procs;
use crate::spec::Workload;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use subsonic_cluster::host::HostKind;
use subsonic_cluster::{ClusterConfig, ClusterSim, ClusterStats, FaultPlan, WorkloadSpec};
use subsonic_exec::{LocalRunner2, Problem2, Problem3, StepTiming, ThreadedRunner2};
use subsonic_grid::{Geometry2, Geometry3};
use subsonic_net::{NetConfig, NetKill, NetOutcome, TransportKind};
use subsonic_obs::FlightRecorder;
use subsonic_solvers::{
    FiniteDifference3, FluidParams, LatticeBoltzmann2, MethodKind, ScalarReference2, Solver2,
    Solver3,
};

/// Parallelism is fixed: two tiles, threads or worker processes, never more.
pub const P: usize = 2;

/// One workload.
pub trait Case {
    /// Child processes a round spawns (for process-tree RSS).
    fn workers(&self) -> usize {
        0
    }
    /// One set-up: wall seconds from problem construction until stepping
    /// is possible. Everything built is dropped again.
    fn setup(&mut self, meter: &mut Meter) -> Result<f64, String>;
    /// One fixed-work round: the timed call, then verification of its
    /// output outside the timed region.
    fn round(&mut self, meter: &mut Meter, recorder: &FlightRecorder) -> Result<Round, String>;
    /// Steps one round advances (frozen per workload).
    fn steps_per_round(&self) -> u64;
}

/// Fluid parameters shared by every fluid workload (the `reproduce bench`
/// channel: lattice units, gentle body force).
fn fluid_params() -> FluidParams {
    let mut p = FluidParams::lattice_units(0.05);
    p.body_force[0] = 1e-6;
    p
}

/// 2D channel problem with a seeded density perturbation.
pub fn channel2(nx: usize, ny: usize, px: usize, py: usize, seed: u64) -> Problem2 {
    let params = fluid_params();
    let rho0 = params.rho0;
    Problem2::new(Geometry2::channel(nx, ny, 2), px, py, params)
        .with_init(move |x, y| (rho0 * (1.0 + 1e-3 * noise(seed, x, y, 0)), 0.0, 0.0))
}

/// 3D duct problem with a seeded density perturbation.
fn duct3(dims: (usize, usize, usize), parts: (usize, usize, usize), seed: u64) -> Problem3 {
    let params = fluid_params();
    let rho0 = params.rho0;
    Problem3::new(
        Geometry3::duct(dims.0, dims.1, dims.2, 2),
        parts.0,
        parts.1,
        parts.2,
        params,
    )
    .with_init(move |x, y, z| (rho0 * (1.0 + 1e-3 * noise(seed, x, y, z)), 0.0, 0.0, 0.0))
}

// ---------------------------------------------------------------------------
// serial_lb2d

/// Steps the scalar-reference comparison covers.
const SERIAL_CHECK_STEPS: usize = 8;

/// `serial_lb2d`: one `LocalRunner2` stepping a 1024×512 channel.
pub struct SerialLb2d {
    seed: u64,
    dims: (usize, usize),
    steps: u64,
    runner: LocalRunner2,
    nodes: usize,
}

impl SerialLb2d {
    /// Frozen size.
    pub const DIMS: (usize, usize) = (1024, 512);
    /// Frozen steps per round.
    pub const STEPS: u64 = 12;

    /// Builds the workload. The first [`SERIAL_CHECK_STEPS`] steps of the
    /// default kernels are compared bitwise with `ScalarReference2` here,
    /// one runner after the other so the peak resident set stays one grid.
    pub fn new(seed: u64, dims: (usize, usize), steps: u64) -> Result<Self, String> {
        let problem = || channel2(dims.0, dims.1, 1, 1, seed);
        let simd = d2::serial_fields(Arc::new(LatticeBoltzmann2), problem(), SERIAL_CHECK_STEPS);
        let scalar = d2::serial_fields(
            Arc::new(ScalarReference2(LatticeBoltzmann2)),
            problem(),
            SERIAL_CHECK_STEPS,
        );
        Self::with_reference(seed, dims, steps, &simd, &scalar)
    }

    /// [`SerialLb2d::new`] with the two field sets handed in (tests feed a
    /// corrupted reference).
    pub fn with_reference(
        seed: u64,
        dims: (usize, usize),
        steps: u64,
        simd: &subsonic_exec::GlobalFields2,
        scalar: &subsonic_exec::GlobalFields2,
    ) -> Result<Self, String> {
        d2::check_fields(simd, scalar).map_err(|e| format!("vs ScalarReference2: {e}"))?;
        let problem = channel2(dims.0, dims.1, 1, 1, seed);
        let nodes = problem.fluid_nodes();
        let runner = LocalRunner2::new(Arc::new(LatticeBoltzmann2), problem);
        Ok(Self {
            seed,
            dims,
            steps,
            runner,
            nodes,
        })
    }

    /// Single-tile probe on the full grid (an associated function: the
    /// traced pass drops the workload's own 90 MB runner first, so the
    /// probe's tile is the only large allocation alive).
    pub fn probe(
        seed: u64,
        dims: (usize, usize),
        scalar: bool,
        budget_s: f64,
        meter: &mut Meter,
    ) -> TileProbe {
        let problem = channel2(dims.0, dims.1, 1, 1, seed);
        d2::probe_tile(&LatticeBoltzmann2, &problem, scalar, budget_s, meter)
    }
}

impl Case for SerialLb2d {
    fn setup(&mut self, _meter: &mut Meter) -> Result<f64, String> {
        let t0 = Instant::now();
        let problem = channel2(self.dims.0, self.dims.1, 1, 1, self.seed);
        let mut runner = LocalRunner2::new(Arc::new(LatticeBoltzmann2), problem);
        runner.run(2);
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(&runner);
        Ok(s)
    }

    fn round(&mut self, meter: &mut Meter, _recorder: &FlightRecorder) -> Result<Round, String> {
        let steps = self.steps as usize;
        let runner = &mut self.runner;
        let ((), call) = meter.call("LocalRunner::run", || runner.run(steps));
        // the state keeps evolving across rounds, so there is no fixed
        // reference: every value must stay finite
        let fields = self.runner.gather();
        let finite = [fields.rho.raw(), fields.vx.raw(), fields.vy.raw()]
            .iter()
            .all(|s| s.iter().all(|x| x.is_finite()));
        if !finite {
            return Err("non-finite field value".into());
        }
        Ok(Round {
            call,
            steps: self.steps,
            items: (self.nodes as u64 * self.steps) as f64,
            ..Round::default()
        })
    }

    fn steps_per_round(&self) -> u64 {
        self.steps
    }
}

// ---------------------------------------------------------------------------
// threads_lb2d_fine, threads_fd3d

/// `threads_lb2d_fine`: 48×24 channel on 2×1 tiles of 24×24.
pub fn threads_lb2d_fine(seed: u64, steps: u64) -> d2::Threads {
    let solver: Arc<dyn Solver2> = Arc::new(LatticeBoltzmann2);
    d2::Threads::new(
        solver,
        channel2(48, 24, P, 1, seed),
        channel2(48, 24, 1, 1, seed),
        steps,
    )
}

/// Frozen steps per round of `threads_lb2d_fine`.
pub const FINE_STEPS: u64 = 1500;

/// `threads_fd3d`: 48×24×24 duct on 2×1×1 tiles of 24³.
pub fn threads_fd3d(seed: u64, steps: u64) -> d3::Threads {
    let solver: Arc<dyn Solver3> = Arc::new(FiniteDifference3);
    let dims = (48, 24, 24);
    d3::Threads::new(
        solver,
        duct3(dims, (P, 1, 1), seed),
        duct3(dims, (1, 1, 1), seed),
        steps,
    )
}

/// Frozen steps per round of `threads_fd3d`.
pub const FD3_STEPS: u64 = 100;

/// What the threaded workloads add to [`Case`] for the traced pass.
pub trait ThreadsCase: Case {
    /// The same global grid stepped once by a plain `LocalRunner`.
    fn serial_round(&self, meter: &mut Meter) -> Call;
    /// Single-tile probe on the workload's tile shape.
    fn probe(&self, scalar: bool, budget_s: f64, meter: &mut Meter) -> TileProbe;
}

macro_rules! threads_case {
    ($module:ident) => {
        impl ThreadsCase for $module::Threads {
            fn serial_round(&self, meter: &mut Meter) -> Call {
                $module::Threads::serial_round(self, meter)
            }

            fn probe(&self, scalar: bool, budget_s: f64, meter: &mut Meter) -> TileProbe {
                $module::Threads::probe(self, scalar, budget_s, meter)
            }
        }

        impl Case for $module::Threads {
            fn setup(&mut self, _meter: &mut Meter) -> Result<f64, String> {
                $module::Threads::setup(self)
            }

            fn round(
                &mut self,
                meter: &mut Meter,
                recorder: &FlightRecorder,
            ) -> Result<Round, String> {
                let mut round = $module::Threads::round(self, meter, recorder)?;
                let steps = round.steps as f64;
                let sum =
                    |f: fn(&StepTiming) -> u64| round.timing.iter().map(f).sum::<u64>() as f64;
                round.counts = vec![
                    ("grid.halo_msgs_per_step", sum(|t| t.msgs_sent) / steps),
                    (
                        "grid.halo_doubles_per_step",
                        sum(|t| t.doubles_sent) / steps,
                    ),
                ];
                Ok(round)
            }

            fn steps_per_round(&self) -> u64 {
                self.steps()
            }
        }
    };
}
threads_case!(d2);
threads_case!(d3);

// ---------------------------------------------------------------------------
// procs_tcp_lb2d, procs_udp_kill

/// Seed-placed unit fault windows of `procs_udp_kill`: every seed injects
/// the same *number* of faults (so every seed does the same work) at
/// different steps and on different senders.
#[derive(Debug, Clone, Copy)]
pub struct UdpFaults {
    /// Steps in which one worker's first transmissions are all dropped.
    pub loss_steps: usize,
    /// Steps in which they are all duplicated.
    pub dup_steps: usize,
    /// Steps in which they are all held back (reordered).
    pub reorder_steps: usize,
    /// Whether worker 1 is SIGKILLed mid-job.
    pub kill: bool,
}

/// A multi-process workload: `run_problem` over two real worker processes.
pub struct Procs {
    problem: Problem2,
    transport: TransportKind,
    /// Steps per job.
    pub steps: u64,
    /// Commit interval.
    pub interval: u64,
    /// Fault windows (UDP workload only).
    pub faults: Option<UdpFaults>,
    seed: u64,
    out_dir: PathBuf,
    reference: subsonic_exec::GlobalFields2,
    nodes: usize,
}

impl Procs {
    /// Frozen grid.
    pub const DIMS: (usize, usize) = (256, 128);

    /// Builds the workload and its serial reference.
    pub fn new(
        transport: TransportKind,
        steps: u64,
        interval: u64,
        faults: Option<UdpFaults>,
        seed: u64,
        out_dir: PathBuf,
    ) -> Self {
        let (nx, ny) = Self::DIMS;
        let problem = channel2(nx, ny, P, 1, seed);
        let reference = d2::serial_fields(
            Arc::new(LatticeBoltzmann2),
            channel2(nx, ny, 1, 1, seed),
            steps as usize,
        );
        let nodes = problem.fluid_nodes();
        Self {
            problem,
            transport,
            steps,
            interval,
            faults,
            seed,
            out_dir,
            reference,
            nodes,
        }
    }

    /// The job configuration: `steps`/`interval` as given, the workload's
    /// faults compiled from the seed.
    pub fn config(&self, steps: u64, interval: u64, faults: Option<UdpFaults>) -> NetConfig {
        let mut cfg = NetConfig::new(self.transport, steps, interval, PathBuf::new());
        if let Some(f) = faults {
            // the kill lands mid-window, on the first execution of that
            // window; the job then replays from the window's start
            let window_start = (steps / interval / 2) * interval;
            let at_step = window_start + interval / 2;
            cfg.chaos_seed = self.seed;
            cfg.faults = unit_fault_plan(self.seed, steps, window_start..at_step, &f);
            if f.kill {
                cfg.kills = vec![NetKill {
                    worker: 1,
                    at_step,
                    attempt: 0,
                }];
            }
        }
        cfg
    }

    /// Runs one job with hygiene (timeout, private run dir, no orphans) and
    /// times the whole `run_problem` call, spawn and gather included.
    pub fn job(
        &self,
        cfg: NetConfig,
        meter: &mut Meter,
        recorder: &FlightRecorder,
    ) -> Result<(NetOutcome, Call), String> {
        let (result, call) = meter.call("run_problem", || {
            procs::run_job(
                &self.problem,
                cfg,
                recorder,
                &self.out_dir,
                procs::job_timeout(),
            )
        });
        Ok((result?, call))
    }

    /// A full-length job verified against the serial reference.
    pub fn verified_job(
        &self,
        cfg: NetConfig,
        meter: &mut Meter,
        recorder: &FlightRecorder,
    ) -> Result<Round, String> {
        let steps = cfg.steps;
        let expect_kill = !cfg.kills.is_empty();
        let (outcome, call) = self.job(cfg, meter, recorder)?;
        d2::check_fields(&outcome.fields, &self.reference)?;
        if outcome.restarts != u32::from(expect_kill) {
            return Err(format!(
                "restarts = {}, expected {}",
                outcome.restarts,
                u32::from(expect_kill)
            ));
        }
        let replayed: u64 = outcome
            .faults
            .iter()
            .map(|f| f.at_step - f.rollback_step)
            .sum();
        let t = outcome.timing;
        Ok(Round {
            call,
            steps,
            items: (self.nodes as u64 * steps) as f64,
            timing: vec![t],
            recovery_s: outcome
                .recovery_latency
                .iter()
                .map(|d| d.as_secs_f64())
                .collect(),
            counts: vec![
                ("net.chaos.loss", outcome.chaos[0] as f64),
                ("net.chaos.dup", outcome.chaos[1] as f64),
                ("net.chaos.reorder", outcome.chaos[2] as f64),
                ("net.restarts", f64::from(outcome.restarts)),
                ("net.recovery.replayed_steps", replayed as f64),
                ("net.msgs_per_step", t.msgs_sent as f64 / steps as f64),
            ],
            extra: vec![("net.window_retries", f64::from(outcome.window_retries))],
        })
    }

    /// The same 256×128 problem on `ThreadedRunner2`, for `net.vs_threads_ratio`.
    pub fn threads_round(&self, meter: &mut Meter) -> Result<Call, String> {
        let runner = ThreadedRunner2::new(Arc::new(LatticeBoltzmann2), self.problem.clone());
        let (result, call) = meter.call("ThreadedRunner::run", || runner.run(self.steps));
        result.map_err(|e| e.to_string())?;
        Ok(call)
    }

    /// Single-tile probe on the 128×128 worker tile.
    pub fn probe(&self, scalar: bool, budget_s: f64, meter: &mut Meter) -> TileProbe {
        d2::probe_tile(&LatticeBoltzmann2, &self.problem, scalar, budget_s, meter)
    }

    /// The decomposed problem (probes build tiles of its exact shape).
    pub fn problem(&self) -> &Problem2 {
        &self.problem
    }
}

/// Compiles [`UdpFaults`] into a `FaultPlan` of unit windows: window `i`
/// covers one seed-chosen step of one seed-chosen sender with probability 1,
/// all steps distinct, inside `[1, steps)` and outside `replayed` — the
/// steps a kill makes the job execute twice, where a window would fire
/// twice and seeds would again differ in the work they do.
pub fn unit_fault_plan(
    seed: u64,
    steps: u64,
    replayed: std::ops::Range<u64>,
    f: &UdpFaults,
) -> FaultPlan {
    let total = f.loss_steps + f.dup_steps + f.reorder_steps;
    let eligible = (steps - 1).saturating_sub(replayed.end.saturating_sub(replayed.start));
    assert!(
        (total as u64) < eligible,
        "more fault windows than eligible steps"
    );
    let mut chosen: Vec<u64> = Vec::with_capacity(total);
    let mut draw = mix(seed ^ 0x5eed_fa17);
    while chosen.len() < total {
        draw = mix(draw);
        let step = 1 + draw % (steps - 1);
        if !chosen.contains(&step) && !replayed.contains(&step) {
            chosen.push(step);
        }
    }
    let mut plan = FaultPlan::empty();
    for (i, &step) in chosen.iter().enumerate() {
        let sender = Some((mix(seed ^ step) % P as u64) as usize);
        let (loss, dup, reorder) = if i < f.loss_steps {
            (1.0, 0.0, 0.0)
        } else if i < f.loss_steps + f.dup_steps {
            (0.0, 1.0, 0.0)
        } else {
            (0.0, 0.0, 1.0)
        };
        plan = plan.msg_fault(sender, None, step as f64, 1.0, loss, dup, reorder);
    }
    plan
}

impl Case for Procs {
    fn workers(&self) -> usize {
        P
    }

    /// A whole `run_problem` job with `steps = interval = 1`: spawn,
    /// port-file handshake, tile ship, mesh connect, gather, shutdown.
    fn setup(&mut self, meter: &mut Meter) -> Result<f64, String> {
        let (_, call) = self.job(self.config(1, 1, None), meter, &FlightRecorder::disabled())?;
        Ok(call.wall_s)
    }

    fn round(&mut self, meter: &mut Meter, recorder: &FlightRecorder) -> Result<Round, String> {
        self.verified_job(
            self.config(self.steps, self.interval, self.faults),
            meter,
            recorder,
        )
    }

    fn steps_per_round(&self) -> u64 {
        self.steps
    }
}

// ---------------------------------------------------------------------------
// sim_production20, sim_scale1024

/// A simulator workload: a fresh `ClusterSim` per round, `run` timed.
pub struct Sim {
    cfg: ClusterConfig,
    steps: u64,
    /// Simulated seconds after which a round gives up: several times what a
    /// healthy round needs, so a job that cannot finish (a seed whose faults
    /// wedge the simulated cluster) fails the operation instead of spinning
    /// forever.
    horizon_s: f64,
    /// Process hand-migrated at t = 0 (`None`: no migration requested).
    migrate: Option<usize>,
    /// The workload must show at least one migration, crash recovery and
    /// retransmission, or its rounds do not cover what they claim to.
    must_fault: bool,
}

impl Sim {
    /// Frozen simulated steps per round of `sim_production20`.
    pub const PRODUCTION_STEPS: u64 = 5000;
    /// Frozen simulated steps per round of `sim_scale1024`.
    pub const SCALE_STEPS: u64 = 200;

    /// `sim_production20`: the paper's 20-process job on the production
    /// cluster (users, monitor, checkpoints) with a fixed-shape fault plan
    /// whose instants and hosts come from the seed: one host crash with
    /// reboot, one freeze, two bus bursts, one message-fault window, and
    /// one hand-requested migration.
    ///
    /// Not every draw makes a usable input: the crashed host may hold no
    /// process at that moment (no recovery to measure), and a few
    /// combinations wedge the simulated job for good. So the plan is drawn
    /// again with the next salt until one dry run — here, outside every
    /// timed region — completes with the coverage the workload promises.
    /// Same seed, same plan; no seed yields a round that fails.
    pub fn production20(seed: u64, steps: u64) -> Sim {
        let mut candidate = Self::production20_draw(seed, 0, steps);
        for redraw in 1..Self::MAX_REDRAWS {
            if candidate.dry_run().is_ok() {
                break;
            }
            candidate = Self::production20_draw(seed, redraw, steps);
        }
        candidate
    }

    /// Draws after which [`Sim::production20`] stops looking (about one
    /// draw in seven is unusable, so eight all failing is a 1e-7 event; the
    /// rounds then fail visibly).
    const MAX_REDRAWS: u64 = 8;

    fn production20_draw(seed: u64, redraw: u64, steps: u64) -> Sim {
        let workload = WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 750, 600, 5, 4);
        let mut cfg = ClusterConfig::production(workload, seed);
        let hosts = cfg.hosts.len() as u64;
        // the round spans ~1.3 simulated seconds per step
        let span = steps as f64 * 1.3;
        let draw = |salt: u64| mix(seed ^ salt ^ redraw.wrapping_mul(0x9e37_79b9));
        let at = |frac: f64, salt: u64| span * (frac + 0.04 * (draw(salt) % 1000) as f64 / 1000.0);
        cfg.faults = FaultPlan::empty()
            .bus_burst(at(0.10, 1), 30.0)
            .crash((draw(2) % hosts) as usize, at(0.25, 3), Some(600.0))
            .msg_fault(None, None, at(0.45, 4), span * 0.08, 0.02, 0.01, 0.01)
            .freeze((draw(5) % hosts) as usize, at(0.65, 6), 20.0)
            .bus_burst(at(0.80, 7), 30.0);
        Sim {
            cfg,
            steps,
            horizon_s: 4.0 * span,
            migrate: Some((draw(8) % 20) as usize),
            must_fault: true,
        }
    }

    /// One untimed round with the round's own checks.
    fn dry_run(&self) -> Result<(), String> {
        let mut sim = self.build(&FlightRecorder::disabled());
        let stats = sim.run(self.horizon_s, Some(self.steps));
        self.check(&sim, &stats)
    }

    /// `sim_scale1024`: 1024 homogeneous hosts on a switched network, one
    /// 30×30 process per host, quiet measurement conditions.
    pub fn scale1024(seed: u64, steps: u64) -> Sim {
        let (px, py) = (32, 32);
        let workload = WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 30 * px, 30 * py, px, py);
        let mut cfg = ClusterConfig::measurement(workload);
        cfg.hosts = vec![HostKind::Hp715_50; px * py];
        cfg.net = cfg.net.switched();
        cfg.seed = seed;
        // a quiet step of this job takes ~27 simulated milliseconds
        Sim {
            cfg,
            steps,
            horizon_s: 0.2 * steps as f64,
            migrate: None,
            must_fault: false,
        }
    }

    fn build(&self, recorder: &FlightRecorder) -> ClusterSim {
        let mut sim = ClusterSim::new(self.cfg.clone()).with_recorder(recorder);
        if let Some(pid) = self.migrate {
            sim.request_migration(pid);
        }
        sim
    }

    /// The configuration (probes size their queues from it).
    pub fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Checks one round's statistics.
    pub fn check(&self, sim: &ClusterSim, stats: &ClusterStats) -> Result<(), String> {
        if !stats.finished_at.is_finite() {
            return Err("non-finite simulated clock".into());
        }
        if let Some(short) = sim.steps().iter().find(|&&s| s < self.steps) {
            return Err(format!(
                "a process stopped at step {short} < {}",
                self.steps
            ));
        }
        if self.must_fault {
            let crash_recoveries = stats
                .recoveries
                .iter()
                .filter(|r| !r.false_positive)
                .count();
            if stats.migrations.is_empty()
                || crash_recoveries == 0
                || stats.transport.retransmits == 0
            {
                return Err(format!(
                    "round lacks coverage: {} migrations, {} crash recoveries, {} retransmits",
                    stats.migrations.len(),
                    crash_recoveries,
                    stats.transport.retransmits
                ));
            }
        }
        Ok(())
    }
}

impl Case for Sim {
    /// `ClusterSim::new` + run to step 1.
    fn setup(&mut self, _meter: &mut Meter) -> Result<f64, String> {
        let t0 = Instant::now();
        let mut sim = self.build(&FlightRecorder::disabled());
        let stats = sim.run(self.horizon_s, Some(1));
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(stats.finished_at);
        Ok(s)
    }

    fn round(&mut self, meter: &mut Meter, recorder: &FlightRecorder) -> Result<Round, String> {
        let mut sim = self.build(recorder);
        let steps = self.steps;
        let (stats, call) = meter.call("ClusterSim::run", || sim.run(self.horizon_s, Some(steps)));
        self.check(&sim, &stats)?;
        let events = sim.events_processed() as f64;
        Ok(Round {
            call,
            steps,
            items: events,
            counts: vec![
                ("cluster.events", events),
                ("cluster.events_per_sim_step", events / steps as f64),
                ("cluster.migrations", stats.migrations.len() as f64),
                ("cluster.recoveries", stats.recoveries.len() as f64),
                ("cluster.retransmits", stats.transport.retransmits as f64),
            ],
            extra: vec![
                ("sim_seconds", stats.finished_at),
                (
                    "cluster.bytes_per_host",
                    stats.engine_bytes as f64 / self.cfg.hosts.len() as f64,
                ),
                ("peak_queue_events", stats.peak_queue_events as f64),
                ("net_messages", stats.net_messages as f64),
            ],
            ..Round::default()
        })
    }

    fn steps_per_round(&self) -> u64 {
        self.steps
    }
}

/// Builds a workload's [`Case`] at its frozen sizes.
pub fn build_case(w: Workload, seed: u64, out_dir: PathBuf) -> Result<Box<dyn Case>, String> {
    Ok(match w {
        Workload::SerialLb2d => {
            Box::new(SerialLb2d::new(seed, SerialLb2d::DIMS, SerialLb2d::STEPS)?)
        }
        Workload::ThreadsLb2dFine => Box::new(threads_lb2d_fine(seed, FINE_STEPS)),
        Workload::ThreadsFd3d => Box::new(threads_fd3d(seed, FD3_STEPS)),
        Workload::ProcsTcpLb2d => Box::new(procs_tcp(seed, out_dir)),
        Workload::ProcsUdpKill => Box::new(procs_udp_kill(seed, out_dir)),
        Workload::SimProduction20 => Box::new(Sim::production20(seed, Sim::PRODUCTION_STEPS)),
        Workload::SimScale1024 => Box::new(Sim::scale1024(seed, Sim::SCALE_STEPS)),
    })
}

/// `procs_tcp_lb2d` at its frozen sizes: 600 steps, commit every 100.
pub fn procs_tcp(seed: u64, out_dir: PathBuf) -> Procs {
    Procs::new(TransportKind::Tcp, 600, 100, None, seed, out_dir)
}

/// The frozen fault load of `procs_udp_kill`.
pub const UDP_FAULTS: UdpFaults = UdpFaults {
    loss_steps: 8,
    dup_steps: 6,
    reorder_steps: 6,
    kill: true,
};

/// `procs_udp_kill` at its frozen sizes: 300 steps, commit every 100, the
/// seed-placed unit windows of [`UDP_FAULTS`] and one SIGKILL at step 150.
pub fn procs_udp_kill(seed: u64, out_dir: PathBuf) -> Procs {
    Procs::new(
        TransportKind::Udp,
        300,
        100,
        Some(UDP_FAULTS),
        seed,
        out_dir,
    )
}
