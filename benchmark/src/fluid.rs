//! The dimension-dependent half of the fluid workloads: serial references,
//! the threaded-runner round, and the single-tile layer probe. The exec
//! crate keeps 2D and 3D as twin types with identical method names, so the
//! code is written once and instantiated for both (`d2`, `d3`).

use crate::harness::{Call, Meter, Round};
use std::sync::Arc;
use std::time::Instant;
use subsonic_obs::{Category, FlightRecorder};
use subsonic_solvers::StepOp;

/// What the single-tile probe measured, per integration step of one tile.
#[derive(Debug, Clone, Copy, Default)]
pub struct TileProbe {
    /// Seconds in `solver.compute` over all `Compute` ops of the plan.
    pub compute_s: f64,
    /// Seconds in `solver.pack` over all faces with a neighbour.
    pub pack_s: f64,
    /// Seconds in `solver.unpack` over the same faces.
    pub unpack_s: f64,
    /// `f64`s packed per step.
    pub doubles: f64,
    /// Messages (face strips) per step.
    pub msgs: f64,
    /// Largest single strip, in `f64`s.
    pub max_strip: usize,
    /// Interior nodes of the tile.
    pub nodes: usize,
    /// `Compute` ops in the plan.
    pub compute_ops: usize,
}

macro_rules! fluid_dim {
    (
        $modname:ident, $Problem:ident, $Local:ident, $Threaded:ident, $Solver:ident,
        $Face:ident, $Fields:ident, stages = $stages:expr,
        gather = |$o:ident, $p:ident| $gather:expr,
        slices = |$f:ident| $slices:expr
    ) => {
        pub mod $modname {
            use super::*;
            use subsonic_exec::{$Fields, $Local, $Problem, $Threaded};
            use subsonic_grid::$Face;
            use subsonic_solvers::$Solver;

            /// Final fields of a plain single-tile `LocalRunner` run — the
            /// independent path every parallel round is compared against.
            pub fn serial_fields(
                solver: Arc<dyn $Solver>,
                problem: $Problem,
                steps: usize,
            ) -> $Fields {
                let mut runner = $Local::new(solver, problem);
                runner.run(steps);
                runner.gather()
            }

            /// An operation's output is correct when every value is finite
            /// and the fields equal the reference bit for bit.
            pub fn check_fields(got: &$Fields, want: &$Fields) -> Result<(), String> {
                let $f = got;
                if $slices.iter().any(|s| s.iter().any(|x| !x.is_finite())) {
                    return Err("non-finite field value".into());
                }
                match got.first_difference(want) {
                    None => Ok(()),
                    Some(at) => Err(format!("fields differ from the serial reference at {at:?}")),
                }
            }

            /// One threaded fluid workload: a decomposed problem, its 1×1
            /// twin, and the reference the rounds are verified against.
            pub struct Threads {
                solver: Arc<dyn $Solver>,
                problem: $Problem,
                serial_problem: $Problem,
                steps: u64,
                nodes: usize,
                reference: $Fields,
            }

            impl Threads {
                /// Builds the workload and computes its serial reference
                /// (once, outside every timed region).
                pub fn new(
                    solver: Arc<dyn $Solver>,
                    problem: $Problem,
                    serial_problem: $Problem,
                    steps: u64,
                ) -> Self {
                    let reference =
                        serial_fields(Arc::clone(&solver), serial_problem.clone(), steps as usize);
                    let nodes = problem.fluid_nodes();
                    Self {
                        solver,
                        problem,
                        serial_problem,
                        steps,
                        nodes,
                        reference,
                    }
                }

                /// Replaces the reference (tests feed a corrupted one).
                #[cfg(test)]
                pub fn set_reference(&mut self, reference: $Fields) {
                    self.reference = reference;
                }

                /// The reference fields.
                #[cfg(test)]
                pub fn reference(&self) -> &$Fields {
                    &self.reference
                }

                /// Steps one round runs.
                pub fn steps(&self) -> u64 {
                    self.steps
                }

                /// `ThreadedRunner::new` + `run(1)`: wall until stepping is possible.
                pub fn setup(&self) -> Result<f64, String> {
                    let t0 = Instant::now();
                    let runner = $Threaded::new(Arc::clone(&self.solver), self.problem.clone());
                    runner.run(1).map_err(|e| e.to_string())?;
                    Ok(t0.elapsed().as_secs_f64())
                }

                /// One round: `ThreadedRunner::run(steps)` timed, then its
                /// gathered fields verified against the serial reference.
                /// `run` restarts from the initial tiles, so every round
                /// must reproduce the same state.
                pub fn round(
                    &self,
                    meter: &mut Meter,
                    recorder: &FlightRecorder,
                ) -> Result<Round, String> {
                    let runner = $Threaded::new(Arc::clone(&self.solver), self.problem.clone())
                        .with_recorder(recorder);
                    let (result, call) =
                        meter.call("ThreadedRunner::run", || runner.run(self.steps));
                    let $o = result.map_err(|e| e.to_string())?;
                    let $p = &self.problem;
                    let fields = $gather;
                    check_fields(&fields, &self.reference)?;
                    let timing = $o.timing.iter().map(|(_, t)| *t).collect();
                    Ok(Round {
                        call,
                        steps: self.steps,
                        items: (self.nodes as u64 * self.steps) as f64,
                        timing,
                        ..Round::default()
                    })
                }

                /// The same global grid stepped by a plain `LocalRunner`,
                /// for `exec.parallel_efficiency`.
                pub fn serial_round(&self, meter: &mut Meter) -> Call {
                    let mut runner =
                        $Local::new(Arc::clone(&self.solver), self.serial_problem.clone());
                    let steps = self.steps as usize;
                    meter.call("LocalRunner::run", || runner.run(steps)).1
                }

                /// Single-tile probe on this workload's tile shape.
                pub fn probe(&self, scalar: bool, budget_s: f64, meter: &mut Meter) -> TileProbe {
                    probe_tile(self.solver.as_ref(), &self.problem, scalar, budget_s, meter)
                }
            }

            /// Times the layer calls one tile makes per step: builds the
            /// first active tile of `problem` (its exact shape, mask and
            /// seeded state) and steps it through the solver's plan, timing
            /// `compute`, `pack` and `unpack` separately. Exchanges wrap the
            /// tile onto itself across the faces where the real tile has a
            /// neighbour — a periodic box one tile wide — so the state stays
            /// physical however long the probe runs.
            pub fn probe_tile(
                solver: &dyn $Solver,
                problem: &$Problem,
                scalar: bool,
                budget_s: f64,
                meter: &mut Meter,
            ) -> TileProbe {
                meter.span(
                    Category::Compute,
                    if scalar {
                        "probe:tile(scalar)"
                    } else {
                        "probe:tile"
                    },
                    |_| {
                        let id = problem.active_tiles()[0];
                        let mut tile = problem.make_tile(solver, id);
                        let faces: Vec<$Face> = problem.decomp.communicating_faces(id);
                        let plan = solver.plan();
                        let mut out = TileProbe {
                            nodes: tile.nodes(),
                            compute_ops: plan
                                .iter()
                                .filter(|op| matches!(op, StepOp::Compute(_)))
                                .count(),
                            ..TileProbe::default()
                        };
                        let mut bufs: Vec<Vec<f64>> = faces.iter().map(|_| Vec::new()).collect();
                        let (mut t_compute, mut t_pack, mut t_unpack) =
                            (Vec::new(), Vec::new(), Vec::new());
                        let started = Instant::now();
                        let mut iters = 0usize;
                        while iters < 3 || started.elapsed().as_secs_f64() < budget_s {
                            let (mut c, mut p, mut u) = (0.0, 0.0, 0.0);
                            let (mut doubles, mut msgs) = (0usize, 0usize);
                            for op in plan {
                                match *op {
                                    StepOp::Compute(k) => {
                                        let t0 = Instant::now();
                                        if scalar {
                                            solver.compute_scalar(&mut tile, k);
                                        } else {
                                            solver.compute(&mut tile, k);
                                        }
                                        c += t0.elapsed().as_secs_f64();
                                    }
                                    StepOp::Exchange(x) => {
                                        for stage in 0..$stages {
                                            let t0 = Instant::now();
                                            for (f, buf) in faces.iter().zip(bufs.iter_mut()) {
                                                if f.stage() == stage {
                                                    buf.clear();
                                                    // the neighbour packs across its opposite face
                                                    solver.pack(&tile, x, f.opposite(), buf);
                                                    doubles += buf.len();
                                                    msgs += 1;
                                                    out.max_strip = out.max_strip.max(buf.len());
                                                }
                                            }
                                            let t1 = Instant::now();
                                            for (f, buf) in faces.iter().zip(bufs.iter()) {
                                                if f.stage() == stage {
                                                    solver.unpack(&mut tile, x, *f, buf);
                                                }
                                            }
                                            p += (t1 - t0).as_secs_f64();
                                            u += t1.elapsed().as_secs_f64();
                                        }
                                    }
                                }
                            }
                            // first iteration touches cold memory: not recorded
                            if iters > 0 {
                                t_compute.push(c);
                                t_pack.push(p);
                                t_unpack.push(u);
                            }
                            out.doubles = doubles as f64;
                            out.msgs = msgs as f64;
                            iters += 1;
                        }
                        std::hint::black_box(&tile);
                        out.compute_s = crate::stats::median(&t_compute);
                        out.pack_s = crate::stats::median(&t_pack);
                        out.unpack_s = crate::stats::median(&t_unpack);
                        out
                    },
                )
            }
        }
    };
}

fluid_dim!(
    d2,
    Problem2,
    LocalRunner2,
    ThreadedRunner2,
    Solver2,
    Face2,
    GlobalFields2,
    stages = 2,
    gather = |o, p| o.gather(p.geom.nx(), p.geom.ny(), p.params.rho0),
    slices = |f| [f.rho.raw(), f.vx.raw(), f.vy.raw()]
);

fluid_dim!(
    d3,
    Problem3,
    LocalRunner3,
    ThreadedRunner3,
    Solver3,
    Face3,
    GlobalFields3,
    stages = 3,
    gather = |o, p| o.gather(p.geom.dims(), p.params.rho0),
    slices = |f| [&f.rho[..], &f.vx[..], &f.vy[..], &f.vz[..]]
);
