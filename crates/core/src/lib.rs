//! `subsonic` — parallel simulation of subsonic fluid dynamics on a
//! (simulated) cluster of workstations.
//!
//! A Rust reproduction of P. A. Skordos, *"Parallel simulation of subsonic
//! fluid dynamics on a cluster of workstations"* (MIT AI Memo 1485, 1994 /
//! HPDC 1995). This crate is the public facade over the workspace:
//!
//! * [`Simulation2`]/[`Simulation3`] — build-and-run API for flow problems:
//!   pick a geometry, a numerical method (explicit finite differences or the
//!   lattice Boltzmann method), a decomposition, and step it serially, over
//!   tiles, or with one thread per subregion;
//! * [`experiments`] — drivers that regenerate every table and figure of the
//!   paper's evaluation (see `DESIGN.md` for the experiment index and
//!   `EXPERIMENTS.md` for paper-vs-measured numbers);
//! * [`report`] — small table/series types with CSV and Markdown emitters
//!   used by the `reproduce` binary.
//!
//! ```no_run
//! use subsonic::prelude::*;
//!
//! // 2D Poiseuille channel, lattice Boltzmann, 2x2 subregions, threaded.
//! let mut params = FluidParams::lattice_units(0.05);
//! params.body_force[0] = 1e-5;
//! let mut sim = Simulation2::builder()
//!     .geometry(Geometry2::channel(128, 64, 2))
//!     .method(MethodKind::LatticeBoltzmann)
//!     .params(params)
//!     .decompose(2, 2)
//!     .build();
//! sim.run(1000);
//! let fields = sim.fields();
//! println!("centreline vx = {}", fields.vx[(64, 32)]);
//! ```

pub mod experiments;
pub mod report;
pub mod simulation;

pub use report::{Check, ExperimentResult, Series, Table};
pub use simulation::{Simulation2, Simulation3};

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::report::{Check, ExperimentResult, Series, Table};
    pub use crate::simulation::{Simulation2, Simulation3};
    pub use subsonic_cluster::{
        measure_efficiency, ClusterConfig, ClusterSim, MeasureConfig, WorkloadSpec,
    };
    pub use subsonic_exec::{
        GlobalFields2, GlobalFields3, LocalRunner2, LocalRunner3, Problem2, Problem3,
        ThreadedRunner2, ThreadedRunner3,
    };
    pub use subsonic_grid::{geometry::FluePipeSpec, Cell, Decomp, Geometry2, Geometry3};
    pub use subsonic_model::{EfficiencyModel, PaperConstants};
    pub use subsonic_solvers::{
        analytic, diagnostics, fluepipe::FluePipeScenario, FluidParams, MethodKind,
    };
}
