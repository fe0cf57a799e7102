//! Runners that execute decomposed flow problems for real.
//!
//! The execution modes all run the *same* solver plans from
//! `subsonic-solvers`; the first two are written once over [`Dim`] and
//! instantiated for 2D and 3D problems:
//!
//! * [`LocalRunner2`]/[`LocalRunner3`] — all tiles stepped sequentially in one
//!   thread, halos moved by `memcpy`. With a `1×1` decomposition this is the
//!   serial program; with more tiles it is the reference for the bitwise
//!   serial/parallel equivalence tests.
//! * [`ThreadedRunner2`]/[`ThreadedRunner3`] — one OS thread per subregion,
//!   halos moved over crossbeam channels (the in-process analogue of the
//!   paper's TCP/IP sockets), with per-phase `T_calc`/`T_com`
//!   instrumentation, the Appendix-B synchronisation protocol, and a
//!   checkpoint/restore "migration drill".
//! * [`step_tile2`] — one step of one tile against an abstract halo endpoint
//!   (what `subsonic-net` drives over sockets) — and [`RayonRunner2`], a
//!   bulk-synchronous ablation on a work-stealing pool; both 2D only.
//! * checkpointing ([`checkpoint`], [`checkpoint3`]) — binary dump files
//!   carrying everything a process needs to resume, the in-process equivalent
//!   of the paper's dump files ("these files contain all the information that
//!   is needed by a workstation to participate in a distributed computation").
//!
//! The cluster-of-workstations *runtime* (hosts, Ethernet, monitoring,
//! automatic migration) is modelled in `subsonic-cluster`; this crate is the
//! real data-plane.
//!
//! Failure handling is typed: worker deaths surface as [`RunError`] instead
//! of panics, and the supervised runners
//! ([`ThreadedRunner::run_supervised`](threaded::ThreadedRunner::run_supervised))
//! recover from them via in-memory coordinated checkpoints.

#![warn(clippy::unwrap_used)]

pub mod checkpoint;
pub mod checkpoint3;
pub mod dim;
pub mod error;
pub mod gather;
pub mod local;
pub mod problem;
pub mod rayon_runner;
pub mod stepper;
pub mod threaded;
mod threaded3;
pub mod timing;

pub use checkpoint::DumpError;
pub use dim::{Dim, D2, D3};
pub use error::RunError;
pub use gather::{GlobalFields2, GlobalFields3};
pub use local::{LocalRunner, LocalRunner2, LocalRunner3};
pub use problem::{Problem2, Problem3};
pub use rayon_runner::RayonRunner2;
pub use stepper::{step_tile2, Halo2};
pub use threaded::{
    KillSpec, MigrationDrill, RunOutcome, RunOutcome2, RunOutcome3, SupervisorConfig,
    ThreadedRunner, ThreadedRunner2, ThreadedRunner3,
};
pub use timing::StepTiming;
