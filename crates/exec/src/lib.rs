//! Runners that execute decomposed flow problems for real.
//!
//! Everything runs the *same* solver plans from `subsonic-solvers`, written
//! once over [`Dim`] and instantiated for 2D and 3D problems:
//!
//! * [`LocalRunner2`]/[`LocalRunner3`] — all tiles stepped sequentially in one
//!   thread, halos moved by `memcpy`: the serial program with a `1×1`
//!   decomposition, and the reference of every bitwise equivalence test.
//! * [`step_tile`] — the one step loop: one step of one tile against a
//!   [`Halo`] endpoint, with the fused exchange+compute schedule wherever the
//!   solver declares it. Two substrates drive it:
//! * [`ThreadedRunner2`]/[`ThreadedRunner3`] — one OS thread per subregion
//!   over `std::sync::mpsc` channels (the in-process analogue of the paper's
//!   TCP/IP sockets); and `subsonic-net`'s worker processes over sockets.
//! * [`checkpoint`] — one binary dump codec for both ranks, the paper's dump
//!   files ("these files contain all the information that is needed by a
//!   workstation to participate in a distributed computation").
//!
//! Failure handling is typed: a worker death surfaces as [`RunError`]
//! instead of a panic. Recovery from it — the paper's dump files,
//! synchronisation and restart — is `subsonic-net`'s supervisor, over
//! processes or threads. The cluster-of-workstations *runtime* is modelled
//! in `subsonic-cluster`; this crate is the real data-plane.

#![warn(clippy::unwrap_used)]

pub mod checkpoint;
pub mod dim;
pub mod error;
pub mod gather;
pub mod local;
pub mod problem;
pub mod step;
pub mod threaded;
pub mod timing;

pub use checkpoint::DumpError;
pub use dim::{Dim, D2, D3};
pub use error::RunError;
pub use gather::{GlobalFields2, GlobalFields3};
pub use local::{LocalRunner, LocalRunner2, LocalRunner3};
pub use problem::{Problem2, Problem3};
pub use step::{step_tile, Halo};
pub use threaded::{
    RunOutcome, RunOutcome2, RunOutcome3, ThreadedRunner, ThreadedRunner2, ThreadedRunner3,
};
pub use timing::StepTiming;
