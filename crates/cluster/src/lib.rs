//! Discrete-event simulation of a non-dedicated cluster of workstations.
//!
//! This crate is the substitute substrate for the paper's testbed: 25
//! HP9000/700 workstations (16× 715/50, 6× 720, 3× 710) on a shared-bus
//! 10 Mbps Ethernet, time-shared with regular users. It reproduces, as an
//! event simulation with the paper's measured constants:
//!
//! * **hosts** with the paper's relative speeds per (method, dimension),
//!   UNIX-style exponentially-smoothed 5/15-minute load averages, `nice`
//!   scheduling of the parallel subprocess under competing full-time jobs,
//!   and a stochastic user/background-job model ([`host`], [`user`]);
//! * the **shared-bus Ethernet** as a processor-sharing queue with
//!   per-message overhead and saturation failures, plus an idealised switched
//!   network for the paper's "Ethernet switches / FDDI / ATM" outlook
//!   ([`bus`]);
//! * **parallel subprocesses** executing the same compute/exchange step plans
//!   as the real solvers, with byte counts from the paper's communication
//!   accounting ([`workload`], [`process`]);
//! * the **runtime protocols** of sections 4–5: job submission with
//!   idle-user-first host selection, the monitoring program, the Appendix-B
//!   synchronisation algorithm, automatic process migration, and staggered
//!   checkpointing to the shared file server ([`sim`], [`policy`]);
//! * the **message-level reliable transport** of Appendix D taken literally:
//!   DATA/ACK messages with per-link sequence numbers, SRTT/RTTVAR
//!   retransmission timeouts with bounded exponential backoff, duplicate
//!   suppression, give-up reporting, and injectable loss / duplication /
//!   reordering / partition faults ([`transport`], [`fault`]);
//! * **measurements**: per-process `T_calc`/`T_com`, parallel efficiency and
//!   speedup exactly as section 7 defines them ([`stats`], [`measure`]).
//!
//! Everything is deterministic given a seed.

pub mod bus;
pub mod events;
pub mod fault;
pub mod host;
pub mod measure;
pub mod policy;
pub mod process;
pub mod reference;
mod runheap;
pub mod sim;
pub mod stats;
pub mod transport;
pub mod user;
pub mod workload;

pub use bus::{NetworkConfig, NetworkModel};
pub use events::{CalendarQueue, EventHandle, EventQueue};
pub use fault::{FaultEvent, FaultPlan, FaultSpec, FAULT_STREAM_SALT, TRANSPORT_STREAM_SALT};
pub use host::{HostKind, HostState};
pub use measure::{measure_efficiency, MeasureConfig, Measurement};
pub use policy::{CommOrdering, DetectorMode, DetectorPolicy, MonitorPolicy, SubmitPolicy};
pub use sim::{ClusterConfig, ClusterSim};
pub use stats::{ClusterStats, DeliveryFailureRecord, RecoveryRecord, TransportStats};
pub use transport::{RttEstimator, TransportConfig};
pub use workload::{WorkloadSpec, WorkloadTile};
