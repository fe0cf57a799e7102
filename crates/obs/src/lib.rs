//! Unified observability for the subsonic workspace.
//!
//! Skordos's paper lives on its instrumentation — every claim in sections 6–7
//! rests on measured `T_calc`/`T_com` decompositions, per-host load traces
//! and migration/recovery event timelines. This crate is the one measurement
//! substrate those numbers flow through, shared by the discrete-event cluster
//! simulation, the real threaded runners and the experiment drivers:
//!
//! * [`FlightRecorder`] — a lock-light, bounded ring of typed, timestamped
//!   span/instant events. Writers are per-thread ([`TrackRecorder`]) and
//!   append to private pre-allocated buffers, merging under a mutex only when
//!   a track finishes; the hot path takes no lock and performs no heap
//!   allocation. Timestamps are microseconds on either of two clocks:
//!   *simulated* time from the cluster event loop (deterministic given the
//!   seed — two identical runs produce byte-identical traces) or *wall* time
//!   from the threaded runners (anchored to the recorder's epoch instant).
//!   A disabled recorder is a no-op handle: every record call is a branch on
//!   `None` and nothing is allocated, so production paths keep it plumbed in
//!   unconditionally.
//! * [`MetricsRegistry`] — named counters, gauges and log-scale histograms,
//!   the uniform replacement for ad-hoc counter structs scattered across the
//!   runners. Subsystems publish into one registry; `reproduce` writes it
//!   as `METRICS.json` next to the run's CSV tables.
//! * [`chrome`] — the Chrome trace-event JSON exporter. The output loads in
//!   Perfetto / `chrome://tracing`: one track per host/worker, spans for
//!   compute, halo exchange, checkpointing, failure detection and recovery.
//! * [`codec`] — the one little-endian byte codec (and the one FNV-1a) every
//!   binary format in the workspace is written and read with.
//!
//! The `--trace out.json` flag of the `reproduce` binary wires all three
//! together: any experiment run yields a complete visual timeline.

#![warn(clippy::unwrap_used)]

pub mod chrome;
pub mod codec;
pub mod metrics;
pub mod recorder;
pub mod roofline;
pub mod wire;

pub use metrics::{HistogramSnapshot, MetricsRegistry};
pub use recorder::{Category, FlightRecorder, TraceEvent, TrackData, TrackRecorder};
pub use roofline::KernelProfile;
pub use wire::{decode_tracks, encode_tracks, WireError};
