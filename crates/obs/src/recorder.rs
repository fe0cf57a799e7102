//! Lock-light flight recorder: bounded per-thread event buffers.
//!
//! The recorder is split into two halves so the hot path never contends:
//!
//! * [`FlightRecorder`] is the cheap, cloneable session handle. When disabled
//!   it holds no state at all and every operation is a no-op; when enabled it
//!   owns the shared sink that finished tracks flush into.
//! * [`TrackRecorder`] is a single-writer handle for one timeline track
//!   (one simulated processor, one worker thread, one supervisor). It owns a
//!   pre-allocated bounded `Vec<TraceEvent>`; recording a span is a bounds
//!   check and a push into memory that was reserved up front. Past capacity
//!   the newest events are dropped and counted — the recorder is a flight
//!   recorder, not an unbounded log.
//!
//! Two clocks share the one `ts_us` field:
//!
//! * **Sim time** — the cluster event loop passes its own simulated seconds;
//!   [`TrackRecorder::span_sim`] converts to microseconds. Deterministic:
//!   identical seeds produce byte-identical traces.
//! * **Wall time** — threaded runners stamp `std::time::Instant`s against the
//!   recorder's epoch (captured when the session was enabled) via
//!   [`TrackRecorder::wall_us`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span or instant was doing. Fixed vocabulary so exporters can map
/// categories to stable colours/filters and tests can assert coverage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Interior + boundary solver work (`T_calc` in the paper's terms).
    Compute,
    /// Halo pack / exchange / unpack (`T_com`).
    Halo,
    /// Checkpoint save: dump serialisation and transfer.
    Checkpoint,
    /// Failure detection: crash instant to detector firing.
    Detection,
    /// Rollback + recompute after a detected failure.
    Recovery,
    /// Load-balancing node migration.
    Migration,
    /// Injected fault events (crash, freeze, bus burst).
    Fault,
    /// Time on the wire / bus occupancy.
    Net,
    /// Barriers, blocked-on-neighbour waits, supervisor control.
    Sync,
}

impl Category {
    /// Stable lowercase name used in the Chrome trace `cat` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Halo => "halo",
            Category::Checkpoint => "checkpoint",
            Category::Detection => "detection",
            Category::Recovery => "recovery",
            Category::Migration => "migration",
            Category::Fault => "fault",
            Category::Net => "net",
            Category::Sync => "sync",
        }
    }
}

/// One recorded event. `dur_us < 0` marks an instant; spans carry their
/// duration. The optional argument is a single static-keyed number — enough
/// for "bytes", "step", "node count" annotations without any allocation.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    pub cat: Category,
    pub name: &'static str,
    pub ts_us: f64,
    pub dur_us: f64,
    pub arg: Option<(&'static str, f64)>,
}

impl TraceEvent {
    pub fn is_instant(&self) -> bool {
        self.dur_us < 0.0
    }
}

/// A finished track: identity plus its recorded events, as flushed into the
/// shared sink when a [`TrackRecorder`] is dropped or explicitly finished.
#[derive(Clone, Debug)]
pub struct TrackData {
    /// Process-level grouping (e.g. 1 = cluster sim, 2 = ThreadedRunner2).
    pub pid: u32,
    /// Thread/track id within the process group (proc index, tile index, …).
    pub tid: u32,
    /// Human-readable process name for the trace metadata row.
    pub process: String,
    /// Human-readable thread name for the trace metadata row.
    pub thread: String,
    pub events: Vec<TraceEvent>,
}

struct Shared {
    epoch: Instant,
    cap_per_track: usize,
    tracks: Mutex<Vec<TrackData>>,
    dropped: AtomicU64,
}

/// Session handle. Clone freely; all clones feed the same sink. A handle
/// built with [`FlightRecorder::disabled`] costs one `Option` check per
/// record call and never allocates.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    shared: Option<Arc<Shared>>,
}

/// Default per-track event capacity: generous for a quick experiment run,
/// bounded enough that a runaway loop cannot eat the heap (~48 B/event).
pub const DEFAULT_TRACK_CAPACITY: usize = 1 << 16;

impl FlightRecorder {
    /// A recorder that records nothing. Identical API, all no-ops.
    pub fn disabled() -> Self {
        FlightRecorder { shared: None }
    }

    /// An active recorder; each track buffers at most `cap_per_track` events.
    pub fn enabled(cap_per_track: usize) -> Self {
        FlightRecorder {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                cap_per_track: cap_per_track.max(16),
                tracks: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Open a writer for one timeline track. On a disabled recorder this
    /// returns an inert handle without touching the heap.
    pub fn track(&self, pid: u32, tid: u32, process: &str, thread: &str) -> TrackRecorder {
        match &self.shared {
            None => TrackRecorder { inner: None },
            Some(shared) => TrackRecorder {
                inner: Some(Box::new(TrackInner {
                    shared: Arc::clone(shared),
                    data: TrackData {
                        pid,
                        tid,
                        process: process.to_string(),
                        thread: thread.to_string(),
                        events: Vec::with_capacity(shared.cap_per_track),
                    },
                })),
            },
        }
    }

    /// Total events discarded because some track hit its capacity.
    pub fn dropped_events(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.dropped.load(Ordering::Relaxed))
    }

    /// Adopts a finished track recorded elsewhere (typically decoded from a
    /// worker process's shipped blob — see `crate::wire`) into this
    /// recorder's sink, so one exported trace can merge every process's
    /// timeline. No-op on a disabled recorder.
    pub fn adopt(&self, track: TrackData) {
        if let Some(s) = &self.shared {
            if let Ok(mut tracks) = s.tracks.lock() {
                tracks.push(track);
            }
        }
    }

    /// Snapshot every finished track (tracks still owned by a live
    /// [`TrackRecorder`] are not included until flushed).
    pub fn finished_tracks(&self) -> Vec<TrackData> {
        match &self.shared {
            None => Vec::new(),
            Some(s) => s.tracks.lock().map(|t| t.clone()).unwrap_or_default(),
        }
    }
}

struct TrackInner {
    shared: Arc<Shared>,
    data: TrackData,
}

impl TrackInner {
    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.data.events.len() < self.shared.cap_per_track {
            self.data.events.push(ev);
        } else {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Single-writer handle for one track. All record methods are no-ops on a
/// handle obtained from a disabled recorder. Dropping the handle flushes the
/// buffered events into the session sink.
#[derive(Default)]
pub struct TrackRecorder {
    inner: Option<Box<TrackInner>>,
}

impl TrackRecorder {
    /// An inert handle, equivalent to one minted by a disabled recorder.
    pub fn disabled() -> Self {
        TrackRecorder { inner: None }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds between the recorder epoch and `t`. 0.0 when inert.
    #[inline]
    pub fn wall_us(&self, t: Instant) -> f64 {
        match &self.inner {
            None => 0.0,
            Some(inner) => t.duration_since(inner.shared.epoch).as_secs_f64() * 1e6,
        }
    }

    /// Record a span with explicit microsecond start/duration.
    #[inline]
    pub fn span_us(&mut self, cat: Category, name: &'static str, ts_us: f64, dur_us: f64) {
        self.span_us_arg(cat, name, ts_us, dur_us, None);
    }

    /// Record a span with an optional `(key, value)` annotation.
    #[inline]
    pub fn span_us_arg(
        &mut self,
        cat: Category,
        name: &'static str,
        ts_us: f64,
        dur_us: f64,
        arg: Option<(&'static str, f64)>,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.push(TraceEvent {
                cat,
                name,
                ts_us,
                dur_us: dur_us.max(0.0),
                arg,
            });
        }
    }

    /// Record a span given simulated-time endpoints in **seconds** (the
    /// cluster event loop's native unit).
    #[inline]
    pub fn span_sim(&mut self, cat: Category, name: &'static str, t0_s: f64, t1_s: f64) {
        self.span_sim_arg(cat, name, t0_s, t1_s, None);
    }

    #[inline]
    pub fn span_sim_arg(
        &mut self,
        cat: Category,
        name: &'static str,
        t0_s: f64,
        t1_s: f64,
        arg: Option<(&'static str, f64)>,
    ) {
        self.span_us_arg(cat, name, t0_s * 1e6, (t1_s - t0_s) * 1e6, arg);
    }

    /// Record a wall-clock span from two `Instant`s.
    #[inline]
    pub fn span_wall(&mut self, cat: Category, name: &'static str, t0: Instant, t1: Instant) {
        self.span_wall_arg(cat, name, t0, t1, None);
    }

    #[inline]
    pub fn span_wall_arg(
        &mut self,
        cat: Category,
        name: &'static str,
        t0: Instant,
        t1: Instant,
        arg: Option<(&'static str, f64)>,
    ) {
        if self.inner.is_some() {
            let ts = self.wall_us(t0);
            let dur = t1.duration_since(t0).as_secs_f64() * 1e6;
            self.span_us_arg(cat, name, ts, dur, arg);
        }
    }

    /// Record an instantaneous event at a microsecond timestamp.
    #[inline]
    pub fn instant_us(&mut self, cat: Category, name: &'static str, ts_us: f64) {
        self.instant_us_arg(cat, name, ts_us, None);
    }

    #[inline]
    pub fn instant_us_arg(
        &mut self,
        cat: Category,
        name: &'static str,
        ts_us: f64,
        arg: Option<(&'static str, f64)>,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.push(TraceEvent {
                cat,
                name,
                ts_us,
                dur_us: -1.0,
                arg,
            });
        }
    }

    /// Instant at a simulated time in seconds.
    #[inline]
    pub fn instant_sim(&mut self, cat: Category, name: &'static str, t_s: f64) {
        self.instant_us_arg(cat, name, t_s * 1e6, None);
    }

    #[inline]
    pub fn instant_sim_arg(
        &mut self,
        cat: Category,
        name: &'static str,
        t_s: f64,
        arg: Option<(&'static str, f64)>,
    ) {
        self.instant_us_arg(cat, name, t_s * 1e6, arg);
    }

    /// Instant at a wall-clock `Instant`.
    #[inline]
    pub fn instant_wall(&mut self, cat: Category, name: &'static str, t: Instant) {
        if self.inner.is_some() {
            let ts = self.wall_us(t);
            self.instant_us_arg(cat, name, ts, None);
        }
    }

    /// Number of events currently buffered on this track.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.data.events.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush buffered events into the session sink now (also happens on
    /// drop). The handle becomes inert afterwards.
    pub fn finish(&mut self) {
        if let Some(inner) = self.inner.take() {
            if let Ok(mut tracks) = inner.shared.tracks.lock() {
                tracks.push(inner.data);
            }
        }
    }
}

impl Drop for TrackRecorder {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.is_enabled());
        let mut tr = rec.track(1, 0, "p", "t");
        assert!(!tr.enabled());
        tr.span_us(Category::Compute, "step", 0.0, 10.0);
        tr.instant_us(Category::Fault, "crash", 5.0);
        assert_eq!(tr.len(), 0);
        tr.finish();
        assert!(rec.finished_tracks().is_empty());
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn events_round_trip_through_sink() {
        let rec = FlightRecorder::enabled(64);
        {
            let mut tr = rec.track(1, 3, "sim", "proc 3");
            tr.span_sim(Category::Compute, "step", 1.0, 1.5);
            tr.instant_sim(Category::Fault, "crash", 2.0);
            tr.span_sim_arg(
                Category::Halo,
                "exchange",
                1.5,
                1.6,
                Some(("bytes", 4096.0)),
            );
        } // drop flushes
        let tracks = rec.finished_tracks();
        assert_eq!(tracks.len(), 1);
        let t = &tracks[0];
        assert_eq!((t.pid, t.tid), (1, 3));
        assert_eq!(t.process, "sim");
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events[0].cat, Category::Compute);
        assert!((t.events[0].ts_us - 1.0e6).abs() < 1e-9);
        assert!((t.events[0].dur_us - 0.5e6).abs() < 1e-6);
        assert!(t.events[1].is_instant());
        assert_eq!(t.events[2].arg, Some(("bytes", 4096.0)));
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let rec = FlightRecorder::enabled(16);
        let mut tr = rec.track(1, 0, "sim", "proc 0");
        for i in 0..40 {
            tr.span_us(Category::Compute, "step", i as f64, 1.0);
        }
        assert_eq!(tr.len(), 16);
        tr.finish();
        assert_eq!(rec.dropped_events(), 24);
        assert_eq!(rec.finished_tracks()[0].events.len(), 16);
    }

    #[test]
    fn track_buffer_does_not_reallocate() {
        let rec = FlightRecorder::enabled(128);
        let mut tr = rec.track(1, 0, "sim", "proc 0");
        let cap_before = tr.inner.as_ref().map(|i| i.data.events.capacity());
        for i in 0..128 {
            tr.span_us(Category::Compute, "step", i as f64, 1.0);
        }
        let cap_after = tr.inner.as_ref().map(|i| i.data.events.capacity());
        assert_eq!(cap_before, cap_after);
    }

    #[test]
    fn wall_span_is_nonnegative_and_ordered() {
        let rec = FlightRecorder::enabled(16);
        let mut tr = rec.track(2, 0, "runner", "tile 0");
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(250);
        tr.span_wall(Category::Halo, "exchange", t0, t1);
        tr.finish();
        let tracks = rec.finished_tracks();
        let ev = tracks[0].events[0];
        assert!(ev.ts_us >= 0.0);
        assert!((ev.dur_us - 250.0).abs() < 1.0);
    }
}
