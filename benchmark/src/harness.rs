//! The measuring loop shared by every workload: timed calls (wall + CPU of
//! the process tree), the driver's own trace spans, set-up repetitions, and
//! the fixed-work rounds that fill the measuring window.

use crate::sys;
use std::time::Instant;
use subsonic_exec::StepTiming;
use subsonic_obs::{Category, FlightRecorder, TrackRecorder};

/// Seeded, stateless noise in `[-1, 1)` for initial-condition perturbation
/// (splitmix64 finalizer over the seed and the node coordinates).
pub fn noise(seed: u64, x: usize, y: usize, z: usize) -> f64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for c in [x as u64, y as u64, z as u64] {
        h = mix(h.wrapping_add(c.wrapping_mul(0xbf58_476d_1ce4_e5b9)));
    }
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// splitmix64 output function.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Wall and CPU cost of one timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Call {
    /// Wall seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the process tree.
    pub cpu_s: f64,
}

/// Times calls and, in the traced pass, records the driver's own spans
/// (workload → round → call, probes as children) on one track of the
/// exported trace. Inert recorder ⇒ spans cost one `Option` check.
pub struct Meter {
    /// Holds the driver track only, so its capacity is independent of the
    /// per-track ring the program under test records into.
    driver: FlightRecorder,
    track: TrackRecorder,
    program: FlightRecorder,
    budget_scale: f64,
}

/// Capacity of the driver track: a few spans per round and probe.
const DRIVER_TRACK_CAP: usize = 1 << 14;

impl Meter {
    /// A meter that records no spans (the untraced pass).
    pub fn untraced() -> Meter {
        Meter {
            driver: FlightRecorder::disabled(),
            track: TrackRecorder::disabled(),
            program: FlightRecorder::disabled(),
            budget_scale: 1.0,
        }
    }

    /// A meter whose spans land on the `benchmark / driver` track, next to
    /// a recorder of `cap` events per track for the program under test. The
    /// two recorders are enabled back to back, so their wall clocks agree
    /// to well under a microsecond.
    ///
    /// `budget_scale` stretches or shrinks the time every probe may take
    /// (1 at the window `BENCHMARK.json` fixes, less for smoke runs).
    pub fn traced(cap: usize, budget_scale: f64) -> Meter {
        let driver = FlightRecorder::enabled(DRIVER_TRACK_CAP);
        let program = FlightRecorder::enabled(cap);
        let track = driver.track(100, 0, "benchmark", "driver");
        Meter {
            driver,
            track,
            program,
            budget_scale,
        }
    }

    /// A probe's time budget at this run's scale.
    pub fn budget(&self, seconds: f64) -> f64 {
        seconds * self.budget_scale
    }

    /// The recorder handed to the first traced round: its tracks are the
    /// program's share of the exported trace.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.program
    }

    /// Runs `f` inside a driver span.
    pub fn span<T>(
        &mut self,
        cat: Category,
        name: &'static str,
        f: impl FnOnce(&mut Meter) -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f(self);
        self.track.span_wall(cat, name, t0, Instant::now());
        out
    }

    /// Runs `f` as one timed call: wall clock and process-tree CPU around
    /// exactly the call, plus a span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Call) {
        let cpu0 = sys::cpu_tree_s();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let cpu_s = sys::cpu_tree_s() - cpu0;
        self.track.span_wall(Category::Compute, name, t0, t1);
        let wall_s = (t1 - t0).as_secs_f64();
        (out, Call { wall_s, cpu_s })
    }

    /// Flushes the driver track and returns every finished track, the
    /// driver's first.
    pub fn finish(mut self) -> Vec<subsonic_obs::TrackData> {
        self.track.finish();
        let mut tracks = self.driver.finished_tracks();
        tracks.extend(self.program.finished_tracks());
        tracks
    }
}

/// One executed round: the cost of its timed call and what the call
/// handed back.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Cost of the timed call.
    pub call: Call,
    /// Integration (or simulated) steps the call advanced.
    pub steps: u64,
    /// Work items behind `events_per_s`: node updates or simulator events.
    pub items: f64,
    /// Per-tile timing the public call returned (threads), or the merged
    /// committed timing (procs); empty for serial and sim rounds.
    pub timing: Vec<StepTiming>,
    /// `NetOutcome.recovery_latency` of the job.
    pub recovery_s: Vec<f64>,
    /// Counts that must repeat exactly every round.
    pub counts: Vec<(&'static str, f64)>,
    /// Further API numbers (not exact): simulated seconds and the like.
    pub extra: Vec<(&'static str, f64)>,
}

/// The exact counts of the first round seen; every later round has to
/// report the same ones, or it is a failed operation.
#[derive(Debug, Default)]
pub struct ExactCounts(Option<Vec<(&'static str, f64)>>);

impl ExactCounts {
    /// Remembers the first round's counts, compares every later round's.
    pub fn check(&mut self, round: &Round) -> Result<(), String> {
        match &self.0 {
            None => self.0 = Some(round.counts.clone()),
            Some(first) if *first != round.counts => {
                return Err(format!(
                    "exact counts changed: {:?} != {first:?}",
                    round.counts
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// Outcome of the measuring window.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    /// The rounds that completed (failed ones are counted, not timed).
    pub rounds: Vec<Round>,
    /// Operations attempted (warm-up included — it is verified too).
    pub attempted: u64,
    /// Operations that failed: an `Err`, a non-finite field, a mismatch.
    pub failures: Vec<String>,
}

impl Rounds {
    /// Per-round `steps / wall`.
    pub fn steps_per_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.steps as f64 / r.call.wall_s)
            .collect()
    }

    /// Per-round `items / wall`.
    pub fn items_per_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.items / r.call.wall_s)
            .collect()
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        eprintln!("  FAILED op: {what}");
        self.failures.push(what);
    }
}

/// Fewest timed rounds a window may hold, however slow the machine.
pub const MIN_ROUNDS: usize = 3;

/// Share of the window spent warming up before it opens.
const WARMUP_SHARE: f64 = 0.1;

/// Fills a window of `seconds` with fixed-work rounds. `round(i, meter)`
/// performs the timed call through `meter.call` and verifies its output
/// *outside* that call. Rounds run untimed (verified, not reported) until a
/// tenth of the window has passed — at least one — so caches, allocator and
/// the hypervisor's vCPU wake-up path are warm; then the window opens. Work
/// per round never depends on the clock — only how many rounds fit does —
/// so parent and change execute identical rounds.
pub fn run_rounds(
    seconds: f64,
    meter: &mut Meter,
    mut round: impl FnMut(usize, &mut Meter) -> Result<Round, String>,
) -> Rounds {
    let mut out = Rounds::default();
    let mut i = 0usize;
    let warmup_started = Instant::now();
    let mut opened: Option<Instant> = None;
    loop {
        out.attempted += 1;
        let result = meter.span(Category::Sync, "round", |m| round(i, m));
        match (result, opened) {
            (Ok(r), Some(_)) => out.rounds.push(r),
            (Ok(_), None) => {
                if warmup_started.elapsed().as_secs_f64() >= WARMUP_SHARE * seconds {
                    opened = Some(Instant::now());
                }
            }
            (Err(e), _) => out.fail(format!("round {i}: {e}")),
        }
        i += 1;
        let full = opened.is_some_and(|t| t.elapsed().as_secs_f64() >= seconds);
        if out.rounds.len() >= MIN_ROUNDS && full {
            break;
        }
        // a workload that fails every round must still terminate
        if out.failures.len() >= 8 {
            break;
        }
    }
    out
}

/// Set-ups stop repeating once this much wall time has gone into them.
const SETUP_BUDGET_S: f64 = 0.5;
/// Most set-ups of one run.
const MAX_SETUPS: usize = 101;

/// Repeats a set-up at least `min_reps` times — and, for set-ups that take
/// microseconds, until [`SETUP_BUDGET_S`] has passed or [`MAX_SETUPS`] are
/// done, because a median of seven 0.2 ms timings is not steady — and
/// returns each duration. `setup` builds everything needed until stepping
/// is possible and drops it again; only the build is timed.
pub fn time_setups(
    min_reps: usize,
    meter: &mut Meter,
    mut setup: impl FnMut(&mut Meter) -> Result<f64, String>,
    failures: &mut Vec<String>,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(min_reps);
    let started = Instant::now();
    let mut i = 0;
    while i < min_reps || (started.elapsed().as_secs_f64() < SETUP_BUDGET_S && i < MAX_SETUPS) {
        match meter.span(Category::Sync, "setup", &mut setup) {
            Ok(s) => out.push(s),
            Err(e) => failures.push(format!("setup {i}: {e}")),
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_seeded_bounded_and_varied() {
        let a: Vec<f64> = (0..64).map(|i| noise(1995, i, 2 * i, 0)).collect();
        let b: Vec<f64> = (0..64).map(|i| noise(1995, i, 2 * i, 0)).collect();
        let c: Vec<f64> = (0..64).map(|i| noise(1996, i, 2 * i, 0)).collect();
        assert_eq!(a, b, "same seed, same inputs");
        assert_ne!(a, c, "another seed, other inputs");
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!(mean.abs() < 0.3, "not centred: {mean}");
    }

    #[test]
    fn window_keeps_the_warmup_out_and_counts_failures() {
        let mut meter = Meter::untraced();
        let rounds = run_rounds(0.0, &mut meter, |i, m| {
            let (_, call) = m.call("call", || std::hint::black_box(i));
            if i == 2 {
                return Err("corrupted".into());
            }
            Ok(Round {
                call,
                steps: 10,
                items: 100.0,
                ..Round::default()
            })
        });
        // rounds 0 (warm-up), 1, 2 (fails), 3, 4 -> 3 timed rounds kept
        assert_eq!(rounds.rounds.len(), MIN_ROUNDS);
        assert_eq!(rounds.attempted, 5);
        assert_eq!(rounds.failures.len(), 1);
        assert!(rounds.failures[0].contains("round 2"));
    }

    #[test]
    fn a_workload_that_always_fails_terminates() {
        let mut meter = Meter::untraced();
        let rounds = run_rounds(60.0, &mut meter, |_, _| Err("always".into()));
        assert!(rounds.rounds.is_empty());
        assert_eq!(rounds.failures.len(), 8);
    }

    #[test]
    fn traced_meter_nests_call_spans_inside_round_spans() {
        let mut meter = Meter::traced(64, 1.0);
        let _ = run_rounds(0.0, &mut meter, |_, m| {
            let (_, call) = m.call("call", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            Ok(Round {
                call,
                steps: 1,
                items: 1.0,
                ..Round::default()
            })
        });
        let tracks = meter.finish();
        let driver = tracks
            .iter()
            .find(|t| t.thread == "driver")
            .expect("driver track");
        let calls: Vec<_> = driver.events.iter().filter(|e| e.name == "call").collect();
        let rounds: Vec<_> = driver.events.iter().filter(|e| e.name == "round").collect();
        assert_eq!(calls.len(), rounds.len());
        for (c, r) in calls.iter().zip(&rounds) {
            assert!(r.ts_us <= c.ts_us && c.ts_us + c.dur_us <= r.ts_us + r.dur_us + 1.0);
        }
    }
}
