//! The substrate conformance table: one problem, every runtime, one oracle.
//!
//! The paper's parallel code, its serial code and its recovery protocol
//! (dump files, a synchronisation step, a restart; section 5 and
//! Appendix B) must all compute the same fields. Each *row* here is a
//! solver on a decomposed problem; each *column* is a way of running it.
//! Every cell runs the row under its column and compares the gathered
//! fields, bit for bit (`first_difference`), with `LocalRunner` on the
//! undecomposed 1×1 problem after the same number of steps.
//!
//! - Rows: solver {LB, FD, `ScalarReference` of LB} × the 2D
//!   decompositions 3×1, 2×2 and 3×2 of a 36×24 channel, 3×3 of an uneven
//!   35×23 one and 2×3 of the flue pipe, and the 3D decompositions 2×1×1,
//!   2×2×1, 2×2×2 and 3×2×2 of a 12³ duct.
//! - Columns: `LocalRunner` on the tiles; the same with every tile dumped
//!   midway and restored into a fresh runner; `ThreadedRunner::run`; and
//!   `subsonic-net`'s supervisor over `ThreadHost` — clean on in-memory
//!   links, with a worker kill, with a second kill during the recovery
//!   replay, under seeded loss/dup/reorder on UDP, and with two live
//!   migrations.
//!
//! A cell that cannot run is a `Gap` with its reason, printed with the
//! column and checked against the one rule that allows it: the net columns
//! have no 3D worker and no scalar-reference solver. Everything else must
//! pass. The kill columns also run as proptests over the kill's worker,
//! step and checkpoint interval.
//!
//! The `ProcessHost` cells (real worker processes over TCP, SIGKILL) stay in
//! `crates/net/tests/dist.rs`: this package cannot name the `net-worker`
//! binary that they spawn.

use proptest::prelude::*;
use std::any::Any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use subsonic_cluster::fault::FaultPlan;
use subsonic_exec::checkpoint::{dump_tile, restore_tile};
use subsonic_exec::{
    Dim, GlobalFields2, GlobalFields3, LocalRunner, Problem2, Problem3, RunOutcome, ThreadedRunner,
    D2, D3,
};
use subsonic_integration::{duct_problem, flue_problem, poiseuille_problem};
use subsonic_net::{
    run_problem, NetConfig, NetKill, NetMigration, NetOutcome, SolverKind, ThreadHost,
    TransportKind,
};
use subsonic_obs::FlightRecorder;
use subsonic_solvers::{
    FiniteDifference2, FiniteDifference3, LatticeBoltzmann2, LatticeBoltzmann3, ScalarReference2,
    ScalarReference3, Solver2, Solver3,
};

/// Why no net cell runs in 3D.
const GAP_3D: &str = "net::worker is D2-only (ROADMAP 2a)";
/// Why no net cell runs the scalar reference.
const GAP_SCALAR: &str = "`SolverKind` has no scalar reference";
/// Steps of every 2D cell.
const STEPS_2D: usize = 12;
/// Checkpoint interval of the net columns: three windows of four steps.
const INTERVAL: u64 = 4;
/// Steps of every 3D cell.
const STEPS_3D: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Solver {
    Lb,
    Fd,
    Scalar,
}

#[derive(Debug, Clone, Copy)]
enum Grid {
    /// A body-forced channel of `nx × ny` nodes.
    Channel(usize, usize),
    /// The flue pipe of Fig. 1 (walls, inlet jet, outlet).
    Flue,
    /// A body-forced duct of `n³` nodes.
    Duct(usize),
}

/// One row: a solver on one decomposition of one grid.
#[derive(Debug, Clone, Copy)]
struct Row {
    solver: Solver,
    grid: Grid,
    parts: &'static [usize],
}

const GRIDS: [(Grid, &[usize]); 9] = [
    (Grid::Channel(36, 24), &[3, 1]),
    (Grid::Channel(36, 24), &[2, 2]),
    (Grid::Channel(36, 24), &[3, 2]),
    (Grid::Channel(35, 23), &[3, 3]),
    (Grid::Flue, &[2, 3]),
    (Grid::Duct(12), &[2, 1, 1]),
    (Grid::Duct(12), &[2, 2, 1]),
    (Grid::Duct(12), &[2, 2, 2]),
    (Grid::Duct(12), &[3, 2, 2]),
];

fn rows() -> Vec<Row> {
    [Solver::Lb, Solver::Fd, Solver::Scalar]
        .into_iter()
        .flat_map(|solver| {
            GRIDS.map(|(grid, parts)| Row {
                solver,
                grid,
                parts,
            })
        })
        .collect()
}

impl Row {
    fn name(&self) -> String {
        let parts: Vec<String> = self.parts.iter().map(usize::to_string).collect();
        format!("{:?} {:?} {}", self.solver, self.grid, parts.join("x"))
    }

    fn rank(&self) -> usize {
        self.parts.len()
    }
}

/// What one cell found.
#[derive(Debug, PartialEq)]
enum Cell {
    Pass,
    Gap(&'static str),
    Fail(String),
}

impl Cell {
    /// `Pass` when `diff` found no differing value.
    fn from_diff(diff: Option<String>) -> Cell {
        match diff {
            None => Cell::Pass,
            Some(d) => Cell::Fail(format!("fields differ from the serial run: {d}")),
        }
    }
}

/// The per-rank half of a row: its problem, solver, gather and comparison.
trait Rank: Dim + Sized {
    type Fields: Send + Sync + 'static;
    fn problem(grid: Grid, parts: &[usize]) -> Self::Problem;
    fn solver(s: Solver) -> Arc<Self::Solver>;
    fn steps() -> usize;
    fn gather(r: &LocalRunner<Self>) -> Self::Fields;
    fn gather_run(out: &RunOutcome<Self>, grid: Grid) -> Self::Fields;
    fn diff(a: &Self::Fields, b: &Self::Fields) -> Option<String>;
}

impl Rank for D2 {
    type Fields = GlobalFields2;
    fn problem(grid: Grid, parts: &[usize]) -> Problem2 {
        match grid {
            Grid::Channel(nx, ny) => poiseuille_problem(nx, ny, parts[0], parts[1]),
            Grid::Flue => flue_problem(parts[0], parts[1]),
            Grid::Duct(_) => unreachable!("a duct is 3D"),
        }
    }
    fn solver(s: Solver) -> Arc<dyn Solver2> {
        match s {
            Solver::Lb => Arc::new(LatticeBoltzmann2),
            Solver::Fd => Arc::new(FiniteDifference2),
            Solver::Scalar => Arc::new(ScalarReference2(LatticeBoltzmann2)),
        }
    }
    fn steps() -> usize {
        STEPS_2D
    }
    fn gather(r: &LocalRunner<D2>) -> GlobalFields2 {
        r.gather()
    }
    fn gather_run(out: &RunOutcome<D2>, grid: Grid) -> GlobalFields2 {
        let p = D2::problem(grid, &[1, 1]);
        out.gather(p.geom.nx(), p.geom.ny(), p.params.rho0)
    }
    fn diff(a: &GlobalFields2, b: &GlobalFields2) -> Option<String> {
        a.first_difference(b)
            .map(|(x, y, va, vb)| format!("at ({x},{y}): {va:e} vs {vb:e}"))
    }
}

impl Rank for D3 {
    type Fields = GlobalFields3;
    fn problem(grid: Grid, parts: &[usize]) -> Problem3 {
        match grid {
            Grid::Duct(n) => duct_problem(n, parts[0], parts[1], parts[2]),
            Grid::Channel(..) | Grid::Flue => unreachable!("channels and the flue are 2D"),
        }
    }
    fn solver(s: Solver) -> Arc<dyn Solver3> {
        match s {
            Solver::Lb => Arc::new(LatticeBoltzmann3),
            Solver::Fd => Arc::new(FiniteDifference3),
            Solver::Scalar => Arc::new(ScalarReference3(LatticeBoltzmann3)),
        }
    }
    fn steps() -> usize {
        STEPS_3D
    }
    fn gather(r: &LocalRunner<D3>) -> GlobalFields3 {
        r.gather()
    }
    fn gather_run(out: &RunOutcome<D3>, grid: Grid) -> GlobalFields3 {
        let p = D3::problem(grid, &[1, 1, 1]);
        out.gather(p.geom.dims(), p.params.rho0)
    }
    fn diff(a: &GlobalFields3, b: &GlobalFields3) -> Option<String> {
        a.first_difference(b).map(|i| format!("at flat index {i}"))
    }
}

/// The oracle: `LocalRunner` on the 1×1 problem, run once per solver and
/// grid and shared by every cell that compares with it.
fn serial<D: Rank>(row: &Row) -> Arc<D::Fields> {
    type Oracles = Mutex<Vec<(String, Arc<dyn Any + Send + Sync>)>>;
    static ORACLES: Oracles = Mutex::new(Vec::new());
    let key = format!("{:?} {:?}", row.solver, row.grid);
    let mut oracles = ORACLES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, fields)) = oracles.iter().find(|(k, _)| *k == key) {
        return Arc::clone(fields).downcast().expect("one rank per grid");
    }
    let ones = vec![1; row.rank()];
    let mut r = LocalRunner::<D>::new(D::solver(row.solver), D::problem(row.grid, &ones));
    r.run(D::steps());
    let fields = Arc::new(D::gather(&r));
    oracles.push((key, Arc::clone(&fields) as Arc<dyn Any + Send + Sync>));
    fields
}

fn tiled<D: Rank>(row: &Row) -> LocalRunner<D> {
    LocalRunner::new(D::solver(row.solver), D::problem(row.grid, row.parts))
}

// ---------------------------------------------------------------------------
// columns

fn local<D: Rank>(row: &Row) -> Cell {
    let mut r = tiled::<D>(row);
    r.run(D::steps());
    Cell::from_diff(D::diff(&serial::<D>(row), &D::gather(&r)))
}

/// Every tile goes through the dump codec midway and continues in a fresh
/// runner: what a restart from the paper's dump files does.
fn local_restart<D: Rank>(row: &Row) -> Cell {
    let half = D::steps() / 2;
    let mut before = tiled::<D>(row);
    before.run(half);
    let mut after = tiled::<D>(row);
    for &id in before.active() {
        let Some(tile) = before.tile(id) else {
            return Cell::Fail(format!("active tile {id} missing"));
        };
        match restore_tile(&dump_tile(tile)) {
            Ok(restored) => *after.tile_mut(id).expect("same decomposition") = restored,
            Err(e) => return Cell::Fail(format!("tile {id} did not restore: {e}")),
        }
    }
    after.run(D::steps() - half);
    Cell::from_diff(D::diff(&serial::<D>(row), &D::gather(&after)))
}

fn threaded<D: Rank>(row: &Row) -> Cell {
    let runner = ThreadedRunner::<D>::new(D::solver(row.solver), D::problem(row.grid, row.parts));
    match runner.run(D::steps() as u64) {
        Ok(out) => Cell::from_diff(D::diff(&serial::<D>(row), &D::gather_run(&out, row.grid))),
        Err(e) => Cell::Fail(format!("threaded run failed: {e}")),
    }
}

/// A fault or event the net columns put into a job, given its worker count.
type Configure = fn(&mut NetConfig, u32);

/// Runs `row` on net's supervisor over `ThreadHost`, configured by
/// `configure`, and checks the fields and that `expect` holds of the
/// outcome. Every 3D and every scalar-reference row is a gap.
fn net_cell(row: &Row, transport: TransportKind, configure: Configure, expect: Expect) -> Cell {
    if row.rank() == 3 {
        return Cell::Gap(GAP_3D);
    }
    let kind = match row.solver {
        Solver::Lb => SolverKind::LatticeBoltzmann,
        Solver::Fd => SolverKind::FiniteDifference,
        Solver::Scalar => return Cell::Gap(GAP_SCALAR),
    };
    let problem = D2::problem(row.grid, row.parts);
    let workers = problem.active_tiles().len() as u32;
    let mut cfg = NetConfig::new(transport, STEPS_2D as u64, INTERVAL, run_dir());
    cfg.solver = kind;
    configure(&mut cfg, workers);
    match net_run(&problem, &cfg) {
        Err(e) => Cell::Fail(e),
        Ok(out) => match expect(&out) {
            Err(e) => Cell::Fail(e),
            Ok(()) => Cell::from_diff(D2::diff(&serial::<D2>(row), &out.fields)),
        },
    }
}

/// A check of a net outcome beyond its fields.
type Expect = fn(&NetOutcome) -> Result<(), String>;

fn net_run(problem: &Problem2, cfg: &NetConfig) -> Result<NetOutcome, String> {
    let out = run_problem(
        problem,
        cfg,
        &mut ThreadHost::new(),
        &FlightRecorder::disabled(),
    );
    let _ = std::fs::remove_dir_all(&cfg.run_dir);
    out.map_err(|e| format!("net run failed: {e}"))
}

/// A fresh run directory per job (cells run in parallel).
fn run_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("subsonic-conformance-{}-{n}", std::process::id()))
}

fn restarts(out: &NetOutcome, want: u32) -> Result<(), String> {
    match out.restarts {
        r if r == want => Ok(()),
        r => Err(format!("{r} restarts, expected {want}")),
    }
}

fn net_mem(row: &Row) -> Cell {
    net_cell(row, TransportKind::Mem, |_, _| {}, |o| restarts(o, 0))
}

/// The last worker dies in the middle window.
fn net_kill(row: &Row) -> Cell {
    let kill = |cfg: &mut NetConfig, workers: u32| {
        cfg.kills = vec![NetKill {
            worker: workers - 1,
            at_step: INTERVAL + 1,
            attempt: 0,
        }];
    };
    net_cell(row, TransportKind::Mem, kill, |o| restarts(o, 1))
}

/// Worker 0 dies in the middle window, and the last worker dies while that
/// window replays.
fn net_kill_in_recovery(row: &Row) -> Cell {
    let kills = |cfg: &mut NetConfig, workers: u32| {
        cfg.kills = vec![
            NetKill {
                worker: 0,
                at_step: INTERVAL + 2,
                attempt: 0,
            },
            NetKill {
                worker: workers - 1,
                at_step: INTERVAL + 1,
                attempt: 1,
            },
        ];
    };
    net_cell(row, TransportKind::Mem, kills, |o| restarts(o, 2))
}

/// Seeded loss, duplication and reordering on every UDP link for the whole
/// run: retransmission hides them, so nobody restarts.
fn net_udp_chaos(row: &Row) -> Cell {
    let chaos = |cfg: &mut NetConfig, _: u32| {
        cfg.faults = FaultPlan::empty().msg_fault(None, None, 0.0, 1e12, 0.005, 0.1, 0.02);
        cfg.chaos_seed = 0x5eed;
    };
    let expect = |o: &NetOutcome| {
        restarts(o, 0)?;
        match o.chaos[..3].iter().sum::<u64>() {
            0 => Err("the loss/dup/reorder plan never fired".into()),
            _ => Ok(()),
        }
    };
    net_cell(row, TransportKind::Udp, chaos, expect)
}

/// Worker 0 moves at the first commit boundary and the last worker at the
/// second: no fault, no rollback.
fn net_migration(row: &Row) -> Cell {
    let migrate = |cfg: &mut NetConfig, workers: u32| {
        cfg.migrations = vec![
            NetMigration {
                worker: 0,
                after_step: INTERVAL,
            },
            NetMigration {
                worker: workers - 1,
                after_step: 2 * INTERVAL,
            },
        ];
    };
    let expect = |o: &NetOutcome| {
        restarts(o, 0)?;
        match o.migrations {
            2 => Ok(()),
            m => Err(format!("{m} migrations, expected 2")),
        }
    };
    net_cell(row, TransportKind::Mem, migrate, expect)
}

// ---------------------------------------------------------------------------
// the table

/// A column: its name, its 2D and 3D bodies, and whether it runs on net.
struct Column {
    name: &'static str,
    d2: fn(&Row) -> Cell,
    d3: fn(&Row) -> Cell,
    net: bool,
}

macro_rules! generic_column {
    ($name:literal, $f:ident) => {
        Column {
            name: $name,
            d2: $f::<D2>,
            d3: $f::<D3>,
            net: false,
        }
    };
}

macro_rules! net_column {
    ($name:literal, $f:ident) => {
        Column {
            name: $name,
            d2: $f,
            d3: $f,
            net: true,
        }
    };
}

/// The only gap a cell may show: every net cell in 3D, and every net cell
/// of the scalar reference.
fn allowed_gap(col: &Column, row: &Row) -> Option<&'static str> {
    match (col.net, row.rank(), row.solver) {
        (false, _, _) => None,
        (true, 3, _) => Some(GAP_3D),
        (true, _, Solver::Scalar) => Some(GAP_SCALAR),
        (true, _, _) => None,
    }
}

/// Runs one column over every row, prints it, and fails on any cell that
/// neither passes nor is the gap its row allows. The rows run at once: a
/// net cell spends most of its time waiting on its workers.
fn check_column(col: Column) {
    let rows = rows();
    let cells: Vec<Cell> = std::thread::scope(|scope| {
        let runs: Vec<_> = rows
            .iter()
            .map(|row| {
                let body = if row.rank() == 2 { col.d2 } else { col.d3 };
                scope.spawn(move || body(row))
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().unwrap_or_else(|_| Cell::Fail("panicked".into())))
            .collect()
    });
    let mut failures = Vec::new();
    for (row, cell) in rows.iter().zip(cells) {
        println!("{:<22} {:<24} {cell:?}", col.name, row.name());
        let ok = match (&cell, allowed_gap(&col, row)) {
            (Cell::Pass, None) => true,
            (Cell::Gap(got), Some(want)) => got == &want,
            _ => false,
        };
        if !ok {
            failures.push(format!("{} / {}: {cell:?}", col.name, row.name()));
        }
    }
    assert!(
        failures.is_empty(),
        "conformance failures:\n{}",
        failures.join("\n")
    );
}

#[test]
fn local_tiles_match_serial() {
    check_column(generic_column!("local", local));
}

#[test]
fn local_restart_from_dump_matches_serial() {
    check_column(generic_column!("local+restart", local_restart));
}

#[test]
fn threaded_matches_serial() {
    check_column(generic_column!("threaded", threaded));
}

#[test]
fn net_mem_matches_serial() {
    check_column(net_column!("net mem", net_mem));
}

#[test]
fn net_kill_recovers_to_serial() {
    check_column(net_column!("net kill", net_kill));
}

#[test]
fn net_kill_during_recovery_recovers_to_serial() {
    check_column(net_column!("net kill in recovery", net_kill_in_recovery));
}

#[test]
fn net_udp_chaos_matches_serial() {
    check_column(net_column!("net udp chaos", net_udp_chaos));
}

#[test]
fn net_migration_matches_serial() {
    check_column(net_column!("net migration", net_migration));
}

// ---------------------------------------------------------------------------
// the kill columns over random kills, on the LB 3×2 row

/// The LB row on the 3×2 channel: six workers, one per tile.
const KILL_ROW: Row = Row {
    solver: Solver::Lb,
    grid: Grid::Channel(36, 24),
    parts: &[3, 2],
};

/// Runs [`KILL_ROW`] on net over in-memory links with `kills` and checkpoint
/// `interval`; returns its restarts and any difference from the serial run.
fn kill_row(kills: Vec<NetKill>, interval: u64) -> (u32, Option<String>) {
    let problem = D2::problem(KILL_ROW.grid, KILL_ROW.parts);
    let mut cfg = NetConfig::new(TransportKind::Mem, STEPS_2D as u64, interval, run_dir());
    cfg.kills = kills;
    let out = net_run(&problem, &cfg).expect("supervised run");
    let diff = D2::diff(&serial::<D2>(&KILL_ROW), &out.fields);
    (out.restarts, diff)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Killing any worker before any step and replaying from the last
    /// committed cut yields the serial fields, whatever the interval.
    #[test]
    fn killed_worker2_recovers_bitwise(
        tile in 0usize..6,
        at_step in 1usize..12,
        interval in 1usize..6,
    ) {
        let kill = NetKill { worker: tile as u32, at_step: at_step as u64, attempt: 0 };
        let (restarts, diff) = kill_row(vec![kill], interval as u64);
        prop_assert_eq!(restarts, 1, "the kill must fire exactly once");
        prop_assert_eq!(diff, None, "recovery diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A second kill armed on the replay of its window (attempt 1) fires
    /// exactly when the first kill voided that same window; either way the
    /// run converges to the serial fields.
    #[test]
    fn crash_during_recovery2_converges_bitwise(
        tile_a in 0usize..6,
        tile_b in 0usize..6,
        at_a in 1usize..12,
        at_b in 1usize..12,
        interval in 1usize..6,
    ) {
        let kills = vec![
            NetKill { worker: tile_a as u32, at_step: at_a as u64, attempt: 0 },
            NetKill { worker: tile_b as u32, at_step: at_b as u64, attempt: 1 },
        ];
        let (restarts, diff) = kill_row(kills, interval as u64);
        let same_window = at_a / interval == at_b / interval;
        prop_assert_eq!(restarts, 1 + u32::from(same_window), "window rule broken");
        prop_assert_eq!(diff, None, "crash during recovery diverged");
    }
}
