//! The cornerstone of the paper's parallelisation: a decomposed run computes
//! exactly what the serial run computes. We assert bitwise equality across
//! decompositions, methods, geometries and runners, and across a live
//! migration of a worker's tile.

use std::sync::Arc;
use subsonic::prelude::*;
use subsonic_integration::{assert_bitwise_equal, duct_problem, flue_problem, poiseuille_problem};
use subsonic_net::{run_problem, NetConfig, NetMigration, SolverKind, ThreadHost, TransportKind};
use subsonic_obs::FlightRecorder;
use subsonic_solvers::{
    FiniteDifference2, FiniteDifference3, LatticeBoltzmann2, LatticeBoltzmann3,
};

fn gather_local2(
    solver: Arc<dyn subsonic_solvers::Solver2>,
    p: Problem2,
    steps: usize,
) -> GlobalFields2 {
    let mut r = LocalRunner2::new(solver, p);
    r.run(steps);
    r.gather()
}

#[test]
fn fd2_all_decompositions_match_serial() {
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(FiniteDifference2);
    let reference = gather_local2(Arc::clone(&solver), poiseuille_problem(36, 24, 1, 1), 12);
    for (px, py) in [(2, 1), (1, 2), (3, 2), (2, 3), (4, 4)] {
        let got = gather_local2(Arc::clone(&solver), poiseuille_problem(36, 24, px, py), 12);
        assert_bitwise_equal(&reference, &got, &format!("FD2 ({px}x{py})"));
    }
}

#[test]
fn lbm2_all_decompositions_match_serial() {
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(LatticeBoltzmann2);
    let reference = gather_local2(Arc::clone(&solver), poiseuille_problem(36, 24, 1, 1), 12);
    for (px, py) in [(2, 1), (1, 2), (3, 2), (4, 3)] {
        let got = gather_local2(Arc::clone(&solver), poiseuille_problem(36, 24, px, py), 12);
        assert_bitwise_equal(&reference, &got, &format!("LBM2 ({px}x{py})"));
    }
}

#[test]
fn flue_pipe_geometry_decomposes_transparently() {
    // walls, inlet jet and outlet crossing tile boundaries
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(LatticeBoltzmann2);
    let reference = gather_local2(Arc::clone(&solver), flue_problem(1, 1), 20);
    for (px, py) in [(4, 1), (2, 3), (4, 4)] {
        let got = gather_local2(Arc::clone(&solver), flue_problem(px, py), 20);
        assert_bitwise_equal(&reference, &got, &format!("flue ({px}x{py})"));
    }
}

#[test]
fn flue_pipe_fd_decomposes_transparently() {
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(FiniteDifference2);
    let reference = gather_local2(Arc::clone(&solver), flue_problem(1, 1), 15);
    let got = gather_local2(Arc::clone(&solver), flue_problem(3, 3), 15);
    assert_bitwise_equal(&reference, &got, "flue FD (3x3)");
}

#[test]
fn threaded_runner_matches_local_across_methods() {
    for lbm in [false, true] {
        let solver: Arc<dyn subsonic_solvers::Solver2> = if lbm {
            Arc::new(LatticeBoltzmann2)
        } else {
            Arc::new(FiniteDifference2)
        };
        let mut local = LocalRunner2::new(Arc::clone(&solver), poiseuille_problem(32, 20, 2, 2));
        local.run(10);
        let reference = local.gather();
        let out = ThreadedRunner2::new(Arc::clone(&solver), poiseuille_problem(32, 20, 2, 2))
            .run(10)
            .expect("threaded run failed");
        let got = out.gather(32, 20, 1.0);
        assert_bitwise_equal(
            &reference,
            &got,
            if lbm { "threaded LBM" } else { "threaded FD" },
        );
    }
}

#[test]
fn fd3_decomposition_matches_serial() {
    let solver: Arc<dyn subsonic_solvers::Solver3> = Arc::new(FiniteDifference3);
    let mut serial = LocalRunner3::new(Arc::clone(&solver), duct_problem(12, 1, 1, 1));
    serial.run(8);
    let a = serial.gather();
    for parts in [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 2)] {
        let mut tiled = LocalRunner3::new(
            Arc::clone(&solver),
            duct_problem(12, parts.0, parts.1, parts.2),
        );
        tiled.run(8);
        let b = tiled.gather();
        assert_eq!(a.first_difference(&b), None, "FD3 {parts:?} diverged");
    }
}

#[test]
fn lbm3_decomposition_matches_serial() {
    let solver: Arc<dyn subsonic_solvers::Solver3> = Arc::new(LatticeBoltzmann3);
    let mut serial = LocalRunner3::new(Arc::clone(&solver), duct_problem(12, 1, 1, 1));
    serial.run(8);
    let a = serial.gather();
    for parts in [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)] {
        let mut tiled = LocalRunner3::new(
            Arc::clone(&solver),
            duct_problem(12, parts.0, parts.1, parts.2),
        );
        tiled.run(8);
        let b = tiled.gather();
        assert_eq!(a.first_difference(&b), None, "LBM3 {parts:?} diverged");
    }
}

#[test]
fn uneven_tile_sizes_are_handled() {
    // 35 and 23 are not divisible by 3: tiles differ in size
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(LatticeBoltzmann2);
    let reference = gather_local2(Arc::clone(&solver), poiseuille_problem(35, 23, 1, 1), 10);
    let got = gather_local2(Arc::clone(&solver), poiseuille_problem(35, 23, 3, 3), 10);
    assert_bitwise_equal(&reference, &got, "uneven (3x3)");
}

/// A live migration of worker 0 or of the last worker, on net's
/// supervisor over threads, moves its tile at a commit boundary and leaves
/// the fields bit-identical to an undisturbed threaded run.
#[test]
fn migration_drill_preserves_results_everywhere() {
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(FiniteDifference2);
    let clean = ThreadedRunner2::new(Arc::clone(&solver), poiseuille_problem(32, 20, 2, 2))
        .run(24)
        .expect("clean run failed");
    let a = clean.gather(32, 20, 1.0);
    for worker in [0u32, 3] {
        let run_dir = std::env::temp_dir().join(format!(
            "subsonic-integration-migration-{}-{worker}",
            std::process::id()
        ));
        let mut cfg = NetConfig::new(TransportKind::Mem, 24, 6, run_dir.clone());
        cfg.solver = SolverKind::FiniteDifference;
        cfg.migrations = vec![NetMigration {
            worker,
            after_step: 6,
        }];
        let out = run_problem(
            &poiseuille_problem(32, 20, 2, 2),
            &cfg,
            &mut ThreadHost::new(),
            &FlightRecorder::disabled(),
        );
        let _ = std::fs::remove_dir_all(&run_dir);
        let out = out.expect("migration run failed");
        assert_eq!(out.migrations, 1, "worker {worker} did not move");
        assert_eq!(out.restarts, 0, "migrating worker {worker} rolled back");
        assert_bitwise_equal(&a, &out.fields, &format!("migration of worker {worker}"));
    }
}
