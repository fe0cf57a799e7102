//! Dump files: everything a workstation needs to (re)join a computation.

use std::sync::Arc;
use subsonic::prelude::*;
use subsonic_exec::checkpoint::{dump_tile2, load_tile, restore_tile2, save_tile};
use subsonic_integration::{assert_bitwise_equal, flue_problem, poiseuille_problem};
use subsonic_solvers::{FiniteDifference2, LatticeBoltzmann2, TileState2};

#[test]
fn full_computation_survives_dump_and_restore_midway() {
    // run 6 steps, dump every tile, restore into a fresh runner, run 6 more;
    // must equal an uninterrupted 12-step run bit for bit
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(LatticeBoltzmann2);
    let problem = poiseuille_problem(32, 20, 2, 2);

    let mut uninterrupted = LocalRunner2::new(Arc::clone(&solver), problem.clone());
    uninterrupted.run(12);
    let want = uninterrupted.gather();

    let mut first = LocalRunner2::new(Arc::clone(&solver), problem.clone());
    first.run(6);
    let dumps: Vec<Vec<u8>> = first
        .active()
        .to_vec()
        .iter()
        .map(|&id| dump_tile2(first.tile(id).unwrap()))
        .collect();

    // "restart": rebuild tiles from dumps only
    let mut second = LocalRunner2::new(Arc::clone(&solver), problem);
    for (k, &id) in second.active().to_vec().iter().enumerate() {
        *second.tile_mut(id).unwrap() = restore_tile2(&dumps[k]).unwrap();
    }
    second.run(6);
    let got = second.gather();
    assert_bitwise_equal(&want, &got, "dump/restore midway");
}

#[test]
fn restart_works_for_fd_and_complex_geometry() {
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(FiniteDifference2);
    let problem = flue_problem(2, 2);

    let mut uninterrupted = LocalRunner2::new(Arc::clone(&solver), problem.clone());
    uninterrupted.run(10);
    let want = uninterrupted.gather();

    let mut first = LocalRunner2::new(Arc::clone(&solver), problem.clone());
    first.run(5);
    let dumps: Vec<Vec<u8>> = first
        .active()
        .to_vec()
        .iter()
        .map(|&id| dump_tile2(first.tile(id).unwrap()))
        .collect();
    let mut second = LocalRunner2::new(Arc::clone(&solver), problem);
    for (k, &id) in second.active().to_vec().iter().enumerate() {
        *second.tile_mut(id).unwrap() = restore_tile2(&dumps[k]).unwrap();
    }
    second.run(5);
    assert_bitwise_equal(&want, &second.gather(), "FD flue dump/restore");
}

#[test]
fn dump_files_roundtrip_via_filesystem() {
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(LatticeBoltzmann2);
    let problem = poiseuille_problem(24, 16, 2, 1);
    let mut runner = LocalRunner2::new(Arc::clone(&solver), problem);
    runner.run(4);
    let dir = std::env::temp_dir().join("subsonic_fs_dump_test");
    std::fs::create_dir_all(&dir).unwrap();
    for &id in runner.active().to_vec().iter() {
        let path = dir.join(format!("proc{id}.dump"));
        let bytes = save_tile(runner.tile(id).unwrap(), &path).unwrap();
        assert!(bytes > 1000);
        let restored: TileState2 = load_tile(&path).unwrap();
        assert_eq!(restored.step, 4);
        assert_eq!(restored.offset, runner.tile(id).unwrap().offset);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dump_size_matches_couple_of_megabytes_expectation() {
    // the paper: "a couple of megabytes per process" for production tiles;
    // check our format's size scales with nodes and populations
    let solver: Arc<dyn subsonic_solvers::Solver2> = Arc::new(LatticeBoltzmann2);
    let problem = poiseuille_problem(64, 64, 1, 1);
    let runner = LocalRunner2::new(Arc::clone(&solver), problem);
    let dump = dump_tile2(runner.tile(0).unwrap());
    // 12 f64 fields (rho, vx, vy + 9 populations) on a padded 70x70 grid
    let expected = 12 * 8 * 70 * 70;
    assert!(
        dump.len() > expected && dump.len() < expected * 2,
        "dump {} bytes vs expected ~{expected}",
        dump.len()
    );
}
