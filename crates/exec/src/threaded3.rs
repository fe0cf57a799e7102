//! 3D tests of the generic threaded runner ([`crate::threaded`]): the same
//! pins as its 2D tests, on a duct with three exchange stages.

#![cfg(test)]

mod tests {
    #![allow(clippy::unwrap_used)]
    use crate::dim::{Dim, D3};
    use crate::local::LocalRunner3;
    use crate::problem::Problem3;
    use crate::threaded::tests::{directed_edges, span_names};
    use crate::threaded::{KillSpec, MigrationDrill, SupervisorConfig, ThreadedRunner3};
    use crate::timing::StepTiming;
    use std::sync::Arc;
    use subsonic_grid::{Face, Geometry3};
    use subsonic_obs::{Category, FlightRecorder};
    use subsonic_solvers::{
        FiniteDifference3, FluidParams, LatticeBoltzmann3, ScalarReference3, Solver3, StepOp,
    };

    fn problem(px: usize, py: usize, pz: usize) -> Problem3 {
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        Problem3::new(Geometry3::duct(12, 10, 10, 2), px, py, pz, params)
            .with_init(|x, y, z| (1.0 + 1e-4 * ((x + 2 * y + 3 * z) % 5) as f64, 0.0, 0.0, 0.0))
    }

    #[test]
    fn threaded3_matches_local_bitwise() {
        let solver: Arc<dyn Solver3> = Arc::new(LatticeBoltzmann3);
        let mut local = LocalRunner3::new(Arc::clone(&solver), problem(2, 1, 2));
        local.run(6);
        let a = local.gather();
        let out = ThreadedRunner3::new(Arc::clone(&solver), problem(2, 1, 2))
            .run(6)
            .unwrap();
        let b = out.gather((12, 10, 10), 1.0);
        assert_eq!(a.first_difference(&b), None, "threaded 3D diverged");
    }

    /// The fused 3D schedule (interior slab hidden behind the z-stage halo,
    /// run by the fast solvers) and the plain one (`ScalarReference3`
    /// forwards no split) are both bitwise identical to the serial
    /// reference, for both solver families.
    #[test]
    fn overlap3_matches_nonoverlap_bitwise() {
        let pairs: [(Arc<dyn Solver3>, Arc<dyn Solver3>); 2] = [
            (
                Arc::new(LatticeBoltzmann3),
                Arc::new(ScalarReference3(LatticeBoltzmann3)),
            ),
            (
                Arc::new(FiniteDifference3),
                Arc::new(ScalarReference3(FiniteDifference3)),
            ),
        ];
        for (fast, scalar) in pairs {
            let mut local = LocalRunner3::new(Arc::clone(&fast), problem(2, 1, 2));
            local.run(6);
            let a = local.gather();
            for solver in [fast, scalar] {
                let b = ThreadedRunner3::new(solver, problem(2, 1, 2))
                    .run(6)
                    .unwrap()
                    .gather((12, 10, 10), 1.0);
                assert_eq!(a.first_difference(&b), None);
            }
        }
    }

    /// 3D pin of the selection rule (see the 2D test of the same name).
    #[test]
    fn schedule3_follows_the_solver_declaration() {
        let fused = span_names::<D3>(Arc::new(LatticeBoltzmann3), problem(2, 1, 1));
        assert!(fused.contains("compute interior") && fused.contains("compute boundary"));
        assert!(!fused.contains("exchange"));
        let plain = span_names::<D3>(
            Arc::new(ScalarReference3(LatticeBoltzmann3)),
            problem(2, 1, 1),
        );
        assert!(plain.contains("exchange") && plain.contains("compute"));
        assert!(!plain.contains("compute interior") && !plain.contains("compute boundary"));
    }

    #[test]
    fn message_volume3_matches_solver() {
        let solver: Arc<dyn Solver3> = Arc::new(LatticeBoltzmann3);
        let steps = 5u64;
        let p = problem(2, 1, 2);
        let active = p.active_tiles();
        let mut per_step = 0u64;
        let mut edges = 0u64;
        for &id in &active {
            let t = p.make_tile(solver.as_ref(), id);
            for &f in Face::of_rank(3) {
                if let Some(nb) = p.decomp.neighbor(id, f) {
                    if active.contains(&nb) {
                        edges += 1;
                        for op in solver.plan() {
                            if let StepOp::Exchange(x) = *op {
                                per_step += solver.message_doubles(&t, x, f) as u64;
                            }
                        }
                    }
                }
            }
        }
        assert!(per_step > 0 && edges > 0);
        let out = ThreadedRunner3::new(Arc::clone(&solver), problem(2, 1, 2))
            .run(steps)
            .unwrap();
        let mut total = StepTiming::default();
        for (_, t) in &out.timing {
            total.merge(t);
        }
        assert_eq!(total.doubles_sent, per_step * steps);
        assert_eq!(total.buf_allocs + total.buf_reuses, total.msgs_sent);
        assert!(total.buf_allocs <= 2 * edges, "3D buffer recycling broken");
    }

    #[test]
    fn drill3_is_transparent() {
        let solver: Arc<dyn Solver3> = Arc::new(LatticeBoltzmann3);
        let clean = ThreadedRunner3::new(Arc::clone(&solver), problem(2, 2, 1))
            .run(16)
            .unwrap();
        let a = clean.gather((12, 10, 10), 1.0);
        let drill = MigrationDrill {
            tile: 2,
            arm_step: 4,
            dump_dir: std::env::temp_dir().join("subsonic_drill3_test"),
        };
        let out = ThreadedRunner3::new(Arc::clone(&solver), problem(2, 2, 1))
            .run_with_drill(16, Some(drill))
            .unwrap();
        let report = out.drill.clone().expect("drill did not fire");
        assert!(report.dump_bytes > 0);
        let b = out.gather((12, 10, 10), 1.0);
        assert_eq!(a.first_difference(&b), None, "3D drill changed results");
        let _ = std::fs::remove_file(&report.dump_path);
    }

    #[test]
    fn recorder3_adds_no_hot_path_allocations() {
        // Same pool-bound invariant as the 2D runner's test: enabling the
        // recorder must keep buf_allocs within two per directed edge.
        let solver: Arc<dyn Solver3> = Arc::new(LatticeBoltzmann3);
        let edges = directed_edges::<D3>(&problem(2, 1, 2));
        let rec = FlightRecorder::enabled(4096);
        let traced = ThreadedRunner3::new(Arc::clone(&solver), problem(2, 1, 2))
            .with_recorder(&rec)
            .run(10)
            .unwrap();
        let mut b = StepTiming::default();
        for (_, t) in &traced.timing {
            b.merge(t);
        }
        assert!(
            b.buf_allocs <= 2 * edges,
            "recorder added 3D hot-path allocations: {} allocs for {} edges",
            b.buf_allocs,
            edges
        );
        assert!(b.t_pack <= b.t_com);
        assert!(b.t_pack.as_nanos() > 0);
        let tracks = rec.finished_tracks();
        assert_eq!(tracks.len(), 4);
        assert!(tracks.iter().all(|t| t.pid == D3::TRACE_PID));
        assert!(tracks
            .iter()
            .all(|t| t.events.iter().any(|e| e.cat == Category::Halo)));
    }

    #[test]
    fn supervised3_recovers_bitwise_from_a_kill() {
        let solver: Arc<dyn Solver3> = Arc::new(LatticeBoltzmann3);
        let plain = ThreadedRunner3::new(Arc::clone(&solver), problem(2, 1, 2))
            .run(12)
            .unwrap();
        let sup = ThreadedRunner3::new(Arc::clone(&solver), problem(2, 1, 2))
            .run_supervised(
                12,
                &SupervisorConfig {
                    checkpoint_interval: 5,
                    max_restarts: 2,
                },
                Some(KillSpec {
                    tile: 2,
                    at_step: 7,
                    attempt: 0,
                    panic: false,
                }),
            )
            .unwrap();
        assert_eq!(sup.restarts, 1);
        let a = plain.gather((12, 10, 10), 1.0);
        let b = sup.gather((12, 10, 10), 1.0);
        assert_eq!(a.first_difference(&b), None, "3D recovery diverged");
    }
}
