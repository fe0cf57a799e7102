//! Property-based tests (proptest) over the core data structures and
//! invariants.

use proptest::prelude::*;
use subsonic_grid::halo::{message_len, pack, unpack};
use subsonic_grid::{split_even, Decomp, Face, PaddedGrid2, PaddedGrid3};
use subsonic_model::{
    efficiency_2d_bus, efficiency_3d_bus, max_skew_full_stencil, max_skew_star_stencil,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// split_even covers the axis exactly, contiguously, with lengths
    /// differing by at most one.
    #[test]
    fn split_even_partitions(n in 1usize..5000, p_raw in 1usize..64) {
        let p = p_raw.min(n);
        let parts = split_even(n, p);
        prop_assert_eq!(parts.len(), p);
        prop_assert_eq!(parts[0].start, 0);
        prop_assert_eq!(parts.last().unwrap().end(), n);
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].end(), w[1].start);
        }
        let min = parts.iter().map(|e| e.len).min().unwrap();
        let max = parts.iter().map(|e| e.len).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Neighbour relations are symmetric for any decomposition/periodicity.
    #[test]
    fn decomp_neighbors_symmetric(
        nx in 8usize..200,
        ny in 8usize..200,
        px in 1usize..6,
        py in 1usize..6,
        wrap_x in any::<bool>(),
        wrap_y in any::<bool>(),
    ) {
        prop_assume!(px <= nx && py <= ny);
        let d = Decomp::with_periodicity([nx, ny], [px, py], [wrap_x, wrap_y]);
        for id in 0..d.tiles() {
            for &f in Face::of_rank(2) {
                if let Some(nb) = d.neighbor(id, f) {
                    prop_assert_eq!(d.neighbor(nb, f.opposite()), Some(id));
                }
            }
        }
    }

    /// Every node has exactly one owner tile.
    #[test]
    fn decomp_owner_unique(
        nx in 4usize..100,
        ny in 4usize..100,
        px in 1usize..5,
        py in 1usize..5,
        x in 0usize..100,
        y in 0usize..100,
    ) {
        prop_assume!(px <= nx && py <= ny && x < nx && y < ny);
        let d = Decomp::new([nx, ny], [px, py]);
        let owner = d.owner([x, y]);
        let [bx, by] = d.tile_box(owner).ext;
        prop_assert!(bx.contains(x) && by.contains(y));
    }

    /// pack/unpack round-trips arbitrary halo widths and faces: the ghost
    /// band equals the sender's opposite interior strip.
    #[test]
    fn halo_roundtrip(
        nx in 6usize..40,
        ny in 6usize..40,
        w in 1usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(w <= 4 && nx >= w && ny >= w);
        let h = 4usize;
        let val = |i: isize, j: isize| ((seed % 997) as f64) + (i * 131 + j) as f64;
        let src = PaddedGrid2::from_fn(nx, ny, h, val);
        let mut dst = PaddedGrid2::new(nx, ny, h, f64::NAN);
        for &f in Face::of_rank(2) {
            let mut buf = Vec::new();
            pack(&src, f.opposite(), w, &mut buf);
            prop_assert_eq!(buf.len(), message_len(&[nx, ny], f, w));
            unpack(&mut dst, f, w, &buf);
        }
        // spot-check: the west ghost column equals src's east interior
        for j in 0..ny as isize {
            prop_assert_eq!(dst[(-1, j)].to_bits(), src[(nx as isize - 1, j)].to_bits());
        }
    }

    /// 3D neighbour relations are symmetric under any periodicity.
    #[test]
    fn decomp3_neighbors_symmetric(
        px in 1usize..4,
        py in 1usize..4,
        pz in 1usize..4,
        wraps in any::<[bool; 3]>(),
    ) {
        let d = Decomp::with_periodicity([px * 8, py * 8, pz * 8], [px, py, pz], wraps);
        for id in 0..d.tiles() {
            for &f in Face::of_rank(3) {
                if let Some(nb) = d.neighbor(id, f) {
                    prop_assert_eq!(d.neighbor(nb, f.opposite()), Some(id));
                }
            }
        }
    }

    /// 3D tile boxes partition the grid exactly.
    #[test]
    fn decomp3_boxes_partition(
        nx in 4usize..40,
        ny in 4usize..40,
        nz in 4usize..40,
        px in 1usize..4,
        py in 1usize..4,
        pz in 1usize..4,
    ) {
        prop_assume!(px <= nx && py <= ny && pz <= nz);
        let d = Decomp::new([nx, ny, nz], [px, py, pz]);
        let total: usize = (0..d.tiles()).map(|id| d.tile_box(id).nodes()).sum();
        prop_assert_eq!(total, nx * ny * nz);
    }

    /// 3D pack/unpack round-trips every face.
    #[test]
    fn halo_roundtrip_3d(
        nx in 4usize..14,
        ny in 4usize..14,
        nz in 4usize..14,
        w in 1usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(nx >= w && ny >= w && nz >= w);
        let h = 4usize;
        let val = |i: isize, j: isize, k: isize| {
            ((seed % 991) as f64) + (i * 37 + j * 17 + k) as f64
        };
        let src = PaddedGrid3::from_fn(nx, ny, nz, h, val);
        let mut dst = PaddedGrid3::new(nx, ny, nz, h, f64::NAN);
        for &f in Face::of_rank(3) {
            let mut buf = Vec::new();
            pack(&src, f.opposite(), w, &mut buf);
            prop_assert_eq!(buf.len(), message_len(&[nx, ny, nz], f, w));
            unpack(&mut dst, f, w, &buf);
        }
        // down ghost layer equals src's up interior slab
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                prop_assert_eq!(
                    dst[(i, j, -1)].to_bits(),
                    src[(i, j, nz as isize - 1)].to_bits()
                );
            }
        }
    }

    /// Efficiency formulas stay in (0, 1] and are monotone in N and P.
    #[test]
    fn efficiency_bounds_and_monotonicity(
        n in 16f64..1.0e8,
        p in 2usize..64,
        m in 1f64..6.0,
    ) {
        for f in [efficiency_2d_bus(n, p, m, 2.0/3.0), efficiency_3d_bus(n, p, m, 2.0/3.0)] {
            prop_assert!(f > 0.0 && f <= 1.0);
        }
        prop_assert!(efficiency_2d_bus(n * 4.0, p, m, 2.0/3.0) >= efficiency_2d_bus(n, p, m, 2.0/3.0));
        prop_assert!(efficiency_2d_bus(n, p + 1, m, 2.0/3.0) <= efficiency_2d_bus(n, p, m, 2.0/3.0));
        // 3D needs larger N than 2D for the same efficiency (at same m, P)
        prop_assert!(efficiency_3d_bus(n, p, m, 2.0/3.0) <= efficiency_2d_bus(n.powf(1.5).min(1e300), p, m, 2.0/3.0) + 1e-12);
    }

    /// Appendix-A skew bounds: star dominates full; both vanish only for 1x1.
    #[test]
    fn skew_bounds(j in 1usize..12, k in 1usize..12) {
        let full = max_skew_full_stencil(j, k);
        let star = max_skew_star_stencil(j, k);
        prop_assert!(star >= full);
        prop_assert_eq!(star == 0, j == 1 && k == 1);
        // both bounds are achieved monotonically in each axis
        prop_assert!(max_skew_star_stencil(j + 1, k) > star || k == 0);
    }

    /// Slowing any single host can only lengthen the run: the rendezvous
    /// step-coupling makes every process's step depend on its neighbours'
    /// previous step, so per-step time is monotonically non-decreasing in a
    /// host's slowdown factor (the cluster stays below bus saturation here,
    /// keeping the network deterministic).
    #[test]
    fn cluster_step_time_monotone_in_host_slowdown(
        victim in 0usize..4,
        f_raw in 1.0f64..3.0,
        df in 0.0f64..2.0,
    ) {
        use subsonic_cluster::{ClusterConfig, ClusterSim, WorkloadSpec};
        use subsonic_solvers::MethodKind;
        let time_with = |factor: f64| {
            let w = WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, 60, 60, 2, 2);
            let cfg = ClusterConfig::measurement(w);
            let mut sim = ClusterSim::new(cfg);
            let host = sim.placements()[victim];
            sim.set_host_slowdown(host, factor);
            sim.run(f64::INFINITY, Some(5)).finished_at
        };
        let slow = time_with(f_raw + df);
        let fast = time_with(f_raw);
        prop_assert!(slow >= fast - 1e-12, "slowdown {} -> {slow}, {} -> {fast}", f_raw + df, f_raw);
    }

    /// The m-factor's measured mean never exceeds its max, and the paper's
    /// table value is at least the mean.
    #[test]
    fn m_factor_consistency(
        px in 1usize..6,
        py in 1usize..6,
    ) {
        let d = Decomp::new([px * 20, py * 20], [px, py]);
        let m = d.m_factor();
        prop_assert!(m.mean_faces <= m.max_faces as f64 + 1e-12);
        prop_assert!(m.paper + 1e-12 >= m.mean_faces.floor());
        if px * py > 1 {
            prop_assert!(m.max_faces >= 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Uniform rest fluid is a fixed point of both solvers on arbitrary
    /// channel sizes and decompositions.
    #[test]
    fn uniform_state_is_fixed_point(
        nx in 12usize..40,
        ny in 12usize..30,
        px in 1usize..4,
        py in 1usize..3,
        lbm in any::<bool>(),
    ) {
        use std::sync::Arc;
        use subsonic::prelude::*;
        use subsonic_solvers::{FiniteDifference2, LatticeBoltzmann2, Solver2};
        prop_assume!(nx / px >= 8 && ny / py >= 8);
        let params = FluidParams::lattice_units(0.05);
        let problem = Problem2::new(Geometry2::channel(nx, ny, 2), px, py, params);
        let solver: Arc<dyn Solver2> = if lbm {
            Arc::new(LatticeBoltzmann2)
        } else {
            Arc::new(FiniteDifference2)
        };
        let mut r = LocalRunner2::new(solver, problem);
        r.run(3);
        let f = r.gather();
        for y in 0..ny {
            for x in 0..nx {
                prop_assert!((f.rho[(x, y)] - 1.0).abs() < 1e-12);
                prop_assert!(f.vx[(x, y)].abs() < 1e-12);
            }
        }
    }

    /// Checkpoint dumps round-trip arbitrary tiles bitwise.
    #[test]
    fn dump_restore_roundtrip(
        nx in 10usize..30,
        ny in 10usize..24,
        steps in 0usize..5,
        lbm in any::<bool>(),
    ) {
        use std::sync::Arc;
        use subsonic::prelude::*;
        use subsonic_exec::checkpoint::{dump_tile2, restore_tile2};
        use subsonic_solvers::{FiniteDifference2, LatticeBoltzmann2, Solver2};
        let mut params = FluidParams::lattice_units(0.05);
        params.body_force[0] = 1e-5;
        let problem = Problem2::new(Geometry2::channel(nx, ny, 2), 1, 1, params);
        let solver: Arc<dyn Solver2> = if lbm {
            Arc::new(LatticeBoltzmann2)
        } else {
            Arc::new(FiniteDifference2)
        };
        let mut r = LocalRunner2::new(solver, problem);
        r.run(steps);
        let t = r.tile(0).unwrap();
        let restored = restore_tile2(&dump_tile2(t)).unwrap();
        prop_assert_eq!(restored.step, t.step);
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                prop_assert_eq!(restored.mac.rho[(i, j)].to_bits(), t.mac.rho[(i, j)].to_bits());
                prop_assert_eq!(restored.mac.vx[(i, j)].to_bits(), t.mac.vx[(i, j)].to_bits());
            }
        }
    }
}
