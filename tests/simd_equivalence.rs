//! SIMD/scalar and compute-overlap equivalence properties.
//!
//! The PR-6 kernel rewrite (SoA lanes for the autovectorizer, swap-free
//! streaming, run-specialized row kernels) and the threaded runner's
//! compute/halo overlap are *pure scheduling/codegen* changes: every one
//! of them must reproduce the scalar reference bit for bit. These
//! properties pin that across random domain sizes, decompositions,
//! obstacle placements and step counts, for both solver families in 2D
//! and 3D:
//!
//! * default (vectorized) kernels vs [`ScalarReference2`]/[`ScalarReference3`]
//! * threaded runs on the fused and on the plain exchange schedule vs serial
//! * the 2D FD fast path and the LB2D row-pipelined half-step vs their
//!   scalar references, whole padded state and dump bytes, over random
//!   masks, down to tiles shallower than the pipeline
//! * the 3D FD and LB fast paths vs their scalar references, whole padded
//!   state and dump bytes, over random masks

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use subsonic_exec::checkpoint::{dump_tile, dump_tile2};
use subsonic_exec::{
    LocalRunner2, LocalRunner3, Problem2, Problem3, ThreadedRunner2, ThreadedRunner3,
};
use subsonic_grid::{Cell, Face2, Face3, Geometry2, Geometry3, PaddedGrid2, PaddedGrid3};
use subsonic_solvers::{
    FiniteDifference2, FiniteDifference3, FluidParams, InitialState2, InitialState3,
    LatticeBoltzmann2, LatticeBoltzmann3, ScalarReference2, ScalarReference3, Solver2, Solver3,
    StepOp, TileState2, TileState3,
};

fn params() -> FluidParams {
    let mut p = FluidParams::lattice_units(0.05);
    p.body_force[0] = 1e-5;
    p
}

fn geom2(nx: usize, ny: usize, obstacle: bool) -> Geometry2 {
    let mut g = Geometry2::channel(nx, ny, 2);
    if obstacle {
        // a small interior block, guaranteed inside the channel walls
        let (x0, y0) = (nx / 3, ny / 2);
        g.fill_rect(x0, x0 + 2, y0.max(3), (y0 + 2).min(ny - 3), Cell::Wall);
    }
    g
}

fn geom3(nx: usize, ny: usize, nz: usize, obstacle: bool) -> Geometry3 {
    let mut g = Geometry3::duct(nx, ny, nz, 2);
    if obstacle {
        let (x0, y0, z0) = (nx / 2, ny / 2, nz / 2);
        g.set(x0, y0.max(3).min(ny - 3), z0.max(3).min(nz - 3), Cell::Wall);
    }
    g
}

/// A default (vectorized) solver and its scalar reference, FD or LB.
fn solvers2(fd: bool) -> (Arc<dyn Solver2>, Arc<dyn Solver2>) {
    if fd {
        (
            Arc::new(FiniteDifference2),
            Arc::new(ScalarReference2(FiniteDifference2)),
        )
    } else {
        (
            Arc::new(LatticeBoltzmann2),
            Arc::new(ScalarReference2(LatticeBoltzmann2)),
        )
    }
}

/// 3D counterpart of [`solvers2`].
fn solvers3(fd: bool) -> (Arc<dyn Solver3>, Arc<dyn Solver3>) {
    if fd {
        (
            Arc::new(FiniteDifference3),
            Arc::new(ScalarReference3(FiniteDifference3)),
        )
    } else {
        (
            Arc::new(LatticeBoltzmann3),
            Arc::new(ScalarReference3(LatticeBoltzmann3)),
        )
    }
}

fn problem2(nx: usize, ny: usize, px: usize, py: usize, obstacle: bool, seed: usize) -> Problem2 {
    Problem2::new(geom2(nx, ny, obstacle), px, py, params())
        .with_init(move |x, y| (1.0 + 1e-4 * ((x * 7 + y * 13 + seed) % 5) as f64, 0.0, 0.0))
}

#[allow(clippy::too_many_arguments)]
fn problem3(
    nx: usize,
    ny: usize,
    nz: usize,
    px: usize,
    py: usize,
    pz: usize,
    obstacle: bool,
    seed: usize,
) -> Problem3 {
    Problem3::new(geom3(nx, ny, nz, obstacle), px, py, pz, params()).with_init(move |x, y, z| {
        (
            1.0 + 1e-4 * ((x + 2 * y + 3 * z + seed) % 5) as f64,
            0.0,
            0.0,
            0.0,
        )
    })
}

/// A padded 2D mask with ~1 in 8 cells a wall anywhere (ghosts included —
/// they carry the neighbour's geometry in a real run) and optional
/// inlet/outlet columns on the first/last interior column.
fn random_mask2(
    (nx, ny): (usize, usize),
    halo: usize,
    inlet: bool,
    outlet: bool,
    seed: u64,
) -> PaddedGrid2<Cell> {
    let mut rng = SmallRng::seed_from_u64(seed);
    PaddedGrid2::from_fn(nx, ny, halo, |i, _| {
        if rng.gen_range(0..8) == 0 {
            Cell::Wall
        } else if inlet && i == 0 {
            Cell::Inlet
        } else if outlet && i == nx as isize - 1 {
            Cell::Outlet
        } else {
            Cell::Fluid
        }
    })
}

/// One step of `solver`'s plan on a lone tile; exchanges wrap the tile onto
/// itself along every axis long enough to fill a halo strip.
fn step_wrapped(solver: &dyn Solver2, t: &mut TileState2) {
    let mut buf = Vec::new();
    for op in solver.plan() {
        match *op {
            StepOp::Compute(k) => solver.compute(t, k),
            StepOp::Exchange(x) => {
                for stage in 0..2 {
                    let extent = if stage == 0 { t.nx() } else { t.ny() };
                    if extent < solver.halo() {
                        continue;
                    }
                    for &face in Face2::of_rank(2).iter().filter(|f| f.stage() == stage) {
                        buf.clear();
                        solver.pack(t, x, face.opposite(), &mut buf);
                        solver.unpack(t, x, face, &buf);
                    }
                }
            }
        }
    }
}

fn bits(g: &PaddedGrid2<f64>) -> Vec<u64> {
    g.raw().iter().map(|v| v.to_bits()).collect()
}

/// 3D counterpart of [`random_mask2`]: ~1 in 8 cells a wall anywhere, ghosts
/// included, and optional inlet/outlet planes on the first/last interior
/// x-plane.
fn random_mask3(
    (nx, ny, nz): (usize, usize, usize),
    halo: usize,
    inlet: bool,
    outlet: bool,
    seed: u64,
) -> PaddedGrid3<Cell> {
    let mut rng = SmallRng::seed_from_u64(seed);
    PaddedGrid3::from_fn(nx, ny, nz, halo, |i, _, _| {
        if rng.gen_range(0..8) == 0 {
            Cell::Wall
        } else if inlet && i == 0 {
            Cell::Inlet
        } else if outlet && i == nx as isize - 1 {
            Cell::Outlet
        } else {
            Cell::Fluid
        }
    })
}

/// 3D counterpart of [`step_wrapped`].
fn step_wrapped3(solver: &dyn Solver3, t: &mut TileState3) {
    let mut buf = Vec::new();
    for op in solver.plan() {
        match *op {
            StepOp::Compute(k) => solver.compute(t, k),
            StepOp::Exchange(x) => {
                for stage in 0..3 {
                    if [t.nx(), t.ny(), t.nz()][stage] < solver.halo() {
                        continue;
                    }
                    for &face in Face3::of_rank(3).iter().filter(|f| f.stage() == stage) {
                        buf.clear();
                        solver.pack(t, x, face.opposite(), &mut buf);
                        solver.unpack(t, x, face, &buf);
                    }
                }
            }
        }
    }
}

/// Every padded plane of a 3D tile — current and next macroscopic fields,
/// then the populations — as raw bits.
fn planes3(t: &TileState3) -> Vec<Vec<u64>> {
    let (m, n) = (&t.mac, &t.mac_new);
    [&m.rho, &m.vx, &m.vy, &m.vz, &n.rho, &n.vx, &n.vy, &n.vz]
        .into_iter()
        .chain(&t.f)
        .map(|g| g.raw().iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The 2D fast paths of both solver families — the FD sweeps, boundary
    /// fix-ups and filter passes, and the LB2D row-pipelined macroscopic →
    /// filter → re-synthesis sweep — leave the *whole padded* state (ghost
    /// frame included, since dumps carry it) bitwise equal to the scalar
    /// reference: over random masks with walls in the ghosts too,
    /// inlet/outlet columns, tiles shallower and narrower than the halo and
    /// the 5-row pipeline, and filter on and off.
    #[test]
    fn solvers2_match_scalar_whole_state(
        nx in 1usize..14,
        ny in 1usize..14,
        fd in any::<bool>(),
        inlet in any::<bool>(),
        outlet in any::<bool>(),
        filter in any::<bool>(),
        steps in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut params = params();
        params.inlet_velocity[0] = 0.01;
        params.filter_eps = if filter { 0.02 } else { 0.0 };
        let init = InitialState2::from_fn(move |i, j| {
            let bump = ((i * 7 + j * 13).rem_euclid(5)) as f64;
            (1.0 + 1e-3 * bump, 2e-3 * bump, -1e-3 * bump)
        });
        let (fast, oracle) = solvers2(fd);
        let mask = random_mask2((nx, ny), fast.halo(), inlet, outlet, seed);
        let mut a = fast.make_tile(mask.clone(), params, (0, 0), &init);
        let mut b = oracle.make_tile(mask, params, (0, 0), &init);
        for _ in 0..steps {
            step_wrapped(fast.as_ref(), &mut a);
        }
        for _ in 0..steps {
            step_wrapped(oracle.as_ref(), &mut b);
        }
        prop_assert_eq!(a.step, b.step);
        prop_assert_eq!(a.step, steps as u64);
        for (ga, gb) in [(&a.mac.rho, &b.mac.rho), (&a.mac.vx, &b.mac.vx), (&a.mac.vy, &b.mac.vy)] {
            prop_assert_eq!(bits(ga), bits(gb), "macroscopic plane diverged (fd = {})", fd);
        }
        if fd {
            // the FD double buffer; LB tiles keep theirs zero-extent
            let (na, nb) = (&a.mac_new, &b.mac_new);
            for (ga, gb) in [(&na.rho, &nb.rho), (&na.vx, &nb.vx), (&na.vy, &nb.vy)] {
                prop_assert_eq!(bits(ga), bits(gb), "next-step plane diverged");
            }
        }
        for q in 0..a.f.len() {
            prop_assert_eq!(bits(&a.f[q]), bits(&b.f[q]), "population {} diverged", q);
        }
        prop_assert_eq!(dump_tile2(&a), dump_tile2(&b));
    }

    /// The 3D fast paths of both solver families — relaxation, moments,
    /// re-synthesis, the FD sweeps and boundary fix-ups, and the three
    /// filter passes, all driven by the tile's run table — leave every
    /// padded plane and the dump bitwise equal to the scalar reference: over
    /// random masks with walls in the ghosts too, inlet/outlet planes, tiles
    /// of 1–8 cells per side (shallower than the filter reach), and filter
    /// on and off.
    #[test]
    fn solvers3_match_scalar_whole_state(
        nx in 1usize..9,
        ny in 1usize..9,
        nz in 1usize..9,
        fd in any::<bool>(),
        inlet in any::<bool>(),
        outlet in any::<bool>(),
        filter in any::<bool>(),
        steps in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut params = params();
        params.inlet_velocity[0] = 0.01;
        params.filter_eps = if filter { 0.02 } else { 0.0 };
        let init = InitialState3::from_fn(move |i, j, k| {
            let bump = ((i * 7 + j * 13 + k * 5).rem_euclid(5)) as f64;
            (1.0 + 1e-3 * bump, 2e-3 * bump, -1e-3 * bump, 1e-3 * bump)
        });
        let (fast, oracle) = solvers3(fd);
        let mask = random_mask3((nx, ny, nz), fast.halo(), inlet, outlet, seed);
        let mut a = fast.make_tile(mask.clone(), params, (0, 0, 0), &init);
        let mut b = oracle.make_tile(mask, params, (0, 0, 0), &init);
        for _ in 0..steps {
            step_wrapped3(fast.as_ref(), &mut a);
        }
        for _ in 0..steps {
            step_wrapped3(oracle.as_ref(), &mut b);
        }
        prop_assert_eq!(a.step, steps as u64);
        for (p, (ga, gb)) in planes3(&a).iter().zip(planes3(&b)).enumerate() {
            prop_assert_eq!(ga, &gb, "plane {} diverged (fd = {})", p, fd);
        }
        prop_assert_eq!(dump_tile(&a), dump_tile(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The vectorized 2D kernels (LB and FD, with and without obstacle
    /// masks) are bitwise identical to the scalar reference path.
    #[test]
    fn simd2_matches_scalar_bitwise(
        nx in 16usize..26,
        ny in 12usize..22,
        obstacle in any::<bool>(),
        fd in any::<bool>(),
        steps in 2usize..5,
        seed in 0usize..16,
    ) {
        let (simd, scalar) = solvers2(fd);
        let mut a = LocalRunner2::new(simd, problem2(nx, ny, 1, 1, obstacle, seed));
        let mut b = LocalRunner2::new(scalar, problem2(nx, ny, 1, 1, obstacle, seed));
        a.run(steps);
        b.run(steps);
        prop_assert_eq!(a.gather().first_difference(&b.gather()), None);
    }

    /// 3D counterpart of the SIMD-vs-scalar pin.
    #[test]
    fn simd3_matches_scalar_bitwise(
        nx in 9usize..13,
        ny in 8usize..12,
        nz in 8usize..11,
        obstacle in any::<bool>(),
        fd in any::<bool>(),
        seed in 0usize..16,
    ) {
        let (simd, scalar) = solvers3(fd);
        let mut a = LocalRunner3::new(simd, problem3(nx, ny, nz, 1, 1, 1, obstacle, seed));
        let mut b = LocalRunner3::new(scalar, problem3(nx, ny, nz, 1, 1, 1, obstacle, seed));
        a.run(3);
        b.run(3);
        prop_assert_eq!(a.gather().first_difference(&b.gather()), None);
    }

    /// Threaded 2D runs are bitwise identical to the serial reference on
    /// both exchange schedules — fused (the fast solvers declare an
    /// overlapped phase) and plain (`ScalarReference2` declares none) — over
    /// random decompositions.
    #[test]
    fn overlap2_matches_nonoverlap_bitwise(
        px in 1usize..4,
        py in 1usize..3,
        fd in any::<bool>(),
        seed in 0usize..16,
    ) {
        let (nx, ny) = (24, 16);
        let (fast, scalar) = solvers2(fd);
        let mut serial = LocalRunner2::new(
            Arc::clone(&fast),
            problem2(nx, ny, px, py, false, seed),
        );
        serial.run(6);
        let a = serial.gather();
        for solver in [fast, scalar] {
            let b = ThreadedRunner2::new(solver, problem2(nx, ny, px, py, false, seed))
                .run(6)
                .unwrap()
                .gather(nx, ny, 1.0);
            prop_assert_eq!(a.first_difference(&b), None);
        }
    }

    /// 3D schedule pin: fused (the interior slab hides behind the z-stage
    /// halo) and plain both match the serial reference bitwise.
    #[test]
    fn overlap3_matches_nonoverlap_bitwise(
        px in 1usize..3,
        pz in 1usize..3,
        fd in any::<bool>(),
        seed in 0usize..16,
    ) {
        let (nx, ny, nz) = (12, 10, 10);
        let (fast, scalar) = solvers3(fd);
        let mut serial = LocalRunner3::new(
            Arc::clone(&fast),
            problem3(nx, ny, nz, px, 1, pz, false, seed),
        );
        serial.run(4);
        let a = serial.gather();
        for solver in [fast, scalar] {
            let b = ThreadedRunner3::new(solver, problem3(nx, ny, nz, px, 1, pz, false, seed))
                .run(4)
                .unwrap()
                .gather((nx, ny, nz), 1.0);
            prop_assert_eq!(a.first_difference(&b), None);
        }
    }
}
