//! T1 — the section-7 speed table.
//!
//! Two halves: (a) the *calibration* table the simulated cluster uses (the
//! paper's measured relative speeds, reproduced by construction), and (b) a
//! *real measurement* of this Rust implementation's node rates for the same
//! four (method, dimension) combinations on the present machine, with the
//! same normalisation (LB 2D ≡ 1.0).
//!
//! A third table splits the LB 2D rate into the parts of one step, on a tile
//! that fits in L2, on one that streams from DRAM, and on the 24×24 tile of
//! Fig. 5's small-subregion end, where the ghost frame and the per-row costs
//! weigh most per node: the paper's `T_calc` per node, taken apart. A fourth
//! times Appendix E's stride pathology: a column sweep over rows that are
//! exactly one 4096-byte page long, with and without the padding the paper
//! adds. Both report and do not assert.

use crate::report::{Check, ExperimentResult, Table};
use crate::simulation::{Simulation2, Simulation3};
use std::time::Instant;
use subsonic_grid::array::{Array2, StridePolicy};
use subsonic_grid::{Decomp, Geometry2, Geometry3};
use subsonic_model::PaperConstants;
use subsonic_solvers::{FluidParams, InitialState2, LatticeBoltzmann2, MethodKind, Solver2};

fn rate_2d(method: MethodKind, side: usize, steps: usize) -> f64 {
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1e-6;
    let mut sim = Simulation2::builder()
        .geometry(Geometry2::channel(side, side, 2))
        .method(method)
        .params(params)
        .build();
    sim.run(3); // warm-up
    let t0 = Instant::now();
    sim.run(steps);
    let dt = t0.elapsed().as_secs_f64();
    (side * side * steps) as f64 / dt
}

fn rate_3d(method: MethodKind, side: usize, steps: usize) -> f64 {
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1e-6;
    let mut sim = Simulation3::builder()
        .geometry(Geometry3::duct(side, side, side, 2))
        .method(method)
        .params(params)
        .build();
    sim.run(2);
    let t0 = Instant::now();
    sim.run(steps);
    let dt = t0.elapsed().as_secs_f64();
    (side * side * side * steps) as f64 / dt
}

/// The parts of one LB2D step, timed through the solver's own entry points.
const ANATOMY: [&str; 3] = [
    "relax, interior (compute_interior(_, 0))",
    "relax, ghost frame + shift (compute_boundary(_, 0))",
    "half-step: moments, filter, re-synthesis (compute(_, 1))",
];

/// ns per interior node of each [`ANATOMY`] part on one `nx × ny` channel
/// tile, averaged over enough steps to touch about `budget` nodes.
fn lb2_anatomy(nx: usize, ny: usize, budget: usize) -> [f64; 3] {
    let mut params = FluidParams::lattice_units(0.05);
    params.body_force[0] = 1e-6;
    let solver = LatticeBoltzmann2;
    let decomp = Decomp::with_periodicity([nx, ny], [1, 1], [true, false]);
    let mask = Geometry2::channel(nx, ny, 2).tile_mask(&decomp, 0, solver.halo());
    let init = InitialState2::uniform(params.rho0);
    let mut t = solver.make_tile(mask, params, (0, 0), &init);
    let steps = (budget / (nx * ny)).max(3);
    let mut s = [0.0; 3];
    // one untimed step builds the tile's lazy caches and warms the caches
    for step in 0..=steps {
        let t0 = Instant::now();
        solver.compute_interior(&mut t, 0);
        let t1 = Instant::now();
        solver.compute_boundary(&mut t, 0);
        let t2 = Instant::now();
        solver.compute(&mut t, 1);
        let t3 = Instant::now();
        if step > 0 {
            for (acc, (a, b)) in s.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
                *acc += (b - a).as_secs_f64();
            }
        }
    }
    s.map(|x| x * 1e9 / (steps * nx * ny) as f64)
}

/// Row stride in bytes and ns per column sweep of a 512×1024 `Array2<f64>`
/// laid out by `policy`, over `sweeps` timed sweeps. A row of 512 `f64` is
/// exactly one 4096-byte page, so walking a column strides by a page
/// multiple unless the policy pads the row (Appendix E).
fn column_sweep_ns(policy: StridePolicy, sweeps: usize) -> (usize, f64) {
    let a = Array2::with_policy(512, 1024, 1.0f64, policy);
    let sweep = || {
        let mut acc = 0.0;
        for x in 0..a.nx() {
            for y in 0..a.ny() {
                acc += a[(x, y)];
            }
        }
        std::hint::black_box(acc)
    };
    sweep(); // warm-up: page faults and caches
    let t0 = Instant::now();
    for _ in 0..sweeps {
        sweep();
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / sweeps as f64;
    (a.stride() * std::mem::size_of::<f64>(), ns)
}

/// Runs the T1 experiment.
pub fn t1(quick: bool) -> ExperimentResult {
    let mut r = ExperimentResult::new("t1", "Workstation speeds (section-7 table)");
    let c = PaperConstants::default();

    // (a) calibration table (paper numbers, used by the simulated hosts)
    let mut cal = Table::new(
        "Paper calibration (relative speeds; 1.0 = 39132 nodes/s)",
        &["method", "715/50", "710", "720"],
    );
    for (label, row) in [
        ("LB 2D", c.rel_speed_lb2d),
        ("LB 3D", c.rel_speed_lb3d),
        ("FD 2D", c.rel_speed_fd2d),
        ("FD 3D", c.rel_speed_fd3d),
    ] {
        cal.push_row(vec![
            label.into(),
            format!("{:.2}", row[0]),
            format!("{:.2}", row[1]),
            format!("{:.2}", row[2]),
        ]);
    }
    r.tables.push(cal);

    // (b) real node rates of this implementation
    let (side2, side3, steps) = if quick { (64, 16, 10) } else { (192, 40, 40) };
    let lb2 = rate_2d(MethodKind::LatticeBoltzmann, side2, steps);
    let fd2 = rate_2d(MethodKind::FiniteDifference, side2, steps);
    let lb3 = rate_3d(MethodKind::LatticeBoltzmann, side3, steps);
    let fd3 = rate_3d(MethodKind::FiniteDifference, side3, steps);

    let mut meas = Table::new(
        "This implementation (this machine; normalised to LB 2D = 1.0)",
        &["method", "nodes/s", "relative", "paper relative (715/50)"],
    );
    for (label, rate, paper) in [
        ("LB 2D", lb2, 1.0),
        ("LB 3D", lb3, c.rel_speed_lb3d[0]),
        ("FD 2D", fd2, c.rel_speed_fd2d[0]),
        ("FD 3D", fd3, c.rel_speed_fd3d[0]),
    ] {
        meas.push_row(vec![
            label.into(),
            format!("{:.0}", rate),
            format!("{:.2}", rate / lb2),
            format!("{:.2}", paper),
        ]);
    }
    r.tables.push(meas);

    // (c) where an LB 2D step's time goes: small tile, in cache, from memory
    let (dram, budget) = if quick {
        ((512, 256), 2_000_000)
    } else {
        ((1024, 512), 10_000_000)
    };
    let fine = (24, 24);
    let l2 = (128, 128);
    let [tiny, small, large] = [fine, l2, dram].map(|(nx, ny)| lb2_anatomy(nx, ny, budget));
    let mut anatomy = Table::new(
        "LB2D step anatomy (ns per interior node; this machine)",
        &[
            "part of the step",
            &format!("{}x{} (Fig. 5 tile)", fine.0, fine.1),
            &format!("{}x{} (L2)", l2.0, l2.1),
            &format!("{}x{} (DRAM)", dram.0, dram.1),
            "DRAM / L2",
        ],
    );
    let total = |x: [f64; 3]| x.iter().sum::<f64>();
    let parts = (0..3).map(|p| (ANATOMY[p], tiny[p], small[p], large[p]));
    let whole = ("whole step", total(tiny), total(small), total(large));
    for (label, t, a, b) in parts.chain([whole]) {
        anatomy.push_row(vec![
            label.into(),
            format!("{t:.2}"),
            format!("{a:.2}"),
            format!("{b:.2}"),
            format!("{:.2}", b / a),
        ]);
    }
    r.tables.push(anatomy);

    // (d) Appendix E: a page-multiple row stride vs the padded one
    let sweeps = if quick { 5 } else { 40 };
    let tight = column_sweep_ns(StridePolicy::Tight, sweeps);
    let padded = column_sweep_ns(StridePolicy::AvoidPageMultiples, sweeps);
    let mut stride = Table::new(
        "Appendix E column sweep (512x1024 f64; ns per sweep; this machine)",
        &[
            "stride policy",
            "row stride (B)",
            "ns per sweep",
            "vs padded",
        ],
    );
    for (label, (bytes, ns)) in [("Tight", tight), ("AvoidPageMultiples", padded)] {
        stride.push_row(vec![
            label.into(),
            bytes.to_string(),
            format!("{ns:.0}"),
            format!("{:.2}", ns / padded.1),
        ]);
    }
    r.tables.push(stride);

    r.checks.push(Check::new(
        "3D LB costs more per node than 2D LB (paper ratio 0.51)",
        lb3 < lb2,
        format!("LB3D/LB2D = {:.2}", lb3 / lb2),
    ));
    r.checks.push(Check::new(
        "FD and LB per-node costs are the same order of magnitude",
        (0.2..5.0).contains(&(fd2 / lb2)),
        format!("FD2D/LB2D = {:.2} (paper: 1.24)", fd2 / lb2),
    ));
    r.checks.push(Check::new(
        "modern hardware far exceeds the 715/50's 39132 nodes/s (LB 2D)",
        lb2 > 39_132.0,
        format!("measured {lb2:.0} nodes/s"),
    ));
    r.notes.push(
        "Absolute rates measure this machine, not the HP9000/700; the \
         simulated cluster uses the paper's calibration table (a). The \
         FD/LB cost ratio depends on implementation details (our LBM \
         carries 9/15 populations with a halo-3 exchange), so only its \
         order of magnitude is checked."
            .into(),
    );
    r.notes.push(
        "The anatomy table is reported, not checked: a DRAM / L2 ratio near \
         1 says the step is bound by instructions, not by memory traffic, \
         and the 24x24 column against the L2 one is what per-row and \
         ghost-frame costs add per node on the Fig. 5 tile."
            .into(),
    );
    r.notes.push(
        "The Appendix E table is reported, not checked: the 1994 caches lost \
         a factor of two or more to a page-multiple stride, and how much a \
         modern set-associative cache loses depends on the machine."
            .into(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_quick_passes() {
        let r = t1(true);
        // the hardware-speed check may fail on debug builds; only verify the
        // structural checks here
        assert!(r.checks[0].pass, "{:?}", r.checks[0]);
        assert_eq!(r.tables.len(), 4);
        assert_eq!(r.tables[0].rows.len(), 4);
        // three parts of the step plus the whole
        assert_eq!(r.tables[2].rows.len(), 4);
        // the page-multiple stride and the padded one
        assert_eq!(r.tables[3].rows.len(), 2);
    }
}
