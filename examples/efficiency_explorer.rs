//! Interactive-ish efficiency explorer: evaluates the section-8 model and
//! the event-simulated cluster side by side for a decomposition you choose,
//! and answers the design question the model was built for — how big must a
//! subregion be for a target efficiency?
//!
//! ```text
//! cargo run --release --bin efficiency_explorer [--px 5] [--py 4] [--side 150] [--target 0.8]
//! ```

use subsonic::prelude::*;
use subsonic_examples::{arg_num, header};

fn main() {
    let px: usize = arg_num("--px", 5);
    let py: usize = arg_num("--py", 4);
    let side: usize = arg_num("--side", 150);
    let target: f64 = arg_num("--target", 0.8);
    let p = px * py;

    header("Decomposition");
    let d = Decomp::new([side * px, side * py], [px, py]);
    let m = d.m_factor();
    println!(
        "({px}x{py}) = {p} processors, {side}^2 nodes each; m: paper {} (mean faces {:.2}, max {})",
        m.paper, m.mean_faces, m.max_faces
    );

    header("Model vs simulated cluster (2D lattice Boltzmann)");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "side", "model f", "simulated f", "speedup"
    );
    for s in [side / 2, side, side * 2] {
        let model = EfficiencyModel::paper_2d(p, m.paper).efficiency((s * s) as f64);
        let w = WorkloadSpec::new_2d(MethodKind::LatticeBoltzmann, s * px, s * py, px, py);
        let meas = measure_efficiency(MeasureConfig::paper(w));
        println!(
            "{s:>8} {model:>12.3} {:>12.3} {:>12.2}",
            meas.efficiency, meas.speedup
        );
    }

    header("Inverse question");
    let model = EfficiencyModel::paper_2d(p, m.paper);
    let n = model.min_nodes_for_efficiency(target);
    println!(
        "for f >= {target}: subregions of at least {:.0} nodes (~{:.0}^2) per processor",
        n,
        n.sqrt()
    );
    let mem_mb = n * 96.0 / 1.0e6;
    println!(
        "at ~96 B/node of state that is {mem_mb:.1} MB per workstation \
         (the paper's practical limit was 15 MB, i.e. ~300^2 in 2D)"
    );

    header("And in 3D?");
    let model3 = EfficiencyModel::paper_3d(p, 2.0);
    let n3 = model3.min_nodes_for_efficiency(target);
    if n3.is_finite() {
        println!(
            "3D needs {:.0} nodes (~{:.0}^3) per processor for the same target — \
             {:.0}x the 2D grain ({})",
            n3,
            n3.cbrt(),
            n3 / n,
            if n3 * 96.0 / 1.0e6 > 15.0 {
                "beyond the 15 MB memory limit: the paper's 3D verdict"
            } else {
                "feasible"
            }
        );
    } else {
        println!("3D cannot reach f = {target} on the shared bus at any grain size");
    }
}
