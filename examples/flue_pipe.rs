//! The paper's motivating application (section 2, Figures 1–2): air blown
//! through a flue pipe — a jet impinges a sharp labium near a resonant
//! cavity, oscillates, and produces a tone. This example runs a scaled-down
//! Figure-1 geometry, prints ASCII vorticity snapshots, and estimates the
//! jet oscillation frequency from a probe near the labium.
//!
//! ```text
//! cargo run --release --bin flue_pipe [--steps N] [--fig2]
//! ```

use subsonic::prelude::diagnostics::{ascii_field, vorticity_2d, write_pgm, ProbeSeries};
use subsonic::prelude::*;
use subsonic_examples::{arg_num, has_flag, header};

fn main() {
    let steps: usize = arg_num("--steps", 3000);
    let fig2 = has_flag("--fig2");
    let (nx, ny) = (200usize, 120usize);

    let scenario = FluePipeScenario::new(nx, ny, 0.12, fig2);
    let geom = scenario.geometry();

    header("Decomposition");
    let decomp = Decomp::new([nx, ny], [6, 4]);
    let active = geom.active_tiles(&decomp);
    println!(
        "(6x4) decomposition: {} of {} subregions contain fluid{}",
        active.len(),
        decomp.tiles(),
        if fig2 {
            " (Figure-2 geometry: all-solid subregions need no workstation)"
        } else {
            ""
        }
    );

    let mut sim = Simulation2::builder()
        .geometry(geom.clone())
        .method(MethodKind::LatticeBoltzmann)
        .params(scenario.params)
        .decompose(2, 2)
        .build();

    header("Running");
    let (px, py) = scenario.probe;
    let mut probe = ProbeSeries::new(scenario.params.dt);
    let snapshots = [steps / 4, steps / 2, steps - 1];
    for s in 0..steps {
        sim.step();
        let (_, _, vy) = sim.probe(px, py);
        probe.push(vy);
        if snapshots.contains(&s) {
            let f = sim.fields();
            let w = vorticity_2d(&f.vx, &f.vy, &geom, scenario.params.dx);
            println!("\nequi-vorticity snapshot at step {s} (cf. the paper's Figure 1):");
            print!("{}", ascii_field(&w, &geom, 76, 22, 0.02));
            let img = std::env::temp_dir().join(format!("flue_pipe_vorticity_{s}.pgm"));
            if write_pgm(&w, &geom, 0.02, &img).is_ok() {
                println!("(full-resolution image written to {})", img.display());
            }
        }
    }

    header("Jet diagnostics");
    println!("probe at ({px},{py}), just off the labium tip");
    println!("transverse velocity rms: {:.5}", probe.rms());
    if let Some(freq) = probe.dominant_frequency() {
        println!(
            "dominant oscillation frequency: {freq:.5} per step (period {:.0} steps)",
            1.0 / freq
        );
        println!(
            "jet-drive scaling 0.3 U/W suggests ~{:.5} per step",
            scenario.expected_frequency_scale()
        );
        println!(
            "\nAt the paper's physical scale (800x500 nodes, ~170 kHz step rate)\n\
             this corresponds to a tone of roughly {:.0} Hz-equivalent.",
            freq * 170_000.0 / (nx as f64 / 800.0)
        );
    } else {
        println!("no oscillation detected (run longer with --steps)");
    }
}
