//! Flue-pipe simulation setup and jet diagnostics (section 2 of the paper).
//!
//! "When a jet of air impinges a sharp obstacle in the vicinity of a resonant
//! cavity, the jet begins to oscillate strongly, and it produces audible
//! musical tones." This module wires the flue-pipe geometry builders of
//! `subsonic-grid` to solver parameters and provides the probe placement and
//! frequency estimation used by the `E-pipe` experiment and the `flue_pipe`
//! example.

use crate::params::FluidParams;
use subsonic_grid::geometry::FluePipeSpec;
use subsonic_grid::Geometry2;

/// A ready-to-run flue-pipe scenario: geometry, parameters, probe location.
#[derive(Debug, Clone)]
pub struct FluePipeScenario {
    /// Geometry specification (Figure-1 or Figure-2 style).
    pub spec: FluePipeSpec,
    /// Fluid parameters with the jet inlet velocity set.
    pub params: FluidParams,
    /// Probe node: just above the labium tip, where the jet flaps.
    pub probe: (usize, usize),
}

impl FluePipeScenario {
    /// A scenario scaled to `nx × ny` nodes with a jet at the given lattice
    /// Mach number (fraction of the speed of sound; the paper's flows are
    /// subsonic, Ma ≲ 0.1).
    pub fn new(nx: usize, ny: usize, mach: f64, figure2: bool) -> Self {
        let spec = if figure2 {
            FluePipeSpec::figure2(nx, ny)
        } else {
            FluePipeSpec::figure1(nx, ny)
        };
        // a lively jet needs a respectable Reynolds number; the fourth-order
        // filter keeps the run stable (the paper's high-Re recipe)
        let mut params = FluidParams::lattice_units(0.008);
        params.inlet_velocity = [mach * params.cs, 0.0, 0.0];
        params.filter_eps = 0.03;
        let probe = (spec.edge_x().saturating_sub(2), spec.jet_axis() + 2);
        Self {
            spec,
            params,
            probe,
        }
    }

    /// Builds the geometry mask.
    pub fn geometry(&self) -> Geometry2 {
        self.spec.build()
    }

    /// Expected order of magnitude of the jet oscillation frequency, from the
    /// semi-empirical jet-drive scaling f ≈ 0.3 · U_jet / W where `W` is the
    /// jet-to-labium distance (see e.g. Verge et al. 1994). Used only as a
    /// sanity band for tests, not as a physical claim.
    pub fn expected_frequency_scale(&self) -> f64 {
        let ujet = self.params.inlet_velocity[0];
        let w = (self.spec.edge_x() as f64) * self.params.dx / 2.5;
        0.3 * ujet / w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_stable_parameter_set() {
        let sc = FluePipeScenario::new(120, 80, 0.08, false);
        assert!(sc.params.stability_report(false).is_empty());
        let g = sc.geometry();
        assert!(g.fluid_nodes() > 0);
        // probe is in fluid
        let (px, py) = sc.probe;
        assert!(g.at(px, py).is_fluid(), "probe at ({px},{py}) not in fluid");
    }

    #[test]
    fn frequency_scale_is_positive_and_subsonic_period() {
        let sc = FluePipeScenario::new(200, 120, 0.1, true);
        let f = sc.expected_frequency_scale();
        assert!(f > 0.0);
        // oscillation period should be many time steps (resolved)
        assert!(1.0 / f > 20.0, "period {} steps is unresolved", 1.0 / f);
    }
}
