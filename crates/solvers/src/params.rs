//! Physical and numerical parameters shared by the solvers.

/// Which numerical method integrates the flow (section 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Explicit finite differences on the Navier–Stokes equations.
    FiniteDifference,
    /// The lattice Boltzmann method (BGK, D2Q9 / D3Q15).
    LatticeBoltzmann,
}

impl MethodKind {
    /// Short label used in reports ("FD" / "LB", as in the paper's tables).
    pub fn label(self) -> &'static str {
        match self {
            MethodKind::FiniteDifference => "FD",
            MethodKind::LatticeBoltzmann => "LB",
        }
    }
}

/// Fluid and discretisation parameters.
///
/// The paper's equations (1)–(3) contain two physical constants: the speed of
/// sound `c_s` and the kinematic viscosity `ν`. Discretisation adds the node
/// spacing `Δx` and time step `Δt`, constrained by the subsonic-resolution
/// requirement of eq. (4): `Δx ≈ c_s Δt` — the time step must resolve the
/// acoustic waves, which is exactly why explicit methods suit this problem.
#[derive(Debug, Clone, Copy)]
pub struct FluidParams {
    /// Speed of sound `c_s`.
    pub cs: f64,
    /// Kinematic viscosity `ν`.
    pub nu: f64,
    /// Node spacing `Δx` (uniform orthogonal grid).
    pub dx: f64,
    /// Integration time step `Δt`.
    pub dt: f64,
    /// Reference (initial) density.
    pub rho0: f64,
    /// Body force per unit mass (acceleration), e.g. the pressure-gradient
    /// drive of Hagen–Poiseuille flow. `[gx, gy, gz]`; `gz` ignored in 2D.
    pub body_force: [f64; 3],
    /// Inlet (jet) velocity applied at [`subsonic_grid::Cell::Inlet`] nodes.
    pub inlet_velocity: [f64; 3],
    /// Strength `ε` of the fourth-order numerical-viscosity filter
    /// (`u ← u − ε δ⁴u` per axis). Stable for `0 ≤ ε ≤ 1/16`; `0` disables.
    pub filter_eps: f64,
}

impl Default for FluidParams {
    fn default() -> Self {
        Self::lattice_units(0.05)
    }
}

impl FluidParams {
    /// Parameters in lattice units (`Δx = Δt = 1`, `c_s = 1/√3`), the natural
    /// units of the lattice Boltzmann method, with the given viscosity.
    pub fn lattice_units(nu: f64) -> Self {
        Self {
            cs: 1.0 / 3.0f64.sqrt(),
            nu,
            dx: 1.0,
            dt: 1.0,
            rho0: 1.0,
            body_force: [0.0; 3],
            inlet_velocity: [0.0; 3],
            filter_eps: 0.02,
        }
    }

    /// The acoustic Courant number `c_s Δt / Δx`. Eq. (4) of the paper wants
    /// this of order one but explicit stability needs it below one.
    pub fn acoustic_courant(&self) -> f64 {
        self.cs * self.dt / self.dx
    }

    /// The diffusive stability number `ν Δt / Δx²` (must stay below ~1/4 in
    /// 2D, ~1/6 in 3D for forward Euler).
    pub fn diffusion_number(&self) -> f64 {
        self.nu * self.dt / (self.dx * self.dx)
    }

    /// BGK relaxation time for the lattice Boltzmann method,
    /// `ν = (2τ − 1)/6` in lattice units (paper, section 6), i.e.
    /// `τ = 3 ν_lat + 1/2` with `ν_lat = ν Δt / Δx²`.
    pub fn lbm_tau(&self) -> f64 {
        3.0 * self.nu_lattice() + 0.5
    }

    /// Viscosity converted to lattice units.
    pub fn nu_lattice(&self) -> f64 {
        self.nu * self.dt / (self.dx * self.dx)
    }

    /// Velocity converted to lattice units.
    pub fn velocity_to_lattice(&self, u: f64) -> f64 {
        u * self.dt / self.dx
    }

    /// Acceleration (body force per unit mass) converted to lattice units.
    pub fn accel_to_lattice(&self, g: f64) -> f64 {
        g * self.dt * self.dt / self.dx
    }

    /// Checks explicit-stability constraints, returning a list of violated
    /// conditions (empty when the parameter set is safe).
    pub fn stability_report(&self, three_d: bool) -> Vec<String> {
        let mut v = Vec::new();
        let c = self.acoustic_courant();
        if c >= 1.0 {
            v.push(format!("acoustic Courant number {c:.3} >= 1"));
        }
        let d = self.diffusion_number();
        let dmax = if three_d { 1.0 / 6.0 } else { 0.25 };
        if d >= dmax {
            v.push(format!("diffusion number {d:.3} >= {dmax:.3}"));
        }
        if !(0.0..=1.0 / 16.0 + 1e-12).contains(&self.filter_eps) {
            v.push(format!("filter_eps {} outside [0, 1/16]", self.filter_eps));
        }
        if self.lbm_tau() <= 0.5 {
            v.push(format!(
                "LBM tau {:.3} <= 1/2 (negative viscosity)",
                self.lbm_tau()
            ));
        }
        let umax = self
            .inlet_velocity
            .iter()
            .fold(0.0f64, |a, &b| a.max(b.abs()));
        if self.velocity_to_lattice(umax) > 0.3 {
            v.push(format!(
                "inlet Mach too high for LBM: |u|_lat = {:.3}",
                self.velocity_to_lattice(umax)
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_units_are_consistent() {
        let p = FluidParams::lattice_units(0.05);
        assert!((p.acoustic_courant() - 1.0 / 3.0f64.sqrt()).abs() < 1e-12);
        assert!((p.nu_lattice() - 0.05).abs() < 1e-15);
        assert!((p.lbm_tau() - 0.65).abs() < 1e-12);
        assert!(p.stability_report(false).is_empty());
        assert!(p.stability_report(true).is_empty());
    }

    #[test]
    fn tau_matches_paper_formula() {
        // paper: nu = (2 tau - 1) / 6
        let p = FluidParams::lattice_units(0.1);
        let tau = p.lbm_tau();
        assert!(((2.0 * tau - 1.0) / 6.0 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stability_flags_bad_parameters() {
        let mut p = FluidParams::lattice_units(0.05);
        p.dt = 2.5; // Courant > 1 and diffusion number too big
        let report = p.stability_report(false);
        assert!(report.iter().any(|s| s.contains("Courant")));

        let mut p = FluidParams::lattice_units(0.2);
        p.filter_eps = 0.2;
        assert!(p
            .stability_report(false)
            .iter()
            .any(|s| s.contains("filter_eps")));
    }

    #[test]
    fn unit_conversions() {
        let mut p = FluidParams::lattice_units(0.05);
        p.dx = 0.5;
        p.dt = 0.25;
        assert!((p.velocity_to_lattice(2.0) - 1.0).abs() < 1e-12);
        assert!((p.accel_to_lattice(8.0) - 1.0).abs() < 1e-12);
        assert!((p.nu_lattice() - 0.05 * 0.25 / 0.25).abs() < 1e-12);
    }

    #[test]
    fn method_labels() {
        assert_eq!(MethodKind::FiniteDifference.label(), "FD");
        assert_eq!(MethodKind::LatticeBoltzmann.label(), "LB");
    }
}
