//! Calibration constants taken directly from the paper.

/// The measured constants of the paper's testbed (section 7 and 8).
#[derive(Debug, Clone, Copy)]
pub struct PaperConstants {
    /// Computational speed of the reference HP9000/715-50 workstation for 2D
    /// lattice Boltzmann: "the relative speed of 1.0 corresponds to 39132
    /// fluid nodes integrated per second".
    pub u_calc_lb2d: f64,
    /// `U_calc / V_com = 2/3`, the single fitted ratio of Figures 12–13.
    pub ucalc_over_vcom: f64,
    /// Relative speed of each workstation model for (method, dimension),
    /// from the section-7 table. Index with [`HostModelKind`]-like order:
    /// `[715/50, 710, 720]`.
    pub rel_speed_lb2d: [f64; 3],
    /// Relative speeds, LB 3D row of the table.
    pub rel_speed_lb3d: [f64; 3],
    /// Relative speeds, FD 2D row of the table.
    pub rel_speed_fd2d: [f64; 3],
    /// Relative speeds, FD 3D row of the table.
    pub rel_speed_fd3d: [f64; 3],
    /// Shared-bus Ethernet peak bandwidth in bits per second (10 Mbps).
    pub ethernet_bps: f64,
    /// Field values communicated per boundary node: 2D (both methods).
    pub vars_per_node_2d: f64,
    /// Field values per boundary node, FD in 3D.
    pub vars_per_node_fd3d: f64,
    /// Field values per boundary node, LB in 3D.
    pub vars_per_node_lb3d: f64,
}

impl Default for PaperConstants {
    fn default() -> Self {
        Self {
            u_calc_lb2d: 39_132.0,
            ucalc_over_vcom: 2.0 / 3.0,
            rel_speed_lb2d: [1.0, 0.84, 0.86],
            rel_speed_lb3d: [0.51, 0.40, 0.42],
            rel_speed_fd2d: [1.24, 1.08, 1.17],
            rel_speed_fd3d: [1.0, 0.85, 0.94],
            ethernet_bps: 10.0e6,
            vars_per_node_2d: 3.0,
            vars_per_node_fd3d: 4.0,
            vars_per_node_lb3d: 5.0,
        }
    }
}

impl PaperConstants {
    /// `V_com` in boundary nodes per second implied by the fitted ratio,
    /// using the LB-2D reference computational speed (the units of
    /// Figures 12–13).
    pub fn v_com(&self) -> f64 {
        self.u_calc_lb2d / self.ucalc_over_vcom
    }

    /// Sanity cross-check: the fitted `V_com` corresponds to a wire rate of
    /// `V_com × vars/node × 8 bytes`, which should be of the order of the
    /// 10 Mbps Ethernet. Returns that rate in bits per second.
    pub fn v_com_implied_bps(&self) -> f64 {
        self.v_com() * self.vars_per_node_2d * 8.0 * 8.0
    }

    /// The paper's eq.-21 prefactor for 3D: data per node grows by 5/3 and
    /// the computational speed halves, giving `(5/3) / 2 = 5/6` relative to
    /// the 2D `U_calc / V_com`.
    pub fn factor_3d(&self) -> f64 {
        (self.vars_per_node_lb3d / self.vars_per_node_2d) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table() {
        let c = PaperConstants::default();
        assert_eq!(c.u_calc_lb2d, 39132.0);
        assert_eq!(c.rel_speed_lb3d[0], 0.51);
        assert_eq!(c.rel_speed_fd2d[0], 1.24);
        assert!((c.factor_3d() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn vcom_is_of_ethernet_order() {
        let c = PaperConstants::default();
        let bps = c.v_com_implied_bps();
        // fitted communication speed lands near the 10 Mbps wire rate
        assert!(bps > 5.0e6 && bps < 20.0e6, "implied rate {bps} b/s");
    }
}
