//! Step plans: the alternating compute/communicate structure of a cycle.
//!
//! Section 4.1 of the paper: "The parallel program consists of two steps:
//! 'compute locally', and 'communicate with neighbors'." Each method's cycle
//! is a fixed sequence of local compute phases and halo exchanges — for
//! finite differences (section 6):
//!
//! ```text
//! Calculate Vx, Vy (inner)   -> Compute(0)
//! Communicate Vx, Vy         -> Exchange(0)
//! Calculate rho (inner)      -> Compute(1)
//! Communicate rho            -> Exchange(1)
//! Filter rho, Vx, Vy (inner) -> Compute(2)
//! ```
//!
//! and for the lattice Boltzmann method:
//!
//! ```text
//! Communicate F_i            -> Exchange(0)   (start-of-cycle phasing)
//! Relax + shift F_i (inner)  -> Compute(0)
//! Calculate rho, V from F_i  \
//! Filter rho, Vx, Vy (inner)  } Compute(1)
//! Re-synthesise F_i (inner)  /
//! ```
//!
//! (2D: the last three lines are one row-pipelined sweep, see `lbm2`. The 3D
//! solver still runs them as `Compute(1)` and `Compute(2)`.)
//!
//! Runners execute the ops in order; an `Exchange(k)` op moves the packed
//! strips of exchange id `k` between neighbouring tiles (or applies the
//! periodic wrap in a serial run). The LB exchange is phased at the start of
//! the cycle rather than mid-cycle; over a run the wire traffic is identical
//! (one message per neighbour per step) and the phasing makes every tile's
//! ghost ring carry fully settled (post-filter) state, which is what gives
//! bitwise serial/parallel equivalence.

use serde::{Deserialize, Serialize};

/// One operation of a method's cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepOp {
    /// Run local compute phase `k` on the tile.
    Compute(usize),
    /// Exchange halo data of exchange id `k` with all neighbours.
    Exchange(usize),
}

/// Returns the number of `Exchange` ops in a plan (messages per neighbour per
/// integration step — 2 for FD, 1 for LB, the distinction the paper uses to
/// explain Figure 5 vs Figure 7).
pub fn exchanges_per_step(plan: &[StepOp]) -> usize {
    plan.iter()
        .filter(|op| matches!(op, StepOp::Exchange(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_exchanges() {
        let plan = [
            StepOp::Compute(0),
            StepOp::Exchange(0),
            StepOp::Compute(1),
            StepOp::Exchange(1),
            StepOp::Compute(2),
        ];
        assert_eq!(exchanges_per_step(&plan), 2);
    }
}
