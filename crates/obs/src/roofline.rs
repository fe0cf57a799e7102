//! Roofline-style kernel accounting.
//!
//! The roofline model places a kernel on two axes: arithmetic intensity
//! (flop per byte of memory traffic) and achieved throughput. The solver
//! kernels here are stencil/streaming codes, so they sit far on the
//! bandwidth-bound side of the roof — which is exactly why the SIMD
//! rewrite targets contiguous SoA lanes and swap-free streaming rather
//! than more arithmetic. A [`KernelProfile`] carries the *static*
//! per-site-update traffic and work counts (hand-counted from the kernel
//! source, nominal: every `f64` array access counted once, no cache
//! modelling). The benchmark's per-layer report (`benchmark/src/layers.rs`)
//! multiplies it by a measured site-update rate and sets the result against
//! the measured copy bandwidth (`solvers.roofline_frac`).

/// Static per-site-update traffic/work profile of one kernel.
///
/// Counts are nominal: `f64` loads and stores as written in the kernel
/// inner loop (each array element once), floating-point add/sub/mul/div
/// each as one flop. They deliberately ignore caches and register reuse —
/// the point is a stable, comparable bytes/flop figure per kernel, not a
/// hardware simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Kernel name, used as the metric prefix (e.g. `"d2q9_bgk"`).
    pub name: &'static str,
    /// `f64` values read per site update.
    pub doubles_read: f64,
    /// `f64` values written per site update.
    pub doubles_written: f64,
    /// Floating-point operations per site update.
    pub flops: f64,
}

impl KernelProfile {
    /// Memory traffic per site update in bytes (8 bytes per `f64`).
    pub fn bytes_per_update(&self) -> f64 {
        8.0 * (self.doubles_read + self.doubles_written)
    }

    /// Bytes of traffic per flop — the inverse of arithmetic intensity;
    /// above ~0.1 byte/flop a modern core is bandwidth-bound.
    pub fn bytes_per_flop(&self) -> f64 {
        self.bytes_per_update() / self.flops
    }

    /// Arithmetic intensity in flop/byte (the roofline x-axis).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops / self.bytes_per_update()
    }
}

/// Hand-counted profiles for the workspace's solver kernels, used by the
/// benchmark to convert measured node rates into bytes per second.
/// Counting rules: one read per distinct `f64` array element touched by a
/// site update, one write per element stored; add/sub/mul/div = 1 flop.
pub mod profiles {
    use super::KernelProfile;

    /// D2Q9 BGK collide + stream: 9 populations read and written; moments
    /// (rho: 8 adds; vx, vy: ~6 add/sub + 2 div), hsq (3), then per
    /// direction eu (~3), feq polynomial (6) and relaxation (3) for 9
    /// directions — ≈130 flops per site.
    pub const D2Q9_BGK: KernelProfile = KernelProfile {
        name: "d2q9_bgk",
        doubles_read: 9.0,
        doubles_written: 9.0,
        flops: 130.0,
    };

    /// D3Q15 BGK collide + stream: 15 populations, three velocity moments,
    /// 15 equilibrium polynomials — ≈230 flops per site.
    pub const D3Q15_BGK: KernelProfile = KernelProfile {
        name: "d3q15_bgk",
        doubles_read: 15.0,
        doubles_written: 15.0,
        flops: 230.0,
    };

    /// FD2 explicit step per site (velocity + density + two filter axes):
    /// velocity reads the 5-point stencils of vx, vy and the rho gradient
    /// (~13 reads, 2 writes, ~40 flops); density reads the divergence
    /// stencil of rho·v (~8 reads, 1 write, ~12 flops); the fourth-order
    /// filter reads a 5-point stencil per axis for each of 2 fields
    /// (~20 reads, 4 writes, ~24 flops).
    pub const FD2_STEP: KernelProfile = KernelProfile {
        name: "fd2_step",
        doubles_read: 41.0,
        doubles_written: 7.0,
        flops: 76.0,
    };

    /// FD3 explicit step per site: 7-point stencils over four fields for
    /// velocity (~25 reads, 3 writes, ~70 flops), divergence of rho·v
    /// (~12 reads, 1 write, ~18 flops), filter over 3 axes × 3 fields
    /// (~45 reads, 9 writes, ~54 flops).
    pub const FD3_STEP: KernelProfile = KernelProfile {
        name: "fd3_step",
        doubles_read: 82.0,
        doubles_written: 13.0,
        flops: 142.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_are_consistent() {
        let k = profiles::D2Q9_BGK;
        assert_eq!(k.bytes_per_update(), 8.0 * 18.0);
        let ai = k.arithmetic_intensity();
        assert!((ai * k.bytes_per_flop() - 1.0).abs() < 1e-12);
        // streaming stencil kernels are bandwidth-bound: > 0.5 B/F
        for p in [
            profiles::D2Q9_BGK,
            profiles::D3Q15_BGK,
            profiles::FD2_STEP,
            profiles::FD3_STEP,
        ] {
            assert!(p.bytes_per_flop() > 0.5, "{} not traffic-dominated", p.name);
        }
    }
}
