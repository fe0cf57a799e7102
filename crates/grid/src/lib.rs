//! Grid substrate for the `subsonic` flow simulator.
//!
//! This crate provides the spatial data structures of the system described in
//! P. A. Skordos, *"Parallel simulation of subsonic fluid dynamics on a cluster
//! of workstations"* (MIT AI Memo 1485, 1994 / HPDC 1995):
//!
//! * dense row-major [`Array2`]/[`Array3`] containers with an optional row-stride
//!   pad that works around the HP9000/700 4096-byte cache pathology the paper
//!   documents in Appendix E (kept here because it is part of the reproduced
//!   system, and it doubles as a useful stride-ablation knob),
//! * [`PaddedGrid2`]/[`PaddedGrid3`] — fields surrounded by ghost ("padding")
//!   layers as in section 4.2 of the paper,
//! * the communication geometry, written once for 2D and 3D: the faces of a
//!   subregion ([`Face`]), rectangular domain decompositions ([`Decomp`])
//!   with the neighbour topology, surface-node counts and the *m*-factors of
//!   section 8, and one halo strip codec ([`halo::pack`]/[`halo::unpack`])
//!   implementing the staged (x, then y, then z) exchange that fills corner
//!   ghosts without diagonal messages,
//! * cell-level geometry ([`Cell`], [`Geometry2`], [`Geometry3`]) with builders
//!   for channels, boxes and the flue-pipe configurations of Figures 1 and 2,
//!   including detection of all-solid subregions that need no workstation.
//!
//! Everything in this crate is deterministic and allocation-free on the hot
//! paths; solvers in `subsonic-solvers` build directly on these types.

pub mod array;
pub mod decomp;
pub mod face;
pub mod geometry;
pub mod halo;
pub mod padded;
pub mod range;

pub use array::{Array2, Array3};
pub use decomp::{Decomp, MFactor, TileBox};
pub use face::{Face, Face2, Face3};
pub use geometry::{Cell, Geometry2, Geometry3};
pub use padded::{PaddedGrid2, PaddedGrid3, PaddedRows, PlaneBand3, RowBand2};
pub use range::{split_even, Extent};
