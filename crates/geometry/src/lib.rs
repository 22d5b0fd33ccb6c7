//! Geometric foundation for arbitrary multidimensional tiling.
//!
//! This crate implements the multidimensional-discrete-data (MDD) model of
//! §3 of *Furtado & Baumann, "Storage of Multidimensional Arrays Based on
//! Arbitrary Tiling" (ICDE 1999)*:
//!
//! * [`Point`] — points of the discrete coordinate space `Z^d`, with the
//!   paper's row-major total order;
//! * [`Domain`] — bounded d-dimensional intervals (spatial domains of MDD
//!   objects, tiles and query regions), with intersection, closure
//!   ([`Domain::hull`]) and containment algebra;
//! * [`DefDomain`] — definition domains with unlimited (`*`) bounds;
//! * [`RowMajor`] — cell linearization for storage on linear media;
//! * [`PointIter`] / [`RunIter`] — cell- and run-granular iteration, with
//!   [`copy_region`] / [`fill_region`] as the bulk data-movement primitives
//!   behind query post-processing, and [`copy_region_segmented`] to paste
//!   from a source held in pieces ([`Segmented`], e.g. page frames);
//! * [`GridIter`] — regular grid decomposition (the substrate of aligned
//!   tiling);
//! * [`difference`] / [`uncovered`] — disjoint box decomposition of domain
//!   differences (partial tile coverage support);
//! * [`morton_key`] / [`sort_by_zorder`] — Z-order linearization for
//!   spatially-local tile ordering (related work \[11\]).

#![warn(missing_docs)]
#![warn(clippy::all)]

mod def_domain;
mod difference;
mod domain;
mod error;
mod grid;
mod iter;
mod order;
mod point;
mod zorder;

pub use def_domain::{DefAxis, DefDomain};
pub use difference::{difference, uncovered};
pub use domain::{AxisRange, Domain};
pub use error::{GeometryError, Result};
pub use grid::GridIter;
pub use iter::{
    copy_region, copy_region_segmented, fill_region, PointIter, Run, RunIter, Segmented,
};
pub use order::RowMajor;
pub use point::Point;
pub use zorder::{morton_centroid_key, morton_key, sort_by_centroid_zorder, sort_by_zorder};
