//! Multidimensional tile index.
//!
//! §5 of the paper stores, per MDD object, "an index on tiles" that returns
//! the tiles intersected by a query region. [`RPlusTree`] is the
//! R+-tree-like structure the paper builds on (reference \[9\]); tiles are
//! disjoint, so leaf entries never overlap.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bitmap;
mod error;
mod rplus;

pub use bitmap::{bins_eq, bins_ge, bins_le, value_bin, BitmapIndex, BINS};
pub use error::{IndexError, Result};
pub use rplus::{RPlusTree, SearchResult, DEFAULT_FANOUT};
