//! Multidimensional tile index.
//!
//! §5 of the paper stores, per MDD object, "an index on tiles" that returns
//! the tiles intersected by a query region. [`RPlusTree`] is the
//! R+-tree-like structure the paper builds on (reference \[9\]); tiles are
//! disjoint, so leaf entries never overlap.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod error;
mod rplus;

pub use error::{IndexError, Result};
pub use rplus::{RPlusTree, SearchResult, DEFAULT_FANOUT};
