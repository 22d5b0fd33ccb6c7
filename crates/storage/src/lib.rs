//! Page-based BLOB storage substrate.
//!
//! Stands in for the O₂ object store the paper ran on (§5/§6): tiles are
//! BLOBs ([`BlobStore`]) laid out on fixed-size pages ([`PageStore`], with
//! [`FilePageStore`] and [`MemPageStore`] backends), optionally cached by an
//! LRU [`BufferPool`]. Every read returns the counts of that one call as an
//! [`IoSnapshot`] — a query adds up its own calls' counts — and the stores
//! keep running totals in [`IoStats`]. [`CostModel`] converts the counts
//! into the deterministic model seconds used to reproduce the paper's `t_o`
//! measurements.
//!
//! Crash safety: [`FilePageStore`] frames every page with a checksum header
//! so torn writes are detected on read, pages freed by [`BlobStore`] are
//! quarantined until the next durable commit, and
//! [`FaultInjectingPageStore`] lets tests crash the store at any operation.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod blob;
mod buffer;
mod cost;
mod error;
mod fault;
mod page;
mod stats;

pub use blob::{BlobDirectory, BlobId, BlobPlacement, BlobSpan, BlobStore, PageCheck};
pub use buffer::{BufferPool, DEFAULT_SHARDS};
pub use cost::CostModel;
pub use error::{Result, StorageError};
pub use fault::{FaultInjectingPageStore, FaultPlan};
pub use page::{
    FilePageStore, Frame, MemPageStore, PageId, PageStore, TornWritable, DEFAULT_PAGE_SIZE,
    FRAME_HEADER, MIN_PAGE_SIZE,
};
pub use stats::{IoSnapshot, IoStats};
