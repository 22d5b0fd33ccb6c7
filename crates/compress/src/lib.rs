//! Selective per-tile compression.
//!
//! §8 of the paper: "The RasDaMan storage manager also supports selective
//! compression of blocks and partial cover of data cubes, two important
//! features when supporting sparse data." This crate provides the codecs
//! and the per-tile selection policy:
//!
//! * [`Codec::PackBits`] — byte run-length coding for flat regions;
//! * [`Codec::DeltaPackBits`] — byte-lane delta + PackBits for smooth
//!   rasters;
//! * [`Codec::ChunkOffset`] — the sparse-tile representation of Zhao et
//!   al. (SIGMOD'97, the paper's reference \[14\]): only non-default cells
//!   are stored;
//! * [`CompressionPolicy::Selective`] — try candidates per tile, keep the
//!   smallest stream (never expands: raw framing is always a candidate).
//!
//! Streams are self-describing (tag + original length), so the engine can
//! mix codecs freely across the tiles of one object.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod chunk_offset;
mod codec;
pub mod delta;
mod error;
pub mod packbits;
mod synopsis;
#[cfg(test)]
mod test_payloads;
mod varint;

pub use codec::{
    compress, decompress, stream_codec, stream_header, CellContext, Codec, CompressionPolicy,
    DecodeBuf, StreamHeader,
};
pub use error::{CompressError, Result};
pub use synopsis::{compress_with_scan, scan_cells, CellScan, NULL_MASK_CHUNKS};

/// Direct access to the chunk-offset heuristics (density estimation).
pub mod sparse {
    pub use crate::chunk_offset::{estimated_size, worthwhile};
}
