//! In-tree test toolkit keeping the workspace free of external crates.
//!
//! The workspace builds hermetically — no registry dependencies — so every
//! facility the tests and persistence layer need is provided here:
//!
//! * [`rng`] — a deterministic seedable PRNG (SplitMix64-seeded
//!   xoshiro256++) with `gen_range`/`gen_bool`/`shuffle`/`fill_bytes`
//!   helpers.
//! * [`prop`] — a minimal property-testing harness with configurable case
//!   counts, deterministic per-property seeds, failing-seed reporting and
//!   greedy input shrinking over the recorded random-choice tape.
//! * [`json`] — a small JSON value model, parser and printer plus the
//!   [`ToJson`]/[`FromJson`] traits used by catalog persistence and the
//!   benchmark reports.
//! * [`crc`] — CRC-32 (IEEE) for torn-write detection in checksummed page
//!   frames.
//! * [`mod@tempdir`] — scoped temporary directories removed on drop.

#![warn(missing_docs)]

pub mod crc;
pub mod json;
pub mod prop;
pub mod rng;
pub mod tempdir;

pub use crc::{crc32, crc32_update};
pub use json::{FromJson, Json, JsonError, JsonReader, ToJson};
pub use rng::Rng;
pub use tempdir::{tempdir, TempDir};
