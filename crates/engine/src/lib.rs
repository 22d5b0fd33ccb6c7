//! The MDD storage manager of *Furtado & Baumann (ICDE 1999)*.
//!
//! An MDD object is a set of multidimensional tiles plus an R+-tree index
//! over their domains; tile cells live in BLOBs of a page-based store (§5).
//! This crate ties the workspace's substrates together:
//!
//! * [`Database`] — catalog of [`MddObject`]s over any page store; insert
//!   runs the object's tiling [`Scheme`](tilestore_tiling::Scheme)
//!   (phase 1) and materializes/stores/indexes the tiles (phase 2);
//! * [`Snapshot`] — epoch-stamped read sessions ([`Database::begin_read`]):
//!   queries execute against an immutable catalog snapshot and never block
//!   behind writers; [`QueryResult`] / [`WriteReceipt`] carry the epoch;
//! * [`Plan`] — a statement's per-tile decisions and batched reads, made
//!   once by [`Snapshot::plan`] and run by range reads and condensers alike;
//!   EXPLAIN renders it ([`ExplainPlan`]);
//! * [`DatabaseBuilder`] — unified construction with optional recorder,
//!   executor and compression default;
//! * [`Array`] / [`CellValue`] / [`CellType`] — dense array values with
//!   typed cell access;
//! * [`AccessRegion`] — the §5.1 access model: whole object, range query,
//!   partial range query, section;
//! * [`QueryStats`] / [`QueryTimes`] — the §6 time decomposition
//!   (`t_ix`, `t_o`, `t_cpu` and the totals);
//! * [`AccessLog`] + [`Database::auto_retile`] — automatic tiling from
//!   access statistics;
//! * catalog persistence for file-backed databases ([`Catalog`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

mod access;
mod aggregate;
mod array;
mod builder;
mod celltype;
mod database;
mod error;
mod explain;
mod induce;
mod mdd;
mod modify;
mod persist;
mod plan;
mod predicate;
mod shared;
mod snapshot;
mod stats;
mod synopsis;

pub use access::{AccessLog, AccessRegion};
pub use aggregate::{aggregate_array, AggKind, AggValue};
pub use array::Array;
pub use builder::DatabaseBuilder;
pub use celltype::{CellType, CellValue, Rgb};
pub use database::Database;
pub use error::{EngineError, Result};
pub use explain::{ExplainPlan, TileDecision, TilePlan};
pub use induce::{induce_map, induce_scalar, BinOp};
pub use mdd::{MddObject, MddType, TileMeta};
pub use modify::{DeleteStats, UpdateStats};
pub use persist::{
    fsck, CachedFileStore, Catalog, FsckReport, ACCESS_LOG_FILE, CATALOG_FILE, CATALOG_TMP_FILE,
    DEFAULT_CACHE_PAGES, PAGES_FILE,
};
pub use plan::Plan;
pub use predicate::{CellPredicate, PredOp, PruneRule};
pub use shared::SharedDatabase;
pub use snapshot::{QueryResult, Snapshot, WriteReceipt};
pub use stats::{DefragStep, InsertStats, QueryStats, QueryTimes, RetileStats};
pub use synopsis::TileSynopsis;

/// Compile-time thread-safety assertions. The serving layer shares one
/// `Database<CachedFileStore>` across connection threads and scatters
/// insert/retile work onto executor workers; if a future change drops `Send`/`Sync` on
/// these types (say, by adding an `Rc` or a raw pointer field), the build
/// breaks here instead of the server crate failing with an opaque trait
/// bound error — or worse, compiling against a quietly serialized fallback.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database<tilestore_storage::FilePageStore>>();
    assert_send_sync::<Database<tilestore_storage::MemPageStore>>();
    assert_send_sync::<Database<CachedFileStore>>();
    assert_send_sync::<SharedDatabase<tilestore_storage::FilePageStore>>();
    assert_send_sync::<SharedDatabase<CachedFileStore>>();
    assert_send_sync::<Snapshot<tilestore_storage::FilePageStore>>();
    assert_send_sync::<Snapshot<CachedFileStore>>();
    assert_send_sync::<EngineError>();
};
