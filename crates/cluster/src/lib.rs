//! Sharded scatter-gather serving: one logical store over N engine shards.
//!
//! The paper treats a tiling as an arbitrary, workload-driven decomposition
//! of an array's domain. This crate lifts that idea one level: a
//! [`ShardMap`] is a tiling spec used as a **partitioning function**,
//! cutting all of cell space into per-shard slabs so each shard's engine
//! stores and tiles only its own sub-domain. A [`Coordinator`] makes N
//! such engines answer as one:
//!
//! * **Reads** run the "agree on epochs" handshake — one snapshot pinned
//!   per shard at a single consistency point — then scatter the clipped
//!   query across shards on the
//!   [`ThreadPool`](tilestore_exec::ThreadPool), gather the sub-results,
//!   and stitch them into one slab (clips partition the region exactly) or
//!   recombine aggregates condenser-correctly (`sum`/`count` add,
//!   `min`/`max` fold, `avg` travels as per-shard sums). What a statement
//!   means is rasql's alone: the coordinator checks it with
//!   [`Shape::of`](tilestore_rasql::Shape::of) before pinning and resolves
//!   its access with [`Shape::resolve`](tilestore_rasql::Shape::resolve)
//!   against the shards' hull, so errors and answers match a single
//!   engine's; what it adds is only the pinning, the clip, the rewrite to
//!   explicit ranges, the push-down and the combine.
//! * **Writes** route each cell to its owning shard under an exclusive
//!   gate, so shard epochs advance together from a reader's point of view.
//! * **Backends** are [`ShardBackend::Local`] (N in-process engines,
//!   phase 1) or [`ShardBackend::Remote`] (ordinary tilestore servers
//!   reached over the existing wire protocol with connection reuse,
//!   inherited deadlines, and typed `shard_unavailable` failures naming
//!   the broken shard — phase 2).
//! * **Serving**: [`Coordinator`] implements `tilestore-server`'s
//!   [`Service`](tilestore_server::Service) trait, so [`serve_cluster`] is
//!   a thin wrapper over the one serving core: the same accept loop,
//!   admission and deadline path, request ids, `"trace": true`, `metrics`
//!   and slow log as a single server, and rasql clients need not know the
//!   store is sharded. The coordinator adds `shard_epochs` and the
//!   `cluster` op.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod backend;
mod coordinator;
mod error;
mod serve;
mod shard_map;

pub use backend::{PinnedObject, RemoteShard, ShardBackend, ShardExplainCounts, ShardPin};
pub use coordinator::{
    epochs_json, ClusterExplain, ClusterStatement, ClusterValue, ClusterWrite, Coordinator,
    ShardEpoch, ShardPlan,
};
pub use error::{ClusterError, Result};
pub use serve::serve_cluster;
pub use shard_map::{ClusterManifest, ShardMap, MANIFEST_FILE};
/// A cluster endpoint's tuning knobs and handle are the serving core's.
pub use tilestore_server::{ServerConfig as ClusterConfig, ServerHandle as ClusterHandle};
