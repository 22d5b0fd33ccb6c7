//! Observability layer for the tile store: structured tracing spans,
//! a lock-free metrics registry, and a persistent query-access recorder
//! that feeds statistic tiling.
//!
//! The crate is dependency-free apart from the in-tree testkit (for JSON
//! serialization). Three facilities:
//!
//! - [`trace`]: nestable spans/events in a bounded ring buffer, JSONL export.
//! - [`mod@metrics`]: atomic counters, gauges and log2-bucket histograms.
//! - [`recorder`]: an append-only JSONL log of executed query regions,
//!   persisted alongside the catalog, replayable into `StatisticTiling`.
//!
//! Process-wide singletons are exposed through [`metrics()`] and [`tracer()`];
//! hot paths use the pre-resolved [`hot()`] handles so an instrument update
//! never takes the registry lock.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod metrics;
pub mod recorder;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use recorder::{AccessRecorder, LoggedAccess, DEFAULT_SEGMENT_BYTES, MAX_SEGMENTS};
pub use trace::{
    current_request_id, request_scope, EventKind, RequestScope, SpanGuard, TraceEvent, Tracer,
};

use std::sync::{Arc, OnceLock};

/// The process-wide metrics registry.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// The process-wide tracer (disabled until [`Tracer::enable`] is called).
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::new)
}

/// Pre-resolved handles to the hot-path instruments, registered once in the
/// global registry. Updating through these is purely atomic — no name lookup,
/// no registry lock — so storage/index/engine code can instrument per-page
/// and per-tile operations without measurable overhead.
#[derive(Debug)]
pub struct HotMetrics {
    /// Pages read from the backing store.
    pub pages_read: Arc<Counter>,
    /// Pages written to the backing store.
    pub pages_written: Arc<Counter>,
    /// Blob (tile payload) reads.
    pub blob_reads: Arc<Counter>,
    /// Blob (tile payload) writes.
    pub blob_writes: Arc<Counter>,
    /// Buffer-pool page hits.
    pub cache_hits: Arc<Counter>,
    /// Buffer-pool page misses.
    pub cache_misses: Arc<Counter>,
    /// Range queries executed.
    pub queries: Arc<Counter>,
    /// End-to-end query latency in nanoseconds.
    pub query_latency_ns: Arc<Histogram>,
    /// Tiles touched per query.
    pub query_tiles: Arc<Histogram>,
    /// Serialized tile size in bytes.
    pub tile_bytes: Arc<Histogram>,
    /// R+-tree nodes visited per index search.
    pub index_nodes: Arc<Histogram>,
    /// Tiling partitions computed (any strategy).
    pub partitions: Arc<Counter>,
    /// Durable catalog commits (atomic rename completed).
    pub catalog_commits: Arc<Counter>,
    /// Orphaned pages returned to the free list by recovery/fsck.
    pub orphaned_pages_reclaimed: Arc<Counter>,
    /// Page frames that failed checksum verification on read.
    pub checksum_failures: Arc<Counter>,
    /// Snapshots currently live (begun but not yet dropped).
    pub snapshots_active: Arc<Gauge>,
    /// Time writers spend inside the exclusive catalog-pointer swap, in
    /// nanoseconds — the *only* section readers can ever wait behind.
    pub writer_swap_ns: Arc<Histogram>,
    /// Engine mutexes recovered from poisoning (a holder panicked).
    pub lock_poisoned: Arc<Counter>,
    /// Tiles skipped by synopsis value-predicate pruning (their blobs
    /// were never fetched).
    pub tiles_pruned: Arc<Counter>,
    /// Buffer-pool shard lock acquisitions that had to block because
    /// another thread held the shard (`try_lock` failed first).
    pub pool_shard_contention: Arc<Counter>,
    /// Buffer-pool misses of a scan (a statement larger than a quarter of
    /// the pool) lent without being installed: their first touch.
    pub pool_scan_skips: Arc<Counter>,
    /// Buffer-pool misses of a scan installed because a scan had skipped
    /// the same page recently: their second touch.
    pub pool_second_touch_installs: Arc<Counter>,
    /// Physically consecutive page runs fetched with one positioned read
    /// instead of one read per page.
    pub runs_coalesced: Arc<Counter>,
    /// Payload bytes fetched by coalesced run reads.
    pub readahead_bytes: Arc<Counter>,
}

impl HotMetrics {
    fn resolve(reg: &MetricsRegistry) -> Self {
        HotMetrics {
            pages_read: reg.counter("storage.pages_read"),
            pages_written: reg.counter("storage.pages_written"),
            blob_reads: reg.counter("storage.blob_reads"),
            blob_writes: reg.counter("storage.blob_writes"),
            cache_hits: reg.counter("storage.cache_hits"),
            cache_misses: reg.counter("storage.cache_misses"),
            queries: reg.counter("engine.queries"),
            query_latency_ns: reg.histogram("engine.query_latency_ns"),
            query_tiles: reg.histogram("engine.query_tiles"),
            tile_bytes: reg.histogram("storage.tile_bytes"),
            index_nodes: reg.histogram("index.nodes_visited"),
            partitions: reg.counter("tiling.partitions"),
            catalog_commits: reg.counter("engine.catalog_commits"),
            orphaned_pages_reclaimed: reg.counter("storage.orphaned_pages_reclaimed"),
            checksum_failures: reg.counter("storage.checksum_failures"),
            snapshots_active: reg.gauge("engine.snapshots_active"),
            writer_swap_ns: reg.histogram("engine.writer_swap_ns"),
            lock_poisoned: reg.counter("engine.lock_poisoned"),
            tiles_pruned: reg.counter("engine.tiles_pruned"),
            pool_shard_contention: reg.counter("pool.shard_contention"),
            pool_scan_skips: reg.counter("pool.scan_skips"),
            pool_second_touch_installs: reg.counter("pool.second_touch_installs"),
            runs_coalesced: reg.counter("io.runs_coalesced"),
            readahead_bytes: reg.counter("io.readahead_bytes"),
        }
    }

    /// The buffer-pool hit ratio in `[0, 1]` (0 when no lookups yet).
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.cache_hits.get();
        let total = hits + self.cache_misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Pre-resolved hot-path instrument handles backed by [`metrics()`].
pub fn hot() -> &'static HotMetrics {
    static HOT: OnceLock<HotMetrics> = OnceLock::new();
    HOT.get_or_init(|| HotMetrics::resolve(metrics()))
}

/// Compile-time thread-safety assertions: every observability facility is
/// shared across the server's connection threads and the executor's workers,
/// so losing `Send + Sync` on any of them is a build error, not a runtime
/// surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MetricsRegistry>();
    assert_send_sync::<HotMetrics>();
    assert_send_sync::<Tracer>();
    assert_send_sync::<AccessRecorder>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globals_are_shared() {
        hot().queries.inc();
        let before = metrics()
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == "engine.queries")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(before >= 1);
        hot().queries.inc();
        let after = metrics()
            .snapshot()
            .counters
            .iter()
            .find(|(n, _)| n == "engine.queries")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(after > before);
    }

    #[test]
    fn cache_hit_ratio_bounds() {
        // Global counters are shared with other tests; only assert bounds.
        let r = hot().cache_hit_ratio();
        assert!((0.0..=1.0).contains(&r));
        hot().cache_hits.inc();
        assert!(hot().cache_hit_ratio() > 0.0);
    }
}
