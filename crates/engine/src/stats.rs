//! Query execution statistics and the paper's time decomposition (§6).

use tilestore_storage::{CostModel, IoSnapshot};
use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

/// Counters collected while executing one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Index nodes visited while locating the intersected tiles.
    pub index_nodes: u64,
    /// Tiles fetched from storage.
    pub tiles_read: u64,
    /// Intersecting tiles skipped because their synopsis proved the
    /// query's value predicate false (or a condenser was answered from the
    /// synopsis alone) — their blobs were never read.
    pub tiles_pruned: u64,
    /// I/O performed while fetching tiles: the sum of the counts this
    /// query's own reads returned.
    pub io: IoSnapshot,
    /// Cells of fetched tiles handled during post-processing — the basis of
    /// `t_cpu` (border tiles are processed whole even when only part of
    /// their cells lands in the result).
    pub cells_processed: u64,
    /// Cells actually copied into the result array.
    pub cells_copied: u64,
    /// Cells of the result filled with the default value (uncovered areas).
    pub cells_defaulted: u64,
    /// Wall-clock execution time of the query in nanoseconds.
    pub elapsed_ns: u64,
}

impl QueryStats {
    /// Converts the counters to the paper's time components under `model`.
    ///
    /// `t_cpu` distinguishes useful work (cells composed into the result or
    /// default-filled) from waste (cells fetched in border tiles but
    /// clipped away) — the latter is what makes regular tiling expensive in
    /// §6.1's post-processing measurements.
    #[must_use]
    pub fn times(&self, model: &CostModel) -> QueryTimes {
        let t_ix = model.t_ix(self.index_nodes);
        let t_o = model.t_o(&self.io);
        let useful = self.cells_copied + self.cells_defaulted;
        // A caller may report more copied than processed cells (e.g. when the
        // result is composed from overlapping reads); clamp instead of
        // underflowing.
        let wasted = self.cells_processed.saturating_sub(self.cells_copied);
        let t_cpu = model.t_cpu(useful, wasted);
        QueryTimes { t_ix, t_o, t_cpu }
    }

    /// Folds another stats record into this one, counter by counter, for
    /// combining the per-shard records of a cluster statement. Every
    /// record's `io` holds only the counts its own reads returned, so the
    /// merged record is the statement's I/O and nothing a concurrent query
    /// did. Sums saturate rather than wrap.
    pub fn merge(&mut self, other: &QueryStats) {
        self.index_nodes = self.index_nodes.saturating_add(other.index_nodes);
        self.tiles_read = self.tiles_read.saturating_add(other.tiles_read);
        self.tiles_pruned = self.tiles_pruned.saturating_add(other.tiles_pruned);
        self.cells_processed = self.cells_processed.saturating_add(other.cells_processed);
        self.cells_copied = self.cells_copied.saturating_add(other.cells_copied);
        self.cells_defaulted = self.cells_defaulted.saturating_add(other.cells_defaulted);
        self.elapsed_ns = self.elapsed_ns.saturating_add(other.elapsed_ns);
        self.io += &other.io;
    }
}

impl ToJson for QueryStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index_nodes", self.index_nodes.to_json()),
            ("tiles_read", self.tiles_read.to_json()),
            ("tiles_pruned", self.tiles_pruned.to_json()),
            ("io", self.io.to_json()),
            ("cells_processed", self.cells_processed.to_json()),
            ("cells_copied", self.cells_copied.to_json()),
            ("cells_defaulted", self.cells_defaulted.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
        ])
    }
}

impl FromJson for QueryStats {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (
            mut index_nodes,
            mut tiles_read,
            mut tiles_pruned,
            mut io,
            mut cells_processed,
            mut cells_copied,
            mut cells_defaulted,
            mut elapsed_ns,
        ) = (None, None, None, None, None, None, None, None);
        r.object(|r, key| match key {
            "index_nodes" => r.field(&mut index_nodes),
            "tiles_read" => r.field(&mut tiles_read),
            "tiles_pruned" => r.field(&mut tiles_pruned),
            "io" => r.field(&mut io),
            "cells_processed" => r.field(&mut cells_processed),
            "cells_copied" => r.field(&mut cells_copied),
            "cells_defaulted" => r.field(&mut cells_defaulted),
            "elapsed_ns" => r.field(&mut elapsed_ns),
            _ => r.skip(),
        })?;
        Ok(QueryStats {
            index_nodes: required(index_nodes, "index_nodes")?,
            tiles_read: required(tiles_read, "tiles_read")?,
            // Absent in records written before pruning existed.
            tiles_pruned: tiles_pruned.unwrap_or(0),
            io: required(io, "io")?,
            cells_processed: required(cells_processed, "cells_processed")?,
            cells_copied: required(cells_copied, "cells_copied")?,
            cells_defaulted: required(cells_defaulted, "cells_defaulted")?,
            elapsed_ns: required(elapsed_ns, "elapsed_ns")?,
        })
    }
}

/// The paper's per-query time decomposition (model seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryTimes {
    /// Index access time.
    pub t_ix: f64,
    /// Tile retrieval (disk) time — the optimized component.
    pub t_o: f64,
    /// Post-processing (query evaluation) time.
    pub t_cpu: f64,
}

impl QueryTimes {
    /// `t_totalaccess = t_o + t_ix` — total retrieval time from disk.
    #[must_use]
    pub fn total_access(&self) -> f64 {
        self.t_o + self.t_ix
    }

    /// `t_totalcpu = t_o + t_ix + t_cpu` — total query execution time.
    #[must_use]
    pub fn total_cpu(&self) -> f64 {
        self.t_o + self.t_ix + self.t_cpu
    }
}

impl std::fmt::Display for QueryTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t_ix={:.4}s t_o={:.4}s t_cpu={:.4}s (total {:.4}s)",
            self.t_ix,
            self.t_o,
            self.t_cpu,
            self.total_cpu()
        )
    }
}

impl ToJson for QueryTimes {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("t_ix", self.t_ix.to_json()),
            ("t_o", self.t_o.to_json()),
            ("t_cpu", self.t_cpu.to_json()),
        ])
    }
}

impl FromJson for QueryTimes {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut t_ix, mut t_o, mut t_cpu) = (None, None, None);
        r.object(|r, key| match key {
            "t_ix" => r.field(&mut t_ix),
            "t_o" => r.field(&mut t_o),
            "t_cpu" => r.field(&mut t_cpu),
            _ => r.skip(),
        })?;
        Ok(QueryTimes {
            t_ix: required(t_ix, "t_ix")?,
            t_o: required(t_o, "t_o")?,
            t_cpu: required(t_cpu, "t_cpu")?,
        })
    }
}

/// Statistics of one insert (load) operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertStats {
    /// Tiles created.
    pub tiles_created: u64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Wall-clock insert time in nanoseconds.
    pub elapsed_ns: u64,
}

impl ToJson for InsertStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tiles_created", self.tiles_created.to_json()),
            ("bytes_written", self.bytes_written.to_json()),
            ("pages_written", self.pages_written.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
        ])
    }
}

impl FromJson for InsertStats {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut tiles_created, mut bytes_written, mut pages_written, mut elapsed_ns) =
            (None, None, None, None);
        r.object(|r, key| match key {
            "tiles_created" => r.field(&mut tiles_created),
            "bytes_written" => r.field(&mut bytes_written),
            "pages_written" => r.field(&mut pages_written),
            "elapsed_ns" => r.field(&mut elapsed_ns),
            _ => r.skip(),
        })?;
        Ok(InsertStats {
            tiles_created: required(tiles_created, "tiles_created")?,
            bytes_written: required(bytes_written, "bytes_written")?,
            pages_written: required(pages_written, "pages_written")?,
            elapsed_ns: required(elapsed_ns, "elapsed_ns")?,
        })
    }
}

/// Statistics of a re-tiling operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetileStats {
    /// Tiles before re-tiling.
    pub tiles_before: u64,
    /// Tiles after re-tiling.
    pub tiles_after: u64,
    /// Payload bytes rewritten.
    pub bytes_rewritten: u64,
    /// Wall-clock re-tiling time in nanoseconds.
    pub elapsed_ns: u64,
}

impl ToJson for RetileStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tiles_before", self.tiles_before.to_json()),
            ("tiles_after", self.tiles_after.to_json()),
            ("bytes_rewritten", self.bytes_rewritten.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
        ])
    }
}

impl FromJson for RetileStats {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut tiles_before, mut tiles_after, mut bytes_rewritten, mut elapsed_ns) =
            (None, None, None, None);
        r.object(|r, key| match key {
            "tiles_before" => r.field(&mut tiles_before),
            "tiles_after" => r.field(&mut tiles_after),
            "bytes_rewritten" => r.field(&mut bytes_rewritten),
            "elapsed_ns" => r.field(&mut elapsed_ns),
            _ => r.skip(),
        })?;
        Ok(RetileStats {
            tiles_before: required(tiles_before, "tiles_before")?,
            tiles_after: required(tiles_after, "tiles_after")?,
            bytes_rewritten: required(bytes_rewritten, "bytes_rewritten")?,
            elapsed_ns: required(elapsed_ns, "elapsed_ns")?,
        })
    }
}

/// Statistics of one paced defragmentation step
/// ([`crate::Database::defrag_step`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefragStep {
    /// Tiles rewritten onto contiguous pages in this step.
    pub tiles_moved: u64,
    /// Payload bytes rewritten in this step.
    pub bytes_moved: u64,
    /// Tiles after this step's rewrite window that are not yet known to sit
    /// in curve order; 0 means the object is fully defragmented.
    pub tiles_remaining: u64,
    /// Wall-clock time of the step in nanoseconds.
    pub elapsed_ns: u64,
}

impl ToJson for DefragStep {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tiles_moved", self.tiles_moved.to_json()),
            ("bytes_moved", self.bytes_moved.to_json()),
            ("tiles_remaining", self.tiles_remaining.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
        ])
    }
}

impl FromJson for DefragStep {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut tiles_moved, mut bytes_moved, mut tiles_remaining, mut elapsed_ns) =
            (None, None, None, None);
        r.object(|r, key| match key {
            "tiles_moved" => r.field(&mut tiles_moved),
            "bytes_moved" => r.field(&mut bytes_moved),
            "tiles_remaining" => r.field(&mut tiles_remaining),
            "elapsed_ns" => r.field(&mut elapsed_ns),
            _ => r.skip(),
        })?;
        Ok(DefragStep {
            tiles_moved: required(tiles_moved, "tiles_moved")?,
            bytes_moved: required(bytes_moved, "bytes_moved")?,
            tiles_remaining: required(tiles_remaining, "tiles_remaining")?,
            elapsed_ns: required(elapsed_ns, "elapsed_ns")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_compose() {
        let stats = QueryStats {
            index_nodes: 10,
            tiles_read: 2,
            tiles_pruned: 0,
            io: IoSnapshot {
                blobs_read: 2,
                pages_read: 8,
                bytes_read: 60_000,
                ..IoSnapshot::default()
            },
            cells_processed: 15_000,
            cells_copied: 13_000,
            cells_defaulted: 0,
            elapsed_ns: 0,
        };
        let m = CostModel::classic_disk();
        let t = stats.times(&m);
        assert!(t.t_o > 0.0 && t.t_ix > 0.0 && t.t_cpu > 0.0);
        assert!((t.total_access() - (t.t_o + t.t_ix)).abs() < 1e-15);
        assert!((t.total_cpu() - (t.t_o + t.t_ix + t.t_cpu)).abs() < 1e-15);
    }

    #[test]
    fn query_times_display() {
        let t = QueryTimes {
            t_ix: 0.001,
            t_o: 0.25,
            t_cpu: 0.05,
        };
        let s = t.to_string();
        assert!(s.contains("t_o=0.2500s"), "{s}");
        assert!(s.contains("total 0.3010s"), "{s}");
    }

    #[test]
    fn defaulted_cells_cost_cpu() {
        let m = CostModel::classic_disk();
        let a = QueryStats {
            cells_defaulted: 1_000_000,
            ..QueryStats::default()
        };
        assert!(a.times(&m).t_cpu > 0.0);
    }

    #[test]
    fn more_copied_than_processed_does_not_underflow() {
        // Regression: `cells_processed - cells_copied` used to panic in
        // debug builds when a caller reported more copied than processed.
        let stats = QueryStats {
            cells_processed: 10,
            cells_copied: 25,
            ..QueryStats::default()
        };
        let t = stats.times(&CostModel::classic_disk());
        assert!(t.t_cpu >= 0.0 && t.t_cpu.is_finite());
    }

    #[test]
    fn query_stats_json_round_trip() {
        let stats = QueryStats {
            index_nodes: 7,
            tiles_read: 3,
            tiles_pruned: 5,
            io: IoSnapshot {
                blobs_read: 3,
                pages_read: 12,
                bytes_read: 90_000,
                ..IoSnapshot::default()
            },
            cells_processed: 500,
            cells_copied: 400,
            cells_defaulted: 10,
            elapsed_ns: 123_456,
        };
        let json = tilestore_testkit::json::to_string(&stats);
        let back: QueryStats = tilestore_testkit::json::from_str(&json).unwrap();
        assert_eq!(back, stats, "{json}");
    }

    #[test]
    fn query_stats_without_pruning_field_still_parse() {
        // A stats record serialized before `tiles_pruned` existed.
        let json = QueryStats::default().to_json();
        let Json::Object(mut fields) = json else {
            panic!("stats serialize as an object")
        };
        fields.retain(|(k, _)| k != "tiles_pruned");
        let back = QueryStats::from_json(&Json::Object(fields)).unwrap();
        assert_eq!(back.tiles_pruned, 0);
    }

    #[test]
    fn merge_adds_every_counter_saturating() {
        let mut a = QueryStats {
            index_nodes: 1,
            tiles_read: 2,
            tiles_pruned: u64::MAX,
            io: IoSnapshot {
                pages_read: 4,
                bytes_read: 100,
                cache_hits: 1,
                ..IoSnapshot::default()
            },
            cells_processed: 10,
            cells_copied: 8,
            cells_defaulted: 1,
            elapsed_ns: 5,
        };
        let b = QueryStats {
            index_nodes: 2,
            tiles_read: 3,
            tiles_pruned: 7,
            io: IoSnapshot {
                pages_read: 1,
                pages_written: 2,
                blobs_read: 3,
                blobs_written: 4,
                bytes_read: 5,
                bytes_written: 6,
                cache_hits: 7,
                cache_misses: 8,
                runs_coalesced: 9,
                pages_read_run: 10,
                readahead_bytes: 11,
            },
            cells_processed: 20,
            cells_copied: 16,
            cells_defaulted: 2,
            elapsed_ns: 9,
        };
        a.merge(&b);
        assert_eq!(a.index_nodes, 3);
        assert_eq!(a.tiles_read, 5);
        assert_eq!(a.tiles_pruned, u64::MAX, "saturates instead of wrapping");
        assert_eq!(a.cells_processed, 30);
        assert_eq!(a.cells_copied, 24);
        assert_eq!(a.cells_defaulted, 3);
        assert_eq!(a.elapsed_ns, 14);
        assert_eq!(a.io.pages_read, 5);
        assert_eq!(a.io.pages_written, 2);
        assert_eq!(a.io.blobs_read, 3);
        assert_eq!(a.io.blobs_written, 4);
        assert_eq!(a.io.bytes_read, 105);
        assert_eq!(a.io.bytes_written, 6);
        assert_eq!(a.io.cache_hits, 8);
        assert_eq!(a.io.cache_misses, 8);
        assert_eq!(a.io.runs_coalesced, 9);
        assert_eq!(a.io.pages_read_run, 10);
        assert_eq!(a.io.readahead_bytes, 11);
    }

    #[test]
    fn query_times_json_round_trip() {
        let t = QueryTimes {
            t_ix: 0.001,
            t_o: 0.25,
            t_cpu: 0.055,
        };
        let json = tilestore_testkit::json::to_string(&t);
        let back: QueryTimes = tilestore_testkit::json::from_str(&json).unwrap();
        assert!((back.t_ix - t.t_ix).abs() < 1e-12);
        assert!((back.t_o - t.t_o).abs() < 1e-12);
        assert!((back.t_cpu - t.t_cpu).abs() < 1e-12);
    }

    #[test]
    fn insert_stats_json_round_trip() {
        let stats = InsertStats {
            tiles_created: 16,
            bytes_written: 1 << 20,
            pages_written: 130,
            elapsed_ns: 42,
        };
        let json = tilestore_testkit::json::to_string(&stats);
        let back: InsertStats = tilestore_testkit::json::from_str(&json).unwrap();
        assert_eq!(back, stats, "{json}");
    }

    #[test]
    fn retile_stats_json_round_trip() {
        let stats = RetileStats {
            tiles_before: 64,
            tiles_after: 9,
            bytes_rewritten: 2 << 20,
            elapsed_ns: 7_000_000,
        };
        let json = tilestore_testkit::json::to_string(&stats);
        let back: RetileStats = tilestore_testkit::json::from_str(&json).unwrap();
        assert_eq!(back, stats, "{json}");
    }
}
