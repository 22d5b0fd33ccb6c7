//! Streaming aggregation over tile parts (§5.1 access type (c)).
//!
//! Sub-aggregations — "to perform a subaggregation" over dicing/slicing
//! selections — are the access type that motivates directional tiling.
//! [`Database::aggregate`] computes them tile-at-a-time: each intersected
//! tile is fetched once and its clipped cells folded into the accumulator,
//! without ever materializing the full result array. Uncovered areas
//! contribute the type's default value.

use std::time::Instant;

use tilestore_geometry::{Domain, RunIter};
use tilestore_storage::PageStore;

use crate::celltype::CellType;
use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::explain::TileDecision;
use crate::mdd::MddObject;
use crate::predicate::CellPredicate;
use crate::stats::QueryStats;
use crate::synopsis::TileSynopsis;

/// The aggregation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Sum of all cells (numeric cell types only).
    Sum,
    /// Arithmetic mean (numeric cell types only).
    Avg,
    /// Minimum cell value (numeric cell types only).
    Min,
    /// Maximum cell value (numeric cell types only).
    Max,
    /// Number of cells different from the type's default value (any cell
    /// type).
    CountNonDefault,
    /// Whether any cell differs from the default (any cell type).
    SomeNonDefault,
    /// Whether every cell differs from the default (any cell type).
    AllNonDefault,
}

impl AggKind {
    /// Stable short name used in EXPLAIN reports and diagnostics.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AggKind::Sum => "sum",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::CountNonDefault => "count",
            AggKind::SomeNonDefault => "some",
            AggKind::AllNonDefault => "all",
        }
    }
}

/// Whether an aggregation of `kind` over a fully-contained tile can be
/// answered from its synopsis alone (the planner's short-circuit rule):
/// [`Accumulator::feed_synopsis`] then computes the same result as
/// streaming the tile cell by cell. Sums stream unconditionally (their
/// value depends on fold order for floats), extrema need the numeric half
/// of the synopsis.
pub(crate) fn kind_accepts_synopsis(kind: AggKind, syn: &TileSynopsis) -> bool {
    match kind {
        AggKind::Sum | AggKind::Avg => false,
        AggKind::Min | AggKind::Max => syn.is_numeric(),
        AggKind::CountNonDefault | AggKind::SomeNonDefault | AggKind::AllNonDefault => true,
    }
}

/// Result of an aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// A numeric result (`Sum`, `Avg`, `Min`, `Max`).
    Number(f64),
    /// A count (`CountNonDefault`).
    Count(u64),
    /// A boolean (`SomeNonDefault`, `AllNonDefault`).
    Bool(bool),
}

impl std::fmt::Display for AggValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggValue::Number(v) => write!(f, "{v}"),
            AggValue::Count(v) => write!(f, "{v}"),
            AggValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl AggValue {
    /// The numeric value, if this is a [`AggValue::Number`].
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AggValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The count, if this is a [`AggValue::Count`].
    #[must_use]
    pub fn as_count(&self) -> Option<u64> {
        match self {
            AggValue::Count(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean, if this is a [`AggValue::Bool`].
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AggValue::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

/// Decodes one cell as `f64` according to the cell type's name.
pub(crate) fn decode_numeric(cell: &CellType, bytes: &[u8]) -> Result<f64> {
    let v = match cell.name.as_str() {
        "u8" => f64::from(bytes[0]),
        "i8" => f64::from(bytes[0] as i8),
        "u16" => f64::from(u16::from_le_bytes([bytes[0], bytes[1]])),
        "i16" => f64::from(i16::from_le_bytes([bytes[0], bytes[1]])),
        "u32" => f64::from(u32::from_le_bytes(bytes.try_into().expect("4-byte cell"))),
        "i32" => f64::from(i32::from_le_bytes(bytes.try_into().expect("4-byte cell"))),
        "u64" => u64::from_le_bytes(bytes.try_into().expect("8-byte cell")) as f64,
        "i64" => i64::from_le_bytes(bytes.try_into().expect("8-byte cell")) as f64,
        "f32" => f64::from(f32::from_le_bytes(bytes.try_into().expect("4-byte cell"))),
        "f64" => f64::from_le_bytes(bytes.try_into().expect("8-byte cell")),
        other => {
            return Err(EngineError::BadAccessRegion(format!(
                "cell type {other:?} is not numeric; only count/some/all aggregate it"
            )))
        }
    };
    Ok(v)
}

/// Streaming accumulator.
#[derive(Debug)]
struct Accumulator {
    kind: AggKind,
    sum: f64,
    min: f64,
    max: f64,
    non_default: u64,
    cells: u64,
}

impl Accumulator {
    fn new(kind: AggKind) -> Self {
        Accumulator {
            kind,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_default: 0,
            cells: 0,
        }
    }

    fn needs_numeric(&self) -> bool {
        matches!(
            self.kind,
            AggKind::Sum | AggKind::Avg | AggKind::Min | AggKind::Max
        )
    }

    fn feed(&mut self, cell_type: &CellType, bytes: &[u8]) -> Result<()> {
        self.cells += 1;
        if bytes != cell_type.default.as_slice() {
            self.non_default += 1;
        }
        if self.needs_numeric() {
            let v = decode_numeric(cell_type, bytes)?;
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        Ok(())
    }

    /// Folds a whole tile's synopsis into the accumulator without touching
    /// the payload — the short-circuit for min/max/count/some/all over
    /// tiles fully contained in the queried region. Callers must ensure
    /// the synopsis is numeric when the kind needs extrema.
    fn feed_synopsis(&mut self, syn: &TileSynopsis) {
        self.cells += syn.cells();
        self.non_default += syn.non_default();
        if self.needs_numeric() {
            if let (Some(min), Some(max)) = (syn.min(), syn.max()) {
                self.min = self.min.min(min);
                self.max = self.max.max(max);
            }
        }
    }

    /// Folds in a candidate tile the plan does not fetch: a condensed tile
    /// through its synopsis, a pruned one as all-default over its clip.
    fn feed_skipped(
        &mut self,
        meta: &MddObject,
        region: &Domain,
        pos: u64,
        decision: TileDecision,
    ) -> Result<()> {
        let tile = &meta.tiles[pos as usize];
        if decision == TileDecision::SynopsisCondense {
            self.feed_synopsis(
                tile.synopsis
                    .as_ref()
                    .expect("condensed tiles have a synopsis"),
            );
            return Ok(());
        }
        let clip = tile
            .domain
            .intersection(region)
            .expect("index returned an intersecting tile");
        self.feed_default(&meta.mdd_type.cell, clip.cells())
    }

    /// Feeds `count` copies of the default value (uncovered areas).
    fn feed_default(&mut self, cell_type: &CellType, count: u64) -> Result<()> {
        if count == 0 {
            return Ok(());
        }
        self.cells += count;
        if self.needs_numeric() {
            let v = decode_numeric(cell_type, &cell_type.default)?;
            self.sum += v * count as f64;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        Ok(())
    }

    fn finish(self) -> AggValue {
        match self.kind {
            AggKind::Sum => AggValue::Number(self.sum),
            AggKind::Avg => AggValue::Number(if self.cells == 0 {
                f64::NAN
            } else {
                self.sum / self.cells as f64
            }),
            AggKind::Min => AggValue::Number(self.min),
            AggKind::Max => AggValue::Number(self.max),
            AggKind::CountNonDefault => AggValue::Count(self.non_default),
            AggKind::SomeNonDefault => AggValue::Bool(self.non_default > 0),
            AggKind::AllNonDefault => AggValue::Bool(self.non_default == self.cells),
        }
    }
}

/// Aggregates a materialized array in memory (used by the query layer for
/// condensers over induced expressions, where streaming over stored tiles
/// is not possible).
///
/// # Errors
/// Numeric decoding errors for non-numeric cell types under numeric kinds.
pub fn aggregate_array(
    cell_type: &CellType,
    array: &crate::array::Array,
    kind: AggKind,
) -> Result<AggValue> {
    let mut acc = Accumulator::new(kind);
    for chunk in array.bytes().chunks_exact(cell_type.size.max(1)) {
        acc.feed(cell_type, chunk)?;
    }
    Ok(acc.finish())
}

impl<S: PageStore> crate::snapshot::Snapshot<S> {
    /// Computes an aggregation over `region`, streaming tile by tile
    /// against this snapshot's catalog.
    ///
    /// # Errors
    /// [`EngineError::UnknownObject`], domain validation errors, numeric
    /// decoding errors for non-numeric cell types under numeric kinds.
    pub fn aggregate(
        &self,
        name: &str,
        region: &Domain,
        kind: AggKind,
    ) -> Result<(AggValue, QueryStats)> {
        self.aggregate_where(name, region, kind, None)
    }

    /// Computes an aggregation with an optional cell-value predicate:
    /// cells failing `cell <op> literal` contribute the type's default
    /// value, matching the masked-select semantics of
    /// [`crate::Snapshot::range_query_where`]. Tiles whose synopsis
    /// proves they cannot match are folded in as all-default without
    /// fetching their blobs; without a predicate, min/max/count/some/all
    /// over tiles fully contained in `region` short-circuit on the
    /// synopsis alone. Both count in [`QueryStats::tiles_pruned`].
    ///
    /// # Errors
    /// The errors of [`crate::Snapshot::aggregate`]; a predicate over a
    /// non-numeric cell type is rejected up front.
    pub fn aggregate_where(
        &self,
        name: &str,
        region: &Domain,
        kind: AggKind,
        predicate: Option<&CellPredicate>,
    ) -> Result<(AggValue, QueryStats)> {
        let _req = self.request_scope();
        let _span = tilestore_obs::tracer().span_with("aggregate", || {
            format!("object={name} region={region} kind={}", kind.as_str())
        });
        let started = Instant::now();
        let plan = self.plan(name, region, predicate, Some(kind))?;
        self.catalog.entry(name)?.log.record(region);
        let meta = &plan.object;
        let cell_type = &meta.mdd_type.cell;
        let cell_size = cell_type.size;
        let mut acc = Accumulator::new(kind);
        let mut stats = plan.stats();
        // The plan reads tiles in index order; the candidates it skips are
        // folded in between, so the accumulator sees every tile in index
        // order.
        let mut candidates = plan.tiles.iter();
        stats.io = plan.fetch(&self.blobs, |pos, bytes| {
            for &(skipped, decision) in candidates.by_ref() {
                if skipped == pos {
                    break;
                }
                acc.feed_skipped(meta, region, skipped, decision)?;
            }
            let tile = &meta.tiles[pos as usize];
            let clip = tile
                .domain
                .intersection(region)
                .expect("index returned an intersecting tile");
            for run in RunIter::new(&tile.domain, &clip)? {
                let start = run.outer_offset as usize * cell_size;
                for k in 0..run.len as usize {
                    let at = start + k * cell_size;
                    let cell = &bytes[at..at + cell_size];
                    match predicate {
                        Some(p) if !p.matches(decode_numeric(cell_type, cell)?) => {
                            acc.feed(cell_type, &cell_type.default)?;
                        }
                        _ => acc.feed(cell_type, cell)?,
                    }
                }
            }
            stats.cells_processed += tile.domain.cells();
            stats.cells_copied += clip.cells();
            Ok(())
        })?;
        for &(pos, decision) in candidates {
            acc.feed_skipped(meta, region, pos, decision)?;
        }
        // Uncovered cells contribute defaults.
        let covered: u64 = acc.cells;
        let total = region.cells();
        acc.feed_default(cell_type, total - covered)?;
        stats.cells_defaulted = total - covered;
        crate::snapshot::record_query(&mut stats, started);
        Ok((acc.finish(), stats))
    }
}

impl<S: PageStore> Database<S> {
    /// Computes an aggregation over `region` against a fresh snapshot.
    /// Shorthand for `begin_read().aggregate(..)`.
    ///
    /// # Errors
    /// See [`crate::snapshot::Snapshot::aggregate`].
    pub fn aggregate(
        &self,
        name: &str,
        region: &Domain,
        kind: AggKind,
    ) -> Result<(AggValue, QueryStats)> {
        self.begin_read().aggregate(name, region, kind)
    }

    /// Computes a predicate-masked aggregation against a fresh snapshot.
    /// Shorthand for `begin_read().aggregate_where(..)`.
    ///
    /// # Errors
    /// See [`crate::snapshot::Snapshot::aggregate_where`].
    pub fn aggregate_where(
        &self,
        name: &str,
        region: &Domain,
        kind: AggKind,
        predicate: Option<&CellPredicate>,
    ) -> Result<(AggValue, QueryStats)> {
        self.begin_read()
            .aggregate_where(name, region, kind, predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::mdd::MddType;
    use tilestore_geometry::DefDomain;
    use tilestore_tiling::{AlignedTiling, Scheme};

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    fn setup() -> Database<tilestore_storage::MemPageStore> {
        let db = Database::in_memory().unwrap();
        db.create_object(
            "grid",
            MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        // 20x20 grid of value = x (row index).
        db.insert(
            "grid",
            &Array::from_fn(d("[0:19,0:19]"), |p| p[0] as u32).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn sum_avg_min_max_over_subregion() {
        let db = setup();
        let region = d("[5:9,0:19]"); // rows 5..=9, 20 cols each
        let (sum, stats) = db.aggregate("grid", &region, AggKind::Sum).unwrap();
        assert_eq!(sum.as_number().unwrap(), ((5 + 6 + 7 + 8 + 9) * 20) as f64);
        assert!(stats.tiles_read >= 1);
        let (avg, _) = db.aggregate("grid", &region, AggKind::Avg).unwrap();
        assert!((avg.as_number().unwrap() - 7.0).abs() < 1e-12);
        let (min, _) = db.aggregate("grid", &region, AggKind::Min).unwrap();
        assert_eq!(min.as_number().unwrap(), 5.0);
        let (max, _) = db.aggregate("grid", &region, AggKind::Max).unwrap();
        assert_eq!(max.as_number().unwrap(), 9.0);
    }

    #[test]
    fn aggregates_are_timed_and_counted_as_queries() {
        let db = setup();
        // The counter is process-global and other tests query concurrently,
        // so only its growth is checked.
        let before = tilestore_obs::hot().queries.get();
        let (_, stats) = db
            .aggregate("grid", &d("[5:9,0:19]"), AggKind::Sum)
            .unwrap();
        assert!(stats.elapsed_ns > 0, "{stats:?}");
        assert!(tilestore_obs::hot().queries.get() > before);
    }

    #[test]
    fn counting_kinds_work_for_any_cell_type() {
        let db = setup();
        // Row 0 is all zeros (= default); rows 1..5 are non-default.
        let (count, _) = db
            .aggregate("grid", &d("[0:4,0:19]"), AggKind::CountNonDefault)
            .unwrap();
        assert_eq!(count.as_count().unwrap(), 4 * 20);
        let (some, _) = db
            .aggregate("grid", &d("[0:0,0:19]"), AggKind::SomeNonDefault)
            .unwrap();
        assert!(!some.as_bool().unwrap());
        let (all, _) = db
            .aggregate("grid", &d("[1:4,0:19]"), AggKind::AllNonDefault)
            .unwrap();
        assert!(all.as_bool().unwrap());
    }

    #[test]
    fn uncovered_areas_contribute_defaults() {
        let db = setup();
        // Query beyond coverage: the extra rows are default (0).
        let region = d("[15:24,0:19]");
        let (sum, stats) = db.aggregate("grid", &region, AggKind::Sum).unwrap();
        let expected: u32 = (15..=19).map(|x| x * 20).sum();
        assert_eq!(sum.as_number().unwrap(), f64::from(expected));
        assert_eq!(stats.cells_defaulted, 5 * 20);
        let (avg, _) = db.aggregate("grid", &region, AggKind::Avg).unwrap();
        assert!((avg.as_number().unwrap() - f64::from(expected) / 200.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_matches_materialized_query() {
        let db = setup();
        let region = d("[3:17,2:18]");
        let arr = db.range_query("grid", &region).unwrap().array;
        let brute: f64 = arr
            .to_cells::<u32>()
            .unwrap()
            .iter()
            .map(|&c| f64::from(c))
            .sum();
        let (sum, _) = db.aggregate("grid", &region, AggKind::Sum).unwrap();
        assert_eq!(sum.as_number().unwrap(), brute);
    }

    #[test]
    fn numeric_kinds_reject_rgb() {
        use crate::celltype::Rgb;
        let db = Database::in_memory().unwrap();
        db.create_object(
            "img",
            MddType::new(CellType::of::<Rgb>(), DefDomain::unlimited(2).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        db.insert(
            "img",
            &Array::from_fn(d("[0:3,0:3]"), |_| Rgb::new(1, 2, 3)).unwrap(),
        )
        .unwrap();
        assert!(db.aggregate("img", &d("[0:3,0:3]"), AggKind::Sum).is_err());
        let (count, _) = db
            .aggregate("img", &d("[0:3,0:3]"), AggKind::CountNonDefault)
            .unwrap();
        assert_eq!(count.as_count().unwrap(), 16);
    }

    #[test]
    fn aggregate_array_matches_streaming() {
        let db = setup();
        let region = d("[2:9,3:12]");
        let arr = db.range_query("grid", &region).unwrap().array;
        let cell = CellType::of::<u32>();
        for kind in [AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max] {
            let (streamed, _) = db.aggregate("grid", &region, kind).unwrap();
            let in_memory = aggregate_array(&cell, &arr, kind).unwrap();
            assert_eq!(streamed, in_memory, "{kind:?}");
        }
        let (count_s, _) = db
            .aggregate("grid", &region, AggKind::CountNonDefault)
            .unwrap();
        let count_m = aggregate_array(&cell, &arr, AggKind::CountNonDefault).unwrap();
        assert_eq!(count_s, count_m);
    }

    #[test]
    fn empty_region_average_is_nan_free_path() {
        // A 1-cell region exercises the smallest path.
        let db = setup();
        let (avg, _) = db.aggregate("grid", &d("[7:7,7:7]"), AggKind::Avg).unwrap();
        assert_eq!(avg.as_number().unwrap(), 7.0);
    }
}
