//! EXPLAIN: the planner's per-tile decisions as an inspectable report.
//!
//! [`Snapshot::explain_range`] and [`Snapshot::explain_aggregate`] walk the
//! same candidate set, in the same order, calling the same pruning test
//! (`CellPredicate::prune`) and read batching (`read_batches`) as the
//! executors in `snapshot.rs` / `aggregate.rs` — but instead of fetching or
//! skipping tiles they record *which* rule fired for each one. The report
//! therefore reconciles exactly with the executor's counters: `fetched`
//! equals `QueryStats::tiles_read` and `pruned` equals
//! `QueryStats::tiles_pruned` for the same statement at the same epoch
//! (a property test in `tests/properties.rs` pins this).

use tilestore_geometry::Domain;
use tilestore_storage::PageStore;

use crate::aggregate::{decode_numeric, kind_accepts_synopsis, AggKind};
use crate::error::{EngineError, Result};
use crate::mdd::MddObject;
use crate::predicate::{CellPredicate, Prune, PruneRule};
use crate::snapshot::{folds_into, read_batches, Snapshot};
use tilestore_testkit::{Json, ToJson};

/// What the planner decided to do with one candidate tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileDecision {
    /// The tile's blob is fetched and its cells processed.
    Fetched,
    /// The tile's blob is fetched, and its pages are physically adjacent
    /// to the previously fetched tile's, so the batch read path folds it
    /// into the predecessor's positioned read instead of seeking.
    FetchCoalesced,
    /// Skipped: the bitmap index's per-tile mask is disjoint from the
    /// predicate's candidate bins.
    BitmapPrune,
    /// Skipped: the tile synopsis proves no cell satisfies the predicate.
    SynopsisPrune,
    /// Not fetched: the condenser's contribution for the (fully
    /// contained) tile is computed from the synopsis alone.
    SynopsisCondense,
}

impl TileDecision {
    /// Stable short name used in the JSON report.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TileDecision::Fetched => "fetched",
            TileDecision::FetchCoalesced => "fetch-coalesced",
            TileDecision::BitmapPrune => "bitmap-prune",
            TileDecision::SynopsisPrune => "synopsis-prune",
            TileDecision::SynopsisCondense => "synopsis-condense",
        }
    }

    /// Whether this decision counts in `QueryStats::tiles_pruned` (every
    /// decision that avoids fetching the blob does; a coalesced fetch is
    /// still a fetch).
    #[must_use]
    pub fn is_pruned(self) -> bool {
        !matches!(self, TileDecision::Fetched | TileDecision::FetchCoalesced)
    }
}

/// One candidate tile's entry in an EXPLAIN report.
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// Position of the tile in the object's tile list.
    pub tile: u64,
    /// The tile's domain in textual form.
    pub domain: String,
    /// The decision taken.
    pub decision: TileDecision,
    /// The specific rule that fired (or why none could).
    pub rule: String,
}

impl ToJson for TilePlan {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tile", self.tile.to_json()),
            ("domain", Json::Str(self.domain.clone())),
            ("decision", Json::Str(self.decision.as_str().to_string())),
            ("rule", Json::Str(self.rule.clone())),
        ])
    }
}

/// The planner report for one statement: every candidate tile the index
/// returned, with the decision the executor will take for it.
#[derive(Debug, Clone)]
pub struct ExplainPlan {
    /// Object the statement reads.
    pub object: String,
    /// The intersected query region.
    pub region: String,
    /// The value predicate, if any (`"> 500"` form).
    pub predicate: Option<String>,
    /// The condenser kind, for aggregate statements.
    pub condenser: Option<&'static str>,
    /// Epoch of the snapshot the plan was built against.
    pub epoch: u64,
    /// Index nodes visited to find the candidates.
    pub index_nodes: u64,
    /// Per-tile decisions, in executor order.
    pub tiles: Vec<TilePlan>,
}

impl ExplainPlan {
    /// Number of tiles whose blobs will be fetched (= `tiles_read`),
    /// whether by their own positioned read or coalesced into a
    /// neighbour's.
    #[must_use]
    pub fn fetched(&self) -> u64 {
        self.tiles
            .iter()
            .filter(|t| !t.decision.is_pruned())
            .count() as u64
    }

    /// Number of tiles answered without fetching (= `tiles_pruned`).
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.tiles.len() as u64 - self.fetched()
    }
}

impl ToJson for ExplainPlan {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("object", Json::Str(self.object.clone())),
            ("region", Json::Str(self.region.clone())),
        ];
        if let Some(p) = &self.predicate {
            fields.push(("predicate", Json::Str(p.clone())));
        }
        if let Some(c) = self.condenser {
            fields.push(("condenser", Json::Str(c.to_string())));
        }
        fields.push(("epoch", self.epoch.to_json()));
        fields.push(("index_nodes", self.index_nodes.to_json()));
        fields.push(("candidates", (self.tiles.len() as u64).to_json()));
        fields.push(("fetched", self.fetched().to_json()));
        fields.push(("pruned", self.pruned().to_json()));
        fields.push((
            "tiles",
            Json::Array(self.tiles.iter().map(ToJson::to_json).collect()),
        ));
        Json::obj(fields)
    }
}

/// Upgrades `Fetched` decisions to `FetchCoalesced` where the range read
/// path folds the tile into its predecessor's positioned read: same batch
/// of [`read_batches`], pages directly following ([`folds_into`]). After a
/// defrag, curve-adjacent tiles report `fetch-coalesced` here.
fn mark_coalesced<S: PageStore>(
    blobs: &tilestore_storage::BlobStore<S>,
    meta: &MddObject,
    tiles: &mut [TilePlan],
) {
    let mut fetched: Vec<(usize, tilestore_storage::BlobPlacement)> = tiles
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.decision.is_pruned())
        .filter_map(|(i, t)| {
            blobs
                .blob_placement(meta.tiles[t.tile as usize].blob)
                .ok()
                .map(|p| (i, p))
        })
        .collect();
    for batch in read_batches(&mut fetched, blobs.page_store().page_size()) {
        for k in batch.start + 1..batch.end {
            if folds_into(&fetched[k - 1].1, &fetched[k].1) {
                let i = fetched[k].0;
                tiles[i].decision = TileDecision::FetchCoalesced;
                tiles[i].rule =
                    "pages adjacent to previous fetch; folded into its read".to_string();
            }
        }
    }
}

/// Renders the executors' pruning decision for one candidate tile.
fn pruning(meta: &MddObject, pos: usize, p: &CellPredicate) -> Option<(TileDecision, String)> {
    let detail = match p.prune(meta, pos)? {
        Prune::Bitmap => {
            return Some((
                TileDecision::BitmapPrune,
                "tile bitmap ∩ candidate bins = ∅".to_string(),
            ))
        }
        Prune::Synopsis(PruneRule::EmptyTile) => "synopsis records zero cells".to_string(),
        Prune::Synopsis(PruneRule::Extrema) => {
            let syn = meta.tiles[pos]
                .synopsis
                .as_ref()
                .expect("rule implies synopsis");
            format!(
                "extrema [{}, {}] vs `{p}`: {}",
                syn.min().unwrap_or(f64::NAN),
                syn.max().unwrap_or(f64::NAN),
                p.extrema_rule()
            )
        }
        Prune::Synopsis(PruneRule::SynopsisBins) => {
            "synopsis bins ∩ candidate bins = ∅".to_string()
        }
    };
    Some((TileDecision::SynopsisPrune, detail))
}

impl<S: PageStore> Snapshot<S> {
    /// Validates object/predicate/region exactly like the executors do and
    /// returns the candidate tile positions.
    fn explain_candidates(
        &self,
        name: &str,
        region: &Domain,
        predicate: Option<&CellPredicate>,
    ) -> Result<(std::sync::Arc<MddObject>, Vec<u64>, u64)> {
        let entry = self.catalog.entry(name)?;
        if predicate.is_some() {
            decode_numeric(&entry.meta.mdd_type.cell, &entry.meta.mdd_type.cell.default)?;
        }
        if !entry.meta.mdd_type.definition.admits(region) {
            return Err(EngineError::OutsideDefinitionDomain {
                domain: region.to_string(),
                definition: entry.meta.mdd_type.definition.to_string(),
            });
        }
        let search = entry.meta.index.search(region);
        Ok((
            std::sync::Arc::clone(&entry.meta),
            search.hits,
            search.nodes_visited,
        ))
    }

    /// Plans a (masked-select) range query without executing it: one entry
    /// per candidate tile with the decision `range_query_where` will take.
    /// EXPLAIN performs no blob I/O and — unlike execution — does not feed
    /// the access log, so planning a statement never skews re-tiling
    /// statistics.
    ///
    /// # Errors
    /// The validation errors of [`Snapshot::range_query_where`].
    pub fn explain_range(
        &self,
        name: &str,
        region: &Domain,
        predicate: Option<&CellPredicate>,
    ) -> Result<ExplainPlan> {
        let (meta, hits, index_nodes) = self.explain_candidates(name, region, predicate)?;
        let mut tiles = Vec::with_capacity(hits.len());
        for &pos in &hits {
            let tile = &meta.tiles[pos as usize];
            let (decision, rule) = match predicate {
                Some(p) => pruning(&meta, pos as usize, p).unwrap_or((
                    TileDecision::Fetched,
                    "synopsis cannot disprove a match".to_string(),
                )),
                None => (TileDecision::Fetched, "no predicate".to_string()),
            };
            tiles.push(TilePlan {
                tile: pos,
                domain: tile.domain.to_string(),
                decision,
                rule,
            });
        }
        mark_coalesced(&self.blobs, &meta, &mut tiles);
        Ok(ExplainPlan {
            object: name.to_string(),
            region: region.to_string(),
            predicate: predicate.map(ToString::to_string),
            condenser: None,
            epoch: self.epoch(),
            index_nodes,
            tiles,
        })
    }

    /// Plans a condenser without executing it: one entry per candidate
    /// tile with the decision `aggregate_where` will take, including the
    /// synopsis short-circuit for fully-contained tiles.
    ///
    /// # Errors
    /// The validation errors of [`Snapshot::aggregate_where`].
    pub fn explain_aggregate(
        &self,
        name: &str,
        region: &Domain,
        kind: AggKind,
        predicate: Option<&CellPredicate>,
    ) -> Result<ExplainPlan> {
        let (meta, hits, index_nodes) = self.explain_candidates(name, region, predicate)?;
        let mut tiles = Vec::with_capacity(hits.len());
        for &pos in &hits {
            let tile = &meta.tiles[pos as usize];
            let (decision, rule) = if let Some(p) = predicate {
                pruning(&meta, pos as usize, p).unwrap_or((
                    TileDecision::Fetched,
                    "synopsis cannot disprove a match".to_string(),
                ))
            } else if region.contains_domain(&tile.domain) {
                match &tile.synopsis {
                    Some(syn) if kind_accepts_synopsis(kind, syn) => (
                        TileDecision::SynopsisCondense,
                        format!("{} answered from synopsis", kind.as_str()),
                    ),
                    Some(_) => (
                        TileDecision::Fetched,
                        format!("{} must stream cells", kind.as_str()),
                    ),
                    None => (TileDecision::Fetched, "no synopsis".to_string()),
                }
            } else {
                (
                    TileDecision::Fetched,
                    "tile partially overlaps region".to_string(),
                )
            };
            tiles.push(TilePlan {
                tile: pos,
                domain: tile.domain.to_string(),
                decision,
                rule,
            });
        }
        mark_coalesced(&self.blobs, &meta, &mut tiles);
        Ok(ExplainPlan {
            object: name.to_string(),
            region: region.to_string(),
            predicate: predicate.map(ToString::to_string),
            condenser: Some(kind.as_str()),
            epoch: self.epoch(),
            index_nodes,
            tiles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::celltype::CellType;
    use crate::database::Database;
    use crate::mdd::MddType;
    use crate::predicate::PredOp;
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
            Scheme::Aligned(AlignedTiling::regular(2, 256)),
        )
        .unwrap();
        // 16x16, value = row * 16 + col: every 8x8 tile has a distinct range.
        db.insert(
            "grid",
            &Array::from_fn(d("[0:15,0:15]"), |p| (p[0] * 16 + p[1]) as u32).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn explain_range_reconciles_with_execution() {
        let db = setup();
        let snap = db.begin_read();
        let region = d("[0:15,0:15]");
        let p = CellPredicate {
            op: PredOp::Gt,
            literal: 200.0,
        };
        let plan = snap.explain_range("grid", &region, Some(&p)).unwrap();
        let result = snap.range_query_where("grid", &region, Some(&p)).unwrap();
        assert_eq!(plan.fetched(), result.stats.tiles_read, "{plan:?}");
        assert_eq!(plan.pruned(), result.stats.tiles_pruned, "{plan:?}");
        assert_eq!(plan.epoch, result.epoch);
        assert!(plan.pruned() >= 1, "high literal must prune low tiles");
        assert!(plan
            .tiles
            .iter()
            .any(|t| t.decision != TileDecision::Fetched));
    }

    #[test]
    fn coalesced_tiles_in_the_plan_match_the_executed_reads() {
        // 128x128 u32 in 1 KiB tiles: 64 single-page tiles, twice the
        // 256 KiB / 8 KiB = 32-page batch cap, on a handle with no executor.
        let db = Database::in_memory().unwrap();
        db.create_object(
            "big",
            MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(2, 1024)),
        )
        .unwrap();
        let region = d("[0:127,0:127]");
        db.insert(
            "big",
            &Array::from_fn(region.clone(), |p| (p[0] * 128 + p[1]) as u32).unwrap(),
        )
        .unwrap();
        db.defrag("big").unwrap();
        let snap = db.begin_read();
        let plan = snap.explain_range("big", &region, None).unwrap();
        let io = snap.range_query("big", &region).unwrap().stats.io;
        let coalesced = plan
            .tiles
            .iter()
            .filter(|t| t.decision == TileDecision::FetchCoalesced)
            .count() as u64;
        assert!(io.runs_coalesced > 1, "the cap splits the read: {io:?}");
        assert_eq!(coalesced, io.pages_read_run - io.runs_coalesced, "{io:?}");
    }

    #[test]
    fn explain_aggregate_reports_synopsis_condense() {
        let db = setup();
        let snap = db.begin_read();
        let region = d("[0:15,0:15]");
        let plan = snap
            .explain_aggregate("grid", &region, AggKind::Max, None)
            .unwrap();
        let (_, stats) = snap.aggregate("grid", &region, AggKind::Max).unwrap();
        assert_eq!(plan.fetched(), stats.tiles_read);
        assert_eq!(plan.pruned(), stats.tiles_pruned);
        assert!(plan
            .tiles
            .iter()
            .all(|t| t.decision == TileDecision::SynopsisCondense));
        // Sum cannot short-circuit: every tile streams.
        let plan = snap
            .explain_aggregate("grid", &region, AggKind::Sum, None)
            .unwrap();
        let (_, stats) = snap.aggregate("grid", &region, AggKind::Sum).unwrap();
        assert_eq!(plan.fetched(), stats.tiles_read);
        assert_eq!(plan.pruned(), 0);
    }

    #[test]
    fn explain_does_not_touch_blobs_or_the_access_log() {
        let db = setup();
        let snap = db.begin_read();
        let log_before = snap.access_log("grid").unwrap().total_accesses();
        let io_before = db.io_stats().snapshot();
        let p = CellPredicate {
            op: PredOp::Lt,
            literal: 50.0,
        };
        let _ = snap
            .explain_range("grid", &d("[0:15,0:15]"), Some(&p))
            .unwrap();
        assert_eq!(db.io_stats().snapshot().blobs_read, io_before.blobs_read);
        assert_eq!(
            snap.access_log("grid").unwrap().total_accesses(),
            log_before,
            "EXPLAIN must not skew re-tiling statistics"
        );
    }

    #[test]
    fn plan_json_shape_is_stable() {
        let db = setup();
        let snap = db.begin_read();
        let p = CellPredicate {
            op: PredOp::Eq,
            literal: 3.0,
        };
        let plan = snap
            .explain_range("grid", &d("[0:15,0:15]"), Some(&p))
            .unwrap();
        let json = plan.to_json().to_string_compact();
        for key in [
            "\"object\"",
            "\"region\"",
            "\"predicate\"",
            "\"epoch\"",
            "\"candidates\"",
            "\"fetched\"",
            "\"pruned\"",
            "\"tiles\"",
            "\"decision\"",
            "\"rule\"",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert!(tilestore_testkit::Json::parse(&json).is_ok());
    }
}
