//! EXPLAIN: a rendering of the statement's [`Plan`].
//!
//! [`Plan::explain`] turns the plan the executors run into an inspectable
//! report: per candidate tile, the decision taken and the rule behind it.
//! The decisions are the plan's own, so the report reconciles exactly with
//! the executor's counters: `fetched` equals `QueryStats::tiles_read`,
//! `pruned` equals `QueryStats::tiles_pruned`, and the `fetch-coalesced`
//! tiles of single-page blobs equal `pages_read_run − runs_coalesced` for
//! the same statement at the same epoch (a property test in
//! `tests/properties.rs` pins this).

use crate::plan::Plan;
use crate::predicate::PruneRule;
use tilestore_testkit::{Json, ToJson};

/// What the planner decided to do with one candidate tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileDecision {
    /// The tile's blob is fetched and its cells processed.
    Fetched,
    /// The tile's blob is fetched, and its pages directly follow the
    /// previous tile's in the same batched read, so the read folds it into
    /// the predecessor's positioned read instead of seeking.
    FetchCoalesced,
    /// Skipped: the tile synopsis proves, by this rule, that no cell
    /// satisfies the predicate.
    SynopsisPrune(PruneRule),
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
            TileDecision::SynopsisPrune(_) => "synopsis-prune",
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

impl Plan {
    /// Renders the plan as an EXPLAIN report. The rule text of each tile is
    /// built here, from the decision and what the plan knows of the tile.
    #[must_use]
    pub fn explain(&self) -> ExplainPlan {
        let tiles = self
            .tiles
            .iter()
            .map(|&(pos, decision)| TilePlan {
                tile: pos,
                domain: self.object.tiles[pos as usize].domain.to_string(),
                decision,
                rule: self.rule(pos, decision),
            })
            .collect();
        ExplainPlan {
            object: self.object.name.clone(),
            region: self.region.to_string(),
            predicate: self.predicate.as_ref().map(ToString::to_string),
            condenser: self.condenser.map(|kind| kind.as_str()),
            epoch: self.epoch,
            index_nodes: self.index_nodes,
            tiles,
        }
    }

    /// Why tile `pos` got `decision`.
    fn rule(&self, pos: u64, decision: TileDecision) -> String {
        let tile = &self.object.tiles[pos as usize];
        match (decision, self.predicate, self.condenser) {
            (TileDecision::FetchCoalesced, ..) => {
                "pages adjacent to previous fetch; folded into its read".to_string()
            }
            (TileDecision::SynopsisPrune(PruneRule::EmptyTile), ..) => {
                "synopsis records zero cells".to_string()
            }
            (TileDecision::SynopsisPrune(PruneRule::Extrema), Some(p), _) => {
                let syn = tile.synopsis.as_ref().expect("rule implies synopsis");
                format!(
                    "extrema [{}, {}] vs `{p}`: {}",
                    syn.min().unwrap_or(f64::NAN),
                    syn.max().unwrap_or(f64::NAN),
                    p.extrema_rule()
                )
            }
            (TileDecision::SynopsisPrune(PruneRule::SynopsisBins), ..) => {
                "synopsis bins ∩ candidate bins = ∅".to_string()
            }
            (TileDecision::SynopsisCondense, _, Some(kind)) => {
                format!("{} answered from synopsis", kind.as_str())
            }
            (_, Some(_), _) => "synopsis cannot disprove a match".to_string(),
            (_, None, None) => "no predicate".to_string(),
            (_, None, Some(_)) if !self.region.contains_domain(&tile.domain) => {
                "tile partially overlaps region".to_string()
            }
            (_, None, Some(kind)) if tile.synopsis.is_some() => {
                format!("{} must stream cells", kind.as_str())
            }
            (_, None, Some(_)) => "no synopsis".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggKind;
    use crate::array::Array;
    use crate::celltype::CellType;
    use crate::database::Database;
    use crate::mdd::MddType;
    use crate::predicate::{CellPredicate, PredOp};
    use tilestore_geometry::{DefDomain, Domain};
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
        let plan = snap
            .plan("grid", &region, Some(&p), None)
            .unwrap()
            .explain();
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
    fn explain_names_the_synopsis_bins_rule() {
        // One u32 tile holding only 1 and 1000: its extrema [1, 1000]
        // admit `= 30`, but 30's value bin misses the bins of 1 and 1000.
        let db = Database::in_memory().unwrap();
        db.create_object(
            "pair",
            MddType::new(CellType::of::<u32>(), DefDomain::unlimited(1).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(1, 1024)),
        )
        .unwrap();
        let region = d("[0:1]");
        db.insert(
            "pair",
            &Array::from_fn(region.clone(), |p| [1u32, 1000][p[0] as usize]).unwrap(),
        )
        .unwrap();
        let p = CellPredicate {
            op: PredOp::Eq,
            literal: 30.0,
        };
        let snap = db.begin_read();
        let syn = snap.object("pair").unwrap().tiles[0].synopsis.unwrap();
        assert_eq!(p.prune_rule(&syn), Some(PruneRule::SynopsisBins));
        let plan = snap
            .plan("pair", &region, Some(&p), None)
            .unwrap()
            .explain();
        assert_eq!(plan.tiles.len(), 1, "{plan:?}");
        assert_eq!(plan.tiles[0].decision.as_str(), "synopsis-prune");
        assert_eq!(plan.tiles[0].rule, "synopsis bins ∩ candidate bins = ∅");
        let result = snap.range_query_where("pair", &region, Some(&p)).unwrap();
        assert_eq!(plan.pruned(), result.stats.tiles_pruned);
        assert_eq!(result.stats.tiles_pruned, 1);
    }

    #[test]
    fn coalesced_tiles_in_the_plan_match_the_executed_reads() {
        // 128x128 u32 in 1 KiB tiles: 64 single-page tiles, twice the
        // 256 KiB / 8 KiB = 32-page batch cap. Reads ignore an executor, so
        // attaching one changes nothing.
        let db = Database::in_memory().unwrap();
        db.set_executor(std::sync::Arc::new(tilestore_exec::ThreadPool::new(3)));
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
        let coalesced = |plan: &ExplainPlan| {
            plan.tiles
                .iter()
                .filter(|t| t.decision == TileDecision::FetchCoalesced)
                .count() as u64
        };
        let plan = snap.plan("big", &region, None, None).unwrap().explain();
        let io = snap.range_query("big", &region).unwrap().stats.io;
        assert!(io.runs_coalesced > 1, "the cap splits the read: {io:?}");
        assert_eq!(coalesced(&plan), io.pages_read_run - io.runs_coalesced);
        // A condenser reads one tile at a time in index order: nothing
        // coalesces, and the plan says so.
        let plan = snap
            .plan("big", &region, None, Some(AggKind::Sum))
            .unwrap()
            .explain();
        let (_, stats) = snap.aggregate("big", &region, AggKind::Sum).unwrap();
        assert_eq!(plan.fetched(), 64);
        assert_eq!(coalesced(&plan), 0, "{plan:?}");
        assert_eq!(stats.io.pages_read_run, 0, "{:?}", stats.io);
    }

    #[test]
    fn explain_aggregate_reports_synopsis_condense() {
        let db = setup();
        let snap = db.begin_read();
        let region = d("[0:15,0:15]");
        let plan = snap
            .plan("grid", &region, None, Some(AggKind::Max))
            .unwrap()
            .explain();
        let (_, stats) = snap.aggregate("grid", &region, AggKind::Max).unwrap();
        assert_eq!(plan.fetched(), stats.tiles_read);
        assert_eq!(plan.pruned(), stats.tiles_pruned);
        assert!(plan
            .tiles
            .iter()
            .all(|t| t.decision == TileDecision::SynopsisCondense));
        // Sum cannot short-circuit: every tile streams.
        let plan = snap
            .plan("grid", &region, None, Some(AggKind::Sum))
            .unwrap()
            .explain();
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
            .plan("grid", &d("[0:15,0:15]"), Some(&p), None)
            .unwrap()
            .explain();
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
            .plan("grid", &d("[0:15,0:15]"), Some(&p), None)
            .unwrap()
            .explain();
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
