//! Experiment harness: loads a workload under each tiling scheme and
//! replays a query set cold, producing the paper's measurements.

use tilestore_compress::CompressionPolicy;
use tilestore_engine::{Array, CellType, Database, InsertStats, MddType, QueryStats, QueryTimes};
use tilestore_geometry::{DefDomain, Domain};
use tilestore_storage::{CostModel, PageStore};
use tilestore_testkit::{Json, ToJson};
use tilestore_tiling::TilingStrategy;

use crate::schemes::NamedScheme;

/// A labelled query of an experiment's query set.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Short label (`a` … `j`).
    pub label: String,
    /// The query region.
    pub region: Domain,
}

impl ToJson for QuerySpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", self.label.to_json()),
            ("region", Json::Str(self.region.to_string())),
        ])
    }
}

/// Measurement of one query under one scheme.
#[derive(Debug, Clone)]
pub struct QueryMeasurement {
    /// Query label.
    pub label: String,
    /// Raw execution counters.
    pub stats: QueryStats,
    /// Model-time decomposition.
    pub times: QueryTimes,
}

impl ToJson for QueryMeasurement {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", self.label.to_json()),
            ("stats", self.stats.to_json()),
            ("times", self.times.to_json()),
        ])
    }
}

impl QueryMeasurement {
    /// `t_totalaccess` in model seconds.
    #[must_use]
    pub fn total_access(&self) -> f64 {
        self.times.total_access()
    }

    /// `t_totalcpu` in model seconds.
    #[must_use]
    pub fn total_cpu(&self) -> f64 {
        self.times.total_cpu()
    }
}

/// All measurements of one scheme over the query set.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Scheme name (`Reg32K`, `Dir64K3P`, …).
    pub scheme: String,
    /// Number of tiles the scheme produced for the workload.
    pub tiles: usize,
    /// Size of the largest tile in bytes.
    pub max_tile_bytes: u64,
    /// Physical bytes in the BLOB store after compression.
    pub physical_bytes: u64,
    /// Bytes of the whole pages those BLOBs occupy.
    pub page_bytes: u64,
    /// Load statistics.
    pub load: InsertStats,
    /// One measurement per query, in query-set order.
    pub queries: Vec<QueryMeasurement>,
}

impl ToJson for SchemeResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scheme", self.scheme.to_json()),
            ("tiles", self.tiles.to_json()),
            ("max_tile_bytes", self.max_tile_bytes.to_json()),
            ("physical_bytes", self.physical_bytes.to_json()),
            ("page_bytes", self.page_bytes.to_json()),
            ("load", self.load.to_json()),
            ("queries", self.queries.to_json()),
        ])
    }
}

impl SchemeResult {
    /// Mean `t_totalaccess` over the query set.
    #[must_use]
    pub fn mean_total_access(&self) -> f64 {
        mean(self.queries.iter().map(QueryMeasurement::total_access))
    }

    /// Mean `t_totalcpu` over the query set.
    #[must_use]
    pub fn mean_total_cpu(&self) -> f64 {
        mean(self.queries.iter().map(QueryMeasurement::total_cpu))
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / f64::from(n)
    }
}

/// An experiment: one workload array, a scheme set, a query set.
pub struct Experiment<'a> {
    /// The workload data.
    pub data: &'a Array,
    /// Cell type of the object.
    pub cell_type: CellType,
    /// The query set.
    pub queries: Vec<QuerySpec>,
    /// The cost model converting counters to model seconds.
    pub model: CostModel,
    /// Per-tile compression policy applied at load time.
    pub compression: CompressionPolicy,
}

impl Experiment<'_> {
    /// Runs the experiment for one scheme: loads a fresh in-memory database
    /// and replays every query (the store is uncached, so every query is a
    /// cold read, like the paper's `t_o` measurements).
    ///
    /// # Errors
    /// Engine errors (tiling, storage, query execution).
    pub fn run_scheme(&self, named: &NamedScheme) -> tilestore_engine::Result<SchemeResult> {
        let db = Database::in_memory()?;
        let dim = self.data.domain().dim();
        db.create_object(
            "workload",
            MddType::new(self.cell_type.clone(), DefDomain::unlimited(dim)?),
            named.scheme.clone(),
        )?;
        db.set_compression("workload", self.compression.clone())?;
        let load = db.insert("workload", self.data)?.stats;
        let physical_bytes = db.object_physical_bytes("workload")?;
        let meta = db.object("workload")?;
        let tiles = meta.tile_count();
        let mut pages = 0u64;
        for tile in &meta.tiles {
            pages += db.blob_store().blob_placement(tile.blob)?.pages;
        }
        let page_bytes = pages * db.blob_store().page_store().page_size() as u64;
        let max_tile_bytes = meta
            .tiles
            .iter()
            .map(|t| t.domain.cells() * self.cell_type.size as u64)
            .max()
            .unwrap_or(0);
        let mut queries = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            let q_result = db.range_query("workload", &q.region)?;
            let stats = q_result.stats;
            queries.push(QueryMeasurement {
                label: q.label.clone(),
                times: stats.times(&self.model),
                stats,
            });
        }
        Ok(SchemeResult {
            scheme: named.name.clone(),
            tiles,
            max_tile_bytes,
            physical_bytes,
            page_bytes,
            load,
            queries,
        })
    }

    /// Runs the experiment for every scheme.
    ///
    /// # Errors
    /// Engine errors from any scheme run.
    pub fn run(&self, schemes: &[NamedScheme]) -> tilestore_engine::Result<Vec<SchemeResult>> {
        schemes.iter().map(|s| self.run_scheme(s)).collect()
    }

    /// Validates a scheme against the workload without storing data: the
    /// tiling must cover the domain within the size cap. Used by the scheme
    /// inventory (Table 2) without paying the load cost.
    ///
    /// # Errors
    /// Tiling errors.
    pub fn tile_counts(&self, named: &NamedScheme) -> tilestore_tiling::Result<(usize, u64)> {
        let spec = named
            .scheme
            .partition(self.data.domain(), self.cell_type.size)?;
        let max = spec.max_tile_bytes(self.cell_type.size);
        Ok((spec.len(), max))
    }
}

/// Per-query speedup of `fast` over `slow` (the paper's Tables 4 and 6).
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Query label.
    pub label: String,
    /// Speedup in `t_o`.
    pub t_o: f64,
    /// Speedup in `t_totalaccess`.
    pub total_access: f64,
    /// Speedup in `t_totalcpu`.
    pub total_cpu: f64,
}

impl ToJson for SpeedupRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", self.label.to_json()),
            ("t_o", self.t_o.to_json()),
            ("total_access", self.total_access.to_json()),
            ("total_cpu", self.total_cpu.to_json()),
        ])
    }
}

/// Computes per-query speedups of `fast` over `slow` (values > 1 mean
/// `fast` wins).
#[must_use]
pub fn speedups(fast: &SchemeResult, slow: &SchemeResult) -> Vec<SpeedupRow> {
    fast.queries
        .iter()
        .zip(&slow.queries)
        .map(|(f, s)| {
            debug_assert_eq!(f.label, s.label);
            SpeedupRow {
                label: f.label.clone(),
                t_o: ratio(s.times.t_o, f.times.t_o),
                total_access: ratio(s.total_access(), f.total_access()),
                total_cpu: ratio(s.total_cpu(), f.total_cpu()),
            }
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::INFINITY
    } else {
        num / den
    }
}

/// Picks the scheme with the lowest mean `t_totalcpu` among those whose
/// name starts with `prefix` (the paper's "best of regular" / "best of
/// directional" selection).
#[must_use]
pub fn best_by_prefix<'a>(results: &'a [SchemeResult], prefix: &str) -> Option<&'a SchemeResult> {
    results
        .iter()
        .filter(|r| r.scheme.starts_with(prefix))
        .min_by(|a, b| {
            a.mean_total_cpu()
                .partial_cmp(&b.mean_total_cpu())
                .expect("times are finite")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::NamedScheme;
    use tilestore_engine::CellType;

    fn tiny_experiment(data: &Array) -> Experiment<'_> {
        Experiment {
            data,
            cell_type: CellType::of::<u32>(),
            queries: vec![
                QuerySpec {
                    label: "q1".into(),
                    region: "[0:9,0:9]".parse().unwrap(),
                },
                QuerySpec {
                    label: "q2".into(),
                    region: "[0:39,0:39]".parse().unwrap(),
                },
            ],
            model: CostModel::classic_disk(),
            compression: CompressionPolicy::None,
        }
    }

    #[test]
    fn harness_runs_and_orders_queries() {
        let data =
            Array::from_fn("[0:39,0:39]".parse().unwrap(), |p| (p[0] + p[1]) as u32).unwrap();
        let exp = tiny_experiment(&data);
        let res = exp
            .run(&[NamedScheme::regular(2, 1), NamedScheme::regular(2, 4)])
            .unwrap();
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].scheme, "Reg1K");
        assert_eq!(res[0].queries.len(), 2);
        assert_eq!(res[0].queries[0].label, "q1");
        // Small query costs less than the full scan.
        assert!(res[0].queries[0].total_access() < res[0].queries[1].total_access());
        // Fewer, larger tiles: Reg4K has fewer tiles than Reg1K.
        assert!(res[1].tiles < res[0].tiles);
    }

    #[test]
    fn speedups_are_ratios_of_slow_over_fast() {
        let data =
            Array::from_fn("[0:39,0:39]".parse().unwrap(), |p| (p[0] * p[1]) as u32).unwrap();
        let exp = tiny_experiment(&data);
        let res = exp
            .run(&[NamedScheme::regular(2, 1), NamedScheme::regular(2, 4)])
            .unwrap();
        let rows = speedups(&res[1], &res[0]);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.t_o.is_finite() && r.t_o > 0.0);
        }
    }

    #[test]
    fn best_by_prefix_selects_lowest_mean() {
        let data = Array::from_fn("[0:39,0:39]".parse().unwrap(), |_| 1u32).unwrap();
        let exp = tiny_experiment(&data);
        let res = exp
            .run(&[
                NamedScheme::regular(2, 1),
                NamedScheme::regular(2, 2),
                NamedScheme::regular(2, 4),
            ])
            .unwrap();
        let best = best_by_prefix(&res, "Reg").unwrap();
        let best_mean = best.mean_total_cpu();
        for r in &res {
            assert!(best_mean <= r.mean_total_cpu() + 1e-12);
        }
        assert!(best_by_prefix(&res, "Dir").is_none());
    }

    #[test]
    fn tile_counts_matches_run() {
        let data = Array::from_fn("[0:39,0:39]".parse().unwrap(), |_| 0u32).unwrap();
        let exp = tiny_experiment(&data);
        let named = NamedScheme::regular(2, 1);
        let (n, max) = exp.tile_counts(&named).unwrap();
        let run = exp.run_scheme(&named).unwrap();
        assert_eq!(n, run.tiles);
        assert_eq!(max, run.max_tile_bytes);
    }
}
