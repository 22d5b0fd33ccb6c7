//! Query execution against an engine read [`Snapshot`].
//!
//! What a statement means is decided here, once, in two steps the cluster
//! coordinator runs too: [`Shape::of`] checks a query without a catalog,
//! and [`Shape::resolve`] turns its access into a region against a current
//! domain — one object's here, the hull of the shards' on a cluster.

use tilestore_engine::{
    aggregate_array, induce_scalar, AggValue, Array, BinOp, CellPredicate, CellType, EngineError,
    ExplainPlan, QueryStats, Snapshot,
};
use tilestore_geometry::{AxisRange, Domain};
use tilestore_storage::PageStore;
use tilestore_testkit::{Json, ToJson};

use crate::ast::{AxisSelect, Condenser, Expr, Query, Statement};
use crate::error::{QueryError, Result};
use crate::parser::{parse, parse_statement};

/// The result value of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An array result (range / section query).
    Array(Array),
    /// A numeric scalar (sum/avg/min/max).
    Number(f64),
    /// A count (count_cells).
    Count(u64),
    /// A boolean (some_cells / all_cells).
    Bool(bool),
}

impl Value {
    /// The array, if this is [`Value::Array`].
    #[must_use]
    pub fn as_array(&self) -> Option<&Array> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The number, if this is [`Value::Number`].
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<AggValue> for Value {
    fn from(value: AggValue) -> Self {
        match value {
            AggValue::Number(v) => Value::Number(v),
            AggValue::Count(v) => Value::Count(v),
            AggValue::Bool(v) => Value::Bool(v),
        }
    }
}

/// Measured execution attached to an `EXPLAIN ANALYZE` report.
#[derive(Debug, Clone)]
pub struct AnalyzeInfo {
    /// The executor's counters for the analyzed run.
    pub stats: QueryStats,
    /// Wall-clock time of the whole statement (parse excluded) in
    /// nanoseconds — a superset of `stats.elapsed_ns`, which only covers
    /// the engine-side fetch.
    pub elapsed_ns: u64,
}

impl ToJson for AnalyzeInfo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("stats", self.stats.to_json()),
            ("elapsed_ns", self.elapsed_ns.to_json()),
            ("cache_hits", self.stats.io.cache_hits.to_json()),
            ("cache_misses", self.stats.io.cache_misses.to_json()),
        ])
    }
}

/// The result of an `EXPLAIN [ANALYZE]` statement: the planner's per-tile
/// report, plus measured execution when `ANALYZE` was requested.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The planner's per-tile decisions.
    pub plan: ExplainPlan,
    /// Measured execution; `None` for plain `EXPLAIN`.
    pub analyze: Option<AnalyzeInfo>,
}

impl ToJson for ExplainReport {
    fn to_json(&self) -> Json {
        let mut fields = vec![("plan", self.plan.to_json())];
        if let Some(a) = &self.analyze {
            fields.push(("analyze", a.to_json()));
        }
        Json::obj(fields)
    }
}

/// The result of executing a top-level [`Statement`].
#[derive(Debug, Clone)]
pub enum StatementResult {
    /// A plain query's value and counters.
    Value(Value, QueryStats),
    /// An `EXPLAIN [ANALYZE]` report.
    Explain(ExplainReport),
}

/// Parses and executes a query against a read snapshot.
///
/// The caller owns the snapshot (see
/// [`Database::begin_read`](tilestore_engine::Database::begin_read)), so one
/// session can run several statements against a single consistent epoch and
/// stamp results with [`Snapshot::epoch`].
///
/// ```
/// use tilestore_engine::{Array, CellType, Database, MddType};
/// use tilestore_geometry::DefDomain;
/// use tilestore_tiling::Scheme;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let db = Database::in_memory()?;
/// db.create_object(
///     "m",
///     MddType::new(CellType::of::<u32>(), DefDomain::unlimited(2)?),
///     Scheme::default_for(2),
/// )?;
/// db.insert("m", &Array::from_fn("[0:9,0:9]".parse()?, |p| p[0] as u32)?)?;
///
/// let snap = db.begin_read();
/// let (value, _) = tilestore_rasql::execute(&snap, "SELECT sum_cells(m) FROM m")?;
/// assert_eq!(value.as_number(), Some(450.0));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
/// Parse errors, semantic errors (collection mismatch, arity) and engine
/// errors.
pub fn execute<S: PageStore>(snap: &Snapshot<S>, input: &str) -> Result<(Value, QueryStats)> {
    let query = parse(input)?;
    execute_query(snap, &query)
}

/// Executes a pre-parsed query.
///
/// # Errors
/// Semantic and engine errors.
pub fn execute_query<S: PageStore>(
    snap: &Snapshot<S>,
    query: &Query,
) -> Result<(Value, QueryStats)> {
    let shape = Shape::of(query)?;
    let meta = snap.object(&query.from)?;
    let access = shape.resolve(meta.current_domain.as_ref())?;
    let predicate = shape.predicate.as_ref();
    if let (Some(op), true) = (shape.condenser, shape.induce.is_empty()) {
        // A condenser over a plain access aggregates tile-streaming,
        // without materializing the region.
        let (value, stats) =
            snap.aggregate_where(&query.from, &access.region, op.kind(), predicate)?;
        return Ok((value.into(), stats));
    }
    let q = snap.range_query_where(&query.from, &access.region, predicate)?;
    let (array, cell) = shape.apply_induce(&meta.mdd_type.cell, access.section(q.array)?)?;
    let value = match shape.condenser {
        Some(op) => aggregate_array(&cell, &array, op.kind())?.into(),
        None => Value::Array(array),
    };
    Ok((value, q.stats))
}

/// Parses and executes a top-level statement: a plain query, or
/// `EXPLAIN [ANALYZE] <query>`.
///
/// EXPLAIN is restricted to statements the tile planner sees whole: a plain
/// access (`SELECT obj[..]`) or a condenser over one
/// (`SELECT sum_cells(obj[..])`), optionally with a `WHERE` predicate.
/// Induced expressions post-process a fetched array and have no per-tile
/// plan, so explaining them is a semantic error.
///
/// # Errors
/// Parse errors, semantic errors and engine errors.
pub fn execute_statement<S: PageStore>(snap: &Snapshot<S>, input: &str) -> Result<StatementResult> {
    match parse_statement(input)? {
        Statement::Query(query) => {
            let (value, stats) = execute_query(snap, &query)?;
            Ok(StatementResult::Value(value, stats))
        }
        Statement::Explain { query, analyze } => {
            let plan = explain_query(snap, &query)?;
            let analyze = if analyze {
                let started = std::time::Instant::now();
                let (_, stats) = execute_query(snap, &query)?;
                Some(AnalyzeInfo {
                    stats,
                    elapsed_ns: started.elapsed().as_nanos() as u64,
                })
            } else {
                None
            };
            Ok(StatementResult::Explain(ExplainReport { plan, analyze }))
        }
    }
}

/// Builds the planner report for a pre-parsed query without executing it.
///
/// # Errors
/// Semantic errors (including unsupported EXPLAIN shapes) and engine errors.
pub fn explain_query<S: PageStore>(snap: &Snapshot<S>, query: &Query) -> Result<ExplainPlan> {
    let shape = Shape::of(query)?;
    shape.explainable()?;
    let meta = snap.object(&query.from)?;
    let access = shape.resolve(meta.current_domain.as_ref())?;
    let predicate = shape.predicate.as_ref();
    Ok(match shape.condenser {
        None => snap.explain_range(&query.from, &access.region, predicate)?,
        Some(op) => snap.explain_aggregate(&query.from, &access.region, op.kind(), predicate)?,
    })
}

/// What a query reads and computes, checked without a catalog — step one
/// of resolving it. A query is an access, an induce chain over it, and
/// optionally one condenser over that.
#[derive(Debug)]
pub struct Shape<'q> {
    /// The collection named in `FROM`.
    pub from: &'q str,
    /// The collection the access names; [`Shape::resolve`] checks it
    /// against `from` after the object lookup, so a statement over a
    /// missing object is an engine error.
    collection: &'q str,
    /// The access's per-axis selection; `None` = the whole object.
    subscript: Option<&'q [AxisSelect]>,
    /// The condenser over the result, if the query aggregates.
    pub condenser: Option<Condenser>,
    /// The induced operations on the accessed array, innermost first.
    induce: Vec<(BinOp, f64)>,
    /// The `WHERE` clause as the engine's cell predicate.
    predicate: Option<CellPredicate>,
}

/// An access resolved against a current domain — step two: the region to
/// read and the axes a section fixes.
#[derive(Debug)]
pub struct ResolvedAccess {
    /// The concrete region (fixed axes as one-cell ranges).
    pub region: Domain,
    /// The axes a section fixes, ascending.
    fixed_axes: Vec<usize>,
}

impl<'q> Shape<'q> {
    /// Checks `query` without a catalog: the `WHERE` clause must name the
    /// `FROM` collection, and no condenser may stand where an array is
    /// expected (as an induce operand or another condenser's argument).
    ///
    /// # Errors
    /// [`QueryError::Semantic`].
    pub fn of(query: &'q Query) -> Result<Shape<'q>> {
        let predicate = match &query.predicate {
            Some(p) if p.collection != query.from => {
                return Err(QueryError::Semantic(format!(
                    "WHERE references {:?} but FROM names {:?}",
                    p.collection, query.from
                )))
            }
            Some(p) => Some(CellPredicate {
                op: p.op,
                literal: p.literal,
            }),
            None => None,
        };
        let (condenser, mut expr) = match &query.expr {
            Expr::Condense { op, arg } => (Some(*op), arg.as_ref()),
            other => (None, other),
        };
        let mut induce = Vec::new();
        let (collection, subscript) = loop {
            match expr {
                Expr::Access {
                    collection,
                    subscript,
                } => break (collection.as_str(), subscript.as_deref()),
                Expr::Induce { lhs, op, rhs } => {
                    induce.push((*op, *rhs));
                    expr = lhs;
                }
                Expr::Condense { .. } => {
                    return Err(QueryError::Semantic(
                        "condensers produce scalars and cannot be used as array operands"
                            .to_string(),
                    ))
                }
            }
        };
        induce.reverse();
        Ok(Shape {
            from: &query.from,
            collection,
            subscript,
            condenser,
            induce,
            predicate,
        })
    }

    /// EXPLAIN covers what the tile planner sees whole: an access, or a
    /// condenser over one. Induced operations post-process a fetched array
    /// and have no per-tile plan.
    ///
    /// # Errors
    /// [`QueryError::Semantic`] when the shape has an induce chain.
    pub fn explainable(&self) -> Result<()> {
        if self.induce.is_empty() {
            return Ok(());
        }
        Err(QueryError::Semantic(
            "EXPLAIN supports a plain access or a condenser over one; induced \
             expressions are post-processing and have no tile plan"
                .to_string(),
        ))
    }

    /// Resolves the access against `current`, the object's current domain
    /// (`None`: it holds no cells): `*` bounds take the domain's bounds,
    /// points become one-cell ranges on fixed axes, and a section must
    /// leave at least one axis.
    ///
    /// # Errors
    /// [`QueryError::Semantic`] for a collection other than `FROM`, a wrong
    /// arity, an empty range or a section fixing every axis;
    /// [`EngineError::EmptyObject`] when `current` is `None`.
    pub fn resolve(&self, current: Option<&Domain>) -> Result<ResolvedAccess> {
        let collection = self.collection;
        if collection != self.from {
            return Err(QueryError::Semantic(format!(
                "expression references {collection:?} but FROM names {:?}",
                self.from
            )));
        }
        let current = current.ok_or_else(|| EngineError::EmptyObject(collection.to_string()))?;
        let Some(axes) = self.subscript else {
            return Ok(ResolvedAccess {
                region: current.clone(),
                fixed_axes: Vec::new(),
            });
        };
        if axes.len() != current.dim() {
            return Err(QueryError::Semantic(format!(
                "subscript has {} axes, object {collection:?} has {}",
                axes.len(),
                current.dim()
            )));
        }
        let mut region = current.clone();
        let mut fixed_axes = Vec::new();
        for (axis, sel) in axes.iter().enumerate() {
            let (lo, hi) = match sel {
                AxisSelect::All => continue,
                AxisSelect::Point(c) => {
                    fixed_axes.push(axis);
                    (*c, *c)
                }
                AxisSelect::Range { lo, hi } => (
                    lo.unwrap_or_else(|| current.lo(axis)),
                    hi.unwrap_or_else(|| current.hi(axis)),
                ),
            };
            let r = AxisRange::new(lo, hi)
                .map_err(|e| QueryError::Semantic(format!("axis {axis}: empty range: {e}")))?;
            region = region.with_axis(axis, r).map_err(EngineError::from)?;
        }
        if fixed_axes.len() == axes.len() {
            return Err(QueryError::Semantic(
                "section fixes every axis; at least one axis must remain".to_string(),
            ));
        }
        Ok(ResolvedAccess { region, fixed_axes })
    }

    /// Applies the induce chain to `array`, whose cells are of type
    /// `cell`; returns the result and its cell type.
    ///
    /// # Errors
    /// Engine errors of [`induce_scalar`].
    pub fn apply_induce(&self, cell: &CellType, array: Array) -> Result<(Array, CellType)> {
        let mut out = (array, cell.clone());
        for &(op, rhs) in &self.induce {
            out = induce_scalar(&out.1, &out.0, op, rhs)?;
        }
        Ok(out)
    }
}

impl ResolvedAccess {
    /// Drops the fixed axes from `array`, which covers the whole region.
    ///
    /// # Errors
    /// Engine errors when `array` does not cover the region.
    pub fn section(&self, array: Array) -> Result<Array> {
        if self.fixed_axes.is_empty() {
            return Ok(array);
        }
        let domain = self
            .region
            .project_out(&self.fixed_axes)
            .map_err(EngineError::from)?;
        Ok(array.reshaped(domain)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilestore_engine::{CellType, MddType};
    use tilestore_geometry::{DefDomain, Point};
    use tilestore_tiling::{AlignedTiling, Scheme};

    use tilestore_engine::Database;

    fn setup() -> Database<tilestore_storage::MemPageStore> {
        let db = Database::in_memory().unwrap();
        db.create_object(
            "cube",
            MddType::new(CellType::of::<u32>(), DefDomain::unlimited(3).unwrap()),
            Scheme::Aligned(AlignedTiling::regular(3, 2048)),
        )
        .unwrap();
        let dom: Domain = "[0:9,0:9,0:9]".parse().unwrap();
        db.insert(
            "cube",
            &Array::from_fn(dom, |p| (p[0] * 100 + p[1] * 10 + p[2]) as u32).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn whole_object_select() {
        let db = setup();
        let db = db.begin_read();
        let (v, _) = execute(&db, "SELECT cube FROM cube").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.domain().to_string(), "[0:9,0:9,0:9]");
    }

    #[test]
    fn trim_select() {
        let db = setup();
        let db = db.begin_read();
        let (v, stats) = execute(&db, "SELECT cube[2:4, 0:9, 5:7] FROM cube").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.domain().to_string(), "[2:4,0:9,5:7]");
        assert_eq!(arr.get::<u32>(&Point::from_slice(&[3, 4, 6])).unwrap(), 346);
        assert!(stats.tiles_read >= 1);
    }

    #[test]
    fn star_bounds_resolve_to_current_domain() {
        let db = setup();
        let db = db.begin_read();
        let (v, _) = execute(&db, "SELECT cube[*:*, 3:3, 2:*] FROM cube").unwrap();
        assert_eq!(v.as_array().unwrap().domain().to_string(), "[0:9,3:3,2:9]");
    }

    #[test]
    fn section_drops_axes() {
        let db = setup();
        let db = db.begin_read();
        let (v, _) = execute(&db, "SELECT cube[5, *, 2:3] FROM cube").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.domain().to_string(), "[0:9,2:3]");
        assert_eq!(arr.get::<u32>(&Point::from_slice(&[4, 2])).unwrap(), 542);
    }

    #[test]
    fn condensers() {
        let db = setup();
        let db = db.begin_read();
        let (v, _) = execute(&db, "SELECT sum_cells(cube[0:0,0:0,0:9]) FROM cube").unwrap();
        assert_eq!(v.as_number().unwrap(), 45.0);
        let (v, _) = execute(&db, "SELECT avg_cells(cube[0:0,0:0,0:9]) FROM cube").unwrap();
        assert_eq!(v.as_number().unwrap(), 4.5);
        let (v, _) = execute(&db, "SELECT max_cells(cube) FROM cube").unwrap();
        assert_eq!(v.as_number().unwrap(), 999.0);
        let (v, _) = execute(&db, "SELECT min_cells(cube) FROM cube").unwrap();
        assert_eq!(v.as_number().unwrap(), 0.0);
        let (v, _) = execute(&db, "SELECT count_cells(cube[0:0,0:0,*]) FROM cube").unwrap();
        assert_eq!(v, Value::Count(9)); // cell (0,0,0) == 0 == default
        let (v, _) = execute(&db, "SELECT some_cells(cube) FROM cube").unwrap();
        assert_eq!(v, Value::Bool(true));
        let (v, _) = execute(&db, "SELECT all_cells(cube) FROM cube").unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn induced_arithmetic_and_comparison() {
        let db = setup();
        let db = db.begin_read();
        // cube cell at (x,y,z) = 100x + 10y + z.
        let (v, _) = execute(&db, "SELECT cube[0:0,0:0,0:3] + 1000 FROM cube").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.to_cells::<u32>().unwrap(), vec![1000, 1001, 1002, 1003]);

        let (v, _) = execute(&db, "SELECT cube[0:0,0:0,*] > 4 FROM cube").unwrap();
        let mask = v.as_array().unwrap();
        assert_eq!(mask.cell_size(), 1, "comparisons yield boolean arrays");
        assert_eq!(
            mask.to_cells::<u8>().unwrap(),
            vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        );

        // Condenser over an induced mask: how many cells exceed 500?
        let (v, _) = execute(&db, "SELECT count_cells(cube > 500) FROM cube").unwrap();
        assert_eq!(v, Value::Count(499)); // values 501..=999 occur once each

        // Chained arithmetic, left-associative: (x * 2) - 10.
        let (v, _) = execute(&db, "SELECT cube[0:0,1:1,0:2] * 2 - 10 FROM cube").unwrap();
        assert_eq!(
            v.as_array().unwrap().to_cells::<u32>().unwrap(),
            vec![10, 12, 14]
        );

        // Induced over a section keeps the reduced dimensionality.
        let (v, _) = execute(&db, "SELECT cube[5, *, *] + 0.0 FROM cube").unwrap();
        assert_eq!(v.as_array().unwrap().domain().dim(), 2);

        // sum over comparison mask = count of true cells.
        let (v, _) = execute(&db, "SELECT sum_cells(cube[0:0,0:0,*] >= 5) FROM cube").unwrap();
        assert_eq!(v.as_number().unwrap(), 5.0);
    }

    #[test]
    fn where_clause_masks_selected_cells() {
        let db = setup();
        let snap = db.begin_read();
        // Cell (0,0,z) holds z; failing cells read as the default (0).
        let (v, _) = execute(&snap, "SELECT cube[0:0,0:0,*] FROM cube WHERE cube > 4").unwrap();
        assert_eq!(
            v.as_array().unwrap().to_cells::<u32>().unwrap(),
            vec![0, 0, 0, 0, 0, 5, 6, 7, 8, 9]
        );
        // Induced ops apply after masking.
        let (v, _) = execute(
            &snap,
            "SELECT cube[0:0,0:0,0:3] + 1000 FROM cube WHERE cube >= 2",
        )
        .unwrap();
        assert_eq!(
            v.as_array().unwrap().to_cells::<u32>().unwrap(),
            vec![1000, 1000, 1002, 1003]
        );
    }

    #[test]
    fn where_clause_filters_aggregates() {
        let db = setup();
        let snap = db.begin_read();
        let (v, _) = execute(&snap, "SELECT count_cells(cube) FROM cube WHERE cube > 500").unwrap();
        assert_eq!(v, Value::Count(499)); // values 501..=999 occur once each
        let (v, _) = execute(&snap, "SELECT sum_cells(cube) FROM cube WHERE cube >= 998").unwrap();
        assert_eq!(v.as_number().unwrap(), 998.0 + 999.0);
        // Masked-out cells read as the default, so the global max is the
        // largest surviving value.
        let (v, _) = execute(&snap, "SELECT max_cells(cube) FROM cube WHERE cube < 100").unwrap();
        assert_eq!(v.as_number().unwrap(), 99.0);
        let (v, _) = execute(&snap, "SELECT some_cells(cube) FROM cube WHERE cube > 2000").unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn where_clause_prunes_tiles() {
        let db = setup();
        let snap = db.begin_read();
        // Only the top band of values survives; tiles whose synopsis proves
        // max < 901 are never fetched.
        let (v, stats) =
            execute(&snap, "SELECT count_cells(cube) FROM cube WHERE cube > 900").unwrap();
        assert_eq!(v, Value::Count(99)); // values 901..=999
        assert!(stats.tiles_pruned > 0, "stats: {stats:?}");
        let (v, stats) = execute(&snap, "SELECT cube FROM cube WHERE cube > 900").unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.get::<u32>(&Point::from_slice(&[9, 5, 5])).unwrap(), 955);
        assert_eq!(arr.get::<u32>(&Point::from_slice(&[1, 5, 5])).unwrap(), 0);
        assert!(stats.tiles_pruned > 0, "stats: {stats:?}");
    }

    #[test]
    fn where_clause_semantic_errors() {
        let db = setup();
        let snap = db.begin_read();
        // WHERE must reference the FROM collection.
        assert!(execute(&snap, "SELECT cube FROM cube WHERE other > 1").is_err());
        assert!(execute(&snap, "SELECT sum_cells(cube) FROM cube WHERE other > 1").is_err());
    }

    #[test]
    fn explain_reports_reconcile_with_execution() {
        let db = setup();
        let snap = db.begin_read();
        let stmt = "SELECT cube FROM cube WHERE cube > 900";
        let StatementResult::Explain(report) =
            execute_statement(&snap, &format!("EXPLAIN {stmt}")).unwrap()
        else {
            panic!("expected explain result");
        };
        assert!(report.analyze.is_none());
        assert!(report.plan.pruned() > 0, "{:?}", report.plan);
        let (_, stats) = execute(&snap, stmt).unwrap();
        assert_eq!(report.plan.fetched(), stats.tiles_read);
        assert_eq!(report.plan.pruned(), stats.tiles_pruned);

        // ANALYZE attaches the measured counters of the same statement.
        let StatementResult::Explain(report) =
            execute_statement(&snap, &format!("EXPLAIN ANALYZE {stmt}")).unwrap()
        else {
            panic!("expected explain result");
        };
        let analyze = report.analyze.expect("analyze info");
        assert_eq!(analyze.stats.tiles_read, report.plan.fetched());
        assert_eq!(analyze.stats.tiles_pruned, report.plan.pruned());

        // Condensers explain through the aggregate planner.
        let StatementResult::Explain(report) =
            execute_statement(&snap, "EXPLAIN SELECT max_cells(cube) FROM cube").unwrap()
        else {
            panic!("expected explain result");
        };
        assert_eq!(report.plan.condenser, Some("max"));
        let (_, stats) = execute(&snap, "SELECT max_cells(cube) FROM cube").unwrap();
        assert_eq!(report.plan.fetched(), stats.tiles_read);
        assert_eq!(report.plan.pruned(), stats.tiles_pruned);

        // A plain statement routes through the value path.
        let StatementResult::Value(v, _) = execute_statement(&snap, stmt).unwrap() else {
            panic!("expected value result");
        };
        assert!(v.as_array().is_some());
    }

    #[test]
    fn explain_report_serializes_to_json() {
        let db = setup();
        let snap = db.begin_read();
        let StatementResult::Explain(report) = execute_statement(
            &snap,
            "EXPLAIN ANALYZE SELECT count_cells(cube) FROM cube WHERE cube > 900",
        )
        .unwrap() else {
            panic!("expected explain result");
        };
        let json = report.to_json().to_string_compact();
        for key in ["\"plan\"", "\"analyze\"", "\"stats\"", "\"cache_hits\""] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert!(tilestore_testkit::Json::parse(&json).is_ok());
    }

    #[test]
    fn explain_rejects_unplannable_shapes() {
        let db = setup();
        let snap = db.begin_read();
        for bad in [
            // Induced expressions have no tile plan.
            "EXPLAIN SELECT cube + 1 FROM cube",
            "EXPLAIN SELECT count_cells(cube > 100) FROM cube",
            // Validation errors still surface through EXPLAIN.
            "EXPLAIN SELECT nope FROM nope",
            "EXPLAIN SELECT cube FROM cube WHERE other > 1",
        ] {
            assert!(execute_statement(&snap, bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn semantic_errors() {
        let db = setup();
        let db = db.begin_read();
        for bad in [
            "SELECT other FROM cube",
            "SELECT cube[0:1] FROM cube",
            "SELECT cube[1,2,3] FROM cube",
            "SELECT sum_cells(sum_cells(cube)) FROM cube",
            "SELECT cube[5:1,*,*] FROM cube",
            "SELECT cube + sum_cells(cube) FROM cube",
            "SELECT sum_cells(cube) + 1 FROM cube",
        ] {
            assert!(execute(&db, bad).is_err(), "{bad:?} should fail");
        }
        assert!(execute(&db, "SELECT nope FROM nope").is_err());
    }
}
