//! Query execution against an engine read [`Snapshot`].

use tilestore_engine::{
    aggregate_array, induce_scalar, AggKind, AggValue, Array, BinOp, CellPredicate, CellType,
    ExplainPlan, PredOp, QueryStats, Snapshot,
};
use tilestore_geometry::{AxisRange, Domain};
use tilestore_storage::PageStore;
use tilestore_testkit::{Json, ToJson};

use crate::ast::{AxisSelect, Condenser, Expr, InducedOp, Predicate, Query, Statement};
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

/// Resolved form of an access: the concrete region plus the axes a section
/// fixes.
struct ResolvedAccess {
    collection: String,
    region: Domain,
    fixed_axes: Vec<usize>,
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
    let predicate = query
        .predicate
        .as_ref()
        .map(|p| resolve_predicate(p, &query.from))
        .transpose()?;
    match &query.expr {
        Expr::Condense { op, arg } => {
            let kind = condenser_kind(*op);
            if let Expr::Access { .. } = arg.as_ref() {
                // Plain access: aggregate tile-streaming, no materialization.
                let access = resolve_access(snap, arg, &query.from)?;
                let (value, stats) = snap.aggregate_where(
                    &access.collection,
                    &access.region,
                    kind,
                    predicate.as_ref(),
                )?;
                return Ok((agg_to_value(value), stats));
            }
            // Induced argument: materialize, then aggregate in memory.
            let (array, cell, stats) = eval_array(snap, arg, &query.from, predicate.as_ref())?;
            let value = aggregate_array(&cell, &array, kind)?;
            Ok((agg_to_value(value), stats))
        }
        other => {
            let (array, _, stats) = eval_array(snap, other, &query.from, predicate.as_ref())?;
            Ok((Value::Array(array), stats))
        }
    }
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
    let predicate = query
        .predicate
        .as_ref()
        .map(|p| resolve_predicate(p, &query.from))
        .transpose()?;
    match &query.expr {
        Expr::Access { .. } => {
            let access = resolve_access(snap, &query.expr, &query.from)?;
            Ok(snap.explain_range(&access.collection, &access.region, predicate.as_ref())?)
        }
        Expr::Condense { op, arg } if matches!(arg.as_ref(), Expr::Access { .. }) => {
            let access = resolve_access(snap, arg, &query.from)?;
            Ok(snap.explain_aggregate(
                &access.collection,
                &access.region,
                condenser_kind(*op),
                predicate.as_ref(),
            )?)
        }
        _ => Err(QueryError::Semantic(
            "EXPLAIN supports a plain access or a condenser over one; induced \
             expressions are post-processing and have no tile plan"
                .to_string(),
        )),
    }
}

/// Checks a parsed `WHERE` clause against the `FROM` collection and lowers
/// it to the engine's [`CellPredicate`].
fn resolve_predicate(p: &Predicate, from: &str) -> Result<CellPredicate> {
    if p.collection != from {
        return Err(QueryError::Semantic(format!(
            "WHERE references {:?} but FROM names {from:?}",
            p.collection
        )));
    }
    let op = match p.op {
        InducedOp::Gt => PredOp::Gt,
        InducedOp::Ge => PredOp::Ge,
        InducedOp::Lt => PredOp::Lt,
        InducedOp::Le => PredOp::Le,
        InducedOp::Eq => PredOp::Eq,
        InducedOp::Ne => PredOp::Ne,
        other => {
            return Err(QueryError::Semantic(format!(
                "WHERE requires a comparison operator, found {other:?}"
            )))
        }
    };
    Ok(CellPredicate {
        op,
        literal: p.literal,
    })
}

fn condenser_kind(op: Condenser) -> AggKind {
    match op {
        Condenser::Sum => AggKind::Sum,
        Condenser::Avg => AggKind::Avg,
        Condenser::Min => AggKind::Min,
        Condenser::Max => AggKind::Max,
        Condenser::Count => AggKind::CountNonDefault,
        Condenser::Some => AggKind::SomeNonDefault,
        Condenser::All => AggKind::AllNonDefault,
    }
}

fn agg_to_value(value: AggValue) -> Value {
    match value {
        AggValue::Number(v) => Value::Number(v),
        AggValue::Count(v) => Value::Count(v),
        AggValue::Bool(v) => Value::Bool(v),
    }
}

fn induced_binop(op: InducedOp) -> BinOp {
    match op {
        InducedOp::Add => BinOp::Add,
        InducedOp::Sub => BinOp::Sub,
        InducedOp::Mul => BinOp::Mul,
        InducedOp::Div => BinOp::Div,
        InducedOp::Gt => BinOp::Gt,
        InducedOp::Ge => BinOp::Ge,
        InducedOp::Lt => BinOp::Lt,
        InducedOp::Le => BinOp::Le,
        InducedOp::Eq => BinOp::Eq,
        InducedOp::Ne => BinOp::Ne,
    }
}

/// Evaluates an array-valued expression, returning the array, its cell
/// type, and the accumulated execution counters.
fn eval_array<S: PageStore>(
    snap: &Snapshot<S>,
    expr: &Expr,
    from: &str,
    predicate: Option<&CellPredicate>,
) -> Result<(Array, CellType, QueryStats)> {
    match expr {
        Expr::Access { .. } => {
            let access = resolve_access(snap, expr, from)?;
            let cell = snap.object(&access.collection)?.mdd_type.cell.clone();
            let q = snap.range_query_where(&access.collection, &access.region, predicate)?;
            let (array, stats) = (q.array, q.stats);
            if access.fixed_axes.is_empty() {
                return Ok((array, cell, stats));
            }
            let section_domain = access
                .region
                .project_out(&access.fixed_axes)
                .map_err(tilestore_engine::EngineError::from)?;
            let reshaped = array.reshaped(section_domain).map_err(QueryError::Engine)?;
            Ok((reshaped, cell, stats))
        }
        Expr::Induce { lhs, op, rhs } => {
            let (array, cell, stats) = eval_array(snap, lhs, from, predicate)?;
            let (result, result_cell) = induce_scalar(&cell, &array, induced_binop(*op), *rhs)?;
            Ok((result, result_cell, stats))
        }
        Expr::Condense { .. } => Err(QueryError::Semantic(
            "condensers produce scalars and cannot be used as array operands".to_string(),
        )),
    }
}

fn resolve_access<S: PageStore>(
    snap: &Snapshot<S>,
    expr: &Expr,
    from: &str,
) -> Result<ResolvedAccess> {
    let Expr::Access {
        collection,
        subscript,
    } = expr
    else {
        return Err(QueryError::Semantic(
            "condensers take an array access as argument, not another condenser".to_string(),
        ));
    };
    // The FROM object is resolved before the expression is checked against
    // it, as the cluster coordinator does, so a statement over a missing
    // object is an engine error on every endpoint.
    let meta = snap.object(from)?;
    if collection != from {
        return Err(QueryError::Semantic(format!(
            "expression references {collection:?} but FROM names {from:?}"
        )));
    }
    let current = meta.current_domain.clone().ok_or_else(|| {
        QueryError::Engine(tilestore_engine::EngineError::EmptyObject(
            collection.clone(),
        ))
    })?;
    let Some(axes) = subscript else {
        return Ok(ResolvedAccess {
            collection: collection.clone(),
            region: current,
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
        match sel {
            AxisSelect::All => {}
            AxisSelect::Point(c) => {
                let r = AxisRange::new(*c, *c).expect("degenerate range");
                region = region
                    .with_axis(axis, r)
                    .map_err(tilestore_engine::EngineError::from)?;
                fixed_axes.push(axis);
            }
            AxisSelect::Range { lo, hi } => {
                let lo = lo.unwrap_or_else(|| current.lo(axis));
                let hi = hi.unwrap_or_else(|| current.hi(axis));
                let r = AxisRange::new(lo, hi)
                    .map_err(|e| QueryError::Semantic(format!("axis {axis}: empty range: {e}")))?;
                region = region
                    .with_axis(axis, r)
                    .map_err(tilestore_engine::EngineError::from)?;
            }
        }
    }
    if fixed_axes.len() == axes.len() {
        return Err(QueryError::Semantic(
            "section fixes every axis; at least one axis must remain".to_string(),
        ));
    }
    Ok(ResolvedAccess {
        collection: collection.clone(),
        region,
        fixed_axes,
    })
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
