//! Abstract syntax of the query language. Operators are the engine's own
//! types, so a parsed statement needs no translation table to execute.

use tilestore_engine::{AggKind, BinOp, PredOp};

/// One axis of a trim/section subscript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisSelect {
    /// `lo:hi` — a trim along this axis (either side may be `*`).
    Range {
        /// Lower bound; `None` for `*`.
        lo: Option<i64>,
        /// Upper bound; `None` for `*`.
        hi: Option<i64>,
    },
    /// A single coordinate — a *section*: the axis is fixed and dropped
    /// from the result's dimensionality (RasQL semantics, §5.1 type (d)).
    Point(i64),
    /// A bare `*` — the whole axis.
    All,
}

/// The condenser (aggregation) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condenser {
    /// `sum_cells`
    Sum,
    /// `avg_cells`
    Avg,
    /// `min_cells`
    Min,
    /// `max_cells`
    Max,
    /// `count_cells` — cells different from the default value.
    Count,
    /// `some_cells`
    Some,
    /// `all_cells`
    All,
}

impl Condenser {
    /// The surface-syntax function name (inverse of [`Condenser::from_name`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Condenser::Sum => "sum_cells",
            Condenser::Avg => "avg_cells",
            Condenser::Min => "min_cells",
            Condenser::Max => "max_cells",
            Condenser::Count => "count_cells",
            Condenser::Some => "some_cells",
            Condenser::All => "all_cells",
        }
    }

    /// The engine aggregation this condenser runs.
    #[must_use]
    pub fn kind(self) -> AggKind {
        match self {
            Condenser::Sum => AggKind::Sum,
            Condenser::Avg => AggKind::Avg,
            Condenser::Min => AggKind::Min,
            Condenser::Max => AggKind::Max,
            Condenser::Count => AggKind::CountNonDefault,
            Condenser::Some => AggKind::SomeNonDefault,
            Condenser::All => AggKind::AllNonDefault,
        }
    }

    /// Parses a function name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "sum_cells" => Some(Condenser::Sum),
            "avg_cells" => Some(Condenser::Avg),
            "min_cells" => Some(Condenser::Min),
            "max_cells" => Some(Condenser::Max),
            "count_cells" => Some(Condenser::Count),
            "some_cells" => Some(Condenser::Some),
            "all_cells" => Some(Condenser::All),
            _ => None,
        }
    }
}

/// A query expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A collection reference with an optional subscript.
    Access {
        /// Collection (MDD object) name.
        collection: String,
        /// Per-axis selection; `None` = whole object.
        subscript: Option<Vec<AxisSelect>>,
    },
    /// A condenser applied to a sub-expression.
    Condense {
        /// The aggregation.
        op: Condenser,
        /// The argument (must be an array-valued access).
        arg: Box<Expr>,
    },
    /// An induced operation: `lhs ⊕ scalar` applied to every cell.
    Induce {
        /// The array-valued operand.
        lhs: Box<Expr>,
        /// The operator.
        op: BinOp,
        /// The scalar right-hand side.
        rhs: f64,
    },
}

/// The `WHERE collection <op> literal` clause: a cell-value predicate.
/// Cells failing the comparison read as the type's default value (masked
/// select), and the planner prunes tiles whose synopsis proves they cannot
/// match.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The collection whose cells are compared (must match `FROM`).
    pub collection: String,
    /// The comparison.
    pub op: PredOp,
    /// The scalar literal compared against.
    pub literal: f64,
}

/// A full query: `SELECT expr FROM collection [WHERE collection op literal]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The selected expression.
    pub expr: Expr,
    /// The collection named in `FROM`.
    pub from: String,
    /// The optional cell-value predicate.
    pub predicate: Option<Predicate>,
}

/// A top-level statement: a query to run, or a request for the planner's
/// report on one (`EXPLAIN <query>` / `EXPLAIN ANALYZE <query>`).
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A plain query.
    Query(Query),
    /// `EXPLAIN [ANALYZE] <query>` — report per-tile planner decisions;
    /// with `analyze`, also execute and attach the actual counters.
    Explain {
        /// The statement being explained.
        query: Query,
        /// Whether to execute the query and attach measured statistics.
        analyze: bool,
    },
}

// ---------------------------------------------------------------------------
// Surface-syntax rendering. The cluster coordinator rewrites a parsed query
// (clipping the subscript to a shard's owned sub-domain) and ships the result
// back through the wire protocol as text, so every AST node must print in a
// form [`crate::parse_statement`] accepts and that round-trips to an equal
// AST. Scalars rely on Rust's shortest-round-trip `f64` formatting.

impl std::fmt::Display for AxisSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn bound(f: &mut std::fmt::Formatter<'_>, b: Option<i64>) -> std::fmt::Result {
            match b {
                Some(v) => write!(f, "{v}"),
                None => write!(f, "*"),
            }
        }
        match self {
            AxisSelect::Range { lo, hi } => {
                bound(f, *lo)?;
                write!(f, ":")?;
                bound(f, *hi)
            }
            AxisSelect::Point(c) => write!(f, "{c}"),
            AxisSelect::All => write!(f, "*"),
        }
    }
}

impl std::fmt::Display for Condenser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Formats a scalar literal so the tokenizer reads it back as one token:
/// negative values print with a leading `-` the parser folds into the
/// literal, and non-finite values (unreachable from parsed queries) fall
/// back to `0` rather than printing unparseable text.
fn fmt_scalar(f: &mut std::fmt::Formatter<'_>, v: f64) -> std::fmt::Result {
    if v.is_finite() {
        write!(f, "{v}")
    } else {
        write!(f, "0")
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Access {
                collection,
                subscript,
            } => {
                write!(f, "{collection}")?;
                if let Some(axes) = subscript {
                    write!(f, "[")?;
                    for (i, a) in axes.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            Expr::Condense { op, arg } => write!(f, "{op}({arg})"),
            Expr::Induce { lhs, op, rhs } => {
                write!(f, "{lhs} {} ", op.symbol())?;
                fmt_scalar(f, *rhs)
            }
        }
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} ", self.collection, self.op)?;
        fmt_scalar(f, self.literal)
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SELECT {} FROM {}", self.expr, self.from)?;
        if let Some(p) = &self.predicate {
            write!(f, " WHERE {p}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Statement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Explain { query, analyze } => {
                if *analyze {
                    write!(f, "EXPLAIN ANALYZE {query}")
                } else {
                    write!(f, "EXPLAIN {query}")
                }
            }
        }
    }
}
