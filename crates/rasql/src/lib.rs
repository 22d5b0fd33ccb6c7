//! A small RasQL-style query language over tilestore databases.
//!
//! The paper's evaluation drives the storage manager through RasQL, the
//! RasDaMan query language; this crate provides the equivalent declarative
//! surface for the subset the storage layer sees — rectangular trims,
//! sections and condensers:
//!
//! ```text
//! SELECT img[0:99, 0:99]                 FROM img   -- range query  (§5.1 b)
//! SELECT cube[*:*, 27:41, 27:34]         FROM cube  -- partial range (§5.1 c)
//! SELECT video[42, *, *]                 FROM video -- section      (§5.1 d)
//! SELECT avg_cells(cube[0:30, *, 27:34]) FROM cube  -- sub-aggregation
//! ```
//!
//! Induced operations apply scalars cell-wise — `img + 10`, `cube > 100`
//! (comparisons yield boolean `u8` arrays) — and compose with condensers:
//! `count_cells(cube > 100)`.
//!
//! Condensers: `sum_cells`, `avg_cells`, `min_cells`, `max_cells` (numeric
//! cell types), `count_cells`, `some_cells`, `all_cells` (any cell type;
//! "non-default" plays the role RasQL's booleans do). Sections use RasQL
//! semantics: a single coordinate fixes the axis and drops it from the
//! result's dimensionality. `*` bounds resolve against the object's current
//! domain. Queries execute against an engine read snapshot
//! ([`Database::begin_read`](tilestore_engine::Database::begin_read)), so a
//! session of statements observes one consistent catalog epoch; aggregations
//! stream tiles via
//! [`Snapshot::aggregate`](tilestore_engine::Snapshot::aggregate), never
//! materializing the queried region.
//!
//! This crate is the only place that decides what a statement means. The
//! AST carries the engine's own operator types
//! ([`BinOp`](tilestore_engine::BinOp),
//! [`PredOp`](tilestore_engine::PredOp)), and [`Shape`] resolves a query in
//! two steps: [`Shape::of`] checks it without a catalog, and
//! [`Shape::resolve`] resolves its access against a current domain. The
//! single-engine executor runs both against one object; the cluster
//! coordinator runs the first before pinning shards and the second against
//! the shards' hull, so the two endpoints cannot disagree on a statement.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod ast;
mod error;
mod exec;
mod parser;
mod token;

pub use ast::{AxisSelect, Condenser, Expr, Predicate, Query, Statement};
pub use error::{QueryError, Result};
pub use exec::{
    execute, execute_query, execute_statement, explain_query, AnalyzeInfo, ExplainReport,
    ResolvedAccess, Shape, StatementResult, Value,
};
pub use parser::{parse, parse_statement};
pub use token::{tokenize, Token, TokenKind};
