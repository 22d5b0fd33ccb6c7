//! Recursive-descent parser for the query language.
//!
//! ```text
//! statement := EXPLAIN ANALYZE? query | query
//! query     := SELECT expr FROM ident (WHERE ident cmpop scalar)?
//! expr      := operand (binop scalar)*   -- induced ops, left-associative
//! operand   := ident '(' expr ')'        -- condensers (sum_cells, …)
//!            | ident subscript?
//! binop     := '+' | '-' | '*' | '/' | cmpop
//! cmpop     := '>' | '>=' | '<' | '<=' | '=' | '!='
//! scalar    := ['-'] (INT | FLOAT)
//! subscript := '[' axis (',' axis)* ']'
//! axis      := bound ':' bound | signed_int | '*'
//! bound     := signed_int | '*'
//! ```

use tilestore_engine::{BinOp, PredOp};

use crate::ast::{AxisSelect, Condenser, Expr, Predicate, Query, Statement};
use crate::error::{QueryError, Result};
use crate::token::{tokenize, Token, TokenKind};

/// Parses a query string.
///
/// # Errors
/// [`QueryError::Lex`] / [`QueryError::Parse`] / [`QueryError::Semantic`].
pub fn parse(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    let query = p.query()?;
    p.expect_end()?;
    Ok(query)
}

/// Parses a top-level statement: a query, or `EXPLAIN [ANALYZE] <query>`.
///
/// # Errors
/// [`QueryError::Lex`] / [`QueryError::Parse`] / [`QueryError::Semantic`].
pub fn parse_statement(input: &str) -> Result<Statement> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    let statement = p.statement()?;
    p.expect_end()?;
    Ok(statement)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn at(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.input_len, |t| t.at)
    }

    fn advance(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t.map(|t| t.kind)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(QueryError::Parse {
            at: self.at(),
            message: message.into(),
        })
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn expect_end(&self) -> Result<()> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.err("trailing input after query")
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.advance() {
            Some(TokenKind::Ident(name)) => Ok(name),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected {what}, found {other:?}"))
            }
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.peek() == Some(&TokenKind::Explain) {
            self.pos += 1;
            let analyze = if self.peek() == Some(&TokenKind::Analyze) {
                self.pos += 1;
                true
            } else {
                false
            };
            return Ok(Statement::Explain {
                query: self.query()?,
                analyze,
            });
        }
        Ok(Statement::Query(self.query()?))
    }

    fn query(&mut self) -> Result<Query> {
        self.expect(&TokenKind::Select, "SELECT")?;
        let expr = self.expr()?;
        self.expect(&TokenKind::From, "FROM")?;
        let from = self.ident("collection name")?;
        let predicate = if self.peek() == Some(&TokenKind::Where) {
            self.pos += 1;
            Some(self.predicate()?)
        } else {
            None
        };
        Ok(Query {
            expr,
            from,
            predicate,
        })
    }

    fn predicate(&mut self) -> Result<Predicate> {
        let collection = self.ident("collection name after WHERE")?;
        let op = match self.peek().and_then(comparison) {
            Some(op) => {
                self.pos += 1;
                op
            }
            _ => {
                return self.err(format!(
                    "expected a comparison (>, >=, <, <=, =, !=) after WHERE, found {:?}",
                    self.peek()
                ))
            }
        };
        let literal = self.scalar()?;
        Ok(Predicate {
            collection,
            op,
            literal,
        })
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.operand()?;
        // Induced operations chain left-associatively.
        while let Some(op) = self.peek().and_then(induced_op) {
            self.pos += 1;
            let rhs = self.scalar()?;
            lhs = Expr::Induce {
                lhs: Box::new(lhs),
                op,
                rhs,
            };
        }
        Ok(lhs)
    }

    fn scalar(&mut self) -> Result<f64> {
        let negative = if self.peek() == Some(&TokenKind::Minus) {
            self.pos += 1;
            true
        } else {
            false
        };
        let value = match self.advance() {
            Some(TokenKind::Int(v)) => v as f64,
            Some(TokenKind::Float(v)) => v,
            other => {
                self.pos = self.pos.saturating_sub(1);
                return self.err(format!("expected a scalar, found {other:?}"));
            }
        };
        Ok(if negative { -value } else { value })
    }

    fn operand(&mut self) -> Result<Expr> {
        let name = self.ident("collection or function name")?;
        if self.peek() == Some(&TokenKind::LParen) {
            let Some(op) = Condenser::from_name(&name) else {
                return Err(QueryError::Semantic(format!(
                    "unknown function {name:?} (expected sum_cells, avg_cells, min_cells, \
                     max_cells, count_cells, some_cells or all_cells)"
                )));
            };
            self.expect(&TokenKind::LParen, "'('")?;
            let arg = self.expr()?;
            self.expect(&TokenKind::RParen, "')'")?;
            return Ok(Expr::Condense {
                op,
                arg: Box::new(arg),
            });
        }
        let subscript = if self.peek() == Some(&TokenKind::LBracket) {
            Some(self.subscript()?)
        } else {
            None
        };
        Ok(Expr::Access {
            collection: name,
            subscript,
        })
    }

    fn subscript(&mut self) -> Result<Vec<AxisSelect>> {
        self.expect(&TokenKind::LBracket, "'['")?;
        let mut axes = vec![self.axis()?];
        while self.peek() == Some(&TokenKind::Comma) {
            self.pos += 1;
            axes.push(self.axis()?);
        }
        self.expect(&TokenKind::RBracket, "']'")?;
        Ok(axes)
    }

    fn axis(&mut self) -> Result<AxisSelect> {
        let lo = self.bound()?;
        if self.peek() == Some(&TokenKind::Colon) {
            self.pos += 1;
            let hi = self.bound()?;
            return Ok(AxisSelect::Range { lo, hi });
        }
        match lo {
            Some(c) => Ok(AxisSelect::Point(c)),
            None => Ok(AxisSelect::All),
        }
    }

    fn bound(&mut self) -> Result<Option<i64>> {
        let negative = if self.peek() == Some(&TokenKind::Minus) {
            self.pos += 1;
            true
        } else {
            false
        };
        match self.advance() {
            Some(TokenKind::Int(v)) => Ok(Some(if negative { -v } else { v })),
            Some(TokenKind::Star) if !negative => Ok(None),
            other => {
                self.pos = self.pos.saturating_sub(1);
                self.err(format!("expected integer or '*', found {other:?}"))
            }
        }
    }
}

/// Maps a token to an induced operator, when it is one.
fn induced_op(kind: &TokenKind) -> Option<BinOp> {
    match kind {
        TokenKind::Plus => Some(BinOp::Add),
        TokenKind::Minus => Some(BinOp::Sub),
        TokenKind::Star => Some(BinOp::Mul),
        TokenKind::Slash => Some(BinOp::Div),
        TokenKind::Gt => Some(BinOp::Gt),
        TokenKind::Ge => Some(BinOp::Ge),
        TokenKind::Lt => Some(BinOp::Lt),
        TokenKind::Le => Some(BinOp::Le),
        TokenKind::Eq => Some(BinOp::Eq),
        TokenKind::Ne => Some(BinOp::Ne),
        _ => None,
    }
}

/// Maps a token to a `WHERE` comparison, when it is one.
fn comparison(kind: &TokenKind) -> Option<PredOp> {
    match kind {
        TokenKind::Gt => Some(PredOp::Gt),
        TokenKind::Ge => Some(PredOp::Ge),
        TokenKind::Lt => Some(PredOp::Lt),
        TokenKind::Le => Some(PredOp::Le),
        TokenKind::Eq => Some(PredOp::Eq),
        TokenKind::Ne => Some(PredOp::Ne),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_object_query() {
        let q = parse("SELECT img FROM img").unwrap();
        assert_eq!(q.from, "img");
        assert_eq!(
            q.expr,
            Expr::Access {
                collection: "img".into(),
                subscript: None
            }
        );
    }

    #[test]
    fn trim_query_with_stars_and_sections() {
        let q = parse("select cube[0:99, * , 7, 2:*] from cube").unwrap();
        let Expr::Access {
            subscript: Some(axes),
            ..
        } = q.expr
        else {
            panic!("expected access");
        };
        assert_eq!(
            axes,
            vec![
                AxisSelect::Range {
                    lo: Some(0),
                    hi: Some(99)
                },
                AxisSelect::All,
                AxisSelect::Point(7),
                AxisSelect::Range {
                    lo: Some(2),
                    hi: None
                },
            ]
        );
    }

    #[test]
    fn condenser_query() {
        let q = parse("SELECT avg_cells(cube[0:9,0:9]) FROM cube").unwrap();
        let Expr::Condense { op, arg } = q.expr else {
            panic!("expected condense");
        };
        assert_eq!(op, Condenser::Avg);
        assert!(matches!(*arg, Expr::Access { .. }));
    }

    #[test]
    fn negative_bounds() {
        let q = parse("SELECT m[-10:-1] FROM m").unwrap();
        let Expr::Access {
            subscript: Some(axes),
            ..
        } = q.expr
        else {
            panic!("expected access");
        };
        assert_eq!(
            axes,
            vec![AxisSelect::Range {
                lo: Some(-10),
                hi: Some(-1)
            }]
        );
    }

    #[test]
    fn induced_expressions() {
        let q = parse("SELECT img + 10 FROM img").unwrap();
        let Expr::Induce { op, rhs, .. } = q.expr else {
            panic!("expected induce");
        };
        assert_eq!(op, BinOp::Add);
        assert_eq!(rhs, 10.0);

        let q = parse("SELECT img[0:9,0:9] > 2.5 FROM img").unwrap();
        let Expr::Induce { op, rhs, lhs } = q.expr else {
            panic!("expected induce");
        };
        assert_eq!(op, BinOp::Gt);
        assert_eq!(rhs, 2.5);
        assert!(matches!(*lhs, Expr::Access { .. }));

        // Chains are left-associative; negative scalars parse.
        let q = parse("SELECT img * 2 - -3 FROM img").unwrap();
        let Expr::Induce { op, rhs, lhs } = q.expr else {
            panic!("expected induce");
        };
        assert_eq!(op, BinOp::Sub);
        assert_eq!(rhs, -3.0);
        assert!(matches!(*lhs, Expr::Induce { op: BinOp::Mul, .. }));

        // Condenser over an induced expression.
        let q = parse("SELECT count_cells(img > 100) FROM img").unwrap();
        let Expr::Condense { arg, .. } = q.expr else {
            panic!("expected condense");
        };
        assert!(matches!(*arg, Expr::Induce { .. }));
    }

    #[test]
    fn where_clause_parses_comparisons() {
        let q = parse("SELECT img FROM img WHERE img > 100").unwrap();
        assert_eq!(
            q.predicate,
            Some(Predicate {
                collection: "img".into(),
                op: PredOp::Gt,
                literal: 100.0
            })
        );
        // Negative and fractional literals; every comparison op.
        let q = parse("SELECT img FROM img where img <= -2.5").unwrap();
        let p = q.predicate.unwrap();
        assert_eq!(p.op, PredOp::Le);
        assert_eq!(p.literal, -2.5);
        for (text, op) in [
            (">", PredOp::Gt),
            (">=", PredOp::Ge),
            ("<", PredOp::Lt),
            ("<=", PredOp::Le),
            ("=", PredOp::Eq),
            ("!=", PredOp::Ne),
        ] {
            let q = parse(&format!("SELECT img FROM img WHERE img {text} 7")).unwrap();
            assert_eq!(q.predicate.unwrap().op, op, "{text}");
        }
        // A query without WHERE carries no predicate.
        assert_eq!(parse("SELECT img FROM img").unwrap().predicate, None);
        // Condensers compose with WHERE.
        let q = parse("SELECT sum_cells(img[0:9,0:9]) FROM img WHERE img > 3").unwrap();
        assert!(matches!(q.expr, Expr::Condense { .. }));
        assert!(q.predicate.is_some());
    }

    #[test]
    fn explain_statements_parse() {
        let s = parse_statement("EXPLAIN SELECT img FROM img").unwrap();
        let Statement::Explain { query, analyze } = s else {
            panic!("expected explain");
        };
        assert!(!analyze);
        assert_eq!(query.from, "img");

        let s = parse_statement("explain analyze SELECT img FROM img WHERE img > 1").unwrap();
        let Statement::Explain { query, analyze } = s else {
            panic!("expected explain");
        };
        assert!(analyze);
        assert!(query.predicate.is_some());

        // A plain query parses as Statement::Query.
        let s = parse_statement("SELECT img FROM img").unwrap();
        assert!(matches!(s, Statement::Query(_)));

        // ANALYZE only follows EXPLAIN; EXPLAIN needs a query after it.
        assert!(parse_statement("ANALYZE SELECT img FROM img").is_err());
        assert!(parse_statement("EXPLAIN").is_err());
        assert!(parse_statement("EXPLAIN EXPLAIN SELECT img FROM img").is_err());
        // `parse` (query entry point) rejects EXPLAIN statements.
        assert!(parse("EXPLAIN SELECT img FROM img").is_err());
    }

    #[test]
    fn syntax_errors_are_located() {
        for bad in [
            "img FROM img",
            "SELECT FROM img",
            "SELECT img FROM",
            "SELECT img[ FROM img",
            "SELECT img[1:2 FROM img",
            "SELECT img[] FROM img",
            "SELECT frob(img) FROM img",
            "SELECT img FROM img extra",
            "SELECT img + FROM img",
            "SELECT img > > 1 FROM img",
            "SELECT img FROM img WHERE",
            "SELECT img FROM img WHERE img",
            "SELECT img FROM img WHERE img + 1",
            "SELECT img FROM img WHERE img > ",
            "SELECT img FROM img WHERE > 1",
            "SELECT img FROM img WHERE img > 1 extra",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn display_round_trips_through_parse() {
        // The cluster coordinator rewrites parsed statements and re-serializes
        // them over the wire, so Display output must parse back to an equal
        // AST — including negative bounds, stars, sections, induced chains,
        // fractional/negative scalars, predicates and EXPLAIN variants.
        for text in [
            "SELECT img FROM img",
            "SELECT cube[0:99, *, 7, 2:*] FROM cube",
            "SELECT m[-10:-1] FROM m",
            "SELECT m[*:5, -3:*] FROM m",
            "SELECT img + 10 FROM img",
            "SELECT img[0:9, 0:9] > 2.5 FROM img",
            "SELECT img * 2 - -3 FROM img",
            "SELECT count_cells(img > 100) FROM img",
            "SELECT avg_cells(cube[0:9, 0:9]) FROM cube",
            "SELECT sum_cells(img) FROM img WHERE img > 3",
            "SELECT img FROM img WHERE img <= -2.5",
            "SELECT min_cells(cube[2, *, 0:4]) FROM cube WHERE cube != 0.5",
            "EXPLAIN SELECT img FROM img WHERE img > 1",
            "EXPLAIN ANALYZE SELECT max_cells(cube[0:3, 1:2, *]) FROM cube",
        ] {
            let stmt = parse_statement(text).unwrap();
            let printed = stmt.to_string();
            let reparsed = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("{printed:?} failed to re-parse: {e}"));
            assert_eq!(stmt, reparsed, "round-trip changed {text:?} → {printed:?}");
        }
    }
}
