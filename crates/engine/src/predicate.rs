//! Cell-value predicates and synopsis-based tile pruning.
//!
//! A [`CellPredicate`] is the `where <obj> <op> <literal>` clause of a
//! query: cells failing it read as the type's default value (masked
//! select), so a tile the synopsis *proves* has no matching cell is
//! exactly equivalent to an all-default tile — the planner skips its blob
//! entirely and counts it in `tiles_pruned`. All pruning rules are
//! conservative: "don't know" never prunes, so pruned and unpruned
//! results are byte-identical by construction.

use crate::aggregate::decode_numeric;
use crate::celltype::CellType;
use crate::error::Result;
use crate::mdd::MddObject;
use crate::synopsis::{bins_eq, bins_ge, bins_le, TileSynopsis};

/// Comparison operators a cell predicate supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl std::fmt::Display for PredOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PredOp::Gt => ">",
            PredOp::Ge => ">=",
            PredOp::Lt => "<",
            PredOp::Le => "<=",
            PredOp::Eq => "=",
            PredOp::Ne => "!=",
        })
    }
}

/// Which synopsis rule proved a tile holds no matching cell (the planner's
/// pruning decision, decomposed for EXPLAIN).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneRule {
    /// The synopsis records zero cells — nothing can match.
    EmptyTile,
    /// The predicate's satisfiable range lies entirely outside the tile's
    /// `[min, max]` extrema.
    Extrema,
    /// The predicate's candidate value bins are disjoint from the tile's
    /// synopsis bin mask.
    SynopsisBins,
}

impl PruneRule {
    /// Stable short name used in EXPLAIN reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PruneRule::EmptyTile => "empty-tile",
            PruneRule::Extrema => "extrema",
            PruneRule::SynopsisBins => "synopsis-bins",
        }
    }
}

/// A value predicate `cell <op> literal` over a numeric cell type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellPredicate {
    /// The comparison operator.
    pub op: PredOp,
    /// The literal compared against.
    pub literal: f64,
}

impl std::fmt::Display for CellPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.op, self.literal)
    }
}

impl CellPredicate {
    /// Whether a cell value satisfies the predicate. IEEE semantics: NaN
    /// cells fail every comparison except `!=`.
    #[must_use]
    pub fn matches(&self, v: f64) -> bool {
        match self.op {
            PredOp::Gt => v > self.literal,
            PredOp::Ge => v >= self.literal,
            PredOp::Lt => v < self.literal,
            PredOp::Le => v <= self.literal,
            PredOp::Eq => v == self.literal,
            PredOp::Ne => v != self.literal,
        }
    }

    /// Mask of value bins that could hold a matching cell. A tile whose
    /// bin mask misses every candidate bin cannot match. `!=` admits every
    /// bin — bins are too coarse to exclude one value.
    #[must_use]
    pub fn candidate_bins(&self) -> u64 {
        match self.op {
            PredOp::Gt | PredOp::Ge => bins_ge(self.literal),
            PredOp::Lt | PredOp::Le => bins_le(self.literal),
            PredOp::Eq => bins_eq(self.literal),
            PredOp::Ne => !0,
        }
    }

    /// Whether synopsis bin disjointness may prune under this operator.
    /// `!=` admits every candidate bin, so
    /// disjointness could only ever fire on a tile with *no* binned cells
    /// — and NaN cells live in no bin yet satisfy `!=`, so firing there
    /// would drop matching cells (the PR 6 all-NaN reproduction).
    #[must_use]
    pub fn bins_can_prune(&self) -> bool {
        self.op != PredOp::Ne
    }

    /// Whether the synopsis *proves* no cell of the tile satisfies the
    /// predicate. Conservative: non-numeric synopses never prune, and NaN
    /// cells (excluded from the extrema) block the only rule they could
    /// break (`!=`, which NaN always satisfies).
    #[must_use]
    pub fn prunes_tile(&self, syn: &TileSynopsis) -> bool {
        self.prune_rule(syn).is_some()
    }

    /// Which pruning rule (if any) proves the tile holds no matching cell.
    /// This is [`CellPredicate::prunes_tile`] decomposed for EXPLAIN: the
    /// rules are checked in the same order the planner applies them, so the
    /// returned rule is the one that actually fires.
    #[must_use]
    pub fn prune_rule(&self, syn: &TileSynopsis) -> Option<PruneRule> {
        let (Some(min), Some(max)) = (syn.min(), syn.max()) else {
            return None;
        };
        if syn.cells() == 0 {
            return Some(PruneRule::EmptyTile);
        }
        let l = self.literal;
        let by_extrema = match self.op {
            PredOp::Gt => max <= l,
            PredOp::Ge => max < l,
            PredOp::Lt => min >= l,
            PredOp::Le => min > l,
            PredOp::Eq => l < min || l > max,
            PredOp::Ne => !syn.has_nan() && min == max && min == l,
        };
        if by_extrema {
            return Some(PruneRule::Extrema);
        }
        if self.bins_can_prune() && self.candidate_bins() & syn.bins() == 0 {
            return Some(PruneRule::SynopsisBins);
        }
        None
    }

    /// The one pruning test, shared by range queries, aggregates and
    /// EXPLAIN: whether tile `pos` of `meta` can be skipped, and by which
    /// synopsis rule; `None` means the tile must be fetched.
    pub(crate) fn prune(&self, meta: &MddObject, pos: usize) -> Option<PruneRule> {
        self.prune_rule(meta.tiles[pos].synopsis.as_ref()?)
    }

    /// The extrema comparison `prune_rule` applies for this operator, as a
    /// static rule string for EXPLAIN output.
    #[must_use]
    pub fn extrema_rule(&self) -> &'static str {
        match self.op {
            PredOp::Gt => "max <= literal",
            PredOp::Ge => "max < literal",
            PredOp::Lt => "min >= literal",
            PredOp::Le => "min > literal",
            PredOp::Eq => "literal outside [min, max]",
            PredOp::Ne => "constant tile == literal, no NaN",
        }
    }

    /// Rewrites every cell of a decoded payload that fails the predicate
    /// to the type's default value (masked select).
    ///
    /// # Errors
    /// Numeric decoding errors for non-numeric cell types (callers
    /// validate the type up front, so this is defensive).
    pub(crate) fn mask_payload(&self, cell: &CellType, payload: &mut [u8]) -> Result<()> {
        let size = cell.size.max(1);
        for chunk in payload.chunks_exact_mut(size) {
            let v = decode_numeric(cell, chunk)?;
            if !self.matches(v) {
                chunk.copy_from_slice(&cell.default);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celltype::CellType;

    fn syn_i32(values: &[i32]) -> TileSynopsis {
        let mut payload = vec![0u8; values.len() * 4];
        for (i, v) in values.iter().enumerate() {
            payload[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        TileSynopsis::scan(&CellType::of::<i32>(), &payload)
    }

    fn pred(op: PredOp, literal: f64) -> CellPredicate {
        CellPredicate { op, literal }
    }

    #[test]
    fn matches_follows_ieee_comparisons() {
        assert!(pred(PredOp::Gt, 1.0).matches(1.5));
        assert!(!pred(PredOp::Gt, 1.0).matches(1.0));
        assert!(pred(PredOp::Ge, 1.0).matches(1.0));
        assert!(pred(PredOp::Ne, 1.0).matches(f64::NAN));
        assert!(!pred(PredOp::Eq, f64::NAN).matches(f64::NAN));
        for op in [PredOp::Gt, PredOp::Ge, PredOp::Lt, PredOp::Le, PredOp::Eq] {
            assert!(!pred(op, 1.0).matches(f64::NAN), "{op}");
        }
    }

    #[test]
    fn extrema_pruning_is_exact_on_the_boundary() {
        let syn = syn_i32(&[3, 8, 5]); // min 3, max 8
        assert!(pred(PredOp::Gt, 8.0).prunes_tile(&syn));
        assert!(!pred(PredOp::Ge, 8.0).prunes_tile(&syn));
        assert!(pred(PredOp::Ge, 8.5).prunes_tile(&syn));
        assert!(pred(PredOp::Lt, 3.0).prunes_tile(&syn));
        assert!(!pred(PredOp::Le, 3.0).prunes_tile(&syn));
        assert!(pred(PredOp::Le, 2.5).prunes_tile(&syn));
        assert!(pred(PredOp::Eq, 9.0).prunes_tile(&syn));
        assert!(pred(PredOp::Eq, 2.0).prunes_tile(&syn));
        assert!(!pred(PredOp::Eq, 5.0).prunes_tile(&syn));
        assert!(!pred(PredOp::Ne, 5.0).prunes_tile(&syn));
    }

    #[test]
    fn ne_prunes_only_constant_tiles() {
        let constant = syn_i32(&[4, 4, 4]);
        assert!(pred(PredOp::Ne, 4.0).prunes_tile(&constant));
        assert!(!pred(PredOp::Ne, 5.0).prunes_tile(&constant));
        let varied = syn_i32(&[4, 5]);
        assert!(!pred(PredOp::Ne, 4.0).prunes_tile(&varied));
    }

    #[test]
    fn nan_blocks_ne_pruning() {
        let cell = CellType::of::<f64>();
        let mut payload = Vec::new();
        for v in [4.0f64, f64::NAN, 4.0] {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let syn = TileSynopsis::scan(&cell, &payload);
        // min == max == 4 but the NaN cell satisfies `!= 4`.
        assert!(!pred(PredOp::Ne, 4.0).prunes_tile(&syn));
        // NaN fails ordered comparisons, so those still prune.
        assert!(pred(PredOp::Gt, 4.0).prunes_tile(&syn));
    }

    #[test]
    fn non_numeric_synopses_never_prune() {
        use crate::celltype::Rgb;
        let cell = CellType::of::<Rgb>();
        let syn = TileSynopsis::scan(&cell, &[1, 2, 3, 0, 0, 0]);
        for op in [
            PredOp::Gt,
            PredOp::Ge,
            PredOp::Lt,
            PredOp::Le,
            PredOp::Eq,
            PredOp::Ne,
        ] {
            assert!(!pred(op, 0.0).prunes_tile(&syn), "{op}");
        }
    }

    #[test]
    fn bitmap_refinement_prunes_within_extrema_gaps() {
        // Values far apart: min -1000, max 1e9 — extrema cannot prune
        // `= 5.0`, but no cell falls in the bin of 5.0.
        let syn = syn_i32(&[-1000, 1_000_000_000]);
        assert!(pred(PredOp::Eq, 5.0).prunes_tile(&syn));
    }

    #[test]
    fn candidate_bins_match_op_shape() {
        let p = pred(PredOp::Ne, 7.0);
        assert_eq!(p.candidate_bins(), !0);
        let ge = pred(PredOp::Ge, 7.0).candidate_bins();
        let lt = pred(PredOp::Lt, 7.0).candidate_bins();
        assert_eq!(ge | lt, !0);
    }
}
