//! Definition domains with possibly unlimited bounds (`*` in the paper).

use std::fmt;
use std::str::FromStr;

use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::domain::Domain;
use crate::error::{GeometryError, Result};

/// One axis of a definition domain: each bound is either a fixed coordinate
/// or unlimited (`*`), as in `[m.l_1:m.u_1, ..., m.l_k:m.*, ...]` (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefAxis {
    /// Lower bound; `None` means unlimited below.
    pub lo: Option<i64>,
    /// Upper bound; `None` means unlimited above.
    pub hi: Option<i64>,
}

impl DefAxis {
    /// A fully bounded axis `[lo:hi]`.
    ///
    /// # Errors
    /// [`GeometryError::EmptyAxis`] if `lo > hi`.
    pub fn bounded(lo: i64, hi: i64) -> Result<Self> {
        if lo > hi {
            return Err(GeometryError::EmptyAxis { axis: 0, lo, hi });
        }
        Ok(DefAxis {
            lo: Some(lo),
            hi: Some(hi),
        })
    }

    /// An axis unlimited in both directions `[*:*]`.
    #[must_use]
    pub fn unlimited() -> Self {
        DefAxis { lo: None, hi: None }
    }

    /// `[lo:*]` — bounded below, unlimited above (gradual growth upward).
    #[must_use]
    pub fn from_lo(lo: i64) -> Self {
        DefAxis {
            lo: Some(lo),
            hi: None,
        }
    }

    /// `[*:hi]` — unlimited below, bounded above.
    #[must_use]
    pub fn to_hi(hi: i64) -> Self {
        DefAxis {
            lo: None,
            hi: Some(hi),
        }
    }

    /// Whether a concrete coordinate satisfies the axis bounds.
    #[must_use]
    pub fn admits(&self, x: i64) -> bool {
        self.lo.is_none_or(|l| l <= x) && self.hi.is_none_or(|h| x <= h)
    }
}

/// The definition domain of an MDD type (§3): a d-dimensional interval whose
/// bounds may be unlimited. It is a *type-level* property — instances carry a
/// concrete, bounded *current domain* that must always lie inside it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DefDomain(Vec<DefAxis>);

impl DefDomain {
    /// Creates a definition domain from per-axis bounds.
    ///
    /// # Errors
    /// [`GeometryError::ZeroDimensional`] for an empty list.
    pub fn new(axes: Vec<DefAxis>) -> Result<Self> {
        if axes.is_empty() {
            return Err(GeometryError::ZeroDimensional);
        }
        Ok(DefDomain(axes))
    }

    /// A fully unlimited definition domain of dimensionality `dim`.
    ///
    /// # Errors
    /// [`GeometryError::ZeroDimensional`] when `dim == 0`.
    pub fn unlimited(dim: usize) -> Result<Self> {
        if dim == 0 {
            return Err(GeometryError::ZeroDimensional);
        }
        Ok(DefDomain(vec![DefAxis::unlimited(); dim]))
    }

    /// The definition domain exactly equal to a bounded domain.
    #[must_use]
    pub fn from_domain(domain: &Domain) -> Self {
        DefDomain(
            domain
                .ranges()
                .iter()
                .map(|r| DefAxis {
                    lo: Some(r.lo()),
                    hi: Some(r.hi()),
                })
                .collect(),
        )
    }

    /// Dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Per-axis bounds.
    #[must_use]
    pub fn axes(&self) -> &[DefAxis] {
        &self.0
    }

    /// Whether a concrete domain (e.g. a current domain, a tile, a query
    /// region) lies inside the definition domain.
    #[must_use]
    pub fn admits(&self, domain: &Domain) -> bool {
        domain.dim() == self.dim()
            && self
                .0
                .iter()
                .zip(domain.ranges())
                .all(|(a, r)| a.admits(r.lo()) && a.admits(r.hi()))
    }

    /// The bounded domain equal to this definition domain, if every bound is
    /// limited; `None` when any bound is `*`.
    #[must_use]
    pub fn as_bounded(&self) -> Option<Domain> {
        let bounds: Option<Vec<(i64, i64)>> = self.0.iter().map(|a| Some((a.lo?, a.hi?))).collect();
        Domain::from_bounds(&bounds?).ok()
    }
}

impl fmt::Display for DefDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match a.lo {
                Some(l) => write!(f, "{l}")?,
                None => write!(f, "*")?,
            }
            write!(f, ":")?;
            match a.hi {
                Some(h) => write!(f, "{h}")?,
                None => write!(f, "*")?,
            }
        }
        write!(f, "]")
    }
}

impl FromStr for DefDomain {
    type Err = GeometryError;

    /// Parses the paper notation with `*` for unlimited bounds, e.g.
    /// `"[0:*,*:*,0:99]"`.
    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        let inner = s
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| GeometryError::Parse(format!("domain must be bracketed: {s:?}")))?;
        let mut axes = Vec::new();
        for (axis, part) in inner.split(',').enumerate() {
            let (lo, hi) = part.split_once(':').ok_or_else(|| {
                GeometryError::Parse(format!("axis {axis}: missing ':' in {part:?}"))
            })?;
            let parse_bound = |text: &str| -> Result<Option<i64>> {
                let text = text.trim();
                if text == "*" {
                    Ok(None)
                } else {
                    text.parse::<i64>().map(Some).map_err(|e| {
                        GeometryError::Parse(format!("axis {axis}: bad bound {text:?}: {e}"))
                    })
                }
            };
            let (lo, hi) = (parse_bound(lo)?, parse_bound(hi)?);
            if let (Some(l), Some(h)) = (lo, hi) {
                if l > h {
                    return Err(GeometryError::EmptyAxis { axis, lo: l, hi: h });
                }
            }
            axes.push(DefAxis { lo, hi });
        }
        DefDomain::new(axes)
    }
}

impl ToJson for DefDomain {
    /// Serializes in the paper notation with `*` for unlimited bounds, e.g.
    /// `"[0:*,*:*]"`.
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for DefDomain {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        r.str()?.parse().map_err(|e| JsonError::msg(format!("{e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let dd: DefDomain = "[0:*,*:*,0:99]".parse().unwrap();
        assert_eq!(dd.to_string(), "[0:*,*:*,0:99]");
        assert_eq!(dd.dim(), 3);
        assert!("[5:1]".parse::<DefDomain>().is_err());
        assert!("[*:*".parse::<DefDomain>().is_err());
    }

    #[test]
    fn admits_checks_every_bounded_side() {
        let dd: DefDomain = "[0:*,*:*,0:99]".parse().unwrap();
        let ok: Domain = "[0:1000,-50:50,0:99]".parse().unwrap();
        assert!(dd.admits(&ok));
        let below: Domain = "[-1:10,0:0,0:99]".parse().unwrap();
        assert!(!dd.admits(&below));
        let above: Domain = "[0:10,0:0,0:100]".parse().unwrap();
        assert!(!dd.admits(&above));
        let wrong_dim: Domain = "[0:10]".parse().unwrap();
        assert!(!dd.admits(&wrong_dim));
    }

    #[test]
    fn as_bounded_requires_all_limits() {
        let dd: DefDomain = "[0:9,1:5]".parse().unwrap();
        assert_eq!(dd.as_bounded().unwrap(), "[0:9,1:5]".parse().unwrap());
        let open: DefDomain = "[0:*]".parse().unwrap();
        assert!(open.as_bounded().is_none());
    }

    #[test]
    fn constructors() {
        assert!(DefDomain::unlimited(0).is_err());
        let dd = DefDomain::unlimited(2).unwrap();
        assert!(dd.admits(&"[-100:100,-100:100]".parse().unwrap()));
        let dom: Domain = "[3:7,1:2]".parse().unwrap();
        let dd = DefDomain::from_domain(&dom);
        assert!(dd.admits(&dom));
        assert!(!dd.admits(&"[2:7,1:2]".parse().unwrap()));
        assert!(DefAxis::from_lo(0).admits(5));
        assert!(!DefAxis::from_lo(0).admits(-1));
        assert!(DefAxis::to_hi(9).admits(-100));
        assert!(!DefAxis::to_hi(9).admits(10));
        assert!(DefAxis::bounded(3, 2).is_err());
    }
}
