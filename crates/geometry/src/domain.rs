//! Bounded multidimensional intervals (spatial domains).

use std::fmt;
use std::str::FromStr;

use tilestore_testkit::{FromJson, Json, JsonError, ToJson};

use crate::error::{GeometryError, Result};
use crate::point::Point;

/// A closed integer range `[lo:hi]` along one axis (`lo <= hi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AxisRange {
    lo: i64,
    hi: i64,
}

impl AxisRange {
    /// Creates the range `[lo:hi]`.
    ///
    /// # Errors
    /// Returns [`GeometryError::EmptyAxis`] if `lo > hi` (axis index reported
    /// as 0; [`Domain::new`] re-reports with the true axis).
    pub fn new(lo: i64, hi: i64) -> Result<Self> {
        if lo > hi {
            return Err(GeometryError::EmptyAxis { axis: 0, lo, hi });
        }
        Ok(AxisRange { lo, hi })
    }

    /// Lower bound (inclusive).
    #[must_use]
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Upper bound (inclusive).
    #[must_use]
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// Number of integer coordinates in the range.
    #[must_use]
    pub fn extent(&self) -> u64 {
        self.hi.abs_diff(self.lo) + 1
    }

    /// Whether `x` lies in the range.
    #[must_use]
    pub fn contains(&self, x: i64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether `other` is fully inside `self`.
    #[must_use]
    pub fn contains_range(&self, other: &AxisRange) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether the two ranges share at least one coordinate.
    #[must_use]
    pub fn intersects(&self, other: &AxisRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection of the two ranges, if non-empty.
    #[must_use]
    pub fn intersection(&self, other: &AxisRange) -> Option<AxisRange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(AxisRange { lo, hi })
    }

    /// Smallest range containing both inputs.
    #[must_use]
    pub fn hull(&self, other: &AxisRange) -> AxisRange {
        AxisRange {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Gap between two ranges: 0 when they intersect or touch, otherwise the
    /// number of coordinates strictly between them.
    #[must_use]
    pub fn gap(&self, other: &AxisRange) -> u64 {
        if self.intersects(other) {
            0
        } else if self.hi < other.lo {
            other.lo.abs_diff(self.hi) - 1
        } else {
            self.lo.abs_diff(other.hi) - 1
        }
    }
}

/// A bounded d-dimensional interval `[l_1:u_1, ..., l_d:u_d]` — the spatial
/// domain of an MDD object or of one of its tiles (§3 of the paper).
///
/// `Domain` is the workhorse type of the library: tiles, query regions and
/// array extents are all domains. Construction validates `lo <= hi` on every
/// axis, so every `Domain` is non-empty by construction.
///
/// The [`Display`](fmt::Display)/[`FromStr`] notation follows the paper:
/// `"[0:120,0:159,0:119]"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Domain(Vec<AxisRange>);

impl Domain {
    /// Creates a domain from per-axis ranges.
    ///
    /// # Errors
    /// [`GeometryError::ZeroDimensional`] for an empty list.
    pub fn new(ranges: Vec<AxisRange>) -> Result<Self> {
        if ranges.is_empty() {
            return Err(GeometryError::ZeroDimensional);
        }
        Ok(Domain(ranges))
    }

    /// Creates a domain from `(lo, hi)` bound pairs.
    ///
    /// # Errors
    /// [`GeometryError::ZeroDimensional`] or [`GeometryError::EmptyAxis`].
    pub fn from_bounds(bounds: &[(i64, i64)]) -> Result<Self> {
        if bounds.is_empty() {
            return Err(GeometryError::ZeroDimensional);
        }
        let ranges: Result<Vec<AxisRange>> = bounds
            .iter()
            .enumerate()
            .map(|(axis, &(lo, hi))| {
                AxisRange::new(lo, hi).map_err(|_| GeometryError::EmptyAxis { axis, lo, hi })
            })
            .collect();
        Ok(Domain(ranges?))
    }

    /// Creates the domain spanning `lowest..=highest` on every axis.
    ///
    /// # Errors
    /// Propagates the errors of [`Domain::from_bounds`].
    pub fn from_corners(lowest: &Point, highest: &Point) -> Result<Self> {
        if lowest.dim() != highest.dim() {
            return Err(GeometryError::DimensionMismatch {
                left: lowest.dim(),
                right: highest.dim(),
            });
        }
        let bounds: Vec<(i64, i64)> = lowest
            .coords()
            .iter()
            .zip(highest.coords())
            .map(|(&l, &h)| (l, h))
            .collect();
        Domain::from_bounds(&bounds)
    }

    /// The single-cell domain containing exactly `point`.
    #[must_use]
    pub fn cell(point: &Point) -> Self {
        Domain(
            point
                .coords()
                .iter()
                .map(|&c| AxisRange { lo: c, hi: c })
                .collect(),
        )
    }

    /// Dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Per-axis ranges.
    #[must_use]
    pub fn ranges(&self) -> &[AxisRange] {
        &self.0
    }

    /// The range along `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= self.dim()`.
    #[must_use]
    pub fn axis(&self, axis: usize) -> AxisRange {
        self.0[axis]
    }

    /// Lower bound along `axis`.
    #[must_use]
    pub fn lo(&self, axis: usize) -> i64 {
        self.0[axis].lo
    }

    /// Upper bound along `axis`.
    #[must_use]
    pub fn hi(&self, axis: usize) -> i64 {
        self.0[axis].hi
    }

    /// Number of coordinates along `axis`.
    #[must_use]
    pub fn extent(&self, axis: usize) -> u64 {
        self.0[axis].extent()
    }

    /// Extents along every axis.
    #[must_use]
    pub fn extents(&self) -> Vec<u64> {
        self.0.iter().map(AxisRange::extent).collect()
    }

    /// Lowest corner `(l_1, ..., l_d)`.
    #[must_use]
    pub fn lowest(&self) -> Point {
        Point::new(self.0.iter().map(|r| r.lo).collect()).expect("domain is non-empty")
    }

    /// Highest corner `(u_1, ..., u_d)`.
    #[must_use]
    pub fn highest(&self) -> Point {
        Point::new(self.0.iter().map(|r| r.hi).collect()).expect("domain is non-empty")
    }

    /// Total number of cells, checked against `u64` overflow.
    ///
    /// # Errors
    /// [`GeometryError::CellCountOverflow`] when the product exceeds `u64`.
    pub fn cell_count(&self) -> Result<u64> {
        // The extent itself is checked too: a full `i64` axis has 2^64 cells.
        self.0.iter().try_fold(1u64, |acc, r| {
            r.hi.abs_diff(r.lo)
                .checked_add(1)
                .and_then(|extent| acc.checked_mul(extent))
                .ok_or(GeometryError::CellCountOverflow)
        })
    }

    /// Number of cells, panicking on overflow. Use for domains known small.
    #[must_use]
    pub fn cells(&self) -> u64 {
        self.cell_count().expect("cell count overflow")
    }

    /// Size in bytes for a given cell size.
    ///
    /// # Errors
    /// [`GeometryError::CellCountOverflow`] on overflow.
    pub fn size_bytes(&self, cell_size: usize) -> Result<u64> {
        self.cell_count()?
            .checked_mul(cell_size as u64)
            .ok_or(GeometryError::CellCountOverflow)
    }

    /// Whether `point` lies inside the domain.
    #[must_use]
    pub fn contains_point(&self, point: &Point) -> bool {
        point.dim() == self.dim()
            && self
                .0
                .iter()
                .zip(point.coords())
                .all(|(r, &c)| r.contains(c))
    }

    /// Whether `other` is entirely inside `self`.
    #[must_use]
    pub fn contains_domain(&self, other: &Domain) -> bool {
        other.dim() == self.dim()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| a.contains_range(b))
    }

    /// Whether the two domains share at least one cell.
    #[must_use]
    pub fn intersects(&self, other: &Domain) -> bool {
        other.dim() == self.dim() && self.0.iter().zip(&other.0).all(|(a, b)| a.intersects(b))
    }

    /// Intersection, if non-empty.
    #[must_use]
    pub fn intersection(&self, other: &Domain) -> Option<Domain> {
        if other.dim() != self.dim() {
            return None;
        }
        let ranges: Option<Vec<AxisRange>> = self
            .0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| a.intersection(b))
            .collect();
        ranges.map(Domain)
    }

    /// Closure operation of §4: the minimal interval containing both domains.
    ///
    /// # Errors
    /// [`GeometryError::DimensionMismatch`] when dimensionalities differ.
    pub fn hull(&self, other: &Domain) -> Result<Domain> {
        if other.dim() != self.dim() {
            return Err(GeometryError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(Domain(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| a.hull(b))
                .collect(),
        ))
    }

    /// Chebyshev distance between two domains: 0 when they intersect,
    /// otherwise the largest per-axis gap. Used by statistic tiling to decide
    /// whether two logged accesses are "closer than `DistanceThreshold`".
    ///
    /// # Errors
    /// [`GeometryError::DimensionMismatch`] when dimensionalities differ.
    pub fn distance(&self, other: &Domain) -> Result<u64> {
        if other.dim() != self.dim() {
            return Err(GeometryError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(self
            .0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| a.gap(b))
            .max()
            .unwrap_or(0))
    }

    /// Translates the domain by `offset` (component-wise).
    ///
    /// # Errors
    /// [`GeometryError::DimensionMismatch`] when dimensionalities differ.
    pub fn translate(&self, offset: &Point) -> Result<Domain> {
        if offset.dim() != self.dim() {
            return Err(GeometryError::DimensionMismatch {
                left: self.dim(),
                right: offset.dim(),
            });
        }
        Ok(Domain(
            self.0
                .iter()
                .zip(offset.coords())
                .map(|(r, &o)| AxisRange {
                    lo: r.lo + o,
                    hi: r.hi + o,
                })
                .collect(),
        ))
    }

    /// Returns a copy with `axis` replaced by `range`.
    ///
    /// # Errors
    /// [`GeometryError::AxisOutOfRange`] for a bad axis index.
    pub fn with_axis(&self, axis: usize, range: AxisRange) -> Result<Domain> {
        if axis >= self.dim() {
            return Err(GeometryError::AxisOutOfRange {
                axis,
                dim: self.dim(),
            });
        }
        let mut ranges = self.0.clone();
        ranges[axis] = range;
        Ok(Domain(ranges))
    }

    /// Drops the axes in `fixed` (sorted, deduplicated internally), producing
    /// the lower-dimensional domain of a *section* access (§5.1 type (d)).
    ///
    /// # Errors
    /// [`GeometryError::AxisOutOfRange`] for a bad axis;
    /// [`GeometryError::ZeroDimensional`] when all axes would be dropped.
    pub fn project_out(&self, fixed: &[usize]) -> Result<Domain> {
        for &axis in fixed {
            if axis >= self.dim() {
                return Err(GeometryError::AxisOutOfRange {
                    axis,
                    dim: self.dim(),
                });
            }
        }
        let ranges: Vec<AxisRange> = self
            .0
            .iter()
            .enumerate()
            .filter(|(i, _)| !fixed.contains(i))
            .map(|(_, r)| *r)
            .collect();
        Domain::new(ranges)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, r) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}:{}", r.lo, r.hi)?;
        }
        write!(f, "]")
    }
}

impl FromStr for Domain {
    type Err = GeometryError;

    /// Parses the paper notation `"[l1:u1,l2:u2,...]"`.
    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        let inner = s
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| GeometryError::Parse(format!("domain must be bracketed: {s:?}")))?;
        let mut bounds = Vec::new();
        for (axis, part) in inner.split(',').enumerate() {
            let (lo, hi) = part.split_once(':').ok_or_else(|| {
                GeometryError::Parse(format!("axis {axis}: missing ':' in {part:?}"))
            })?;
            let lo: i64 = lo.trim().parse().map_err(|e| {
                GeometryError::Parse(format!("axis {axis}: bad lower bound {lo:?}: {e}"))
            })?;
            let hi: i64 = hi.trim().parse().map_err(|e| {
                GeometryError::Parse(format!("axis {axis}: bad upper bound {hi:?}: {e}"))
            })?;
            bounds.push((lo, hi));
        }
        Domain::from_bounds(&bounds)
    }
}

impl ToJson for Domain {
    /// Serializes in the paper notation, e.g. `"[0:120,0:159]"`.
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for Domain {
    fn from_json(v: &Json) -> std::result::Result<Self, JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| JsonError::msg("expected domain string"))?;
        s.parse().map_err(|e| JsonError::msg(format!("{e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Domain::from_bounds(&[]).is_err());
        assert!(matches!(
            Domain::from_bounds(&[(0, 5), (3, 2)]),
            Err(GeometryError::EmptyAxis { axis: 1, .. })
        ));
        assert!(Domain::from_bounds(&[(5, 5)]).is_ok());
    }

    #[test]
    fn display_parse_round_trip() {
        let dom = d("[0:120,0:159,0:119]");
        assert_eq!(dom.to_string(), "[0:120,0:159,0:119]");
        assert_eq!(dom.dim(), 3);
        assert_eq!(dom.extent(0), 121);
        assert!(d("[-5:-1]").contains_point(&Point::from_slice(&[-3])));
        assert!("[1:2".parse::<Domain>().is_err());
        assert!("[2:1]".parse::<Domain>().is_err());
        assert!("[a:b]".parse::<Domain>().is_err());
    }

    #[test]
    fn cell_count_and_bytes() {
        let dom = d("[1:730,1:60,1:100]");
        assert_eq!(dom.cells(), 730 * 60 * 100);
        // 4-byte cells -> the 16.7 MB cube from Table 1.
        assert_eq!(dom.size_bytes(4).unwrap(), 730 * 60 * 100 * 4);
        let huge = Domain::from_bounds(&[(0, i64::MAX - 1), (0, i64::MAX - 1)]).unwrap();
        assert_eq!(huge.cell_count(), Err(GeometryError::CellCountOverflow));
    }

    #[test]
    fn containment_and_intersection() {
        let m = d("[0:9,0:9]");
        let q = d("[3:5,8:12]");
        assert!(!m.contains_domain(&q));
        assert!(m.intersects(&q));
        assert_eq!(m.intersection(&q), Some(d("[3:5,8:9]")));
        let disjoint = d("[20:30,0:9]");
        assert!(!m.intersects(&disjoint));
        assert_eq!(m.intersection(&disjoint), None);
        // Mismatched dims are simply "not intersecting".
        assert!(!m.intersects(&d("[0:1]")));
    }

    #[test]
    fn hull_is_closure_operation() {
        let a = d("[0:4,0:4]");
        let b = d("[8:9,2:3]");
        assert_eq!(a.hull(&b).unwrap(), d("[0:9,0:4]"));
        assert!(a.hull(&d("[0:1]")).is_err());
    }

    #[test]
    fn distance_is_chebyshev_gap() {
        let a = d("[0:4,0:4]");
        assert_eq!(a.distance(&d("[2:3,2:3]")).unwrap(), 0);
        assert_eq!(a.distance(&d("[6:8,0:4]")).unwrap(), 1);
        assert_eq!(a.distance(&d("[6:8,10:12]")).unwrap(), 5);
        // Touching ranges have gap 0.
        assert_eq!(a.distance(&d("[5:8,0:4]")).unwrap(), 0);
    }

    #[test]
    fn translate_and_with_axis() {
        let a = d("[0:4,10:14]");
        let t = a.translate(&Point::from_slice(&[100, -10])).unwrap();
        assert_eq!(t, d("[100:104,0:4]"));
        let w = a.with_axis(1, AxisRange::new(0, 0).unwrap()).unwrap();
        assert_eq!(w, d("[0:4,0:0]"));
        assert!(a.with_axis(5, AxisRange::new(0, 0).unwrap()).is_err());
    }

    #[test]
    fn project_out_drops_axes() {
        let a = d("[0:4,10:14,20:24]");
        assert_eq!(a.project_out(&[1]).unwrap(), d("[0:4,20:24]"));
        assert_eq!(a.project_out(&[0, 2]).unwrap(), d("[10:14]"));
        assert!(a.project_out(&[0, 1, 2]).is_err());
        assert!(a.project_out(&[7]).is_err());
    }

    #[test]
    fn corners() {
        let a = d("[0:4,10:14]");
        assert_eq!(a.lowest(), Point::from_slice(&[0, 10]));
        assert_eq!(a.highest(), Point::from_slice(&[4, 14]));
        assert_eq!(Domain::from_corners(&a.lowest(), &a.highest()).unwrap(), a);
        assert_eq!(Domain::cell(&Point::from_slice(&[7, 8])), d("[7:7,8:8]"));
    }
}
