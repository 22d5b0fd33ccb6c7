//! d-dimensional integer points.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;
use std::str::FromStr;

use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::error::{GeometryError, Result};

/// A point in the d-dimensional discrete coordinate space `Z^d`.
///
/// The paper (§3) assumes coordinate sets have been mapped to subintervals of
/// `Z^d` by higher DBMS layers, so a point is simply a tuple of `i64`
/// coordinates. Points are totally ordered by the row-major ("lower than")
/// relation of §3, which [`Ord`] implements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Point(Vec<i64>);

impl Point {
    /// Creates a point from its coordinates.
    ///
    /// # Errors
    /// Returns [`GeometryError::ZeroDimensional`] for an empty coordinate list.
    pub fn new(coords: Vec<i64>) -> Result<Self> {
        if coords.is_empty() {
            return Err(GeometryError::ZeroDimensional);
        }
        Ok(Point(coords))
    }

    /// Creates a point without validating; panics on zero dimensions.
    ///
    /// Convenient in tests and literals: `Point::from_slice(&[1, 2, 3])`.
    #[must_use]
    pub fn from_slice(coords: &[i64]) -> Self {
        Point::new(coords.to_vec()).expect("point must have at least one coordinate")
    }

    /// The origin (all-zero point) of dimensionality `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn origin(dim: usize) -> Self {
        assert!(dim > 0, "zero-dimensional point");
        Point(vec![0; dim])
    }

    /// Dimensionality of the point.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Coordinates as a slice.
    #[must_use]
    pub fn coords(&self) -> &[i64] {
        &self.0
    }

    /// Mutable access to the coordinates.
    pub fn coords_mut(&mut self) -> &mut [i64] {
        &mut self.0
    }

    /// Component-wise addition.
    ///
    /// # Errors
    /// Returns [`GeometryError::DimensionMismatch`] when dimensionalities differ.
    pub fn add(&self, other: &Point) -> Result<Point> {
        self.check_dim(other)?;
        Ok(Point(
            self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect(),
        ))
    }

    /// Component-wise subtraction.
    ///
    /// # Errors
    /// Returns [`GeometryError::DimensionMismatch`] when dimensionalities differ.
    pub fn sub(&self, other: &Point) -> Result<Point> {
        self.check_dim(other)?;
        Ok(Point(
            self.0.iter().zip(&other.0).map(|(a, b)| a - b).collect(),
        ))
    }

    /// Chebyshev (L∞) distance between two points.
    ///
    /// # Errors
    /// Returns [`GeometryError::DimensionMismatch`] when dimensionalities differ.
    pub fn linf_distance(&self, other: &Point) -> Result<u64> {
        self.check_dim(other)?;
        Ok(self
            .0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| a.abs_diff(*b))
            .max()
            .unwrap_or(0))
    }

    fn check_dim(&self, other: &Point) -> Result<()> {
        if self.dim() != other.dim() {
            return Err(GeometryError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(())
    }
}

impl Index<usize> for Point {
    type Output = i64;

    fn index(&self, axis: usize) -> &i64 {
        &self.0[axis]
    }
}

impl PartialOrd for Point {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Point {
    /// Row-major ("lower than") total order of §3: compare coordinates from
    /// the first (slowest-varying) axis to the last.
    ///
    /// Points of different dimensionality compare by dimensionality first so
    /// that `Ord`'s totality is preserved; mixing dimensionalities in ordered
    /// collections is a caller bug, not UB.
    fn cmp(&self, other: &Self) -> Ordering {
        self.dim()
            .cmp(&other.dim())
            .then_with(|| self.0.cmp(&other.0))
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl FromStr for Point {
    type Err = GeometryError;

    /// Parses `"(1,2,3)"` or `"1,2,3"`.
    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        let s = s.strip_prefix('(').unwrap_or(s);
        let s = s.strip_suffix(')').unwrap_or(s);
        let coords: Result<Vec<i64>> = s
            .split(',')
            .map(|part| {
                part.trim()
                    .parse::<i64>()
                    .map_err(|e| GeometryError::Parse(format!("bad coordinate {part:?}: {e}")))
            })
            .collect();
        Point::new(coords?)
    }
}

impl ToJson for Point {
    /// Serializes in the paper notation, e.g. `"(1,2,3)"`.
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for Point {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        r.str()?.parse().map_err(|e| JsonError::msg(format!("{e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty() {
        assert_eq!(Point::new(vec![]), Err(GeometryError::ZeroDimensional));
    }

    #[test]
    fn row_major_order_matches_paper_definition() {
        // x < y iff exists k: x_k < y_k and x_i = y_i for i < k.
        let a = Point::from_slice(&[1, 9, 9]);
        let b = Point::from_slice(&[2, 0, 0]);
        assert!(a < b);
        let c = Point::from_slice(&[1, 2, 3]);
        let d = Point::from_slice(&[1, 2, 4]);
        assert!(c < d);
        assert_eq!(c.cmp(&c), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        let a = Point::from_slice(&[1, 2]);
        let b = Point::from_slice(&[10, -5]);
        assert_eq!(a.add(&b).unwrap(), Point::from_slice(&[11, -3]));
        assert_eq!(b.sub(&a).unwrap(), Point::from_slice(&[9, -7]));
        assert_eq!(a.linf_distance(&b).unwrap(), 9);
    }

    #[test]
    fn mismatched_dims_error() {
        let a = Point::from_slice(&[1]);
        let b = Point::from_slice(&[1, 2]);
        assert!(matches!(
            a.add(&b),
            Err(GeometryError::DimensionMismatch { left: 1, right: 2 })
        ));
    }

    #[test]
    fn display_and_parse_round_trip() {
        let p = Point::from_slice(&[3, -1, 42]);
        let s = p.to_string();
        assert_eq!(s, "(3,-1,42)");
        assert_eq!(s.parse::<Point>().unwrap(), p);
        assert_eq!("7, 8".parse::<Point>().unwrap(), Point::from_slice(&[7, 8]));
        assert!("()".parse::<Point>().is_err());
        assert!("1,x".parse::<Point>().is_err());
    }

    #[test]
    fn origin_is_zeroes() {
        assert_eq!(Point::origin(3), Point::from_slice(&[0, 0, 0]));
    }
}
