//! Tile configurations and the tile-format computation of §5.2.
//!
//! A *tile configuration* `(r_1, ..., r_d)` expresses the user's relative
//! size preferences per direction; entries may be `*` ("infinite") to mark
//! preferential scan directions. The storage manager — not the user — turns
//! the configuration into a concrete *tile format* `(t_1, ..., t_d)` sized
//! to optimally fill `MaxTileSize`, because the user "has no knowledge of
//! low level storage parameters".

use std::fmt;
use std::str::FromStr;

use tilestore_geometry::Domain;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::error::{Result, TilingError};
use crate::spec::check_cell_fits;

/// One entry of a tile configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Extent {
    /// A finite relative size `r_i > 0`.
    Fixed(u64),
    /// `*` — maximize tile length along this direction (preferential scan
    /// direction).
    Unbounded,
}

/// A tile configuration `(r_1, ..., r_d)`.
///
/// Examples from the paper: `[*, 1, *]` for frame-by-frame access to a 3-D
/// animation cut along direction `y`; `[1, *, 1]` for accesses fixing
/// `x = c_1 ∧ z = c_2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TileConfig(Vec<Extent>);

impl TileConfig {
    /// Creates a configuration from per-axis entries.
    ///
    /// # Errors
    /// [`TilingError::ZeroConfigEntry`] when a finite entry is zero;
    /// [`TilingError::ConfigDimensionMismatch`] for an empty list.
    pub fn new(entries: Vec<Extent>) -> Result<Self> {
        if entries.is_empty() {
            return Err(TilingError::ConfigDimensionMismatch {
                config: 0,
                domain: 0,
            });
        }
        for (axis, e) in entries.iter().enumerate() {
            if matches!(e, Extent::Fixed(0)) {
                return Err(TilingError::ZeroConfigEntry { axis });
            }
        }
        Ok(TileConfig(entries))
    }

    /// The default configuration for dimensionality `dim`: equal relative
    /// sizes on every axis (cubic tiles — the paper's *default tiling* is
    /// aligned with no stated preference).
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn equal(dim: usize) -> Self {
        assert!(dim > 0, "zero-dimensional configuration");
        TileConfig(vec![Extent::Fixed(1); dim])
    }

    /// Convenience constructor from finite relative sizes.
    ///
    /// # Errors
    /// Propagates [`TileConfig::new`] validation.
    pub fn from_sizes(sizes: &[u64]) -> Result<Self> {
        TileConfig::new(sizes.iter().map(|&s| Extent::Fixed(s)).collect())
    }

    /// Number of entries.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// The entries.
    #[must_use]
    pub fn entries(&self) -> &[Extent] {
        &self.0
    }

    /// Computes the concrete tile format `(t_1, ..., t_d)` for `domain`
    /// following §5.2:
    ///
    /// * starred (`*`) directions are maximized first, from the *last*
    ///   starred direction backwards (cells consecutive along later axes are
    ///   grouped preferentially, matching the row-major cell order);
    /// * if the starred directions exhaust `MaxTileSize`, the remaining
    ///   directions get length one;
    /// * otherwise the finite directions are stretched by a common factor
    ///   `f = (B / (r_1 × … × r_k))^(1/k)` where `B` is the remaining cell
    ///   budget, then greedily grown to fill the budget (tiles "are sized in
    ///   a way to optimally fill MaxTileSize");
    /// * every `t_i` is clamped to the domain extent — a tile longer than
    ///   the array is wasted format.
    ///
    /// The returned format always satisfies
    /// `cell_size × ∏ t_i ≤ max_tile_size`.
    ///
    /// # Errors
    /// [`TilingError::ConfigDimensionMismatch`] when dimensionalities differ
    /// and the size pre-flight errors of [`check_cell_fits`].
    pub fn tile_format(
        &self,
        domain: &Domain,
        cell_size: usize,
        max_tile_size: u64,
    ) -> Result<Vec<u64>> {
        if self.dim() != domain.dim() {
            return Err(TilingError::ConfigDimensionMismatch {
                config: self.dim(),
                domain: domain.dim(),
            });
        }
        check_cell_fits(cell_size, max_tile_size)?;
        let d = self.dim();
        let budget_total = (max_tile_size / cell_size as u64).max(1);
        let mut format = vec![0u64; d];
        let mut budget = budget_total;

        // Pass 1: starred directions, last axis first (§5.2: "the length of
        // the tile is made as long as possible along the d_k direction
        // first").
        for axis in (0..d).rev() {
            if matches!(self.0[axis], Extent::Unbounded) {
                let t = domain.extent(axis).min(budget).max(1);
                format[axis] = t;
                budget /= t;
            }
        }

        // Pass 2: finite directions share the remaining budget in proportion
        // to their relative sizes.
        let finite: Vec<usize> = (0..d)
            .filter(|&i| matches!(self.0[i], Extent::Fixed(_)))
            .collect();
        if !finite.is_empty() {
            if budget <= 1 {
                for &axis in &finite {
                    format[axis] = 1;
                }
            } else {
                let ratios: Vec<f64> = finite
                    .iter()
                    .map(|&i| match self.0[i] {
                        Extent::Fixed(r) => r as f64,
                        Extent::Unbounded => unreachable!("finite axes only"),
                    })
                    .collect();
                let prod: f64 = ratios.iter().product();
                let k = finite.len() as f64;
                let f = (budget as f64 / prod).powf(1.0 / k);
                for (&axis, &r) in finite.iter().zip(&ratios) {
                    let t = (f * r).floor() as u64;
                    format[axis] = t.clamp(1, domain.extent(axis));
                }
                // Floating point may overshoot; shrink the largest axes
                // until the product fits the budget.
                loop {
                    let product: u64 = finite.iter().map(|&i| format[i]).product();
                    if product <= budget {
                        break;
                    }
                    let &worst = finite
                        .iter()
                        .filter(|&&i| format[i] > 1)
                        .max_by_key(|&&i| format[i])
                        .expect("product > budget >= 1 implies some t_i > 1");
                    format[worst] -= 1;
                }
                // Greedy growth: use leftover budget, preferring the axis
                // whose current length is furthest below its configured
                // ratio (keeps the configuration's proportions).
                loop {
                    let product: u64 = finite.iter().map(|&i| format[i]).product();
                    let candidate = finite
                        .iter()
                        .filter(|&&i| format[i] < domain.extent(i))
                        .filter(|&&i| product / format[i] <= budget / (format[i] + 1))
                        .min_by(|&&a, &&b| {
                            let fa = format[a] as f64 / ratio_of(&self.0[a]);
                            let fb = format[b] as f64 / ratio_of(&self.0[b]);
                            fa.partial_cmp(&fb).expect("ratios are finite")
                        });
                    match candidate {
                        Some(&axis) => format[axis] += 1,
                        None => break,
                    }
                }
            }
        }
        debug_assert!(
            format.iter().product::<u64>() <= budget_total,
            "format exceeds budget"
        );
        Ok(format)
    }
}

fn ratio_of(e: &Extent) -> f64 {
    match e {
        Extent::Fixed(r) => *r as f64,
        Extent::Unbounded => f64::INFINITY,
    }
}

impl fmt::Display for TileConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match e {
                Extent::Fixed(r) => write!(f, "{r}")?,
                Extent::Unbounded => write!(f, "*")?,
            }
        }
        write!(f, "]")
    }
}

impl FromStr for TileConfig {
    type Err = TilingError;

    /// Parses `"[*,1,*]"` / `"[2,1]"`.
    fn from_str(s: &str) -> Result<Self> {
        let s = s.trim();
        let inner = s
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .unwrap_or(s);
        let entries: Result<Vec<Extent>> = inner
            .split(',')
            .map(|part| {
                let part = part.trim();
                if part == "*" {
                    Ok(Extent::Unbounded)
                } else {
                    part.parse::<u64>().map(Extent::Fixed).map_err(|e| {
                        TilingError::Geometry(tilestore_geometry::GeometryError::Parse(format!(
                            "bad config entry {part:?}: {e}"
                        )))
                    })
                }
            })
            .collect();
        TileConfig::new(entries?)
    }
}

impl ToJson for TileConfig {
    /// Serializes in the paper notation, e.g. `"[*,1,*]"`.
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for TileConfig {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        r.str()?.parse().map_err(|e| JsonError::msg(format!("{e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_round_trip() {
        let c: TileConfig = "[*,1,*]".parse().unwrap();
        assert_eq!(c.to_string(), "[*,1,*]");
        assert_eq!(c.dim(), 3);
        assert!("[0,1]".parse::<TileConfig>().is_err());
        assert!("[x]".parse::<TileConfig>().is_err());
    }

    #[test]
    fn equal_config_yields_cubic_tiles() {
        let c = TileConfig::equal(2);
        // 1-byte cells, 64-byte budget, domain far larger: 8x8 tiles.
        let f = c.tile_format(&d("[0:99,0:99]"), 1, 64).unwrap();
        assert_eq!(f, vec![8, 8]);
    }

    #[test]
    fn format_respects_ratios() {
        let c = TileConfig::from_sizes(&[4, 1]).unwrap();
        let f = c.tile_format(&d("[0:99,0:99]"), 1, 64).unwrap();
        assert!(f[0] >= 4 * f[1] - 4, "format {f:?} ignores 4:1 ratio");
        assert!(f[0] * f[1] <= 64);
    }

    #[test]
    fn budget_never_exceeded() {
        let c = TileConfig::from_sizes(&[3, 7, 2]).unwrap();
        for max in [10u64, 100, 1000, 12345] {
            let f = c.tile_format(&d("[0:99,0:99,0:99]"), 2, max).unwrap();
            assert!(f.iter().product::<u64>() * 2 <= max, "{f:?} at max={max}");
            assert!(f.iter().all(|&t| t >= 1));
        }
    }

    #[test]
    fn starred_axis_takes_full_extent() {
        // Paper Figure 4: [*,1,*] for an animation accessed frame by frame.
        let c: TileConfig = "[*,1,*]".parse().unwrap();
        let dom = d("[0:120,0:159,0:119]");
        // 3-byte RGB cells, 256 KB budget = 87381 cells.
        let f = c.tile_format(&dom, 3, 256 * 1024).unwrap();
        assert_eq!(f[2], 120, "last starred axis maximized first");
        assert_eq!(f[0], 121);
        // The finite direction receives whatever budget remains: 87381
        // cells / (120 × 121) = 6 frames-slices worth of rows.
        assert_eq!(f[1], 87381 / (120 * 121));
        assert!(f.iter().product::<u64>() * 3 <= 256 * 1024);
    }

    #[test]
    fn starred_axes_capped_by_budget() {
        let c: TileConfig = "[*,*]".parse().unwrap();
        let dom = d("[0:99,0:99]");
        let f = c.tile_format(&dom, 1, 150).unwrap();
        // Last axis gets min(100, 150) = 100, remaining budget 1 for axis 0.
        assert_eq!(f, vec![1, 100]);
    }

    #[test]
    fn finite_axes_get_one_when_budget_exhausted() {
        let c: TileConfig = "[2,*]".parse().unwrap();
        let dom = d("[0:99,0:99]");
        let f = c.tile_format(&dom, 1, 100).unwrap();
        assert_eq!(f, vec![1, 100]);
    }

    #[test]
    fn format_clamped_to_domain_extent() {
        let c = TileConfig::equal(2);
        let dom = d("[0:3,0:3]");
        let f = c.tile_format(&dom, 1, 1_000_000).unwrap();
        assert_eq!(f, vec![4, 4]);
    }

    #[test]
    fn greedy_growth_fills_budget() {
        let c = TileConfig::equal(2);
        // Budget 50 cells: naive floor(sqrt(50))=7 -> 49; growth can't add
        // a row (56 > 50), so 7x7 stands.
        let f = c.tile_format(&d("[0:99,0:99]"), 1, 50).unwrap();
        assert_eq!(f.iter().product::<u64>(), 49);
        // Budget 72: floor(sqrt(72))=8 -> 64; greedy growth reaches 8x9=72.
        let f = c.tile_format(&d("[0:99,0:99]"), 1, 72).unwrap();
        assert_eq!(f.iter().product::<u64>(), 72);
    }

    #[test]
    fn errors() {
        let c = TileConfig::equal(2);
        assert!(matches!(
            c.tile_format(&d("[0:9]"), 1, 100),
            Err(TilingError::ConfigDimensionMismatch { .. })
        ));
        assert!(c.tile_format(&d("[0:9,0:9]"), 0, 100).is_err());
        assert!(c.tile_format(&d("[0:9,0:9]"), 200, 100).is_err());
        assert!(TileConfig::new(vec![]).is_err());
    }
}
