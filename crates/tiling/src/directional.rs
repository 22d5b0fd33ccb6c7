//! Directional tiling (§5.2, "Partitioning the Dimensions").
//!
//! The user specifies partitions of some or all axes of the domain — e.g.
//! the month boundaries of a time axis, or the product-class boundaries of
//! a product axis (Table 1). The space is first cut by the hyperplanes
//! `x_i = p_{i,j}`; blocks that still exceed `MaxTileSize` are then split
//! with the aligned tiling algorithm. The resulting scheme "optimizes the
//! amount of data read for all operations of access to any subset of those
//! partitions".

use tilestore_geometry::{AxisRange, Domain};
use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::aligned::AlignedTiling;
use crate::config::TileConfig;
use crate::error::{Result, TilingError};
use crate::spec::{check_cell_fits, TilingSpec};
use crate::strategy::TilingStrategy;

/// A partition of one axis into category blocks.
///
/// Following the paper's notation, the points `p_1 < p_2 < … < p_n` satisfy
/// `p_1 = m.l_i` and `p_n = m.u_i`; they induce the blocks
/// `[p_1 : p_2 - 1], [p_2 : p_3 - 1], …, [p_{n-1} : p_n]`. This matches
/// Table 1: products `[1,27,42,60]` → the three classes `[1:26]`, `[27:41]`,
/// `[42:60]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisPartition {
    /// The axis (direction) being partitioned, 0-based.
    pub axis: usize,
    /// The partition points `p_1 < … < p_n`.
    pub points: Vec<i64>,
}

impl AxisPartition {
    /// Creates a partition of `axis` at `points`.
    #[must_use]
    pub fn new(axis: usize, points: Vec<i64>) -> Self {
        AxisPartition { axis, points }
    }

    /// Validates the points against the axis range of `domain` and returns
    /// the induced blocks.
    ///
    /// Two interpretations are supported:
    ///
    /// * **anchored** (the paper's Table 1 form): `p_1 = lo` and
    ///   `p_n = hi` — blocks are `[p_1:p_2-1], …, [p_{n-1}:p_n]`;
    /// * **global hyperplanes**: when the points do not anchor at the
    ///   domain bounds, they are treated as the positions of the cut
    ///   hyperplanes `x_i = p` over the *whole array* (§4), clipped to this
    ///   domain. A sub-domain inserted during gradual growth is then tiled
    ///   consistently with the object's global category structure.
    ///
    /// # Errors
    /// [`TilingError::BadPartitionPoints`] when points are not strictly
    /// increasing or empty; [`TilingError::AxisOutOfRange`] for a bad axis.
    pub fn blocks(&self, domain: &Domain) -> Result<Vec<AxisRange>> {
        if self.axis >= domain.dim() {
            return Err(TilingError::AxisOutOfRange {
                axis: self.axis,
                dim: domain.dim(),
            });
        }
        let range = domain.axis(self.axis);
        let bad = |reason: String| TilingError::BadPartitionPoints {
            axis: self.axis,
            reason,
        };
        if self.points.is_empty() {
            return Err(bad("need at least one partition point".into()));
        }
        if !self.points.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad("points must be strictly increasing".into()));
        }
        let anchored = self.points.len() >= 2
            && self.points[0] == range.lo()
            && *self.points.last().expect("non-empty") == range.hi();
        if anchored {
            let n = self.points.len();
            let mut blocks = Vec::with_capacity(n - 1);
            for j in 0..n - 1 {
                let lo = self.points[j];
                let hi = if j == n - 2 {
                    self.points[j + 1]
                } else {
                    self.points[j + 1] - 1
                };
                blocks.push(AxisRange::new(lo, hi).expect("strictly increasing points"));
            }
            return Ok(blocks);
        }
        // Global-hyperplane mode: block starts are the domain lower bound
        // plus every cut position strictly inside the domain.
        let mut starts = vec![range.lo()];
        for &p in &self.points {
            if p > range.lo() && p <= range.hi() {
                starts.push(p);
            }
        }
        starts.dedup();
        Ok(blocks_from_starts(range, &starts))
    }
}

/// How oversized blocks produced by the axis cuts are split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubTiling {
    /// Split each oversize block with as few cuts as possible: repeatedly
    /// halve the block's longest direction until it fits `MaxTileSize`.
    /// Preserves the category structure best (sub-tiles keep the block's
    /// cross-section whole as long as possible) and avoids the sliver tiles
    /// a fixed cubic format produces on odd-sized blocks. This is the
    /// default; \[12\] describes the option space for sub-partitioning.
    MinimalSplits,
    /// Split with the aligned tiling algorithm using this configuration.
    Aligned(TileConfig),
    /// Leave blocks unsplit regardless of size. Used internally by the
    /// areas-of-interest algorithm (Fig. 6 runs directional tiling "without
    /// subpartitioning") and useful for inspecting raw category blocks.
    None,
}

/// Computes a block format that fits `budget_cells` with as few cuts as
/// possible: start from the block's extents and repeatedly halve the
/// longest direction.
#[must_use]
pub fn minimal_split_format(extents: &[u64], budget_cells: u64) -> Vec<u64> {
    let budget = budget_cells.max(1);
    let mut format: Vec<u64> = extents.to_vec();
    while format.iter().product::<u64>() > budget {
        let axis = (0..format.len())
            .max_by_key(|&i| format[i])
            .expect("non-empty format");
        if format[axis] == 1 {
            break; // single cell per tile; cannot shrink further
        }
        format[axis] = format[axis].div_ceil(2);
    }
    format
}

/// Directional tiling: axis partitions plus sub-tiling of oversize blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectionalTiling {
    /// Partitions for a subset of the axes (axes not listed are uncut).
    pub partitions: Vec<AxisPartition>,
    /// Maximum size of any produced tile, in bytes (ignored when
    /// `sub_tiling` is [`SubTiling::None`]).
    pub max_tile_size: u64,
    /// Sub-tiling policy for oversize blocks.
    pub sub_tiling: SubTiling,
}

impl DirectionalTiling {
    /// Directional tiling with minimal-split sub-tiling of oversize blocks.
    #[must_use]
    pub fn new(partitions: Vec<AxisPartition>, max_tile_size: u64) -> Self {
        DirectionalTiling {
            partitions,
            max_tile_size,
            sub_tiling: SubTiling::MinimalSplits,
        }
    }

    /// Directional tiling that leaves oversize blocks unsplit.
    #[must_use]
    pub fn without_subtiling(partitions: Vec<AxisPartition>) -> Self {
        DirectionalTiling {
            partitions,
            max_tile_size: u64::MAX,
            sub_tiling: SubTiling::None,
        }
    }

    /// The raw category blocks (cartesian product of per-axis blocks),
    /// before any sub-tiling.
    ///
    /// # Errors
    /// Propagates [`AxisPartition::blocks`] validation errors and
    /// [`TilingError::DuplicateAxis`].
    pub fn category_blocks(&self, domain: &Domain) -> Result<Vec<Domain>> {
        let d = domain.dim();
        let mut per_axis: Vec<Vec<AxisRange>> = domain.ranges().iter().map(|r| vec![*r]).collect();
        let mut seen = vec![false; d];
        for p in &self.partitions {
            if p.axis < d && seen[p.axis] {
                return Err(TilingError::DuplicateAxis { axis: p.axis });
            }
            let blocks = p.blocks(domain)?;
            seen[p.axis] = true;
            per_axis[p.axis] = blocks;
        }
        Ok(cartesian_blocks(&per_axis))
    }
}

/// Cartesian product of per-axis block lists, last axis fastest (row-major
/// block order). Shared by directional and areas-of-interest tiling.
#[must_use]
pub fn cartesian_blocks(per_axis: &[Vec<AxisRange>]) -> Vec<Domain> {
    let d = per_axis.len();
    let mut result: Vec<Vec<AxisRange>> = vec![Vec::with_capacity(d)];
    for axis_blocks in per_axis {
        let mut next = Vec::with_capacity(result.len() * axis_blocks.len());
        for prefix in &result {
            for &b in axis_blocks {
                let mut ranges: Vec<AxisRange> = prefix.clone();
                ranges.push(b);
                next.push(ranges);
            }
        }
        result = next;
    }
    result
        .into_iter()
        .map(|ranges| Domain::new(ranges).expect("d >= 1"))
        .collect()
}

/// Splits `range` into consecutive blocks at the given block *starts*.
///
/// `starts` must be strictly increasing, begin at `range.lo()` and stay
/// within the range; the blocks are `[s_1 : s_2 - 1], …, [s_m : range.hi()]`.
/// Unlike the paper's partition-point notation this form can express a
/// trailing single-coordinate block.
#[must_use]
pub fn blocks_from_starts(range: AxisRange, starts: &[i64]) -> Vec<AxisRange> {
    debug_assert!(starts.first() == Some(&range.lo()), "starts anchored at lo");
    debug_assert!(
        starts.windows(2).all(|w| w[0] < w[1]),
        "strictly increasing"
    );
    debug_assert!(starts.last().is_some_and(|&s| s <= range.hi()));
    let mut blocks = Vec::with_capacity(starts.len());
    for (j, &s) in starts.iter().enumerate() {
        let hi = if j + 1 < starts.len() {
            starts[j + 1] - 1
        } else {
            range.hi()
        };
        blocks.push(AxisRange::new(s, hi).expect("starts within range"));
    }
    blocks
}

impl TilingStrategy for DirectionalTiling {
    fn name(&self) -> &'static str {
        "directional"
    }

    fn max_tile_size(&self) -> u64 {
        self.max_tile_size
    }

    fn partition(&self, domain: &Domain, cell_size: usize) -> Result<TilingSpec> {
        let blocks = self.category_blocks(domain)?;
        if matches!(self.sub_tiling, SubTiling::None) {
            return Ok(TilingSpec::new_unchecked(blocks));
        }
        check_cell_fits(cell_size, self.max_tile_size)?;
        let budget = (self.max_tile_size / cell_size as u64).max(1);
        let mut tiles = Vec::with_capacity(blocks.len());
        for block in blocks {
            if block.size_bytes(cell_size)? <= self.max_tile_size {
                tiles.push(block);
                continue;
            }
            match &self.sub_tiling {
                SubTiling::MinimalSplits => {
                    let extents = block.extents();
                    let format = minimal_split_format(&extents, budget);
                    tiles.extend(tilestore_geometry::GridIter::new(block, &format)?);
                }
                SubTiling::Aligned(config) => {
                    let cfg = if config.dim() == domain.dim() {
                        config.clone()
                    } else {
                        TileConfig::equal(domain.dim())
                    };
                    let sub =
                        AlignedTiling::new(cfg, self.max_tile_size).partition(&block, cell_size)?;
                    tiles.extend(sub.into_tiles());
                }
                SubTiling::None => unreachable!("handled above"),
            }
        }
        TilingSpec::validated(tiles, domain, cell_size, self.max_tile_size)
    }
}

impl ToJson for AxisPartition {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("axis", self.axis.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

impl FromJson for AxisPartition {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut axis, mut points) = (None, None);
        r.object(|r, key| match key {
            "axis" => r.field(&mut axis),
            "points" => r.field(&mut points),
            _ => r.skip(),
        })?;
        Ok(AxisPartition {
            axis: required(axis, "axis")?,
            points: required(points, "points")?,
        })
    }
}

impl ToJson for SubTiling {
    /// Serializes as a tagged object: `{"kind":"minimal_splits"}`,
    /// `{"kind":"aligned","config":"[4,*]"}` or `{"kind":"none"}`.
    fn to_json(&self) -> Json {
        match self {
            SubTiling::MinimalSplits => {
                Json::obj(vec![("kind", Json::Str("minimal_splits".into()))])
            }
            SubTiling::Aligned(config) => Json::obj(vec![
                ("kind", Json::Str("aligned".into())),
                ("config", config.to_json()),
            ]),
            SubTiling::None => Json::obj(vec![("kind", Json::Str("none".into()))]),
        }
    }
}

impl FromJson for SubTiling {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let kind = required(r.tag("kind")?, "kind")?;
        let mut config = None;
        r.object(|r, key| match key {
            "config" if kind == "aligned" => r.field(&mut config),
            _ => r.skip(),
        })?;
        match &*kind {
            "minimal_splits" => Ok(SubTiling::MinimalSplits),
            "aligned" => Ok(SubTiling::Aligned(required(config, "config")?)),
            "none" => Ok(SubTiling::None),
            other => Err(JsonError::msg(format!("unknown sub-tiling kind {other:?}"))),
        }
    }
}

impl ToJson for DirectionalTiling {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("partitions", self.partitions.to_json()),
            ("max_tile_size", self.max_tile_size.to_json()),
            ("sub_tiling", self.sub_tiling.to_json()),
        ])
    }
}

impl FromJson for DirectionalTiling {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut partitions, mut max_tile_size, mut sub_tiling) = (None, None, None);
        r.object(|r, key| match key {
            "partitions" => r.field(&mut partitions),
            "max_tile_size" => r.field(&mut max_tile_size),
            "sub_tiling" => r.field(&mut sub_tiling),
            _ => r.skip(),
        })?;
        Ok(DirectionalTiling {
            partitions: required(partitions, "partitions")?,
            max_tile_size: required(max_tile_size, "max_tile_size")?,
            sub_tiling: required(sub_tiling, "sub_tiling")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    /// The Table 1 benchmark cube: days × products × stores.
    fn cube() -> Domain {
        d("[1:730,1:60,1:100]")
    }

    fn table1_partitions() -> Vec<AxisPartition> {
        // Months: 24 blocks over two years (first day of each month + end).
        let mut months = vec![1i64];
        let lengths = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
        let mut day = 1i64;
        for year in 0..2 {
            for (m, &len) in lengths.iter().enumerate() {
                day += len;
                if year == 1 && m == 11 {
                    months.push(730); // p_n = m.u
                } else {
                    months.push(day);
                }
            }
        }
        vec![
            AxisPartition::new(0, months),
            AxisPartition::new(1, vec![1, 27, 42, 60]),
            AxisPartition::new(2, vec![1, 27, 35, 41, 59, 73, 89, 97, 100]),
        ]
    }

    #[test]
    fn axis_partition_blocks_match_table1() {
        let p = AxisPartition::new(1, vec![1, 27, 42, 60]);
        let blocks = p.blocks(&cube()).unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!((blocks[0].lo(), blocks[0].hi()), (1, 26));
        assert_eq!((blocks[1].lo(), blocks[1].hi()), (27, 41));
        assert_eq!((blocks[2].lo(), blocks[2].hi()), (42, 60));

        let p = AxisPartition::new(2, vec![1, 27, 35, 41, 59, 73, 89, 97, 100]);
        assert_eq!(p.blocks(&cube()).unwrap().len(), 8);
    }

    #[test]
    fn axis_partition_validation() {
        let dom = cube();
        assert!(AxisPartition::new(1, vec![]).blocks(&dom).is_err());
        assert!(AxisPartition::new(1, vec![1, 1, 60]).blocks(&dom).is_err());
        assert!(AxisPartition::new(1, vec![1, 60, 30]).blocks(&dom).is_err());
        assert!(AxisPartition::new(9, vec![1, 60]).blocks(&dom).is_err());
    }

    #[test]
    fn unanchored_points_clip_as_global_hyperplanes() {
        // The object's global cuts applied to a sub-domain (gradual growth).
        let sub = d("[1:90,1:60,1:100]");
        let year = AxisPartition::new(0, vec![1, 91, 182, 274, 365]);
        let blocks = year.blocks(&sub).unwrap();
        assert_eq!(blocks.len(), 1);
        assert_eq!((blocks[0].lo(), blocks[0].hi()), (1, 90));

        let mid = d("[50:200,1:60,1:100]");
        let blocks = year.blocks(&mid).unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!((blocks[0].lo(), blocks[0].hi()), (50, 90));
        assert_eq!((blocks[1].lo(), blocks[1].hi()), (91, 181));
        assert_eq!((blocks[2].lo(), blocks[2].hi()), (182, 200));

        // Cuts entirely outside the domain leave it whole.
        let far = AxisPartition::new(0, vec![1000, 2000]);
        assert_eq!(far.blocks(&sub).unwrap().len(), 1);

        // A single point acts as one global cut.
        let single = AxisPartition::new(0, vec![46]);
        let blocks = single.blocks(&sub).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!((blocks[1].lo(), blocks[1].hi()), (46, 90));
    }

    #[test]
    fn category_blocks_are_cartesian_product() {
        let t = DirectionalTiling::without_subtiling(table1_partitions());
        let blocks = t.category_blocks(&cube()).unwrap();
        assert_eq!(blocks.len(), 24 * 3 * 8);
        let spec = TilingSpec::new_unchecked(blocks);
        assert!(spec.covers(&cube()));
    }

    #[test]
    fn duplicate_axis_rejected() {
        let t = DirectionalTiling::without_subtiling(vec![
            AxisPartition::new(1, vec![1, 30, 60]),
            AxisPartition::new(1, vec![1, 40, 60]),
        ]);
        assert!(matches!(
            t.category_blocks(&cube()),
            Err(TilingError::DuplicateAxis { axis: 1 })
        ));
    }

    #[test]
    fn unpartitioned_axes_stay_whole() {
        let t =
            DirectionalTiling::without_subtiling(vec![AxisPartition::new(1, vec![1, 27, 42, 60])]);
        let blocks = t.category_blocks(&cube()).unwrap();
        assert_eq!(blocks.len(), 3);
        for b in &blocks {
            assert_eq!(b.extent(0), 730);
            assert_eq!(b.extent(2), 100);
        }
    }

    #[test]
    fn oversize_blocks_are_subtiled_and_cuts_respected() {
        // 3P directional tiling at 64K over the Table 1 cube (Dir64K3P).
        let parts = table1_partitions();
        let t = DirectionalTiling::new(parts.clone(), 64 * 1024);
        let spec = t.partition(&cube(), 4).unwrap();
        assert!(spec.covers(&cube()));
        assert!(spec.max_tile_bytes(4) <= 64 * 1024);
        // No tile crosses a user cut plane.
        for p in &parts {
            for &cut in &p.points[1..p.points.len() - 1] {
                for tile in spec.tiles() {
                    let r = tile.axis(p.axis);
                    assert!(
                        !(r.lo() < cut && cut <= r.hi()),
                        "tile {tile} crosses cut {cut} on axis {}",
                        p.axis
                    );
                }
            }
        }
    }

    #[test]
    fn small_blocks_stay_unsplit() {
        // Blocks already below MaxTileSize must be kept whole.
        let t = DirectionalTiling::new(vec![AxisPartition::new(0, vec![0, 5, 9])], 1 << 20);
        let dom = d("[0:9,0:9]");
        let spec = t.partition(&dom, 1).unwrap();
        assert_eq!(spec.len(), 2);
    }
}
