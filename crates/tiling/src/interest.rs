//! Areas-of-interest tiling (§5.2, Fig. 6).
//!
//! An *area of interest* is a frequently accessed subarray. The algorithm
//! guarantees that "an access to an area of interest only reads data
//! belonging to the area of interest":
//!
//! 1. derive per-axis partitions from the lower/upper coordinates of the
//!    areas of interest;
//! 2. run directional tiling *without* sub-partitioning, producing a grid
//!    of blocks none of which crosses an area boundary;
//! 3. classify each block by its `IntersectCode` — one bit per area, set
//!    when the block intersects that area;
//! 4. merge neighbouring blocks with identical codes (axis-aligned merges
//!    only, so tiles remain boxes);
//! 5. split blocks exceeding `MaxTileSize` with minimal-split sub-tiling
//!    (splits stay inside one code region, preserving the guarantee).

use tilestore_geometry::{AxisRange, Domain};
use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::directional::{blocks_from_starts, cartesian_blocks, minimal_split_format};
use crate::error::{Result, TilingError};
use crate::spec::{check_cell_fits, TilingSpec};
use crate::strategy::TilingStrategy;

/// Maximum number of areas of interest encodable in an [`IntersectCode`].
pub const MAX_AREAS: usize = 128;

/// Bitmask recording which areas of interest a block intersects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IntersectCode(u128);

impl IntersectCode {
    /// Computes the code of `block` against `areas`.
    #[must_use]
    pub fn classify(block: &Domain, areas: &[Domain]) -> Self {
        let mut code = 0u128;
        for (j, a) in areas.iter().enumerate() {
            if block.intersects(a) {
                code |= 1 << j;
            }
        }
        IntersectCode(code)
    }

    /// Whether the code has no bits set (background block).
    #[must_use]
    pub fn is_background(&self) -> bool {
        self.0 == 0
    }

    /// The raw bitmask.
    #[must_use]
    pub fn bits(&self) -> u128 {
        self.0
    }
}

/// Areas-of-interest tiling.
///
/// ```
/// use tilestore_tiling::{AreasOfInterestTiling, TilingStrategy};
/// use tilestore_geometry::Domain;
///
/// let domain: Domain = "[0:99,0:99]".parse().unwrap();
/// let hot: Domain = "[10:39,20:59]".parse().unwrap();
/// let spec = AreasOfInterestTiling::new(vec![hot.clone()], 64 * 1024)
///     .partition(&domain, 2)
///     .unwrap();
/// // The §5.2 guarantee: a query to the area reads only the area.
/// assert_eq!(spec.bytes_touched(&hot, 2), hot.size_bytes(2).unwrap());
/// assert!(spec.covers(&domain));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreasOfInterestTiling {
    /// The declared areas of interest (may overlap each other).
    pub areas: Vec<Domain>,
    /// Maximum size of any produced tile, in bytes.
    pub max_tile_size: u64,
    /// Disable the merge step (step 4). Exposed for the ablation benchmark;
    /// `false` reproduces the paper's algorithm.
    pub skip_merge: bool,
}

impl ToJson for AreasOfInterestTiling {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("areas", self.areas.to_json()),
            ("max_tile_size", self.max_tile_size.to_json()),
            ("skip_merge", self.skip_merge.to_json()),
        ])
    }
}

impl FromJson for AreasOfInterestTiling {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut areas, mut max_tile_size, mut skip_merge) = (None, None, None);
        r.object(|r, key| match key {
            "areas" => r.field(&mut areas),
            "max_tile_size" => r.field(&mut max_tile_size),
            "skip_merge" => r.field(&mut skip_merge),
            _ => r.skip(),
        })?;
        Ok(AreasOfInterestTiling {
            areas: required(areas, "areas")?,
            max_tile_size: required(max_tile_size, "max_tile_size")?,
            // Absent in catalogs written before the ablation flag existed.
            skip_merge: skip_merge.unwrap_or(false),
        })
    }
}

impl AreasOfInterestTiling {
    /// AOI tiling over `areas` with the given `MaxTileSize`.
    #[must_use]
    pub fn new(areas: Vec<Domain>, max_tile_size: u64) -> Self {
        AreasOfInterestTiling {
            areas,
            max_tile_size,
            skip_merge: false,
        }
    }

    /// Steps 1–2: per-axis blocks from the area bounds.
    ///
    /// For each axis, the block starts are the domain lower bound, every
    /// area lower bound, and every coordinate just above an area upper
    /// bound — so no block crosses an area boundary.
    fn dimension_blocks(&self, domain: &Domain) -> Result<Vec<Vec<AxisRange>>> {
        for (index, a) in self.areas.iter().enumerate() {
            if !domain.contains_domain(a) {
                return Err(TilingError::AreaOutsideDomain { index });
            }
        }
        let mut per_axis = Vec::with_capacity(domain.dim());
        for axis in 0..domain.dim() {
            let r = domain.axis(axis);
            let mut starts = vec![r.lo()];
            for a in &self.areas {
                let ar = a.axis(axis);
                if ar.lo() > r.lo() {
                    starts.push(ar.lo());
                }
                if ar.hi() < r.hi() {
                    starts.push(ar.hi() + 1);
                }
            }
            starts.sort_unstable();
            starts.dedup();
            per_axis.push(blocks_from_starts(r, &starts));
        }
        Ok(per_axis)
    }

    /// Steps 3–4: merge neighbouring blocks with identical intersect codes
    /// into maximal boxes, while staying within the cell budget.
    ///
    /// Blocks are merged pairwise along one axis at a time; two blocks merge
    /// when they have the same code, identical ranges on every other axis,
    /// are adjacent on the merge axis, and the merged block does not exceed
    /// `max_cells` (§5.2: "each partition *smaller than MaxTileSize* is then
    /// merged" — merging past the cap would only force a re-split in step 5).
    fn merge_same_code(
        blocks: Vec<(Domain, IntersectCode)>,
        max_cells: u64,
    ) -> Vec<(Domain, IntersectCode)> {
        let Some(first) = blocks.first() else {
            return blocks;
        };
        let dim = first.0.dim();
        let mut current = blocks;
        for axis in 0..dim {
            // Sort so that mergeable blocks are consecutive: key = ranges on
            // all other axes + code, then position on the merge axis.
            current.sort_by(|(a, ca), (b, cb)| {
                let key_a: Vec<(i64, i64)> = (0..dim)
                    .filter(|&i| i != axis)
                    .map(|i| (a.lo(i), a.hi(i)))
                    .collect();
                let key_b: Vec<(i64, i64)> = (0..dim)
                    .filter(|&i| i != axis)
                    .map(|i| (b.lo(i), b.hi(i)))
                    .collect();
                key_a
                    .cmp(&key_b)
                    .then(ca.bits().cmp(&cb.bits()))
                    .then(a.lo(axis).cmp(&b.lo(axis)))
            });
            let mut merged: Vec<(Domain, IntersectCode)> = Vec::with_capacity(current.len());
            for (block, code) in current {
                if let Some((last, last_code)) = merged.last_mut() {
                    let same_code = *last_code == code;
                    let adjacent = last.hi(axis) + 1 == block.lo(axis);
                    let aligned = (0..dim)
                        .filter(|&i| i != axis)
                        .all(|i| last.axis(i) == block.axis(i));
                    let fits = last
                        .cells()
                        .checked_add(block.cells())
                        .is_some_and(|c| c <= max_cells);
                    if same_code && adjacent && aligned && fits {
                        let grown = last
                            .with_axis(
                                axis,
                                AxisRange::new(last.lo(axis), block.hi(axis))
                                    .expect("adjacent ranges"),
                            )
                            .expect("axis in range");
                        *last = grown;
                        continue;
                    }
                }
                merged.push((block, code));
            }
            current = merged;
        }
        current
    }
}

impl TilingStrategy for AreasOfInterestTiling {
    fn name(&self) -> &'static str {
        "areas-of-interest"
    }

    fn max_tile_size(&self) -> u64 {
        self.max_tile_size
    }

    fn partition(&self, domain: &Domain, cell_size: usize) -> Result<TilingSpec> {
        if self.areas.is_empty() {
            return Err(TilingError::NoAreasOfInterest);
        }
        if self.areas.len() > MAX_AREAS {
            return Err(TilingError::TooManyAreas {
                got: self.areas.len(),
                max: MAX_AREAS,
            });
        }
        check_cell_fits(cell_size, self.max_tile_size)?;

        // (1)+(2) directional grid without sub-partitioning: the cartesian
        // product of the per-axis blocks induced by the area bounds.
        let grid = cartesian_blocks(&self.dimension_blocks(domain)?);

        // (3) classify.
        let classified: Vec<(Domain, IntersectCode)> = grid
            .into_iter()
            .map(|b| {
                let code = IntersectCode::classify(&b, &self.areas);
                (b, code)
            })
            .collect();

        // (4) merge, capped at the cell budget of MaxTileSize.
        let merged = if self.skip_merge {
            classified
        } else {
            let max_cells = (self.max_tile_size / cell_size as u64).max(1);
            Self::merge_same_code(classified, max_cells)
        };

        // (5) split oversize blocks with as few cuts as possible; the
        // splits stay inside one intersect-code region, preserving the
        // access guarantee.
        let budget = (self.max_tile_size / cell_size as u64).max(1);
        let mut tiles = Vec::with_capacity(merged.len());
        for (block, _) in merged {
            if block.size_bytes(cell_size)? <= self.max_tile_size {
                tiles.push(block);
            } else {
                let format = minimal_split_format(&block.extents(), budget);
                tiles.extend(tilestore_geometry::GridIter::new(block, &format)?);
            }
        }
        TilingSpec::validated(tiles, domain, cell_size, self.max_tile_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    /// The paper's §6.2 animation object and areas of interest (Table 5).
    fn animation() -> (Domain, Vec<Domain>) {
        (
            d("[0:120,0:159,0:119]"),
            vec![d("[0:120,80:120,25:60]"), d("[0:120,70:159,25:105]")],
        )
    }

    #[test]
    fn aoi_tiling_covers_and_respects_max_size() {
        let (dom, areas) = animation();
        for max in [32u64 * 1024, 64 * 1024, 128 * 1024, 256 * 1024] {
            let spec = AreasOfInterestTiling::new(areas.clone(), max)
                .partition(&dom, 3)
                .unwrap();
            assert!(spec.covers(&dom), "AI{} must cover", max / 1024);
            assert!(spec.max_tile_bytes(3) <= max);
        }
    }

    #[test]
    fn access_to_area_reads_only_area_bytes() {
        // The §5.2 guarantee: querying an area of interest touches only
        // tiles fully inside that area.
        let (dom, areas) = animation();
        let spec = AreasOfInterestTiling::new(areas.clone(), 256 * 1024)
            .partition(&dom, 3)
            .unwrap();
        for a in &areas {
            let touched = spec.bytes_touched(a, 3);
            assert_eq!(
                touched,
                a.size_bytes(3).unwrap(),
                "query to {a} reads {touched} bytes"
            );
        }
    }

    #[test]
    fn no_tile_crosses_area_boundary() {
        let (dom, areas) = animation();
        let spec = AreasOfInterestTiling::new(areas.clone(), 128 * 1024)
            .partition(&dom, 3)
            .unwrap();
        for t in spec.tiles() {
            for a in &areas {
                let inter = t.intersection(a);
                if let Some(i) = inter {
                    assert_eq!(
                        &i, t,
                        "tile {t} partially overlaps area {a} (intersection {i})"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_reduces_tile_count() {
        // At 1 MB the cell budget is large enough for same-code neighbours
        // to merge; skipping the merge step must leave strictly more tiles.
        let (dom, areas) = animation();
        let max = 1024 * 1024;
        let merged = AreasOfInterestTiling::new(areas.clone(), max)
            .partition(&dom, 3)
            .unwrap();
        let mut unmerged_strategy = AreasOfInterestTiling::new(areas, max);
        unmerged_strategy.skip_merge = true;
        let unmerged = unmerged_strategy.partition(&dom, 3).unwrap();
        assert!(
            merged.len() < unmerged.len(),
            "merge: {} vs unmerged: {}",
            merged.len(),
            unmerged.len()
        );
        assert!(unmerged.covers(&dom));
    }

    #[test]
    fn merge_never_exceeds_max_tile_size() {
        let (dom, areas) = animation();
        for max in [64 * 1024, 256 * 1024, 1024 * 1024] {
            let spec = AreasOfInterestTiling::new(areas.clone(), max)
                .partition(&dom, 3)
                .unwrap();
            assert!(spec.max_tile_bytes(3) <= max);
        }
    }

    #[test]
    fn single_area_equal_to_domain_is_single_partition() {
        let dom = d("[0:9,0:9]");
        let spec = AreasOfInterestTiling::new(vec![dom.clone()], 1 << 20)
            .partition(&dom, 1)
            .unwrap();
        assert_eq!(spec.len(), 1);
        assert!(spec.covers(&dom));
    }

    #[test]
    fn overlapping_areas_get_distinct_codes() {
        let a = d("[0:5,0:5]");
        let b = d("[3:9,3:9]");
        let only_a = IntersectCode::classify(&d("[0:2,0:2]"), &[a.clone(), b.clone()]);
        let both = IntersectCode::classify(&d("[3:5,3:5]"), &[a.clone(), b.clone()]);
        let only_b = IntersectCode::classify(&d("[6:9,6:9]"), &[a.clone(), b.clone()]);
        let neither = IntersectCode::classify(&d("[0:2,6:9]"), &[a, b]);
        assert_eq!(only_a.bits(), 0b01);
        assert_eq!(both.bits(), 0b11);
        assert_eq!(only_b.bits(), 0b10);
        assert!(neither.is_background());
    }

    #[test]
    fn validation_errors() {
        let dom = d("[0:9,0:9]");
        assert!(matches!(
            AreasOfInterestTiling::new(vec![], 1024).partition(&dom, 1),
            Err(TilingError::NoAreasOfInterest)
        ));
        assert!(matches!(
            AreasOfInterestTiling::new(vec![d("[0:20,0:5]")], 1024).partition(&dom, 1),
            Err(TilingError::AreaOutsideDomain { index: 0 })
        ));
    }

    #[test]
    fn corner_area_produces_background_tiles() {
        let dom = d("[0:9,0:9]");
        let area = d("[0:4,0:4]");
        let spec = AreasOfInterestTiling::new(vec![area.clone()], 1 << 20)
            .partition(&dom, 1)
            .unwrap();
        assert!(spec.covers(&dom));
        // The area itself must be exactly one tile at this generous size.
        assert!(spec.tiles().contains(&area));
        assert_eq!(spec.bytes_touched(&area, 1), 25);
    }
}
