//! Aligned tiling (§5.2, "Aligned Tiling").
//!
//! Tiles are laid out as a regular grid anchored at the domain's lowest
//! corner, with a tile format derived from the user's [`TileConfig`] and
//! `MaxTileSize`. Border tiles are clipped. This strategy subsumes regular
//! tiling (equal relative sizes), "tiling by cuts along a direction"
//! (a `*` configuration) and the default tiling.

use tilestore_geometry::{Domain, GridIter};
use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::config::TileConfig;
use crate::error::Result;
use crate::spec::{TilingSpec, DEFAULT_MAX_TILE_SIZE};
use crate::strategy::TilingStrategy;

/// Aligned tiling with a tile configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignedTiling {
    /// Relative tile-size preferences per direction.
    pub config: TileConfig,
    /// Maximum size of any produced tile, in bytes.
    pub max_tile_size: u64,
}

impl AlignedTiling {
    /// Aligned tiling with the given configuration and `MaxTileSize`.
    #[must_use]
    pub fn new(config: TileConfig, max_tile_size: u64) -> Self {
        AlignedTiling {
            config,
            max_tile_size,
        }
    }

    /// Regular tiling: equal relative sizes — the scheme of the paper's
    /// baseline (`Reg32K` … `Reg256K`).
    #[must_use]
    pub fn regular(dim: usize, max_tile_size: u64) -> Self {
        AlignedTiling {
            config: TileConfig::equal(dim),
            max_tile_size,
        }
    }

    /// The default tiling used when no strategy is specified (§5.2:
    /// "default tiling is performed … the default tiling is aligned").
    #[must_use]
    pub fn default_for(dim: usize) -> Self {
        Self::regular(dim, DEFAULT_MAX_TILE_SIZE)
    }

    /// The concrete tile format this strategy will use for `domain`.
    ///
    /// # Errors
    /// Propagates [`TileConfig::tile_format`] errors.
    pub fn tile_format(&self, domain: &Domain, cell_size: usize) -> Result<Vec<u64>> {
        self.config
            .tile_format(domain, cell_size, self.max_tile_size)
    }
}

impl TilingStrategy for AlignedTiling {
    fn name(&self) -> &'static str {
        "aligned"
    }

    fn max_tile_size(&self) -> u64 {
        self.max_tile_size
    }

    fn partition(&self, domain: &Domain, cell_size: usize) -> Result<TilingSpec> {
        let format = self.tile_format(domain, cell_size)?;
        let tiles: Vec<Domain> = GridIter::new(domain.clone(), &format)?.collect();
        TilingSpec::validated(tiles, domain, cell_size, self.max_tile_size)
    }
}

/// Single-tile "tiling": the whole object in one tile, adequate for small
/// objects accessed as a whole (§5.1 access type (a)).
///
/// `MaxTileSize` is intentionally not enforced here — the object *is* the
/// tile; validation uses the object's own size as the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SingleTile;

impl ToJson for AlignedTiling {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("config", self.config.to_json()),
            ("max_tile_size", self.max_tile_size.to_json()),
        ])
    }
}

impl FromJson for AlignedTiling {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut config, mut max_tile_size) = (None, None);
        r.object(|r, key| match key {
            "config" => r.field(&mut config),
            "max_tile_size" => r.field(&mut max_tile_size),
            _ => r.skip(),
        })?;
        Ok(AlignedTiling {
            config: required(config, "config")?,
            max_tile_size: required(max_tile_size, "max_tile_size")?,
        })
    }
}

impl TilingStrategy for SingleTile {
    fn name(&self) -> &'static str {
        "single-tile"
    }

    fn max_tile_size(&self) -> u64 {
        u64::MAX
    }

    fn partition(&self, domain: &Domain, cell_size: usize) -> Result<TilingSpec> {
        let bytes = domain.size_bytes(cell_size)?;
        TilingSpec::validated(vec![domain.clone()], domain, cell_size, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TilingError;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    #[test]
    fn regular_tiling_covers_domain() {
        let dom = d("[0:99,0:99]");
        let spec = AlignedTiling::regular(2, 64).partition(&dom, 1).unwrap();
        assert!(spec.covers(&dom));
        assert!(spec.max_tile_bytes(1) <= 64);
        // interior tiles are 8x8 -> ceil(100/8)^2 = 169 tiles
        assert_eq!(spec.len(), 13 * 13);
    }

    #[test]
    fn starred_config_produces_slices() {
        // Figure 4: tiling by cuts along direction y of a 3-D animation.
        let dom = d("[0:120,0:159,0:119]");
        let strat = AlignedTiling::new("[*,1,*]".parse().unwrap(), 256 * 1024);
        let spec = strat.partition(&dom, 3).unwrap();
        assert!(spec.covers(&dom));
        // Every tile spans the full x and z extents.
        for t in spec.tiles() {
            assert_eq!(t.extent(0), 121);
            assert_eq!(t.extent(2), 120);
        }
    }

    #[test]
    fn default_tiling_is_regular() {
        let dom = d("[0:499,0:499]");
        let spec = AlignedTiling::default_for(2).partition(&dom, 4).unwrap();
        assert!(spec.covers(&dom));
        assert!(spec.max_tile_bytes(4) <= DEFAULT_MAX_TILE_SIZE);
    }

    #[test]
    fn single_tile_is_whole_object() {
        let dom = d("[0:9,0:9]");
        let spec = SingleTile.partition(&dom, 8).unwrap();
        assert_eq!(spec.tiles(), std::slice::from_ref(&dom));
        assert!(spec.covers(&dom));
    }

    #[test]
    fn cell_too_big_is_an_error() {
        let dom = d("[0:9,0:9]");
        let err = AlignedTiling::regular(2, 4).partition(&dom, 8).unwrap_err();
        assert!(matches!(err, TilingError::CellExceedsMaxTileSize { .. }));
    }

    #[test]
    fn paper_table2_regular_schemes() {
        // The Table 1 cube under Reg32K..Reg256K: all schemes must cover
        // the cube with tiles within the byte budget.
        let cube = d("[1:730,1:60,1:100]");
        for max in [32u64 * 1024, 64 * 1024, 128 * 1024, 256 * 1024] {
            let spec = AlignedTiling::regular(3, max).partition(&cube, 4).unwrap();
            assert!(spec.covers(&cube), "Reg{max} does not cover");
            assert!(spec.max_tile_bytes(4) <= max);
        }
    }
}
