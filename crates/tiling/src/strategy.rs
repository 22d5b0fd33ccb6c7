//! The tiling-strategy abstraction and the closed set of built-in schemes.

use tilestore_geometry::Domain;
use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::aligned::{AlignedTiling, SingleTile};
use crate::directional::DirectionalTiling;
use crate::error::Result;
use crate::interest::AreasOfInterestTiling;
use crate::spec::TilingSpec;
use crate::statistic::StatisticTiling;

/// A tiling strategy: computes a tiling specification (a partition of the
/// spatial domain) from the domain and the cell size (§5.2).
pub trait TilingStrategy {
    /// Human-readable strategy name.
    fn name(&self) -> &'static str;

    /// The `MaxTileSize` this strategy enforces, in bytes.
    fn max_tile_size(&self) -> u64;

    /// Computes the tiling specification for `domain` with `cell_size`-byte
    /// cells.
    ///
    /// # Errors
    /// Strategy-specific validation errors; see [`crate::TilingError`].
    fn partition(&self, domain: &Domain, cell_size: usize) -> Result<TilingSpec>;
}

/// The closed, serializable set of built-in tiling schemes. An engine stores
/// the scheme with each MDD object so later insertions (gradual growth) tile
/// consistently.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// Aligned tiling with a tile configuration (includes regular tiling).
    Aligned(AlignedTiling),
    /// The whole object as one tile.
    SingleTile(SingleTile),
    /// Tiling by user-defined partitions of the axes.
    Directional(DirectionalTiling),
    /// Tiling adapted to declared areas of interest.
    AreasOfInterest(AreasOfInterestTiling),
    /// Areas of interest derived automatically from an access log.
    Statistic(StatisticTiling),
}

impl Scheme {
    /// The paper's default: aligned regular tiling.
    #[must_use]
    pub fn default_for(dim: usize) -> Self {
        Scheme::Aligned(AlignedTiling::default_for(dim))
    }
}

impl TilingStrategy for Scheme {
    fn name(&self) -> &'static str {
        match self {
            Scheme::Aligned(s) => s.name(),
            Scheme::SingleTile(s) => s.name(),
            Scheme::Directional(s) => s.name(),
            Scheme::AreasOfInterest(s) => s.name(),
            Scheme::Statistic(s) => s.name(),
        }
    }

    fn max_tile_size(&self) -> u64 {
        match self {
            Scheme::Aligned(s) => s.max_tile_size(),
            Scheme::SingleTile(s) => s.max_tile_size(),
            Scheme::Directional(s) => s.max_tile_size(),
            Scheme::AreasOfInterest(s) => s.max_tile_size(),
            Scheme::Statistic(s) => s.max_tile_size(),
        }
    }

    fn partition(&self, domain: &Domain, cell_size: usize) -> Result<TilingSpec> {
        let _span = tilestore_obs::tracer()
            .span_with("tiling_partition", || format!("strategy={}", self.name()));
        tilestore_obs::hot().partitions.inc();
        let spec = match self {
            Scheme::Aligned(s) => s.partition(domain, cell_size),
            Scheme::SingleTile(s) => s.partition(domain, cell_size),
            Scheme::Directional(s) => s.partition(domain, cell_size),
            Scheme::AreasOfInterest(s) => s.partition(domain, cell_size),
            Scheme::Statistic(s) => s.partition(domain, cell_size),
        }?;
        tilestore_obs::tracer().event("tiling_done", || format!("tiles={}", spec.len()));
        Ok(spec)
    }
}

impl ToJson for Scheme {
    /// Serializes as an object tagged by a `"kind"` field, with the
    /// variant's own fields merged in.
    fn to_json(&self) -> Json {
        let tag = |kind: &str| ("kind".to_string(), Json::Str(kind.to_string()));
        match self {
            Scheme::Aligned(s) => match s.to_json() {
                Json::Object(mut fields) => {
                    fields.insert(0, tag("aligned"));
                    Json::Object(fields)
                }
                other => other,
            },
            Scheme::SingleTile(_) => Json::Object(vec![tag("single_tile")]),
            Scheme::Directional(s) => match s.to_json() {
                Json::Object(mut fields) => {
                    fields.insert(0, tag("directional"));
                    Json::Object(fields)
                }
                other => other,
            },
            Scheme::AreasOfInterest(s) => match s.to_json() {
                Json::Object(mut fields) => {
                    fields.insert(0, tag("areas_of_interest"));
                    Json::Object(fields)
                }
                other => other,
            },
            Scheme::Statistic(s) => match s.to_json() {
                Json::Object(mut fields) => {
                    fields.insert(0, tag("statistic"));
                    Json::Object(fields)
                }
                other => other,
            },
        }
    }
}

impl FromJson for Scheme {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        // Each variant decodes the whole object and skips the tag.
        match &*required(r.tag("kind")?, "kind")? {
            "aligned" => r.read().map(Scheme::Aligned),
            "single_tile" => r.skip().map(|()| Scheme::SingleTile(SingleTile)),
            "directional" => r.read().map(Scheme::Directional),
            "areas_of_interest" => r.read().map(Scheme::AreasOfInterest),
            "statistic" => r.read().map(Scheme::Statistic),
            other => Err(JsonError::msg(format!("unknown scheme kind {other:?}"))),
        }
    }
}

impl From<AlignedTiling> for Scheme {
    fn from(s: AlignedTiling) -> Self {
        Scheme::Aligned(s)
    }
}

impl From<SingleTile> for Scheme {
    fn from(s: SingleTile) -> Self {
        Scheme::SingleTile(s)
    }
}

impl From<DirectionalTiling> for Scheme {
    fn from(s: DirectionalTiling) -> Self {
        Scheme::Directional(s)
    }
}

impl From<AreasOfInterestTiling> for Scheme {
    fn from(s: AreasOfInterestTiling) -> Self {
        Scheme::AreasOfInterest(s)
    }
}

impl From<StatisticTiling> for Scheme {
    fn from(s: StatisticTiling) -> Self {
        Scheme::Statistic(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scheme_is_aligned() {
        let s = Scheme::default_for(3);
        assert_eq!(s.name(), "aligned");
        let dom: Domain = "[0:9,0:9,0:9]".parse().unwrap();
        assert!(s.partition(&dom, 1).unwrap().covers(&dom));
    }

    #[test]
    fn scheme_json_round_trip() {
        use crate::config::TileConfig;
        use crate::directional::{AxisPartition, SubTiling};
        use crate::interest::AreasOfInterestTiling;
        use crate::statistic::{AccessRecord, StatisticTiling};

        let schemes: Vec<Scheme> = vec![
            Scheme::default_for(2),
            Scheme::SingleTile(SingleTile),
            Scheme::Directional(DirectionalTiling {
                partitions: vec![AxisPartition {
                    axis: 0,
                    points: vec![3, 7],
                }],
                max_tile_size: 4096,
                sub_tiling: SubTiling::Aligned("[4,*]".parse::<TileConfig>().unwrap()),
            }),
            Scheme::AreasOfInterest(AreasOfInterestTiling {
                areas: vec!["[0:4,0:4]".parse().unwrap()],
                max_tile_size: 1024,
                skip_merge: true,
            }),
            Scheme::Statistic(StatisticTiling {
                accesses: vec![AccessRecord::new("[1:2,3:4]".parse().unwrap(), 5)],
                distance_threshold: 2,
                frequency_threshold: 1,
                max_tile_size: 2048,
            }),
        ];
        for s in schemes {
            let json = tilestore_testkit::json::to_string(&s);
            let back: Scheme = tilestore_testkit::json::from_str(&json).unwrap();
            assert_eq!(back, s, "{json}");
        }
    }
}
