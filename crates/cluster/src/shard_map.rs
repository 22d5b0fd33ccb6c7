//! The shard map: a tiling spec as partitioning function.
//!
//! A [`ShardMap`] partitions all of cell space along one axis with a sorted
//! list of cut points — exactly the paper's "tiling as an arbitrary
//! decomposition of the domain", lifted one level up: instead of cutting an
//! object into tiles, the map cuts the *cluster's* space into per-shard
//! sub-domains. `N - 1` cuts make `N` shards:
//!
//! * shard `0` owns `(-inf, cuts[0])` along the axis,
//! * shard `k` (middle) owns `[cuts[k-1], cuts[k])`,
//! * shard `N-1` owns `[cuts[N-2], +inf)`.
//!
//! Because the slabs partition **all** of space, the per-shard clips of any
//! query region partition that region exactly: every cell of the gathered
//! result is produced by exactly one shard. Shards tile their own
//! sub-domains independently (the map does not have to align with tile
//! boundaries; it only has to be deterministic and total).

use std::path::{Path, PathBuf};

use tilestore_geometry::{AxisRange, Domain};
use tilestore_testkit::json::{required, FromJson, Json, JsonError, JsonReader, ToJson};

use crate::error::{ClusterError, Result};

/// Partitioning function from cell space to shard ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    axis: usize,
    cuts: Vec<i64>,
}

impl ShardMap {
    /// Builds a map that splits space along `axis` at the given cut points.
    ///
    /// `cuts` must be strictly increasing; `cuts.len() + 1` shards result.
    /// An empty cut list is a valid single-shard map.
    pub fn new(axis: usize, cuts: Vec<i64>) -> Result<Self> {
        if !cuts.windows(2).all(|w| w[0] < w[1]) {
            return Err(ClusterError::Config(format!(
                "shard cuts must be strictly increasing, got {cuts:?}"
            )));
        }
        Ok(ShardMap { axis, cuts })
    }

    /// Builds an `shards`-way map cutting `[origin, origin + shards*slab)`
    /// into even slabs of `slab` cells along `axis`. The outermost shards
    /// still own the infinite tails, so the map covers all of space.
    pub fn even(axis: usize, shards: usize, origin: i64, slab: u64) -> Result<Self> {
        if shards == 0 {
            return Err(ClusterError::Config("shard count must be > 0".into()));
        }
        if slab == 0 && shards > 1 {
            return Err(ClusterError::Config("slab extent must be > 0".into()));
        }
        let cuts = (1..shards)
            .map(|k| origin + (k as i64) * (slab as i64))
            .collect();
        ShardMap::new(axis, cuts)
    }

    /// Number of shards this map routes to.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The split axis.
    #[must_use]
    pub fn axis(&self) -> usize {
        self.axis
    }

    /// The cut points (strictly increasing, `shards() - 1` of them).
    #[must_use]
    pub fn cuts(&self) -> &[i64] {
        &self.cuts
    }

    /// The half-open interval `[lo, hi)` shard `k` owns along the split
    /// axis, with `i64::MIN`/`i64::MAX` standing in for the infinite tails.
    fn slab(&self, shard: usize) -> (i64, i64) {
        let lo = if shard == 0 {
            i64::MIN
        } else {
            self.cuts[shard - 1]
        };
        let hi = if shard == self.cuts.len() {
            i64::MAX
        } else {
            self.cuts[shard]
        };
        (lo, hi)
    }

    /// Clips `region` to the sub-domain shard `shard` owns. `None` means
    /// the shard owns no part of the region. The clips over all shards
    /// partition `region` exactly.
    #[must_use]
    pub fn clip(&self, shard: usize, region: &Domain) -> Option<Domain> {
        assert!(shard < self.shards(), "shard {shard} out of range");
        if self.axis >= region.dim() {
            // A map on an axis the object does not have degenerates to
            // "shard 0 owns everything" so 1-D objects still work under a
            // map built for higher-dimensional data.
            return if shard == 0 {
                Some(region.clone())
            } else {
                None
            };
        }
        let (lo, hi) = self.slab(shard);
        let r = region.axis(self.axis);
        let clipped_lo = r.lo().max(lo);
        // Half-open slab upper bound vs inclusive axis ranges.
        let clipped_hi = if hi == i64::MAX {
            r.hi()
        } else {
            r.hi().min(hi - 1)
        };
        if clipped_lo > clipped_hi {
            return None;
        }
        let range = AxisRange::new(clipped_lo, clipped_hi).ok()?;
        region.with_axis(self.axis, range).ok()
    }

    /// The shards whose slab intersects `region`, in order.
    #[must_use]
    pub fn route(&self, region: &Domain) -> Vec<usize> {
        (0..self.shards())
            .filter(|&k| self.clip(k, region).is_some())
            .collect()
    }
}

impl ToJson for ShardMap {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("axis", Json::UInt(self.axis as u64)),
            (
                "cuts",
                Json::Array(self.cuts.iter().map(|&c| Json::Int(c)).collect()),
            ),
        ])
    }
}

impl FromJson for ShardMap {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut axis, mut cuts) = (None, None);
        r.object(|r, key| match key {
            "axis" => r.field(&mut axis),
            "cuts" => r.field(&mut cuts),
            _ => r.skip(),
        })?;
        ShardMap::new(required(axis, "axis")?, required(cuts, "cuts")?)
            .map_err(|e| JsonError::msg(e.to_string()))
    }
}

/// On-disk description of a local cluster: the shard map plus the layout
/// convention (`shard-K/` sub-directories next to the manifest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterManifest {
    /// The partitioning function.
    pub map: ShardMap,
}

/// Manifest file name inside a cluster directory.
pub const MANIFEST_FILE: &str = "cluster.json";

impl ClusterManifest {
    /// Path of shard `k`'s database directory under the cluster root.
    #[must_use]
    pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
        root.join(format!("shard-{shard}"))
    }

    /// Writes the manifest into `root/cluster.json`.
    pub fn save(&self, root: &Path) -> Result<()> {
        std::fs::create_dir_all(root)?;
        let text = self.to_json().to_string_pretty();
        std::fs::write(root.join(MANIFEST_FILE), text)?;
        Ok(())
    }

    /// Loads the manifest from `root/cluster.json`.
    pub fn load(root: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(root.join(MANIFEST_FILE))?;
        tilestore_testkit::json::from_str(&text)
            .map_err(|e| ClusterError::Config(format!("bad cluster manifest: {e}")))
    }

    /// Whether `root` holds a cluster manifest.
    #[must_use]
    pub fn exists(root: &Path) -> bool {
        root.join(MANIFEST_FILE).is_file()
    }
}

impl ToJson for ClusterManifest {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("shards", Json::UInt(self.map.shards() as u64)),
            ("map", self.map.to_json()),
        ])
    }
}

impl FromJson for ClusterManifest {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut map, mut shards) = (None::<ShardMap>, None::<Json>);
        r.object(|r, key| match key {
            "map" => r.field(&mut map),
            "shards" => r.field(&mut shards),
            _ => r.skip(),
        })?;
        let map = required(map, "map")?;
        // A count that is not a `u64` is not checked.
        if let Some(n) = shards.as_ref().and_then(Json::as_u64) {
            if n as usize != map.shards() {
                return Err(JsonError::msg("manifest shard count disagrees with map"));
            }
        }
        Ok(ClusterManifest { map })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(bounds: &[(i64, i64)]) -> Domain {
        Domain::from_bounds(bounds).unwrap()
    }

    #[test]
    fn clips_partition_any_region() {
        let map = ShardMap::new(0, vec![10, 20, 30]).unwrap();
        assert_eq!(map.shards(), 4);
        let region = dom(&[(-5, 57), (3, 9)]);
        let clips: Vec<Domain> = (0..map.shards())
            .filter_map(|k| map.clip(k, &region))
            .collect();
        // Cells of the clips must sum to the region's cells and the clips
        // must be pairwise disjoint.
        let total: u64 = clips.iter().map(Domain::cells).sum();
        assert_eq!(total, region.cells());
        for i in 0..clips.len() {
            for j in i + 1..clips.len() {
                assert!(clips[i].intersection(&clips[j]).is_none());
            }
        }
        assert_eq!(clips[0], dom(&[(-5, 9), (3, 9)]));
        assert_eq!(clips[3], dom(&[(30, 57), (3, 9)]));
    }

    #[test]
    fn clip_outside_slab_is_none() {
        let map = ShardMap::new(0, vec![10]).unwrap();
        let region = dom(&[(0, 9)]);
        assert!(map.clip(0, &region).is_some());
        assert!(map.clip(1, &region).is_none());
    }

    #[test]
    fn even_map_and_route() {
        let map = ShardMap::even(1, 4, 0, 16).unwrap();
        assert_eq!(map.cuts(), &[16, 32, 48]);
        let region = dom(&[(0, 3), (20, 40)]);
        assert_eq!(map.route(&region), vec![1, 2]);
    }

    #[test]
    fn rejects_unsorted_cuts() {
        assert!(ShardMap::new(0, vec![5, 5]).is_err());
        assert!(ShardMap::new(0, vec![9, 3]).is_err());
    }

    #[test]
    fn manifest_round_trip() {
        let dir = tilestore_testkit::tempdir::TempDir::new().unwrap();
        let m = ClusterManifest {
            map: ShardMap::new(2, vec![-3, 8]).unwrap(),
        };
        m.save(dir.path()).unwrap();
        assert!(ClusterManifest::exists(dir.path()));
        let back = ClusterManifest::load(dir.path()).unwrap();
        assert_eq!(back, m);
    }
}
