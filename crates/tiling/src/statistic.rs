//! Statistic tiling (§5.2, "Statistic Tiling").
//!
//! Areas of interest are derived automatically from a list of logged
//! accesses: accesses closer than `DistanceThreshold` are merged into one
//! candidate area, and only candidates hit more often than
//! `FrequencyThreshold` become areas of interest. The areas-of-interest
//! algorithm then computes the tiling.

use tilestore_geometry::Domain;
use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

use crate::aligned::AlignedTiling;
use crate::error::{Result, TilingError};
use crate::interest::AreasOfInterestTiling;
use crate::spec::TilingSpec;
use crate::strategy::TilingStrategy;

/// One logged access to an MDD object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// The region that was queried.
    pub region: Domain,
    /// How many times this exact region was accessed.
    pub count: u64,
}

impl AccessRecord {
    /// A record of `count` accesses to `region`.
    #[must_use]
    pub fn new(region: Domain, count: u64) -> Self {
        AccessRecord { region, count }
    }

    /// A record of a single access.
    #[must_use]
    pub fn once(region: Domain) -> Self {
        AccessRecord { region, count: 1 }
    }
}

impl ToJson for AccessRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("region", self.region.to_json()),
            ("count", self.count.to_json()),
        ])
    }
}

impl FromJson for AccessRecord {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut region, mut count) = (None, None);
        r.object(|r, key| match key {
            "region" => r.field(&mut region),
            "count" => r.field(&mut count),
            _ => r.skip(),
        })?;
        Ok(AccessRecord {
            region: required(region, "region")?,
            count: required(count, "count")?,
        })
    }
}

/// A cluster of nearby accesses: candidate area of interest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessCluster {
    /// Hull of the clustered access regions.
    pub region: Domain,
    /// Total access count of the cluster.
    pub frequency: u64,
}

/// Statistic tiling: derive areas of interest from an access log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatisticTiling {
    /// The access log (from the application or database log file).
    pub accesses: Vec<AccessRecord>,
    /// Accesses within this Chebyshev distance are merged into one
    /// candidate area ("accesses closer than DistanceThreshold").
    pub distance_threshold: u64,
    /// A candidate becomes an area of interest only when its total access
    /// count strictly exceeds this ("only those which occur more than
    /// FrequencyThreshold").
    pub frequency_threshold: u64,
    /// Maximum size of any produced tile, in bytes.
    pub max_tile_size: u64,
}

impl StatisticTiling {
    /// Statistic tiling over `accesses`.
    #[must_use]
    pub fn new(
        accesses: Vec<AccessRecord>,
        distance_threshold: u64,
        frequency_threshold: u64,
        max_tile_size: u64,
    ) -> Self {
        StatisticTiling {
            accesses,
            distance_threshold,
            frequency_threshold,
            max_tile_size,
        }
    }

    /// Clusters the access log: regions within `distance_threshold` are
    /// merged (hulls taken) until no two clusters are that close. The
    /// fixpoint makes the result independent of log order.
    ///
    /// # Errors
    /// [`TilingError::Geometry`] when access regions have mixed
    /// dimensionalities.
    pub fn clusters(&self) -> Result<Vec<AccessCluster>> {
        let mut clusters: Vec<AccessCluster> = Vec::new();
        for rec in &self.accesses {
            clusters.push(AccessCluster {
                region: rec.region.clone(),
                frequency: rec.count,
            });
        }
        // Iterate merging to a fixpoint. Each pass is O(n²); logs are
        // filtered/aggregated upstream so n stays small.
        loop {
            let mut merged_any = false;
            let mut next: Vec<AccessCluster> = Vec::with_capacity(clusters.len());
            'outer: for c in clusters.drain(..) {
                for existing in &mut next {
                    // Strictly "closer than DistanceThreshold" (§5.2):
                    // threshold 0 never merges, keeping overlapping accesses
                    // as distinct areas of interest.
                    if existing.region.distance(&c.region)? < self.distance_threshold {
                        existing.region = existing.region.hull(&c.region)?;
                        existing.frequency += c.frequency;
                        merged_any = true;
                        continue 'outer;
                    }
                }
                next.push(c);
            }
            clusters = next;
            if !merged_any {
                break;
            }
        }
        Ok(clusters)
    }

    /// The derived areas of interest: clusters meeting the frequency
    /// threshold, clipped to `domain`.
    ///
    /// # Errors
    /// Propagates [`StatisticTiling::clusters`] errors.
    pub fn areas_of_interest(&self, domain: &Domain) -> Result<Vec<Domain>> {
        Ok(self
            .clusters()?
            .into_iter()
            .filter(|c| c.frequency > self.frequency_threshold)
            .filter_map(|c| c.region.intersection(domain))
            .collect())
    }
}

impl ToJson for StatisticTiling {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("accesses", self.accesses.to_json()),
            ("distance_threshold", self.distance_threshold.to_json()),
            ("frequency_threshold", self.frequency_threshold.to_json()),
            ("max_tile_size", self.max_tile_size.to_json()),
        ])
    }
}

impl FromJson for StatisticTiling {
    fn read_json(r: &mut JsonReader<'_>) -> std::result::Result<Self, JsonError> {
        let (mut accesses, mut distance_threshold, mut frequency_threshold, mut max_tile_size) =
            (None, None, None, None);
        r.object(|r, key| match key {
            "accesses" => r.field(&mut accesses),
            "distance_threshold" => r.field(&mut distance_threshold),
            "frequency_threshold" => r.field(&mut frequency_threshold),
            "max_tile_size" => r.field(&mut max_tile_size),
            _ => r.skip(),
        })?;
        Ok(StatisticTiling {
            accesses: required(accesses, "accesses")?,
            distance_threshold: required(distance_threshold, "distance_threshold")?,
            frequency_threshold: required(frequency_threshold, "frequency_threshold")?,
            max_tile_size: required(max_tile_size, "max_tile_size")?,
        })
    }
}

impl TilingStrategy for StatisticTiling {
    fn name(&self) -> &'static str {
        "statistic"
    }

    fn max_tile_size(&self) -> u64 {
        self.max_tile_size
    }

    /// Computes the tiling: areas-of-interest tiling over the derived areas,
    /// or the default aligned tiling when no cluster survives the filter
    /// (an empty or too-noisy log must still produce a usable tiling).
    fn partition(&self, domain: &Domain, cell_size: usize) -> Result<TilingSpec> {
        let areas = self.areas_of_interest(domain)?;
        if areas.is_empty() {
            return AlignedTiling::regular(domain.dim(), self.max_tile_size)
                .partition(domain, cell_size);
        }
        match AreasOfInterestTiling::new(areas, self.max_tile_size).partition(domain, cell_size) {
            Err(TilingError::TooManyAreas { .. }) => {
                // Degenerate log with >128 distinct hot spots: fall back to
                // regular tiling rather than fail the load.
                AlignedTiling::regular(domain.dim(), self.max_tile_size)
                    .partition(domain, cell_size)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Domain {
        s.parse().unwrap()
    }

    #[test]
    fn close_accesses_merge_into_one_cluster() {
        let t = StatisticTiling::new(
            vec![
                AccessRecord::once(d("[0:4,0:4]")),
                AccessRecord::once(d("[6:9,0:4]")), // gap 1 on axis 0
                AccessRecord::once(d("[50:60,50:60]")),
            ],
            2, // merges anything strictly closer than 2
            0,
            1 << 20,
        );
        let clusters = t.clusters().unwrap();
        assert_eq!(clusters.len(), 2);
        let big = clusters.iter().find(|c| c.frequency == 2).unwrap();
        assert_eq!(big.region, d("[0:9,0:4]"));
    }

    #[test]
    fn chained_merging_reaches_fixpoint() {
        // a--b close, b--c close, a--c far: all three must end up together.
        let t = StatisticTiling::new(
            vec![
                AccessRecord::once(d("[0:1,0:1]")),
                AccessRecord::once(d("[3:4,0:1]")),
                AccessRecord::once(d("[6:7,0:1]")),
            ],
            2,
            0,
            1 << 20,
        );
        let clusters = t.clusters().unwrap();
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].region, d("[0:7,0:1]"));
        assert_eq!(clusters[0].frequency, 3);
    }

    #[test]
    fn frequency_threshold_filters_rare_accesses() {
        let t = StatisticTiling::new(
            vec![
                AccessRecord::new(d("[0:4,0:4]"), 10),
                AccessRecord::once(d("[50:54,50:54]")),
            ],
            0,
            5,
            1 << 20,
        );
        let areas = t.areas_of_interest(&d("[0:99,0:99]")).unwrap();
        assert_eq!(areas, vec![d("[0:4,0:4]")]);
    }

    #[test]
    fn empty_log_falls_back_to_regular_tiling() {
        let t = StatisticTiling::new(vec![], 0, 0, 64);
        let dom = d("[0:19,0:19]");
        let spec = t.partition(&dom, 1).unwrap();
        assert!(spec.covers(&dom));
        assert!(spec.max_tile_bytes(1) <= 64);
    }

    #[test]
    fn derived_areas_drive_the_tiling() {
        let dom = d("[0:99,0:99]");
        let hot = d("[10:29,10:29]");
        let t = StatisticTiling::new(vec![AccessRecord::new(hot.clone(), 100)], 0, 10, 1 << 20);
        let spec = t.partition(&dom, 1).unwrap();
        assert!(spec.covers(&dom));
        // The guarantee transfers: a query to the hot area reads only it.
        assert_eq!(spec.bytes_touched(&hot, 1), hot.cells());
    }

    #[test]
    fn overlapping_accesses_stay_distinct_at_zero_threshold() {
        let a = d("[0:10,0:10]");
        let b = d("[5:20,5:20]");
        let t = StatisticTiling::new(
            vec![
                AccessRecord::new(a.clone(), 9),
                AccessRecord::new(b.clone(), 9),
            ],
            0,
            5,
            1 << 20,
        );
        let areas = t.areas_of_interest(&d("[0:99,0:99]")).unwrap();
        assert_eq!(areas.len(), 2);
        assert!(areas.contains(&a) && areas.contains(&b));
    }

    #[test]
    fn accesses_outside_domain_are_clipped() {
        let dom = d("[0:9,0:9]");
        let t = StatisticTiling::new(vec![AccessRecord::new(d("[5:20,5:20]"), 10)], 0, 1, 1 << 20);
        let areas = t.areas_of_interest(&dom).unwrap();
        assert_eq!(areas, vec![d("[5:9,5:9]")]);
        assert!(t.partition(&dom, 1).unwrap().covers(&dom));
    }
}
