//! The access model of §5.1 and the access log feeding statistic tiling.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use tilestore_geometry::{AxisRange, Domain};
use tilestore_tiling::AccessRecord;

use crate::error::{EngineError, Result};

/// A region access in the §5.1 classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessRegion {
    /// (a) the whole object.
    Whole,
    /// (b) a full-dimensional subarea (range query).
    Range(Domain),
    /// (c) a partial range query: bounds on some directions only (dicing /
    /// slicing / sub-aggregation); `None` leaves a direction unconstrained.
    Partial(Vec<Option<AxisRange>>),
    /// (d) a section: fixed coordinates along some directions, producing a
    /// result of lower dimensionality.
    Section(Vec<Option<i64>>),
}

impl AccessRegion {
    /// Resolves the access against the object's current domain into a
    /// concrete full-dimensional query region plus the axes that are fixed
    /// (to be dropped from the result's dimensionality, for sections).
    ///
    /// # Errors
    /// [`EngineError::BadAccessRegion`] for dimension mismatches, empty
    /// constraint ranges or section coordinates outside the current domain.
    pub fn resolve(&self, current: &Domain) -> Result<(Domain, Vec<usize>)> {
        match self {
            AccessRegion::Whole => Ok((current.clone(), Vec::new())),
            AccessRegion::Range(q) => {
                if q.dim() != current.dim() {
                    return Err(EngineError::BadAccessRegion(format!(
                        "range query {q} has dimensionality {}, object has {}",
                        q.dim(),
                        current.dim()
                    )));
                }
                Ok((q.clone(), Vec::new()))
            }
            AccessRegion::Partial(constraints) => {
                if constraints.len() != current.dim() {
                    return Err(EngineError::BadAccessRegion(format!(
                        "partial query constrains {} axes, object has {}",
                        constraints.len(),
                        current.dim()
                    )));
                }
                let mut region = current.clone();
                for (axis, c) in constraints.iter().enumerate() {
                    if let Some(r) = c {
                        region = region.with_axis(axis, *r)?;
                    }
                }
                Ok((region, Vec::new()))
            }
            AccessRegion::Section(coords) => {
                if coords.len() != current.dim() {
                    return Err(EngineError::BadAccessRegion(format!(
                        "section fixes {} axes, object has {}",
                        coords.len(),
                        current.dim()
                    )));
                }
                let mut region = current.clone();
                let mut fixed = Vec::new();
                for (axis, c) in coords.iter().enumerate() {
                    if let Some(x) = c {
                        let r = AxisRange::new(*x, *x).expect("degenerate range");
                        region = region.with_axis(axis, r)?;
                        fixed.push(axis);
                    }
                }
                if fixed.len() == coords.len() {
                    return Err(EngineError::BadAccessRegion(
                        "section fixes every axis; use a point read instead".to_string(),
                    ));
                }
                Ok((region, fixed))
            }
        }
    }
}

/// Locks the entry map, recovering from poisoning: a panicking worker
/// thread must not permanently disable query logging — the log holds plain
/// aggregated counts, which stay internally consistent even if a panic
/// interrupted the panicking thread's own update.
fn lock(
    m: &Mutex<BTreeMap<String, (Domain, u64)>>,
) -> MutexGuard<'_, BTreeMap<String, (Domain, u64)>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-object log of executed accesses, aggregated by region.
///
/// §5.2: "Statistic tiling automatically calculates areas of interest from
/// a list of accesses to an MDD. This list is obtained from an application
/// or database log file of access operations." The log is in-memory state
/// (a database would read it back from its operation log), so it is not
/// part of the persisted catalog.
#[derive(Debug, Default)]
pub struct AccessLog {
    entries: Mutex<BTreeMap<String, (Domain, u64)>>,
}

impl AccessLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        AccessLog::default()
    }

    /// Records one access to `region`.
    pub fn record(&self, region: &Domain) {
        self.record_keyed(&region.to_string(), region);
    }

    /// Records one access to `region`, whose textual form the caller has
    /// already formatted as `key`.
    pub(crate) fn record_keyed(&self, key: &str, region: &Domain) {
        let mut entries = lock(&self.entries);
        match entries.get_mut(key) {
            Some((_, count)) => *count += 1,
            None => {
                entries.insert(key.to_string(), (region.clone(), 1));
            }
        }
    }

    /// Number of distinct regions recorded.
    #[must_use]
    pub fn distinct_regions(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Total accesses recorded.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        lock(&self.entries).values().map(|(_, c)| *c).sum()
    }

    /// Exports the log as tiling [`AccessRecord`]s.
    #[must_use]
    pub fn to_records(&self) -> Vec<AccessRecord> {
        lock(&self.entries)
            .values()
            .map(|(region, count)| AccessRecord::new(region.clone(), *count))
            .collect()
    }

    /// Clears the log.
    pub fn clear(&self) {
        lock(&self.entries).clear();
    }
}

impl Clone for AccessLog {
    fn clone(&self) -> Self {
        AccessLog {
            entries: Mutex::new(lock(&self.entries).clone()),
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
    fn whole_resolves_to_current_domain() {
        let cur = d("[0:9,0:9]");
        let (r, fixed) = AccessRegion::Whole.resolve(&cur).unwrap();
        assert_eq!(r, cur);
        assert!(fixed.is_empty());
    }

    #[test]
    fn partial_constrains_named_axes_only() {
        let cur = d("[0:9,0:9,0:9]");
        let access = AccessRegion::Partial(vec![
            Some(AxisRange::new(2, 4).unwrap()),
            None,
            Some(AxisRange::new(7, 9).unwrap()),
        ]);
        let (r, _) = access.resolve(&cur).unwrap();
        assert_eq!(r, d("[2:4,0:9,7:9]"));
    }

    #[test]
    fn section_fixes_axes_and_reports_them() {
        let cur = d("[0:9,0:9,0:9]");
        let access = AccessRegion::Section(vec![None, Some(5), None]);
        let (r, fixed) = access.resolve(&cur).unwrap();
        assert_eq!(r, d("[0:9,5:5,0:9]"));
        assert_eq!(fixed, vec![1]);
    }

    #[test]
    fn bad_accesses_rejected() {
        let cur = d("[0:9,0:9]");
        assert!(AccessRegion::Range(d("[0:1]")).resolve(&cur).is_err());
        assert!(AccessRegion::Partial(vec![None]).resolve(&cur).is_err());
        assert!(AccessRegion::Section(vec![Some(1)]).resolve(&cur).is_err());
        assert!(AccessRegion::Section(vec![Some(1), Some(2)])
            .resolve(&cur)
            .is_err());
    }

    #[test]
    fn log_survives_lock_poisoning() {
        let log = AccessLog::new();
        log.record(&d("[0:4,0:4]"));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = log.entries.lock().unwrap();
            panic!("worker died mid-record");
        }));
        assert!(log.entries.is_poisoned());
        // Logging keeps working after a panicking holder.
        log.record(&d("[0:4,0:4]"));
        assert_eq!(log.total_accesses(), 2);
        assert_eq!(log.distinct_regions(), 1);
    }

    #[test]
    fn log_aggregates_by_region() {
        let log = AccessLog::new();
        log.record(&d("[0:4,0:4]"));
        log.record(&d("[0:4,0:4]"));
        log.record(&d("[5:9,5:9]"));
        assert_eq!(log.distinct_regions(), 2);
        assert_eq!(log.total_accesses(), 3);
        let recs = log.to_records();
        let hot = recs.iter().find(|r| r.region == d("[0:4,0:4]")).unwrap();
        assert_eq!(hot.count, 2);
        log.clear();
        assert_eq!(log.total_accesses(), 0);
    }
}
