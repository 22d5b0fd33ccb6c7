//! I/O accounting for the storage stack: every read returns the counts of
//! that one call as an [`IoSnapshot`], and [`IoStats`] keeps running totals
//! by adding those per-call snapshots.

use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tilestore_testkit::json::required;
use tilestore_testkit::{FromJson, Json, JsonError, JsonReader, ToJson};

/// Number of counters in an [`IoSnapshot`].
const COUNTERS: usize = 11;

/// JSON field names, in [`IoSnapshot::counters`] order.
const NAMES: [&str; COUNTERS] = [
    "pages_read",
    "pages_written",
    "blobs_read",
    "blobs_written",
    "bytes_read",
    "bytes_written",
    "cache_hits",
    "cache_misses",
    "runs_coalesced",
    "pages_read_run",
    "readahead_bytes",
];

/// Index of the first run counter: these postdate persisted stats from
/// older builds, so absent fields read as zero.
const FIRST_RUN_COUNTER: usize = 8;

/// Thread-safe running totals. Cloning shares the underlying counters.
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<[AtomicU64; COUNTERS]>,
}

/// I/O counts: those of one store call, a sum of calls (one query's), or a
/// point-in-time copy of an [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Pages fetched from the page store.
    pub pages_read: u64,
    /// Pages written to the page store.
    pub pages_written: u64,
    /// BLOB read operations — each is a "seek" in the disk cost model,
    /// since a BLOB's pages are laid out contiguously.
    pub blobs_read: u64,
    /// BLOB write operations.
    pub blobs_written: u64,
    /// Payload bytes read from BLOBs.
    pub bytes_read: u64,
    /// Payload bytes written to BLOBs.
    pub bytes_written: u64,
    /// Buffer-pool hits (page served without touching the store).
    pub cache_hits: u64,
    /// Buffer-pool misses.
    pub cache_misses: u64,
    /// Physically consecutive page runs fetched with a single positioned
    /// read instead of one read per page.
    pub runs_coalesced: u64,
    /// Pages that arrived via coalesced runs. Pages read one at a time are
    /// `pages_read - pages_read_run`.
    pub pages_read_run: u64,
    /// Payload bytes fetched by coalesced runs.
    pub readahead_bytes: u64,
}

impl IoSnapshot {
    /// The counters in [`NAMES`] order.
    fn counters(&self) -> [u64; COUNTERS] {
        [
            self.pages_read,
            self.pages_written,
            self.blobs_read,
            self.blobs_written,
            self.bytes_read,
            self.bytes_written,
            self.cache_hits,
            self.cache_misses,
            self.runs_coalesced,
            self.pages_read_run,
            self.readahead_bytes,
        ]
    }

    fn from_counters(c: [u64; COUNTERS]) -> Self {
        IoSnapshot {
            pages_read: c[0],
            pages_written: c[1],
            blobs_read: c[2],
            blobs_written: c[3],
            bytes_read: c[4],
            bytes_written: c[5],
            cache_hits: c[6],
            cache_misses: c[7],
            runs_coalesced: c[8],
            pages_read_run: c[9],
            readahead_bytes: c[10],
        }
    }

    /// Records one coalesced run of `pages` pages fetched by one
    /// positioned read.
    pub(crate) fn count_run(&mut self, pages: usize, page_size: usize) {
        self.runs_coalesced += 1;
        self.pages_read_run += pages as u64;
        self.readahead_bytes += (pages * page_size) as u64;
    }

    /// Adds this call's runs to the process-wide `io.*` run metrics.
    pub(crate) fn publish_runs(&self) {
        if self.runs_coalesced > 0 {
            let hot = tilestore_obs::hot();
            hot.runs_coalesced.add(self.runs_coalesced);
            hot.readahead_bytes.add(self.readahead_bytes);
        }
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    #[must_use]
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        let (a, b) = (self.counters(), earlier.counters());
        IoSnapshot::from_counters(std::array::from_fn(|i| a[i] - b[i]))
    }
}

/// Field-wise saturating sum: a counter that reached `u64::MAX` stays there
/// instead of wrapping.
impl AddAssign<&IoSnapshot> for IoSnapshot {
    fn add_assign(&mut self, other: &IoSnapshot) {
        let (a, b) = (self.counters(), other.counters());
        *self = IoSnapshot::from_counters(std::array::from_fn(|i| a[i].saturating_add(b[i])));
    }
}

impl ToJson for IoSnapshot {
    fn to_json(&self) -> Json {
        Json::obj(
            NAMES
                .into_iter()
                .zip(self.counters())
                .map(|(name, n)| (name, n.to_json()))
                .collect(),
        )
    }
}

impl FromJson for IoSnapshot {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let mut c = [None; COUNTERS];
        r.object(|r, key| match NAMES.iter().position(|&name| name == key) {
            Some(i) => r.field(&mut c[i]),
            None => r.skip(),
        })?;
        let mut counters = [0u64; COUNTERS];
        for (i, name) in NAMES.into_iter().enumerate() {
            counters[i] = match c[i] {
                None if i >= FIRST_RUN_COUNTER => 0,
                slot => required(slot, name)?,
            };
        }
        Ok(IoSnapshot::from_counters(counters))
    }
}

impl IoStats {
    /// Fresh counters at zero.
    #[must_use]
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Adds the counts of one store call to the totals.
    pub fn add(&self, io: &IoSnapshot) {
        for (total, n) in self.inner.iter().zip(io.counters()) {
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Takes a snapshot of all counters.
    #[must_use]
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot::from_counters(self.inner.each_ref().map(|c| c.load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_per_call_counts() {
        let stats = IoStats::new();
        stats.add(&IoSnapshot {
            pages_read: 4,
            blobs_read: 1,
            bytes_read: 1000,
            cache_hits: 1,
            cache_misses: 1,
            ..IoSnapshot::default()
        });
        stats.add(&IoSnapshot {
            pages_read: 2,
            ..IoSnapshot::default()
        });
        let s = stats.snapshot();
        assert_eq!(s.pages_read, 6);
        assert_eq!(s.blobs_read, 1);
        assert_eq!(s.bytes_read, 1000);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.pages_written, 0);
    }

    #[test]
    fn clones_share_counters() {
        let a = IoStats::new();
        let b = a.clone();
        b.add(&IoSnapshot {
            pages_written: 2,
            ..IoSnapshot::default()
        });
        assert_eq!(a.snapshot().pages_written, 2);
    }

    #[test]
    fn since_computes_deltas() {
        let stats = IoStats::new();
        stats.add(&IoSnapshot {
            pages_read: 10,
            ..IoSnapshot::default()
        });
        let before = stats.snapshot();
        stats.add(&IoSnapshot {
            pages_read: 7,
            blobs_read: 1,
            bytes_read: 100,
            ..IoSnapshot::default()
        });
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.pages_read, 7);
        assert_eq!(delta.blobs_read, 1);
        assert_eq!(delta.bytes_read, 100);
    }

    #[test]
    fn add_assign_covers_every_counter_and_saturates() {
        let ones = IoSnapshot::from_counters([1; COUNTERS]);
        let mut sum = IoSnapshot::from_counters(std::array::from_fn(|i| i as u64));
        sum += &ones;
        assert_eq!(sum.counters(), std::array::from_fn(|i| i as u64 + 1));
        let mut max = IoSnapshot {
            readahead_bytes: u64::MAX,
            ..IoSnapshot::default()
        };
        max += &ones;
        assert_eq!(
            max.readahead_bytes,
            u64::MAX,
            "saturates instead of wrapping"
        );
        assert_eq!(max.pages_read, 1);
    }

    #[test]
    fn snapshots_round_trip_through_json() {
        let s = IoSnapshot::from_counters(std::array::from_fn(|i| 10 * i as u64 + 1));
        let json = s.to_json();
        assert_eq!(json.field("readahead_bytes").unwrap().as_u64(), Some(101));
        assert_eq!(IoSnapshot::from_json(&json).unwrap(), s);
    }

    #[test]
    fn snapshots_without_run_fields_still_parse() {
        // Stats persisted before the run counters existed lack the fields.
        let j = Json::parse(
            r#"{"pages_read": 3, "pages_written": 0, "blobs_read": 1,
                "blobs_written": 0, "bytes_read": 10, "bytes_written": 0,
                "cache_hits": 0, "cache_misses": 0}"#,
        )
        .unwrap();
        let s = IoSnapshot::from_json(&j).unwrap();
        assert_eq!(s.pages_read, 3);
        assert_eq!(s.runs_coalesced, 0);
        assert_eq!(s.pages_read_run, 0);
        assert_eq!(s.readahead_bytes, 0);
        // The older counters stay required.
        let j = Json::parse(r#"{"pages_read": 3}"#).unwrap();
        assert!(IoSnapshot::from_json(&j).is_err());
    }
}
