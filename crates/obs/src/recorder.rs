//! Persistent access recorder: appends each executed query's intersected
//! domain to a JSONL log file so statistic tiling can later run from real
//! observed history.
//!
//! Each line is a compact JSON object `{"object": <name>, "region": <domain>}`
//! where the region is the engine's textual domain form (`[lo:hi,lo:hi]`).
//! The recorder is append-only and buffered: a record is one line in the
//! writer's buffer, and the buffer reaches the file when it fills, on
//! rotation, on [`AccessRecorder::flush`] (which `Database::save` calls),
//! before the log is read back or cleared, and when the recorder drops. A
//! query therefore pays no system call for its log line; a process killed
//! outright loses at most the lines still in the buffer.
//!
//! The log is size-bounded: when the live segment exceeds its byte cap it
//! rotates to `access.log.1` (existing rotated segments shift up, the
//! oldest beyond [`MAX_SEGMENTS`] is dropped), so a long-running server's
//! history occupies at most `(MAX_SEGMENTS + 1) * cap` bytes on disk.
//! Readers aggregate across every surviving segment, oldest first.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tilestore_testkit::{Json, ToJson};

/// Rotated segments kept besides the live file (`access.log.1` is the most
/// recently rotated, `access.log.4` the oldest still readable).
pub const MAX_SEGMENTS: usize = 4;

/// Default byte cap of the live segment before it rotates.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// One aggregated entry read back from an access log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedAccess {
    /// Name of the stored MDD object.
    pub object: String,
    /// Textual form of the accessed region (`[lo:hi,...]`).
    pub region: String,
    /// How many times this exact region was accessed.
    pub count: u64,
}

/// The live segment's writer plus its current size, guarded together so a
/// rotation decision and the write it gates are atomic.
#[derive(Debug)]
struct LiveSegment {
    writer: BufWriter<File>,
    bytes: u64,
}

/// Appends query accesses to a JSONL file and reads them back aggregated.
#[derive(Debug)]
pub struct AccessRecorder {
    path: PathBuf,
    live: Mutex<LiveSegment>,
    segment_bytes: u64,
}

/// Locks the live segment, recovering from poisoning: one panicking request
/// handler must not permanently kill query logging for the whole process.
/// Each record hands the buffered writer one whole line in one write, so
/// the state behind a poisoned lock is still well-formed.
fn lock(m: &Mutex<LiveSegment>) -> MutexGuard<'_, LiveSegment> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Path of rotated segment `i` (1-based; 1 = most recently rotated).
fn segment_path(path: &Path, i: usize) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{i}"));
    PathBuf::from(name)
}

impl AccessRecorder {
    /// Opens (or creates) the log at `path` in append mode with the default
    /// segment cap.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with_limit(path, DEFAULT_SEGMENT_BYTES)
    }

    /// Opens (or creates) the log at `path`, rotating the live segment once
    /// it exceeds `segment_bytes`.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be opened.
    pub fn open_with_limit(path: impl AsRef<Path>, segment_bytes: u64) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(AccessRecorder {
            path,
            live: Mutex::new(LiveSegment {
                writer: BufWriter::new(file),
                bytes,
            }),
            segment_bytes: segment_bytes.max(1),
        })
    }

    /// Path of the backing log file (the live segment).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Shifts rotated segments up by one (dropping the oldest), moves the
    /// full live file to `.1` and starts a fresh live segment.
    fn rotate(&self, live: &mut LiveSegment) -> std::io::Result<()> {
        live.writer.flush()?;
        let oldest = segment_path(&self.path, MAX_SEGMENTS);
        if oldest.exists() {
            std::fs::remove_file(&oldest)?;
        }
        for i in (1..MAX_SEGMENTS).rev() {
            let from = segment_path(&self.path, i);
            if from.exists() {
                std::fs::rename(&from, segment_path(&self.path, i + 1))?;
            }
        }
        std::fs::rename(&self.path, segment_path(&self.path, 1))?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        live.writer = BufWriter::new(file);
        live.bytes = 0;
        Ok(())
    }

    /// Appends one access of `region` on `object` to the writer's buffer,
    /// rotating first if the live segment is over its byte cap.
    ///
    /// # Errors
    /// Returns the underlying I/O error if a write fails.
    pub fn record(&self, object: &str, region: &str) -> std::io::Result<()> {
        let mut line = Json::obj(vec![
            ("object", Json::Str(object.to_string())),
            ("region", Json::Str(region.to_string())),
        ])
        .to_string_compact();
        line.push('\n');
        let mut live = lock(&self.live);
        if live.bytes > 0 && live.bytes + line.len() as u64 > self.segment_bytes {
            self.rotate(&mut live)?;
        }
        live.writer.write_all(line.as_bytes())?;
        live.bytes += line.len() as u64;
        Ok(())
    }

    /// Writes every buffered record to the file.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the write fails.
    pub fn flush(&self) -> std::io::Result<()> {
        lock(&self.live).writer.flush()
    }

    /// Reads the whole log back (rotated segments oldest first, then the
    /// live segment), aggregated as (object, region) → count, in first-seen
    /// order. Malformed lines are skipped.
    ///
    /// # Errors
    /// Returns the underlying I/O error if a segment cannot be read.
    pub fn entries(&self) -> std::io::Result<Vec<LoggedAccess>> {
        lock(&self.live).writer.flush()?;
        let mut out: Vec<LoggedAccess> = Vec::new();
        let mut paths: Vec<PathBuf> = (1..=MAX_SEGMENTS)
            .rev()
            .map(|i| segment_path(&self.path, i))
            .filter(|p| p.exists())
            .collect();
        paths.push(self.path.clone());
        for path in paths {
            let file = File::open(&path)?;
            for line in BufReader::new(file).lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                let Ok(v) = Json::parse(&line) else { continue };
                let (Some(object), Some(region)) = (
                    v.get("object").and_then(Json::as_str),
                    v.get("region").and_then(Json::as_str),
                ) else {
                    continue;
                };
                if let Some(e) = out
                    .iter_mut()
                    .find(|e| e.object == object && e.region == region)
                {
                    e.count += 1;
                } else {
                    out.push(LoggedAccess {
                        object: object.to_string(),
                        region: region.to_string(),
                        count: 1,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Like [`AccessRecorder::entries`], restricted to one object.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be read.
    pub fn entries_for(&self, object: &str) -> std::io::Result<Vec<LoggedAccess>> {
        Ok(self
            .entries()?
            .into_iter()
            .filter(|e| e.object == object)
            .collect())
    }

    /// Total number of recorded accesses (all objects).
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be read.
    pub fn total_accesses(&self) -> std::io::Result<u64> {
        Ok(self.entries()?.iter().map(|e| e.count).sum())
    }

    /// Truncates the log — every rotated segment included — e.g. after the
    /// history has been consumed by a re-tiling pass.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be truncated.
    pub fn clear(&self) -> std::io::Result<()> {
        let mut live = lock(&self.live);
        // Buffered lines go out before the truncation, not after it.
        live.writer.flush()?;
        for i in 1..=MAX_SEGMENTS {
            let seg = segment_path(&self.path, i);
            if seg.exists() {
                std::fs::remove_file(&seg)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        live.writer = BufWriter::new(file);
        live.bytes = 0;
        Ok(())
    }
}

impl ToJson for LoggedAccess {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("object", Json::Str(self.object.clone())),
            ("region", Json::Str(self.region.clone())),
            ("count", self.count.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilestore_testkit::tempdir;

    #[test]
    fn records_and_reads_back_aggregated() {
        let dir = tempdir().unwrap();
        let rec = AccessRecorder::open(dir.path().join("access.log")).unwrap();
        rec.record("m", "[0:9,0:9]").unwrap();
        rec.record("m", "[0:9,0:9]").unwrap();
        rec.record("m", "[50:59,50:59]").unwrap();
        rec.record("other", "[0:9,0:9]").unwrap();

        let entries = rec.entries_for("m").unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].region, "[0:9,0:9]");
        assert_eq!(entries[0].count, 2);
        assert_eq!(entries[1].region, "[50:59,50:59]");
        assert_eq!(entries[1].count, 1);
        assert_eq!(rec.total_accesses().unwrap(), 4);
    }

    #[test]
    fn records_reach_the_file_on_flush_and_drop() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("access.log");
        let rec = AccessRecorder::open(&path).unwrap();
        rec.record("m", "[0:3]").unwrap();
        rec.record("m", "[0:3]").unwrap();
        // Buffered: a second reader of the file sees nothing yet.
        let reader = AccessRecorder::open(&path).unwrap();
        assert_eq!(reader.total_accesses().unwrap(), 0);
        rec.flush().unwrap();
        assert_eq!(reader.total_accesses().unwrap(), 2);
        rec.record("m", "[4:7]").unwrap();
        drop(rec);
        assert_eq!(reader.total_accesses().unwrap(), 3);
    }

    #[test]
    fn log_survives_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("access.log");
        {
            let rec = AccessRecorder::open(&path).unwrap();
            rec.record("m", "[0:3]").unwrap();
        }
        let rec = AccessRecorder::open(&path).unwrap();
        rec.record("m", "[0:3]").unwrap();
        let entries = rec.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].count, 2);
    }

    #[test]
    fn clear_truncates_and_keeps_recording() {
        let dir = tempdir().unwrap();
        let rec = AccessRecorder::open(dir.path().join("access.log")).unwrap();
        rec.record("m", "[0:3]").unwrap();
        rec.clear().unwrap();
        assert!(rec.entries().unwrap().is_empty());
        rec.record("m", "[4:7]").unwrap();
        let entries = rec.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].region, "[4:7]");
    }

    #[test]
    fn recorder_survives_lock_poisoning() {
        let dir = tempdir().unwrap();
        let rec = AccessRecorder::open(dir.path().join("access.log")).unwrap();
        rec.record("m", "[0:1]").unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = rec.live.lock().unwrap();
            panic!("handler died mid-record");
        }));
        assert!(rec.live.is_poisoned());
        // Recording keeps working after a panicking holder.
        rec.record("m", "[0:1]").unwrap();
        let entries = rec.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].count, 2);
    }

    #[test]
    fn rotation_caps_total_size_and_drops_oldest() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("access.log");
        // Tiny cap: every record lands in its own segment, so recording
        // more than MAX_SEGMENTS + 1 regions must drop the oldest.
        let rec = AccessRecorder::open_with_limit(&path, 8).unwrap();
        for i in 0..10 {
            rec.record("m", &format!("[{i}:{i}]")).unwrap();
        }
        // Live segment + at most MAX_SEGMENTS rotated files exist.
        assert!(path.exists());
        for i in 1..=MAX_SEGMENTS {
            assert!(segment_path(&path, i).exists(), "segment {i} missing");
        }
        assert!(!segment_path(&path, MAX_SEGMENTS + 1).exists());
        // Readers see the surviving tail, oldest first, earliest dropped.
        let entries = rec.entries().unwrap();
        assert_eq!(entries.len(), MAX_SEGMENTS + 1);
        assert_eq!(entries[0].region, "[5:5]");
        assert_eq!(entries.last().unwrap().region, "[9:9]");
    }

    #[test]
    fn small_logs_never_rotate() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("access.log");
        let rec = AccessRecorder::open(&path).unwrap();
        for _ in 0..50 {
            rec.record("m", "[0:9,0:9]").unwrap();
        }
        assert!(!segment_path(&path, 1).exists());
        assert_eq!(rec.total_accesses().unwrap(), 50);
    }

    #[test]
    fn clear_removes_rotated_segments_too() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("access.log");
        let rec = AccessRecorder::open_with_limit(&path, 8).unwrap();
        for i in 0..6 {
            rec.record("m", &format!("[{i}:{i}]")).unwrap();
        }
        assert!(segment_path(&path, 1).exists());
        rec.clear().unwrap();
        assert!(rec.entries().unwrap().is_empty());
        assert!(!segment_path(&path, 1).exists());
        rec.record("m", "[4:7]").unwrap();
        assert_eq!(rec.total_accesses().unwrap(), 1);
    }

    #[test]
    fn rotation_survives_reopen() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("access.log");
        {
            let rec = AccessRecorder::open_with_limit(&path, 8).unwrap();
            rec.record("m", "[0:0]").unwrap();
            rec.record("m", "[1:1]").unwrap();
        }
        let rec = AccessRecorder::open_with_limit(&path, 8).unwrap();
        rec.record("m", "[2:2]").unwrap();
        let entries = rec.entries().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].region, "[0:0]");
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let dir = tempdir().unwrap();
        let path = dir.path().join("access.log");
        std::fs::write(&path, "not json\n{\"object\":\"m\"}\n").unwrap();
        let rec = AccessRecorder::open(&path).unwrap();
        rec.record("m", "[0:1]").unwrap();
        let entries = rec.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].region, "[0:1]");
    }
}
