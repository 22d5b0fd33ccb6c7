//! The benchmark's own span recorder. Spans are recorded *around* calls
//! into the program's public functions (nothing inside the program is
//! touched), kept in memory, and written out as JSONL when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use tilestore_testkit::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Index of the workload op this span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts sampled at this span's boundaries (pages read, hits, bytes).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records a tree of spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics when no span is open: enter/exit must pair.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times `f` as a leaf span and returns its result.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Attaches a count to span `id`.
    pub fn count(&mut self, id: u32, key: &'static str, value: u64) {
        self.spans[id as usize].counts.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The innermost open span, if any.
    pub fn innermost(&self) -> Option<u32> {
        self.open.last().copied()
    }

    /// Microseconds each op spent in spans called `name` (summed within an
    /// op, since a per-tile stage runs several times), in op order.
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        let mut by_op = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_insert(0.0) += s.duration_ns() as f64 / 1e3;
        }
        by_op.into_values().collect()
    }

    /// Writes one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let mut fields = vec![
                ("id", Json::UInt(u64::from(span.id))),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::UInt(u64::from(p))),
                ),
                ("op", Json::UInt(u64::from(span.op))),
                ("name", Json::Str(span.name.to_string())),
                ("start_ns", Json::UInt(span.start_ns)),
                ("end_ns", Json::UInt(span.end_ns)),
                ("self_ns", Json::UInt(self_ns)),
            ];
            if !span.counts.is_empty() {
                let counts = span
                    .counts
                    .iter()
                    .map(|&(k, v)| (k, Json::UInt(v)))
                    .collect();
                fields.push(("counts", Json::obj(counts)));
            }
            writeln!(out, "{}", Json::obj(fields).to_string_compact())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover. Children of one parent run one after another on one
/// thread, so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25), // grandchild: charged to 1, not to 0
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_and_stamps_ops() {
        let mut rec = Recorder::new();
        rec.set_op(7);
        let root = rec.enter("op");
        let got = rec.leaf("stage", || 3);
        rec.count(root, "pages", 5);
        rec.exit();
        assert_eq!(got, 3);
        let s = rec.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("stage", Some(root)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[0].counts, vec![("pages", 5)]);
        rec.leaf("stage", || ());
        rec.set_op(8);
        rec.leaf("stage", || ());
        assert_eq!(rec.per_op_us("stage").len(), 2, "two ops ran the stage");
        assert_eq!(rec.innermost(), None);
    }
}
