//! One report schema for every workload, with provenance.

use tilestore_testkit::Json;

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (ops, rounds, opens...); 1 for pure counts.
    pub n: u64,
    /// True for numbers a cost model computed rather than a clock measured.
    pub modelled: bool,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, n: u64) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            modelled: false,
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::Float(self.value)),
            ("unit", Json::Str(self.unit.to_string())),
            ("n", Json::UInt(self.n)),
        ];
        if self.modelled {
            fields.push(("modelled", Json::Bool(true)));
        }
        Json::obj(fields)
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub rounds: u64,
    pub ops_per_round: u64,
    pub e2e: Vec<Metric>,
    /// Per-layer metrics; empty unless the run was traced.
    pub layers: Vec<Metric>,
    /// Each round's value of every per-round metric, in round order.
    pub per_round: Vec<(&'static str, Vec<f64>)>,
    /// Raw counts over the timed rounds.
    pub counters: Vec<(&'static str, u64)>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect(),
    )
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and with what the numbers were taken. `rustc` and `commit` are
/// handed in by `run.sh`; the binary starts no process of its own.
fn env_json() -> Json {
    let var = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".to_string()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj(vec![
        ("nproc", Json::UInt(nproc)),
        (
            "kernel",
            Json::Str(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", var("BENCH_RUSTC")),
        ("commit", var("BENCH_COMMIT")),
        (
            "cache_pages",
            Json::UInt(tilestore_engine::DEFAULT_CACHE_PAGES as u64),
        ),
        (
            "page_size",
            Json::UInt(tilestore_storage::DEFAULT_PAGE_SIZE as u64),
        ),
    ])
}

impl Report {
    /// The full document written to `out/<workload>.json`.
    pub fn to_json(&self) -> Json {
        let per_round = self
            .per_round
            .iter()
            .map(|(k, v)| (*k, Json::Array(v.iter().map(|&x| Json::Float(x)).collect())))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|&(k, v)| (k, Json::UInt(v)))
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::UInt(self.seed)),
            ("rounds", Json::UInt(self.rounds)),
            ("ops_per_round", Json::UInt(self.ops_per_round)),
            ("env", env_json()),
            ("e2e", metrics_json(&self.e2e)),
            ("per_round", Json::obj(per_round)),
            ("layers", metrics_json(&self.layers)),
            ("counters", Json::obj(counters)),
            ("ops_attempted", Json::UInt(self.ops_attempted)),
            ("ops_failed", Json::UInt(self.ops_failed)),
        ])
    }

    /// The driver's result line: `correct`, `attempted`, `failed`, and as
    /// `metrics` the per-layer ones of a traced run, the end-to-end ones
    /// otherwise.
    pub fn result_line(&self, traced: bool) -> String {
        let reported = if traced { &self.layers } else { &self.e2e };
        let metrics = reported
            .iter()
            .map(|m| {
                let body = Json::obj(vec![
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.ops_failed == 0)),
            ("attempted", Json::UInt(self.ops_attempted)),
            ("failed", Json::UInt(self.ops_failed)),
            ("metrics", Json::Object(metrics)),
        ])
        .to_string_compact()
    }
}
