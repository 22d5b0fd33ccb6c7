//! The shape of a run: a fixed number of set-up passes, each followed by a
//! fixed number of timed rounds of the identical op list, and the
//! estimators over them.

use std::path::Path;
use std::time::Instant;

use tilestore_storage::IoSnapshot;
use tilestore_testkit::{tempdir, TempDir};

use crate::estimate::{median, nth_best, percentile, Better, REPRESENTATIVE_RANK};
use crate::gen::{self, Check, Route, Spec};
use crate::layers;
use crate::report::{Metric, Report};
use crate::workloads::{
    add_io, build_dataset, dir_bytes, ingest_round, read_round, time_reopen, Fixture, Res, Round,
};

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Also run the traced round and the layer probes (after the timed
    /// rounds, never during them).
    pub trace: bool,
    /// Smoke run: one set-up pass, one timed round, a tenth of the ops.
    pub quick: bool,
}

/// Complete set-ups (dataset build + commit, handle or server start,
/// verified warm-up round) of a full run, each followed by its share of the
/// timed rounds; `setup_s` is their median, as the driver's contract asks.
/// Spread over the run, a slow stretch of the host hits some of them, not
/// all. Traced and quick runs, which do not report `setup_s`, set up once.
const SETUP_PASSES: usize = 5;

/// Cold-handle opens timed after every timed round. Spread over the whole
/// timed phase, a hiccup of the host hits a few samples, not a third of
/// them.
const REOPENS_PER_ROUND: usize = 8;

/// The end-to-end metrics every workload reports, with unit and direction.
pub const E2E_METRICS: [(&str, &str, Better); 8] = [
    ("setup_s", "s", Better::Lower),
    ("op_p50_us", "us", Better::Lower),
    ("op_p95_us", "us", Better::Lower),
    ("ops_per_s", "1/s", Better::Higher),
    ("reopen_ms", "ms", Better::Lower),
    ("space_amp", "ratio", Better::Lower),
    ("peak_rss_mib", "MiB", Better::Lower),
    ("io_amp", "ratio", Better::Lower),
];

/// Accumulates a run: rounds as they finish, then the report.
struct Tally {
    report: Report,
    /// Per timed round: p50, p95, p99 of its op latencies (microseconds)
    /// and ops ÷ the round's wall-clock.
    p50_us: Vec<f64>,
    p95_us: Vec<f64>,
    p99_us: Vec<f64>,
    ops_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    reopen_ms: Vec<f64>,
    /// CPU time of the timed rounds' op loops, microseconds.
    cpu_us: f64,
}

impl Tally {
    fn new(spec: &Spec, opt: &Options) -> Self {
        Tally {
            report: Report {
                workload: spec.name.to_string(),
                seed: opt.seed,
                ops_per_round: spec.ops_per_round as u64,
                ..Report::default()
            },
            p50_us: Vec::new(),
            p95_us: Vec::new(),
            p99_us: Vec::new(),
            ops_per_s: Vec::new(),
            setup_s: Vec::new(),
            reopen_ms: Vec::new(),
            cpu_us: 0.0,
        }
    }

    fn count(&mut self, round: &Round) {
        self.report.ops_attempted += round.attempted;
        self.report.ops_failed += round.failed;
    }

    fn timed(&mut self, mut round: Round) {
        self.count(&round);
        self.cpu_us += round.cpu_us;
        let lat = &mut round.lat_us;
        self.p50_us.push(percentile(lat, 50.0));
        self.p95_us.push(percentile(lat, 95.0));
        self.p99_us.push(percentile(lat, 99.0));
        self.ops_per_s.push(lat.len() as f64 / round.wall_s);
    }

    /// Fills in the end-to-end metrics: of every per-round figure the
    /// third-best round's. `space_amp` and `io_amp` come from the caller:
    /// what they count differs between reads and ingest.
    fn finish(mut self, space_amp: f64, io_amp: f64) -> Report {
        let n_ops = self.report.ops_per_round;
        let pick = |rounds: &[f64], better| nth_best(rounds, REPRESENTATIVE_RANK, better);
        self.report.rounds = self.p50_us.len() as u64;
        self.report.counters.push(("cpu_us", self.cpu_us as u64));
        let values = [
            (median(&mut self.setup_s), self.setup_s.len() as u64),
            (pick(&self.p50_us, Better::Lower), n_ops),
            (pick(&self.p95_us, Better::Lower), n_ops),
            (pick(&self.ops_per_s, Better::Higher), n_ops),
            (
                percentile(&mut self.reopen_ms, 25.0),
                self.reopen_ms.len() as u64,
            ),
            (space_amp, 1),
            (peak_rss_mib(), 1),
            (io_amp, 1),
        ];
        self.report.e2e = E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), (value, n))| Metric::new(name, value, unit, n))
            .collect();
        self.report.per_round = vec![
            ("op_p50_us", self.p50_us),
            ("op_p95_us", self.p95_us),
            ("op_p99_us", self.p99_us),
            ("ops_per_s", self.ops_per_s),
            ("setup_s", self.setup_s),
            ("reopen_ms", self.reopen_ms),
        ];
        self.report
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn time_reopens(route: Route, dir: &Path, into: &mut Vec<f64>) -> Res<()> {
    for _ in 0..REOPENS_PER_ROUND {
        into.push(time_reopen(route, dir)?);
    }
    Ok(())
}

/// Runs one workload and returns its report.
pub fn run(spec: &Spec, opt: &Options) -> Res<Report> {
    let spec = if opt.quick {
        spec.quick()
    } else {
        spec.clone()
    };
    let passes = if opt.quick || opt.trace {
        1
    } else {
        SETUP_PASSES
    };
    match spec.route {
        Route::Ingest => run_ingest(&spec, opt, passes),
        _ => run_read(&spec, opt, passes),
    }
}

fn run_read(spec: &Spec, opt: &Options, passes: usize) -> Res<Report> {
    let mut tally = Tally::new(spec, opt);
    let ops = gen::read_ops(spec, opt.seed, spec.ops_per_round);
    let mut live: Option<(TempDir, Fixture)> = None;
    let mut disk_bytes = 0;
    let mut io = IoSnapshot::default();
    for _ in 0..passes {
        if let Some((_dir, fx)) = live.take() {
            fx.close();
        }
        let t0 = Instant::now();
        let dir = tempdir()?;
        build_dataset(spec, opt.seed, dir.path())?;
        disk_bytes = dir_bytes(dir.path())?;
        let mut fx = Fixture::open(spec.route, dir.path())?;
        let warm = read_round(&mut fx, spec, opt.seed, &ops, Check::Full);
        tally.setup_s.push(t0.elapsed().as_secs_f64());
        tally.count(&warm);

        let io_before = fx.io();
        for _ in 0..spec.rounds_per_pass {
            let round = read_round(&mut fx, spec, opt.seed, &ops, Check::Edges);
            tally.timed(round);
            time_reopens(spec.route, dir.path(), &mut tally.reopen_ms)?;
        }
        io = add_io(&io, &fx.io().since(&io_before));
        live = Some((dir, fx));
    }
    let (dir, mut fx) = live.expect("at least one set-up pass ran");

    let rounds = passes * spec.rounds_per_pass;
    let result_bytes = (rounds * ops.len()) as u64 * spec.window_bytes();
    tally.report.counters = vec![
        ("bytes_read", io.bytes_read),
        ("result_bytes", result_bytes),
        ("pages_read", io.pages_read),
        ("cache_hits", io.cache_hits),
        ("cache_misses", io.cache_misses),
        ("disk_bytes", disk_bytes),
        ("logical_bytes", spec.logical_bytes()),
    ];
    let mut report = tally.finish(
        disk_bytes as f64 / spec.logical_bytes() as f64,
        io.bytes_read as f64 / result_bytes as f64,
    );
    if opt.trace {
        layers::trace_read(spec, opt.seed, &mut fx, dir.path(), &ops, &mut report)?;
    }
    fx.close();
    Ok(report)
}

fn run_ingest(spec: &Spec, opt: &Options, passes: usize) -> Res<Report> {
    let mut tally = Tally::new(spec, opt);
    let ops = spec.ops_per_round;
    let (mut written, mut disk_bytes, mut catalog_bytes) = (0, 0, 0);
    // Every round, warm-up or timed, gets a fresh directory.
    for _ in 0..passes {
        let t0 = Instant::now();
        let dir = tempdir()?;
        let warm = ingest_round(spec, opt.seed, dir.path(), ops)?;
        tally.setup_s.push(t0.elapsed().as_secs_f64());
        tally.count(&warm.round);
        drop(dir);

        for _ in 0..spec.rounds_per_pass {
            let dir = tempdir()?;
            let r = ingest_round(spec, opt.seed, dir.path(), ops)?;
            tally.timed(r.round);
            time_reopens(spec.route, dir.path(), &mut tally.reopen_ms)?;
            written += r.dir_bytes_written;
            disk_bytes = dir_bytes(dir.path())?;
            catalog_bytes = r.catalog_bytes;
        }
    }
    // One slab per op: a round writes the whole object.
    let user_bytes = spec.logical_bytes();
    let rounds = (passes * spec.rounds_per_pass) as u64;
    tally.report.counters = vec![
        ("dir_bytes_written", written),
        ("user_bytes", rounds * user_bytes),
        ("disk_bytes", disk_bytes),
        ("logical_bytes", user_bytes),
        ("catalog_bytes", catalog_bytes),
    ];
    let mut report = tally.finish(
        disk_bytes as f64 / user_bytes as f64,
        written as f64 / (rounds * user_bytes) as f64,
    );
    if opt.trace {
        layers::trace_ingest(spec, opt.seed, &mut report)?;
    }
    Ok(report)
}
