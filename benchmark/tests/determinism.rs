//! Two executions with one seed must agree exactly on every pure count.
//!
//! Drives the built binary the way `run.sh` does (`--trace 1 --quick`), so
//! the whole path — generator, fixtures, traced round, report file — is
//! covered. One test function: the runs share `out/<workload>.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use tilestore_testkit::Json;

const WORKLOADS: [&str; 5] = [
    "engine_hot_window",
    "engine_cold_scan",
    "served_window",
    "cluster_window",
    "ingest_commit",
];

/// `(section, metric)` pairs that count things and so must repeat exactly.
const PURE_COUNTS: [(&str, &str); 6] = [
    ("e2e", "space_amp"),
    ("e2e", "io_amp"),
    ("layers", "index.hits_per_op"),
    ("layers", "storage.pages_read_per_op"),
    ("layers", "server.frame_bytes_per_op"),
    ("layers", "cluster.shards_per_op"),
];

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one quick traced run and returns its report document.
fn quick_run(workload: &str, seed: u64) -> Json {
    let tmp = out_dir().join("tmp-test");
    std::fs::create_dir_all(&tmp).expect("create scratch dir");
    let status = Command::new(env!("CARGO_BIN_EXE_tilestore-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", "1", "--quick"])
        .env("TMPDIR", &tmp)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run the benchmark binary");
    assert!(status.success(), "{workload}: the run reported failed ops");
    let text = std::fs::read_to_string(out_dir().join(format!("{workload}.json")))
        .expect("the run wrote its report");
    Json::parse(&text).expect("the report is JSON")
}

fn value(report: &Json, section: &str, metric: &str) -> u64 {
    let v = report
        .get(section)
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("report lacks {section}.{metric}"));
    v.to_bits()
}

#[test]
fn pure_counts_are_bit_identical_across_executions_and_move_with_the_seed() {
    for workload in WORKLOADS {
        let (a, b) = (quick_run(workload, 5), quick_run(workload, 5));
        for (section, metric) in PURE_COUNTS {
            assert_eq!(
                value(&a, section, metric),
                value(&b, section, metric),
                "{workload}: {section}.{metric} differs between two runs of seed 5"
            );
        }
        assert_eq!(
            a.get("ops_failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        assert_eq!(a.get("ops_attempted"), b.get("ops_attempted"), "{workload}");
    }
    // Another seed is another op list: the fragment count of the window
    // workload cannot come out the same to the last bit.
    let other = quick_run("engine_hot_window", 6);
    let same = quick_run("engine_hot_window", 5);
    assert_ne!(
        value(&other, "layers", "index.hits_per_op"),
        value(&same, "layers", "index.hits_per_op")
    );
    let _ = std::fs::remove_dir_all(out_dir().join("tmp-test"));
}
