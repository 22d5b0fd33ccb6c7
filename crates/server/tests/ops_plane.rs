//! The live ops plane: `metrics`, `health` and `slow` over the wire, plus
//! request-id echo and per-request trace export — on a single engine and on
//! a cluster coordinator alike, since both are backends of one serving core.

use tilestore_engine::{Array, CellType, MddType};
use tilestore_server::{Client, ServerConfig, ServerHandle};
use tilestore_testkit::Json;
use tilestore_tiling::{AlignedTiling, Scheme};

mod endpoints;
use endpoints::Kind;

/// Both endpoints over a 16x16 `grid` (the coordinator's seam at row 8).
fn grid_endpoints(config: &ServerConfig) -> [(Kind, ServerHandle); 2] {
    endpoints::both(
        "grid",
        &MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
        &Scheme::Aligned(AlignedTiling::regular(2, 256)),
        &Array::from_fn("[0:15,0:15]".parse().unwrap(), |p| {
            (p[0] * 16 + p[1]) as u32
        })
        .unwrap(),
        8,
        config,
    )
}

#[test]
fn metrics_health_and_slow_log_are_live_over_the_wire() {
    // Threshold 0: every statement lands in the slow-query log, so the
    // test observes entries deterministically.
    let config = ServerConfig {
        slow_query_ms: 0,
        ..ServerConfig::default()
    };
    for (kind, handle) in grid_endpoints(&config) {
        metrics_health_and_slow_log_are_live(kind, &handle);
        handle.shutdown();
    }
}

fn metrics_health_and_slow_log_are_live(kind: Kind, handle: &ServerHandle) {
    let mut client = Client::connect(handle.addr()).unwrap();

    // Request ids are echoed on every response and increase monotonically
    // for server-assigned ids.
    client.ping().unwrap();
    let first = client.last_request_id();
    assert!(first > 0, "{kind:?}: ping response lacks a request id");
    client.ping().unwrap();
    assert!(client.last_request_id() > first, "{kind:?}");

    // Run a tile-reading query (a condenser answered from synopses alone
    // never reaches the counted read path), then the statement the slow log
    // is searched for, and check all three ops observe them.
    client.query("SELECT grid[6:9,0:3] FROM grid").unwrap();
    let stmt = "SELECT count_cells(grid) FROM grid WHERE grid > 200";
    client.query(stmt).unwrap();
    let query_rid = client.last_request_id();

    let metrics = client.metrics().unwrap();
    let queries = metrics
        .get("counters")
        .and_then(|c| c.get("engine.queries"))
        .and_then(Json::as_u64)
        .expect("metrics carry engine.queries");
    assert!(queries >= 1, "{kind:?}: engine.queries = {queries}");
    // The buffer pool's scan admission reports what it skipped and admitted.
    for name in ["pool.scan_skips", "pool.second_touch_installs"] {
        let counter = metrics.get("counters").and_then(|c| c.get(name));
        assert!(
            counter.and_then(Json::as_u64).is_some(),
            "{kind:?}: no {name}"
        );
    }
    // Histogram snapshots expose the percentile shape.
    let latency = metrics
        .get("histograms")
        .and_then(|h| h.get("engine.query_latency_ns"))
        .expect("metrics carry the query latency histogram");
    for key in ["p50", "p95", "p99", "count", "mean"] {
        assert!(latency.get(key).is_some(), "{key} missing from {latency:?}");
    }

    let health = client.health().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("inflight").and_then(Json::as_u64), Some(1));
    assert!(health.get("slow_queries").and_then(Json::as_u64) >= Some(2));
    assert_eq!(health.get("durable").and_then(Json::as_bool), Some(false));
    match kind {
        Kind::Single => {
            assert!(health.get("epoch").and_then(Json::as_u64).is_some());
            assert!(health.get("snapshots_active").is_some());
            assert_eq!(
                health.get("checksum_failures").and_then(Json::as_u64),
                Some(0)
            );
        }
        Kind::Coordinator => {
            let members = health.get("cluster").and_then(|c| c.get("members"));
            assert_eq!(members.and_then(Json::as_array).map(<[Json]>::len), Some(2));
        }
    }

    let slow = client.slow_queries(8).unwrap();
    assert_eq!(slow.get("threshold_ms").and_then(Json::as_u64), Some(0));
    let entries = match slow.get("entries") {
        Some(Json::Array(items)) => items.clone(),
        other => panic!("slow entries missing: {other:?}"),
    };
    assert!(!entries.is_empty());
    // Newest first; the query we just ran is in there with its request id,
    // statement, epoch and (on a coordinator: merged) stats.
    let ours = entries
        .iter()
        .find(|e| e.get("request_id").and_then(Json::as_u64) == Some(query_rid))
        .unwrap_or_else(|| panic!("no slow entry for request {query_rid}: {entries:?}"));
    assert_eq!(ours.get("statement").and_then(Json::as_str), Some(stmt));
    assert!(ours.get("epoch").and_then(Json::as_u64).is_some());
    assert!(
        ours.get("stats")
            .and_then(|s| s.get("tiles_read"))
            .and_then(Json::as_u64)
            .is_some(),
        "{kind:?}: slow entry carries executor stats"
    );
}

#[test]
fn client_supplied_request_ids_are_honored_and_traces_export() {
    for (kind, handle) in grid_endpoints(&ServerConfig::default()) {
        request_ids_are_honored_and_traces_export(kind, &handle);
        handle.shutdown();
    }
}

fn request_ids_are_honored_and_traces_export(kind: Kind, handle: &ServerHandle) {
    // Raw frames so the test controls the request object exactly. The ids
    // differ per endpoint: both share this process's trace ring.
    let mut raw = endpoints::Raw::connect(handle.addr());
    let base = match kind {
        Kind::Single => 777_000,
        Kind::Coordinator => 888_000,
    };

    // A nonzero client-supplied request id is kept and echoed.
    let resp = raw.call(&format!(
        r#"{{"id":1,"op":"ping","request_id":{}}}"#,
        base + 1
    ));
    assert_eq!(
        resp.get("request_id").and_then(Json::as_u64),
        Some(base + 1)
    );

    // `trace: true` returns the request's span tree as JSONL, tagged with
    // the request id.
    let resp = raw.call(&format!(
        r#"{{"id":2,"op":"query","q":"SELECT grid FROM grid WHERE grid > 200","request_id":{},"trace":true}}"#,
        base + 2
    ));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    let trace = resp
        .get("trace")
        .and_then(Json::as_str)
        .expect("response carries trace JSONL");
    let mut spans = Vec::new();
    for line in trace.lines() {
        let event = Json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        assert_eq!(
            event.get("req").and_then(Json::as_u64),
            Some(base + 2),
            "{line}"
        );
        spans.extend(event.get("name").and_then(Json::as_str).map(str::to_string));
    }
    // The serving core's own span on either backend; a single engine's
    // query span below it (shard spans are not yet grafted under a
    // coordinator's scatter).
    assert!(
        spans.iter().any(|s| s == "request"),
        "{kind:?}: trace lacks the request span: {trace}"
    );
    if kind == Kind::Single {
        assert!(
            spans.iter().any(|s| s == "query"),
            "trace lacks the engine query span: {trace}"
        );
    }

    // A later untraced request from another id does not inherit the events.
    let resp = raw.call(r#"{"id":3,"op":"ping"}"#);
    assert!(resp.get("trace").is_none());
    assert!(resp.get("request_id").and_then(Json::as_u64) > Some(0));
}
