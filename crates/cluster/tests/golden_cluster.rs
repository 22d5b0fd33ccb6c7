//! Golden equivalence for the scatter-gather path: a 4-shard in-process
//! cluster must answer the full rasql corpus byte-identically (arrays) or
//! bit-identically (scalars) to one single-engine database holding the
//! same cells — in process, and served in both wire encodings.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

use tilestore_cluster::{
    serve_cluster, ClusterConfig, ClusterStatement, Coordinator, ShardBackend, ShardMap,
};
use tilestore_engine::{Array, CellType, Database, MddType, SharedDatabase};
use tilestore_exec::ThreadPool;
use tilestore_rasql::{parse, parse_statement, Statement, StatementResult, Value};
use tilestore_server::wire::{hex_decode, read_frame, write_frame};
use tilestore_server::Client;
use tilestore_storage::MemPageStore;
use tilestore_testkit::{Json, ToJson};
use tilestore_tiling::{AlignedTiling, Scheme};

/// Same corpus as the server's golden test: every result kind, trims,
/// sections, wildcard ranges, induced operations, aggregates, WHERE.
const GOLDEN: &[&str] = &[
    "SELECT cube FROM cube",
    "SELECT cube[2:4, 0:9, 5:7] FROM cube",
    "SELECT cube[*:*, 3:3, 2:*] FROM cube",
    "SELECT cube[5, *, 2:3] FROM cube",
    "SELECT sum_cells(cube[0:3, 0:3, 0:3]) FROM cube",
    "SELECT avg_cells(cube[1:2, 1:2, 1:2]) FROM cube",
    "SELECT max_cells(cube) FROM cube",
    "SELECT min_cells(cube[4:9, 0:5, 1:8]) FROM cube",
    "SELECT count_cells(cube > 500) FROM cube",
    "SELECT some_cells(cube > 980) FROM cube",
    "SELECT all_cells(cube >= 0) FROM cube",
    "SELECT cube[0:0, 0:0, 0:3] + 1000 FROM cube",
    "SELECT cube[0:0, 0:0, *] > 4 FROM cube",
    "SELECT cube[0:0, 1:1, 0:2] * 2 - 10 FROM cube",
    "SELECT cube[5, *, *] + 0.0 FROM cube",
    "SELECT sum_cells(cube[0:0, 0:0, *] >= 5) FROM cube",
    "SELECT cube FROM cube WHERE cube > 900",
    "SELECT cube[2:4, 0:9, 5:7] FROM cube WHERE cube <= 300",
    "SELECT cube[0:0, 0:0, *] + 1 FROM cube WHERE cube >= 5",
    "SELECT count_cells(cube) FROM cube WHERE cube > 500",
    "SELECT sum_cells(cube) FROM cube WHERE cube >= 998",
    "SELECT max_cells(cube) FROM cube WHERE cube < 100",
    "SELECT min_cells(cube[4:9, 0:5, 1:8]) FROM cube WHERE cube != 455",
    "SELECT some_cells(cube) FROM cube WHERE cube > 2000",
    "SELECT all_cells(cube) FROM cube WHERE cube = 7",
];

fn cube_type() -> MddType {
    MddType::new(CellType::of::<u32>(), "[0:*,0:*,0:*]".parse().unwrap())
}

fn cube_cells() -> Array {
    Array::from_fn("[0:9,0:9,0:9]".parse().unwrap(), |p| {
        (p[0] * 100 + p[1] * 10 + p[2]) as u32
    })
    .unwrap()
}

fn single_engine() -> Database<MemPageStore> {
    let db = Database::in_memory().unwrap();
    db.create_object(
        "cube",
        cube_type(),
        Scheme::Aligned(AlignedTiling::regular(3, 2048)),
    )
    .unwrap();
    db.insert("cube", &cube_cells()).unwrap();
    db
}

fn cluster(shards: usize) -> Coordinator<MemPageStore> {
    // Cuts along axis 0 every 3 rows: seam-straddling regions are the norm
    // for the corpus, and with enough shards the tail ones own no data.
    let map = ShardMap::even(0, shards, 0, 3).unwrap();
    let backends = (0..shards)
        .map(|_| ShardBackend::Local(SharedDatabase::new(Database::in_memory().unwrap())))
        .collect();
    let coord = Coordinator::new(map, backends, Arc::new(ThreadPool::new(2))).unwrap();
    coord
        .create_object(
            "cube",
            cube_type(),
            Scheme::Aligned(AlignedTiling::regular(3, 2048)),
        )
        .unwrap();
    coord.insert("cube", &cube_cells()).unwrap();
    coord
}

fn assert_same(q: &str, want: &Value, got: &Value) {
    match (want, got) {
        (Value::Array(a), Value::Array(b)) => {
            assert_eq!(a.domain(), b.domain(), "{q}: domain");
            assert_eq!(a.cell_size(), b.cell_size(), "{q}: cell size");
            assert_eq!(a.bytes(), b.bytes(), "{q}: cell bytes");
        }
        (Value::Number(n), Value::Number(m)) => {
            assert_eq!(n.to_bits(), m.to_bits(), "{q}: number bits");
        }
        (Value::Count(c), Value::Count(d)) => assert_eq!(c, d, "{q}: count"),
        (Value::Bool(b), Value::Bool(c)) => assert_eq!(b, c, "{q}: bool"),
        (want, got) => panic!("{q}: kind mismatch: {want:?} vs {got:?}"),
    }
}

#[test]
fn four_shard_cluster_matches_single_engine_on_the_full_corpus() {
    let single = single_engine();
    let coord = cluster(4);
    for q in GOLDEN {
        let want = tilestore_rasql::execute(&single.begin_read(), q)
            .unwrap_or_else(|e| panic!("{q}: single: {e}"))
            .0;
        let got = match coord
            .execute(q)
            .unwrap_or_else(|e| panic!("{q}: cluster: {e}"))
        {
            ClusterStatement::Value(v) => v,
            ClusterStatement::Explain(_) => panic!("{q}: unexpected explain"),
        };
        assert_same(q, &want, &got.value);
        assert_eq!(got.epochs.len(), 4, "{q}: one epoch per shard");
    }
}

#[test]
fn served_cluster_answers_the_corpus_identically_in_both_encodings() {
    // The coordinator behind the serving core, asked two ways: through
    // `Client` (cells as binary parts) and with a plain JSON request (cells
    // as hex). Both must be the single engine's bytes.
    let single = single_engine();
    let handle = serve_cluster(
        Arc::new(cluster(4)),
        None,
        "127.0.0.1:0",
        ClusterConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for (i, q) in GOLDEN.iter().enumerate() {
        let want = tilestore_rasql::execute(&single.begin_read(), q).unwrap().0;
        let got = client.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert_same(q, &want, &got.into_value().unwrap());

        let request = Json::obj(vec![
            ("id", Json::UInt(i as u64)),
            ("op", Json::Str("query".to_string())),
            ("q", Json::Str(q.to_string())),
        ]);
        write_frame(&mut writer, request.to_string_compact().as_bytes()).unwrap();
        let frame = read_frame(&mut reader).unwrap().unwrap();
        let doc = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        let value = doc.get("result").and_then(|r| r.get("value")).unwrap();
        assert_same(&format!("{q} (json)"), &want, &from_json_value(value));
    }
    handle.shutdown();
}

/// Decodes a JSON `value` object the way a JSON-only peer would.
fn from_json_value(v: &Json) -> Value {
    let field = |k: &str| v.get(k).unwrap_or_else(|| panic!("no {k} in {v}"));
    match field("kind").as_str().unwrap() {
        "array" => Value::Array(
            Array::from_bytes(
                field("domain").as_str().unwrap().parse().unwrap(),
                field("cell_size").as_u64().unwrap() as usize,
                hex_decode(field("cells_hex").as_str().unwrap()).unwrap(),
            )
            .unwrap(),
        ),
        "number" => Value::Number(f64::from_bits(field("bits").as_u64().unwrap())),
        "count" => Value::Count(field("value").as_u64().unwrap()),
        "bool" => Value::Bool(field("value").as_bool().unwrap()),
        other => panic!("unknown kind {other}"),
    }
}

#[test]
fn shard_counts_do_not_change_answers() {
    // 1 shard (degenerate map), 2, and 8 (tail shards own no data) all
    // agree with the single engine.
    let single = single_engine();
    for shards in [1usize, 2, 8] {
        let coord = cluster(shards);
        for q in GOLDEN {
            let want = tilestore_rasql::execute(&single.begin_read(), q).unwrap().0;
            let got = match coord
                .execute(q)
                .unwrap_or_else(|e| panic!("{q}: {shards} shards: {e}"))
            {
                ClusterStatement::Value(v) => v,
                ClusterStatement::Explain(_) => panic!("{q}: unexpected explain"),
            };
            assert_same(&format!("{q} ({shards} shards)"), &want, &got.value);
        }
    }
}

#[test]
fn cluster_explain_reports_per_shard_plans() {
    let coord = cluster(4);
    let ClusterStatement::Explain(report) = coord
        .execute("EXPLAIN SELECT cube FROM cube WHERE cube > 900")
        .unwrap()
    else {
        panic!("expected explain");
    };
    assert_eq!(report.shards.len(), 4);
    assert_eq!(report.region.to_string(), "[0:9,0:9,0:9]");
    assert_eq!(report.predicate.as_deref(), Some("cube > 900"));
    // The sub-domains partition the region.
    let owned: u64 = report
        .shards
        .iter()
        .filter_map(|s| s.sub_domain.as_ref().map(|d| d.cells()))
        .sum();
    assert_eq!(owned, 1000);
    // Only the top rows (900..=999 live at x=9) survive the predicate, so
    // shards owning the lower rows prune everything they'd otherwise fetch.
    assert!(report.pruned() > 0, "{report:?}");
    // The report serializes and renders.
    let json = report.to_json().to_string_compact();
    assert!(Json::parse(&json).is_ok());
    for key in ["\"shards\"", "\"fetched\"", "\"pruned\"", "\"epoch\""] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    assert!(report.render().contains("shard 0"));

    // ANALYZE attaches measured merged counters.
    let ClusterStatement::Explain(report) = coord
        .execute("EXPLAIN ANALYZE SELECT count_cells(cube) FROM cube WHERE cube > 900")
        .unwrap()
    else {
        panic!("expected explain");
    };
    let (stats, elapsed_ns) = report.analyze.expect("analyze info");
    assert_eq!(report.condenser, Some("count"));
    assert!(elapsed_ns > 0);
    assert_eq!(
        stats.tiles_read + stats.tiles_pruned,
        report.fetched() + report.pruned()
    );

    // Induced expressions have no tile plan, exactly like a single engine.
    assert!(coord.execute("EXPLAIN SELECT cube + 1 FROM cube").is_err());
}

#[test]
fn semantic_errors_match_single_engine() {
    let coord = cluster(2);
    for bad in [
        "SELECT other FROM cube",
        "SELECT cube[0:1] FROM cube",
        "SELECT cube[1,2,3] FROM cube",
        "SELECT sum_cells(sum_cells(cube)) FROM cube",
        "SELECT cube[5:1,*,*] FROM cube",
        "SELECT cube FROM cube WHERE other > 1",
        "SELECT nope FROM nope",
    ] {
        assert!(coord.execute(bad).is_err(), "{bad:?} should fail");
    }
}

#[test]
fn both_endpoints_resolve_statements_identically() {
    // One resolver decides what a statement means on both endpoints, so a
    // rejected statement fails with the same text, and EXPLAIN names the
    // condenser the user wrote, not the `sum` an `avg` is pushed down as.
    let single = single_engine();
    let coord = cluster(2);
    for bad in [
        "SELECT cube[0:1] FROM cube",
        "SELECT sum_cells(sum_cells(cube)) FROM cube",
        "SELECT sum_cells(cube) + 1 FROM cube",
        "SELECT cube[5:1, *, *] FROM cube",
        "SELECT cube[1, 2, 3] FROM cube",
        "SELECT cube FROM cube WHERE other > 1",
        "SELECT other FROM cube",
        "SELECT nope FROM nope",
        "EXPLAIN SELECT cube + 1 FROM cube",
    ] {
        let want = match tilestore_rasql::execute_statement(&single.begin_read(), bad) {
            Ok(_) => panic!("{bad}: single engine accepted it"),
            Err(e) => e.to_string(),
        };
        let got = match coord.execute(bad) {
            Ok(_) => panic!("{bad}: cluster accepted it"),
            Err(e) => e.to_string(),
        };
        assert_eq!(want, got, "{bad}");
    }
    for agg in ["max_cells", "avg_cells", "count_cells"] {
        let stmt = format!("EXPLAIN SELECT {agg}(cube[1:8, *, 0:4]) FROM cube");
        let Ok(StatementResult::Explain(want)) =
            tilestore_rasql::execute_statement(&single.begin_read(), &stmt)
        else {
            panic!("{stmt}: single engine gave no plan");
        };
        let Ok(ClusterStatement::Explain(got)) = coord.execute(&stmt) else {
            panic!("{stmt}: cluster gave no plan");
        };
        assert_eq!(want.plan.condenser, got.condenser, "{stmt}");
    }
}

#[test]
fn statement_rewrite_round_trips_through_the_parser() {
    // The coordinator ships rewritten statements as surface syntax; every
    // corpus statement must survive parse → display → parse.
    for q in GOLDEN {
        let stmt = parse_statement(q).unwrap();
        let printed = stmt.to_string();
        let again = parse_statement(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
        assert_eq!(stmt, again, "{q}");
        if let Statement::Query(query) = stmt {
            assert_eq!(parse(&query.to_string()).unwrap(), query, "{q}");
        }
    }
}

#[test]
fn cluster_info_and_status_merge_shard_views() {
    let coord = cluster(4);
    let info = coord.info("cube").unwrap();
    assert_eq!(
        info.get("current_domain").and_then(Json::as_str),
        Some("[0:9,0:9,0:9]")
    );
    assert_eq!(info.get("covered_cells").and_then(Json::as_u64), Some(1000));
    let status = coord.status();
    assert_eq!(status.get("shards").and_then(Json::as_u64), Some(4));
    let members = status.get("members").and_then(Json::as_array).unwrap();
    assert_eq!(members.len(), 4);
    assert!(members
        .iter()
        .all(|m| m.get("healthy").and_then(Json::as_bool) == Some(true)));
    assert_eq!(coord.object_names().unwrap(), vec!["cube".to_string()]);
}

#[test]
fn cluster_retile_preserves_answers() {
    let single = single_engine();
    let coord = cluster(4);
    let w = coord.retile("cube", "aligned:[*,*,1]:4").unwrap();
    assert_eq!(w.per_shard.len(), 4);
    assert!(w.merged().tiles_after > 0);
    for q in GOLDEN {
        let want = tilestore_rasql::execute(&single.begin_read(), q).unwrap().0;
        let ClusterStatement::Value(got) = coord.execute(q).unwrap() else {
            panic!("{q}: unexpected explain");
        };
        assert_same(&format!("{q} (retiled)"), &want, &got.value);
    }
}

#[test]
fn cluster_defrag_preserves_answers_on_every_shard() {
    // Defrag flows through the shared retile grammar: each owning shard
    // compacts its own page file, empty tail shards are skipped, and the
    // whole corpus still answers byte-identically. A budget-paced pass
    // afterwards converges immediately and changes nothing either.
    let single = single_engine();
    let coord = cluster(4);
    let w = coord.retile("cube", "--defrag").unwrap();
    assert_eq!(
        w.per_shard.len(),
        4,
        "every data-owning shard reports a defrag"
    );
    for q in GOLDEN {
        let want = tilestore_rasql::execute(&single.begin_read(), q).unwrap().0;
        let ClusterStatement::Value(got) = coord.execute(q).unwrap() else {
            panic!("{q}: unexpected explain");
        };
        assert_same(&format!("{q} (defragged)"), &want, &got.value);
    }
    let w = coord.retile("cube", "--defrag:1").unwrap();
    assert_eq!(w.per_shard.len(), 4);
    for q in GOLDEN {
        let want = tilestore_rasql::execute(&single.begin_read(), q).unwrap().0;
        let ClusterStatement::Value(got) = coord.execute(q).unwrap() else {
            panic!("{q}: unexpected explain");
        };
        assert_same(&format!("{q} (paced defrag)"), &want, &got.value);
    }
}

#[test]
fn cluster_from_log_is_a_typed_unsupported_error() {
    let coord = cluster(2);
    let e = match coord.retile("cube", "--from-log") {
        Ok(_) => panic!("--from-log must be rejected in cluster mode"),
        Err(e) => e,
    };
    assert!(
        matches!(e, tilestore_cluster::ClusterError::Unsupported { .. }),
        "{e}"
    );
    assert!(e.to_string().contains("unsupported in cluster mode"), "{e}");
    // The cluster still answers after the rejected verb.
    let ClusterStatement::Value(v) = coord.execute("SELECT max_cells(cube) FROM cube").unwrap()
    else {
        panic!("unexpected explain");
    };
    assert_eq!(v.value, Value::Number(999.0));
}
