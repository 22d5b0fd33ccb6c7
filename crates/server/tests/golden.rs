//! Golden equivalence: every rasql statement answered over the wire must be
//! byte-identical (arrays) or bit-identical (scalars) to the in-process
//! result — through `Client`, whose cells travel as binary parts, and
//! through a plain JSON request, whose cells travel as hex. The in-process
//! baseline runs serially *before* the server attaches its executor, so
//! this also pins the parallel query path to the serial one.

use tilestore_engine::{Array, CellType, Database, MddType, QueryStats, SharedDatabase};
use tilestore_rasql::{StatementResult, Value};
use tilestore_server::wire::{
    hex_decode, ok_response, value_to_json, with_request_id, write_frame,
};
use tilestore_server::{serve, Client, RemoteValue, ServerConfig, ServerHandle, MAX_FRAME};
use tilestore_testkit::json::FromJson;
use tilestore_testkit::{Json, ToJson};
use tilestore_tiling::{AlignedTiling, Scheme};

mod endpoints;
use endpoints::Kind;

/// The statement corpus: every result kind, trims, sections, wildcard
/// ranges, induced operations, aggregates.
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
    // WHERE value predicates: masked reads and pruned aggregates.
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

fn cube_scheme() -> Scheme {
    Scheme::Aligned(AlignedTiling::regular(3, 2048))
}

fn cube_cells() -> Array {
    Array::from_fn("[0:9,0:9,0:9]".parse().unwrap(), |p| {
        (p[0] * 100 + p[1] * 10 + p[2]) as u32
    })
    .unwrap()
}

fn cube_db() -> Database<tilestore_storage::MemPageStore> {
    let db = Database::in_memory().unwrap();
    db.create_object("cube", cube_type(), cube_scheme())
        .unwrap();
    db.insert("cube", &cube_cells()).unwrap();
    db
}

#[test]
fn every_statement_is_byte_identical_over_the_wire() {
    let db = cube_db();
    // In-process baseline, serial path (no executor attached yet).
    let expected: Vec<Value> = GOLDEN
        .iter()
        .map(|q| tilestore_rasql::execute(&db.begin_read(), q).unwrap().0)
        .collect();

    let shared = SharedDatabase::new(db);
    let handle = serve(
        shared,
        None,
        "127.0.0.1:0",
        ServerConfig {
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    let mut raw = endpoints::Raw::connect(handle.addr());

    for (i, (q, want)) in GOLDEN.iter().zip(&expected).enumerate() {
        let got = client.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert_remote_identical(q, want, &got);
        let doc = raw.call(&json_query(i as u64, q));
        let value = doc.get("result").and_then(|r| r.get("value"));
        let got = from_json_value(value.unwrap_or_else(|| panic!("{q}: {doc}")));
        assert_remote_identical(&format!("{q} (json)"), want, &got);
    }

    // A response without cells is the frame the JSON-only protocol built,
    // byte for byte: `ping`, and an aggregate whose result is
    // `value_to_json` of the in-process value.
    let mut want = Vec::new();
    let pong = with_request_id(ok_response(90, Json::Str("pong".to_string())), 91);
    write_frame(&mut want, pong.to_string_compact().as_bytes()).unwrap();
    let got = raw.frame(br#"{"id":90,"op":"ping","request_id":91}"#);
    assert_eq!(framed(&got), want, "ping frame");

    let (i, q) = (4, GOLDEN[4]);
    assert!(q.starts_with("SELECT sum_cells"), "{q}");
    let got = raw.frame(
        with_request_id(Json::parse(&json_query(92, q)).unwrap(), 93)
            .to_string_compact()
            .as_bytes(),
    );
    let doc = Json::parse(std::str::from_utf8(&got).unwrap()).unwrap();
    let result = doc.get("result").unwrap();
    let stats = QueryStats::from_json(result.get("stats").unwrap()).unwrap();
    let epoch = result.get("epoch").and_then(Json::as_u64).unwrap();
    let rebuilt = ok_response(92, value_to_json(&expected[i], &stats, epoch));
    let mut want = Vec::new();
    write_frame(
        &mut want,
        with_request_id(rebuilt, 93).to_string_compact().as_bytes(),
    )
    .unwrap();
    assert_eq!(framed(&got), want, "{q}: aggregate frame");
    handle.shutdown();
}

/// A `query` request without `"binary"`: the JSON debug surface.
fn json_query(id: u64, q: &str) -> String {
    Json::obj(vec![
        ("id", Json::UInt(id)),
        ("op", Json::Str("query".to_string())),
        ("q", Json::Str(q.to_string())),
    ])
    .to_string_compact()
}

/// A response payload with its length prefix back in front.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// Decodes a JSON `value` object the way a JSON-only peer would: cells
/// from `cells_hex`, numbers from their IEEE-754 `bits`.
fn from_json_value(v: &Json) -> RemoteValue {
    let field = |k: &str| v.get(k).unwrap_or_else(|| panic!("no {k} in {v}"));
    match field("kind").as_str().unwrap() {
        "array" => RemoteValue::Array {
            domain: field("domain").as_str().unwrap().parse().unwrap(),
            cell_size: field("cell_size").as_u64().unwrap() as usize,
            cells: hex_decode(field("cells_hex").as_str().unwrap()).unwrap(),
        },
        "number" => RemoteValue::Number(f64::from_bits(field("bits").as_u64().unwrap())),
        "count" => RemoteValue::Count(field("value").as_u64().unwrap()),
        "bool" => RemoteValue::Bool(field("value").as_bool().unwrap()),
        other => panic!("unknown kind {other}"),
    }
}

/// Strict byte/bit identity between an in-process and a remote result.
fn assert_remote_identical(q: &str, want: &Value, got: &RemoteValue) {
    match (want, got) {
        (
            Value::Array(a),
            RemoteValue::Array {
                domain,
                cell_size,
                cells,
            },
        ) => {
            assert_eq!(domain, a.domain(), "{q}: domain");
            assert_eq!(*cell_size, a.cell_size(), "{q}: cell size");
            assert_eq!(cells, a.bytes(), "{q}: cell bytes");
        }
        (Value::Number(n), RemoteValue::Number(m)) => {
            assert_eq!(n.to_bits(), m.to_bits(), "{q}: number bits");
        }
        (Value::Count(c), RemoteValue::Count(d)) => assert_eq!(c, d, "{q}: count"),
        (Value::Bool(b), RemoteValue::Bool(c)) => assert_eq!(b, c, "{q}: bool"),
        (want, got) => panic!("{q}: kind mismatch: {want:?} vs {got:?}"),
    }
}

/// EXPLAIN-able subset of the corpus: plain accesses and condensers over
/// one (induced expressions carry no tile plan).
const GOLDEN_EXPLAIN: &[&str] = &[
    "SELECT cube FROM cube",
    "SELECT cube[2:4, 0:9, 5:7] FROM cube",
    "SELECT max_cells(cube) FROM cube",
    "SELECT cube FROM cube WHERE cube > 900",
    "SELECT count_cells(cube) FROM cube WHERE cube > 500",
    "SELECT sum_cells(cube) FROM cube WHERE cube >= 998",
    "SELECT min_cells(cube[4:9, 0:5, 1:8]) FROM cube WHERE cube != 455",
];

#[test]
fn explain_plans_match_in_process_and_reconcile_with_execution() {
    let db = cube_db();
    // In-process baseline plans, before the server attaches its executor.
    let expected: Vec<String> = GOLDEN_EXPLAIN
        .iter()
        .map(|q| {
            let snap = db.begin_read();
            let StatementResult::Explain(report) =
                tilestore_rasql::execute_statement(&snap, &format!("EXPLAIN {q}")).unwrap()
            else {
                panic!("{q}: expected explain result");
            };
            report.plan.to_json().to_string_compact()
        })
        .collect();

    let shared = SharedDatabase::new(db);
    let handle = serve(
        shared,
        None,
        "127.0.0.1:0",
        ServerConfig {
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for (q, want) in GOLDEN_EXPLAIN.iter().zip(&expected) {
        let got = client
            .explain(q, false)
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        let plan = got.get("plan").unwrap_or_else(|| panic!("{q}: no plan"));
        assert_eq!(
            plan.to_string_compact(),
            *want,
            "{q}: wire plan differs from in-process plan"
        );
        assert!(got.get("analyze").is_none(), "{q}: plain EXPLAIN executes");
        assert!(
            client.last_request_id() > 0,
            "{q}: response lacks request id"
        );

        // ANALYZE executes: the measured counters must reconcile with the
        // plan the same response carries.
        let got = client
            .explain(q, true)
            .unwrap_or_else(|e| panic!("{q}: {e}"));
        let plan = got.get("plan").unwrap();
        let fetched = plan.get("fetched").and_then(Json::as_u64).unwrap();
        let pruned = plan.get("pruned").and_then(Json::as_u64).unwrap();
        let stats = got
            .get("analyze")
            .and_then(|a| a.get("stats"))
            .unwrap_or_else(|| panic!("{q}: analyze carries no stats"));
        assert_eq!(
            stats.get("tiles_read").and_then(Json::as_u64),
            Some(fetched),
            "{q}: tiles_read != plan.fetched"
        );
        assert_eq!(
            stats.get("tiles_pruned").and_then(Json::as_u64),
            Some(pruned),
            "{q}: tiles_pruned != plan.pruned"
        );
    }
    handle.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_not_disconnects() {
    let endpoints = endpoints::both(
        "cube",
        &cube_type(),
        &cube_scheme(),
        &cube_cells(),
        5,
        &ServerConfig::default(),
    );
    for (kind, handle) in endpoints {
        malformed_requests_get_typed_errors(kind, &handle);
        handle.shutdown();
    }
}

/// The serving core answers a wrong request with a typed error on either
/// backend and keeps the connection; `kind` only selects the few classes
/// that legitimately differ between the backends.
fn malformed_requests_get_typed_errors(kind: Kind, handle: &ServerHandle) {
    use tilestore_server::ClientError;
    let mut client = Client::connect(handle.addr()).unwrap();

    let e = client.query("SELECT nothing FROM nowhere").unwrap_err();
    assert!(matches!(e, ClientError::Engine(_)), "{kind:?}: {e}");
    // A statement that does not parse is the request's fault on both.
    let e = client.query("SELEC cube FROM cube").unwrap_err();
    assert!(matches!(e, ClientError::BadRequest(_)), "{kind:?}: {e}");
    let e = client.retile("cube", "bogus:spec").unwrap_err();
    assert!(matches!(e, ClientError::BadRequest(_)), "{kind:?}: {e}");
    let e = client.info("missing").unwrap_err();
    assert!(matches!(e, ClientError::Engine(_)), "{kind:?}: {e}");

    // One rule on both backends where the forked loops had drifted apart: a
    // zero budget is already spent, and a payload that does not tile its
    // domain is the request's fault.
    let mut raw = endpoints::Raw::connect(handle.addr());
    assert_eq!(
        raw.error_of(r#"{"id":1,"op":"query","q":"SELECT cube FROM cube","deadline_ms":0}"#),
        Some("deadline".to_string()),
        "{kind:?}"
    );
    for bad_insert in [
        r#"{"id":2,"op":"insert","object":"cube","domain":"[0:1,0:1,0:0]","cells_hex":"00112233445566"}"#,
        r#"{"id":3,"op":"insert","object":"cube","domain":"[0:1,0:1,0:0]","cells_hex":""}"#,
        r#"{"id":4,"op":"insert","object":"cube","domain":"[0:1,0:1,0:0]","cells_hex":"0g"}"#,
        r#"{"id":5,"op":"insert","object":"cube","domain":"nope","cells_hex":"00"}"#,
        r#"{"id":6,"op":"insert","domain":"[0:0,0:0,0:0]","cells_hex":"00"}"#,
    ] {
        assert_eq!(
            raw.error_of(bad_insert),
            Some("bad_request".to_string()),
            "{kind:?}: {bad_insert}"
        );
    }

    // Each backend's own ops are a typed `bad_request` on the other.
    let own: &[&str] = match kind {
        Kind::Single => &["pin", "unpin", "fsck"],
        Kind::Coordinator => &["cluster"],
    };
    for op in ["pin", "unpin", "fsck", "cluster", "no-such-op"] {
        let got = raw.error_of(&format!(r#"{{"id":7,"op":"{op}","pin":1}}"#));
        if own.contains(&op) {
            assert_ne!(got.as_deref(), Some("bad_request"), "{kind:?}: {op}");
        } else {
            assert_eq!(got.as_deref(), Some("bad_request"), "{kind:?}: {op}");
        }
    }

    // A result whose hex answer is just over the frame limit is a typed
    // refusal naming both sizes, not a dropped connection. The trim reaches
    // past the stored cells, so the object stays 1000 cells and the answer
    // is mostly default fill: 100 x 83887 u32 cells = MAX_FRAME / 2 + 368.
    let q = "SELECT cube[0:9, 0:9, 0:83886] FROM cube";
    let cell_bytes = 100 * 83_887 * 4;
    assert!(cell_bytes > MAX_FRAME / 2 && cell_bytes < MAX_FRAME / 2 + 4096);
    let resp = raw.call(&json_query(9, q));
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("result_too_large"),
        "{kind:?}"
    );
    let message = resp.get("message").and_then(Json::as_str).unwrap();
    assert!(
        message.contains(&MAX_FRAME.to_string()),
        "{kind:?}: {message}"
    );
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(9));
    assert!(resp.get("request_id").is_some(), "{kind:?}: {resp}");
    // The same cells fit as a binary part.
    match client.query(q) {
        Ok(RemoteValue::Array { cells, .. }) => assert_eq!(cells.len(), cell_bytes),
        other => panic!("{kind:?}: {other:?}"),
    }

    // The connections survived all of that.
    client.ping().unwrap();
    assert_eq!(raw.error_of(r#"{"id":8,"op":"ping"}"#), None);
}

#[test]
fn pinned_epoch_predicate_results_survive_concurrent_retile() {
    // A read session pinned before a retile must keep answering value-
    // predicate queries from its own epoch's tiles, synopses and bitmap
    // index — byte-identically — while the server rewrites the object.
    let shared = SharedDatabase::new(cube_db());
    let handle = serve(shared.clone(), None, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let q = "SELECT cube FROM cube WHERE cube > 500";
    let pinned = shared.snapshot();
    let before = tilestore_rasql::execute(&pinned, q).unwrap().0;
    client.retile("cube", "aligned:[*,*,1]:4").unwrap();
    let after = tilestore_rasql::execute(&pinned, q).unwrap().0;
    match (&before, &after) {
        (Value::Array(a), Value::Array(b)) => {
            assert_eq!(a.domain(), b.domain());
            assert_eq!(a.bytes(), b.bytes(), "pinned epoch changed under retile");
        }
        other => panic!("expected arrays, got {other:?}"),
    }
    // A fresh snapshot over the retiled tiles holds the same cells, and
    // the aggregate agrees across epochs too.
    let fresh = tilestore_rasql::execute(&shared.snapshot(), q).unwrap().0;
    assert_eq!(before, fresh);
    let agg = "SELECT count_cells(cube) FROM cube WHERE cube > 500";
    let a = tilestore_rasql::execute(&pinned, agg).unwrap().0;
    let b = tilestore_rasql::execute(&shared.snapshot(), agg).unwrap().0;
    assert_eq!(a, Value::Count(499));
    assert_eq!(a, b);
    handle.shutdown();
}

/// Strict byte/bit identity between two statement results.
fn assert_values_identical(q: &str, want: &Value, got: &Value) {
    match (want, got) {
        (Value::Array(a), Value::Array(b)) => {
            assert_eq!(a.domain(), b.domain(), "{q}: domain");
            assert_eq!(a.bytes(), b.bytes(), "{q}: cell bytes");
        }
        (Value::Number(n), Value::Number(m)) => {
            assert_eq!(n.to_bits(), m.to_bits(), "{q}: number bits");
        }
        (want, got) => assert_eq!(want, got, "{q}"),
    }
}

#[test]
fn defrag_keeps_every_golden_statement_byte_identical_with_clean_fsck() {
    // `retile --defrag` copies tile payloads byte-for-byte onto contiguous
    // pages; the whole corpus must answer identically afterwards, and the
    // page file must audit clean (no orphaned, dangling or duplicated
    // pages from the placement swap).
    let dir = tilestore_testkit::tempdir().unwrap();
    let db = tilestore_engine::DatabaseBuilder::new()
        .create_dir(dir.path())
        .unwrap();
    db.create_object(
        "cube",
        MddType::new(CellType::of::<u32>(), "[0:*,0:*,0:*]".parse().unwrap()),
        Scheme::Aligned(AlignedTiling::regular(3, 2048)),
    )
    .unwrap();
    // Back half before front half, so physical page order disagrees with
    // the centroid curve and the defrag has real work to do.
    for lo in [5i64, 0] {
        let dom = format!("[{lo}:{},0:9,0:9]", lo + 4).parse().unwrap();
        let cells = Array::from_fn(dom, |p| (p[0] * 100 + p[1] * 10 + p[2]) as u32).unwrap();
        db.insert("cube", &cells).unwrap();
    }
    let before: Vec<Value> = GOLDEN
        .iter()
        .map(|q| tilestore_rasql::execute(&db.begin_read(), q).unwrap().0)
        .collect();

    let receipt = db.defrag("cube").unwrap();
    assert!(
        receipt.stats.bytes_rewritten > 0,
        "scattered cube must be rewritten"
    );
    for (q, want) in GOLDEN.iter().zip(&before) {
        let got = tilestore_rasql::execute(&db.begin_read(), q).unwrap().0;
        assert_values_identical(q, want, &got);
    }

    // A budget-paced step on the now-clean object converges immediately.
    let step = db.defrag_step("cube", 1024).unwrap();
    assert_eq!(step.stats.tiles_remaining, 0);
    for (q, want) in GOLDEN.iter().zip(&before) {
        let got = tilestore_rasql::execute(&db.begin_read(), q).unwrap().0;
        assert_values_identical(q, want, &got);
    }

    db.save(dir.path()).unwrap();
    let report = tilestore_engine::fsck(dir.path()).unwrap();
    assert!(report.is_clean(), "post-defrag fsck: {report}");
}

#[test]
fn remote_defrag_preserves_query_results() {
    // The wire handler shares the retile grammar: a full defrag and a
    // budget-paced one, both answering identically afterwards.
    let shared = SharedDatabase::new(cube_db());
    let handle = serve(shared, None, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let q = "SELECT cube[1:8, 2:7, 0:9] FROM cube";
    let before = client.query(q).unwrap();
    let resp = client.retile("cube", "--defrag").unwrap();
    assert!(resp.get("bytes_rewritten").is_some(), "{resp}");
    assert_eq!(before, client.query(q).unwrap());
    // Paced: loops server-side until `tiles_remaining == 0`.
    client.retile("cube", "--defrag:1").unwrap();
    assert_eq!(before, client.query(q).unwrap());
    // And the unsupported verbs still fail typed, not with a disconnect.
    let e = client.retile("cube", "--defragx").unwrap_err();
    assert!(
        matches!(e, tilestore_server::ClientError::BadRequest(_)),
        "{e}"
    );
    client.ping().unwrap();
    handle.shutdown();
}

#[test]
fn remote_retile_preserves_query_results() {
    let shared = SharedDatabase::new(cube_db());
    let handle = serve(shared, None, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let before = client
        .query("SELECT cube[1:8, 2:7, 0:9] FROM cube")
        .unwrap();
    client.retile("cube", "aligned:[*,*,1]:4").unwrap();
    let after = client
        .query("SELECT cube[1:8, 2:7, 0:9] FROM cube")
        .unwrap();
    assert_eq!(before, after);

    let info = client.info("cube").unwrap();
    assert_eq!(
        info.get("covered_cells").and_then(|j| j.as_u64()),
        Some(1000)
    );
    handle.shutdown();
}
