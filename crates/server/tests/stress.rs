//! The acceptance stress test: one file-backed database served to many
//! concurrent clients issuing overlapping range queries, with interleaved
//! inserts and a re-tile in the middle, under a small admission limit so
//! typed `busy` responses actually occur. Every response must be correct or
//! a typed BUSY/DEADLINE, the server must shut down gracefully, and the
//! database directory must fsck clean afterwards.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tilestore_engine::{Array, CellType, Database, MddType, SharedDatabase};
use tilestore_server::{
    serve, serve_backend, Answer, Call, Client, ClientError, RemoteValue, ServerConfig, Service,
    ServiceError, ServiceResult, Serving,
};
use tilestore_testkit::{tempdir, Json};
use tilestore_tiling::{AlignedTiling, Scheme};

/// Cell formula for the grid object; queries verify every byte against it.
fn cell(p0: i64, p1: i64) -> u32 {
    (p0 * 1000 + p1) as u32
}

fn retry_busy<T>(mut f: impl FnMut() -> Result<T, ClientError>) -> Result<T, ClientError> {
    loop {
        match f() {
            Err(ClientError::Busy(_)) => std::thread::sleep(Duration::from_millis(2)),
            other => return other,
        }
    }
}

#[test]
fn concurrent_clients_with_inserts_and_a_retile() {
    let dir = tempdir().unwrap();
    let db = Database::create_dir(dir.path()).unwrap();
    db.create_object(
        "grid",
        MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
        Scheme::Aligned(AlignedTiling::regular(2, 2048)),
    )
    .unwrap();
    // The immutable region every reader checks against; later inserts only
    // extend axis 0 beyond it.
    db.insert(
        "grid",
        &Array::from_fn("[0:63,0:63]".parse().unwrap(), |p| cell(p[0], p[1])).unwrap(),
    )
    .unwrap();
    let shared = SharedDatabase::new(db);
    let handle = serve(
        shared,
        Some(dir.path().to_path_buf()),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 4, // small on purpose: admission refusals must occur
            default_deadline_ms: 30_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let busy_seen = AtomicU64::new(0);
    let queries_ok = AtomicU64::new(0);
    std::thread::scope(|s| {
        // 8 readers, each its own connection, overlapping windows inside
        // the immutable region, every byte checked.
        for t in 0..8i64 {
            let busy_seen = &busy_seen;
            let queries_ok = &queries_ok;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..30i64 {
                    let lo0 = (t * 7 + i) % 40;
                    let lo1 = (t * 11 + i * 3) % 40;
                    let (hi0, hi1) = (lo0 + 20, lo1 + 20);
                    let q = format!("SELECT grid[{lo0}:{hi0}, {lo1}:{hi1}] FROM grid");
                    let got = loop {
                        match client.query(&q) {
                            Ok(v) => break v,
                            Err(ClientError::Busy(_)) => {
                                busy_seen.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(e) => panic!("{q}: {e}"),
                        }
                    };
                    let RemoteValue::Array {
                        domain,
                        cell_size,
                        cells,
                    } = got
                    else {
                        panic!("{q}: expected an array result");
                    };
                    assert_eq!(cell_size, 4);
                    assert_eq!(domain.to_string(), format!("[{lo0}:{hi0},{lo1}:{hi1}]"));
                    let mut k = 0;
                    for p0 in lo0..=hi0 {
                        for p1 in lo1..=hi1 {
                            let got = u32::from_ne_bytes(cells[k..k + 4].try_into().unwrap());
                            assert_eq!(got, cell(p0, p1), "{q}: cell ({p0},{p1})");
                            k += 4;
                        }
                    }
                    queries_ok.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // One writer: five disjoint strips beyond the immutable region,
        // with a re-tile between the second and third.
        s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for i in 0..5i64 {
                let lo = 64 + i * 8;
                let strip =
                    Array::from_fn(format!("[{lo}:{},0:63]", lo + 7).parse().unwrap(), |p| {
                        cell(p[0], p[1])
                    })
                    .unwrap();
                retry_busy(|| client.insert("grid", &strip)).unwrap();
                if i == 2 {
                    retry_busy(|| client.retile("grid", "aligned:[*,1]:16")).unwrap();
                }
            }
        });
        // One probe: a zero-budget request must be refused with a typed
        // DEADLINE, never executed.
        s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.set_deadline_ms(Some(0));
            match retry_busy(|| client.query("SELECT grid FROM grid")) {
                Err(ClientError::Deadline(_)) => {}
                other => panic!("expected a deadline rejection, got {other:?}"),
            }
        });
    });

    assert_eq!(queries_ok.load(Ordering::Relaxed), 8 * 30);

    // Writer finished: the grid now covers [0:103,0:63] and queries across
    // old and new regions agree with the formula.
    let mut client = Client::connect(addr).unwrap();
    let RemoteValue::Array { domain, cells, .. } =
        client.query("SELECT grid[60:70, 10:12] FROM grid").unwrap()
    else {
        panic!("expected an array")
    };
    assert_eq!(domain.to_string(), "[60:70,10:12]");
    let mut k = 0;
    for p0 in 60..=70 {
        for p1 in 10..=12 {
            assert_eq!(
                u32::from_ne_bytes(cells[k..k + 4].try_into().unwrap()),
                cell(p0, p1)
            );
            k += 4;
        }
    }

    // Remote fsck over the live server.
    let report = client.fsck().unwrap();
    assert_eq!(report.get("clean").and_then(|j| j.as_bool()), Some(true));

    // Graceful shutdown: drain, final save, clean directory.
    client.shutdown_server().unwrap();
    handle.join();
    let report = tilestore_engine::fsck(dir.path()).unwrap();
    assert!(report.is_clean(), "post-shutdown fsck: {report:?}");

    // The saved database reopens with everything the writer inserted.
    let reopened = Database::open_dir(dir.path()).unwrap();
    let obj = reopened.object("grid").unwrap();
    assert_eq!(
        obj.current_domain.as_ref().map(ToString::to_string),
        Some("[0:103,0:63]".to_string())
    );
}

/// A backend whose every `query` waits for [`Gate::open`]: a request that
/// provably holds its admission slot for as long as a test needs.
#[derive(Default)]
struct Gate {
    /// (a query is waiting inside, the gate is open)
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Gate {
    fn wait_until(&self, done: impl Fn(&(bool, bool)) -> bool) {
        let mut state = self.state.lock().unwrap();
        while !done(&state) {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl Service for Gate {
    type Session = ();

    fn query(&self, _: &mut (), _: &str, _: &Call<'_>) -> ServiceResult<Answer> {
        self.state.lock().unwrap().0 = true;
        self.changed.notify_all();
        self.wait_until(|&(_, open)| open);
        Ok(Answer {
            result: Json::Str("released".to_string()),
            epoch: 0,
            stats: None,
            cells: None,
        })
    }

    fn insert(&self, _: &str, _: &Array) -> ServiceResult<Json> {
        Err(ServiceError::unknown_op("insert"))
    }

    fn retile(&self, _: &str, _: &str) -> ServiceResult<Json> {
        Err(ServiceError::unknown_op("retile"))
    }

    fn info(&self, _: &mut (), _: &str, _: &Call<'_>) -> ServiceResult<Json> {
        Err(ServiceError::unknown_op("info"))
    }

    fn stats(&self) -> ServiceResult<Json> {
        Err(ServiceError::unknown_op("stats"))
    }

    fn health(&self, _: Serving) -> Json {
        Json::obj(vec![("status", Json::Str("ok".to_string()))])
    }

    fn backend_op(&self, _: &mut (), op: &str, _: &Call<'_>) -> ServiceResult<Json> {
        Err(ServiceError::unknown_op(op))
    }

    fn save(&self, _: &Path) -> ServiceResult<()> {
        Ok(())
    }
}

#[test]
fn admission_limit_refuses_with_typed_busy() {
    // One slot, held by a query the backend keeps until a second
    // connection's ping has been refused `busy`: the refusal is certain,
    // not a race against how long a query happens to take.
    let gate = Arc::new(Gate::default());
    let config = ServerConfig {
        max_inflight: 1,
        default_deadline_ms: 0,
        ..ServerConfig::default()
    };
    let handle = serve_backend(Arc::clone(&gate), None, "127.0.0.1:0", &config).unwrap();

    let addr = handle.addr();
    let holder = std::thread::spawn(move || {
        Client::connect(addr)
            .unwrap()
            .query_raw("hold the slot")
            .unwrap()
    });
    gate.wait_until(|&(waiting, _)| waiting);

    let mut client = Client::connect(addr).unwrap();
    match client.ping() {
        Err(ClientError::Busy(m)) => assert!(m.contains("limit 1"), "{m}"),
        other => panic!("expected a busy refusal, got {other:?}"),
    }
    gate.open();
    assert_eq!(holder.join().unwrap().as_str(), Some("released"));
    // The limit releases with the slot.
    client.ping().unwrap();
    handle.shutdown();
}
