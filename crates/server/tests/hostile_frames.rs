//! Hostile parts frames, from either side of the wire. A malformed request
//! frame is a typed `bad_request` on both endpoints and the connection
//! lives on; a malformed response frame is a `ClientError::Protocol`. In
//! neither case may a length the frame *claims* — a header, a part, a
//! domain's cell count — turn into an allocation: the largest one made
//! while a hostile frame is handled stays far below every claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use tilestore_engine::{Array, CellType, MddType};
use tilestore_server::wire::{
    decode_message, ok_response, read_frame, write_frame, Outgoing, PARTS_TAG,
};
use tilestore_server::{Client, ClientError, ServerConfig};
use tilestore_testkit::{Json, Rng};
use tilestore_tiling::{AlignedTiling, Scheme};

mod endpoints;

/// The system allocator, recording the largest request made while
/// [`TRACKING`] is on.
struct Largest;

static TRACKING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if TRACKING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only updates atomics and never
// allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Tracking is process-wide, so the tests that read it take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Every hostile frame here claims at least a gigabyte somewhere; handling
/// one may allocate buffers, a JSON tree and a thread's bookkeeping, none of
/// it near that.
const ALLOCATION_BOUND: usize = 64 << 10;

/// Runs `f` and returns the largest single allocation made meanwhile, by
/// any thread.
fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    f();
    TRACKING.store(false, Ordering::SeqCst);
    LARGEST.load(Ordering::SeqCst)
}

/// A parts-frame payload: tag, header length, header text, body bytes.
fn parts_payload(header: &str, body: &[u8]) -> Vec<u8> {
    let mut p = vec![PARTS_TAG];
    p.extend_from_slice(&(header.len() as u32).to_le_bytes());
    p.extend_from_slice(header.as_bytes());
    p.extend_from_slice(body);
    p
}

/// An `insert` of `body` into `cube` over `domain`, naming part `index` of
/// a frame whose `parts` list is `lens`.
fn insert_frame(domain: &str, index: u64, lens: &str, body: &[u8]) -> Vec<u8> {
    let header = format!(
        r#"{{"id":5,"op":"insert","object":"cube","domain":"{domain}","cells_part":{index},"parts":{lens}}}"#
    );
    parts_payload(&header, body)
}

/// Insert frames the server must refuse as `bad_request`, by what is wrong.
fn hostile_requests() -> Vec<(&'static str, Vec<u8>)> {
    let cells = [7u8; 16];
    let domain = "[0:1,0:1,0:0]";
    vec![
        ("header length past the end of the frame", {
            let mut p = insert_frame(domain, 0, "[16]", &cells);
            p[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
            p
        }),
        (
            "part lengths short of the frame",
            insert_frame(domain, 0, "[15]", &cells),
        ),
        (
            "a byte after a valid part",
            insert_frame(domain, 0, "[16]", &[&cells[..], &[0]].concat()),
        ),
        (
            "part lengths past the frame",
            insert_frame(domain, 0, "[4611686018427387904]", &cells),
        ),
        (
            "cells_part out of range",
            insert_frame(domain, 1, "[16]", &cells),
        ),
        (
            "cells_part far out of range",
            insert_frame(domain, u64::MAX, "[16]", &cells),
        ),
        (
            "part not a whole number of cells",
            insert_frame(domain, 0, "[15]", &cells[..15]),
        ),
        ("empty part", insert_frame(domain, 0, "[0]", &[])),
        (
            "unparseable domain",
            insert_frame("[0:1,0:1", 0, "[16]", &cells),
        ),
        (
            "domain of 2^64 cells per axis",
            insert_frame(
                "[-9223372036854775808:9223372036854775807,0:1,0:0]",
                0,
                "[16]",
                &cells,
            ),
        ),
        (
            "domain of 2^62 cells",
            insert_frame("[0:4611686018427387903,0:0,0:0]", 0, "[16]", &cells),
        ),
    ]
}

#[test]
fn hostile_request_frames_are_bad_requests_on_both_endpoints() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cube = Array::from_fn("[0:3,0:3,0:3]".parse().unwrap(), |p| p[0] as u32).unwrap();
    let endpoints = endpoints::both(
        "cube",
        &MddType::new(CellType::of::<u32>(), "[0:*,0:*,0:*]".parse().unwrap()),
        &Scheme::Aligned(AlignedTiling::regular(3, 256)),
        &cube,
        2,
        &ServerConfig::default(),
    );
    for (kind, handle) in endpoints {
        let mut raw = endpoints::Raw::connect(handle.addr());
        raw.call(r#"{"id":1,"op":"ping"}"#);
        for (what, frame) in hostile_requests() {
            let mut response = Vec::new();
            let largest = largest_allocation_during(|| response = raw.frame(&frame));
            let doc = Json::parse(std::str::from_utf8(&response).unwrap()).unwrap();
            assert_eq!(
                doc.get("error").and_then(Json::as_str),
                Some("bad_request"),
                "{kind:?}: {what}: {doc}"
            );
            assert!(
                largest > 0 && largest < ALLOCATION_BOUND,
                "{kind:?}: {what}: a {largest}-byte allocation"
            );
        }
        // A well-formed binary insert still lands, and the connection
        // survived every refusal.
        let strip = Array::from_fn("[4:4,0:3,0:3]".parse().unwrap(), |p| p[1] as u32).unwrap();
        let ok = insert_frame("[4:4,0:3,0:3]", 0, "[64]", strip.bytes());
        let doc = Json::parse(std::str::from_utf8(&raw.frame(&ok)).unwrap()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{doc}");
        assert_eq!(raw.error_of(r#"{"id":8,"op":"ping"}"#), None);
        handle.shutdown();
    }
}

#[test]
fn byte_mutated_insert_frames_get_an_answer() {
    // A valid two-part insert (an unnamed part, then the cells), mutated at
    // random: every frame gets a response, never a dropped connection.
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cube = Array::from_fn("[0:3,0:3,0:3]".parse().unwrap(), |p| p[0] as u32).unwrap();
    let [(_, single), (_, cluster)] = endpoints::both(
        "cube",
        &MddType::new(CellType::of::<u32>(), "[0:*,0:*,0:*]".parse().unwrap()),
        &Scheme::Aligned(AlignedTiling::regular(3, 256)),
        &cube,
        2,
        &ServerConfig::default(),
    );
    let cells: Vec<u8> = (0..64).collect();
    let valid = insert_frame(
        "[4:4,0:3,0:3]",
        1,
        "[5,64]",
        &[b"extra", &cells[..]].concat(),
    );
    let mut rng = Rng::seed_from_u64(0x6d75_7461);
    for handle in [&single, &cluster] {
        let mut raw = endpoints::Raw::connect(handle.addr());
        for _ in 0..300 {
            let mut frame = valid.clone();
            for _ in 0..rng.gen_range(1..=3u32) {
                let at = rng.gen_range(0..frame.len());
                frame[at] = rng.next_u64() as u8;
            }
            let response = raw.frame(&frame);
            let doc = Json::parse(std::str::from_utf8(&response).unwrap()).unwrap();
            let ok = doc.get("ok").and_then(Json::as_bool) == Some(true);
            let code = doc.get("error").and_then(Json::as_str);
            assert!(
                ok || matches!(code, Some("bad_request" | "engine")),
                "{doc}"
            );
        }
    }
    single.shutdown();
    cluster.shutdown();
}

/// Builds a response payload for the request with the given id.
type Respond = fn(u64) -> Vec<u8>;

/// A server that answers every request on one connection with the next
/// payload `respond` builds from the request's id.
fn fake_server(respond: Vec<Respond>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer: TcpStream = stream;
        for build in respond {
            let Some(request) = read_frame(&mut reader).unwrap() else {
                return;
            };
            let (doc, _) = decode_message(request).unwrap();
            let id = doc.get("id").and_then(Json::as_u64).unwrap();
            write_frame(&mut writer, &build(id)).unwrap();
        }
    });
    (addr, thread)
}

/// A query response whose array value is `value_fields`, framed with
/// `parts` by the real encoder.
fn array_response(id: u64, value_fields: &str, parts: &[&[u8]]) -> Vec<u8> {
    let value = Json::parse(&format!(r#"{{"kind":"array",{value_fields}}}"#)).unwrap();
    let doc = ok_response(id, Json::obj(vec![("value", value)]));
    let mut framed = Vec::new();
    Outgoing::new(doc, parts).write_to(&mut framed).unwrap();
    framed.drain(..4);
    framed
}

#[test]
fn hostile_response_frames_are_protocol_errors() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let responses: Vec<(&str, Respond)> = vec![
        ("header length past the end of the frame", |id| {
            let mut p = array_response(
                id,
                r#""domain":"[0:1]","cell_size":4,"cells_part":0"#,
                &[&[0; 8]],
            );
            p[1..5].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
            p
        }),
        ("part lengths short of the frame", |id| {
            let header = format!(
                r#"{{"id":{id},"ok":true,"result":{{"value":{{"kind":"array","domain":"[0:1]","cell_size":4,"cells_part":0}}}},"parts":[7]}}"#
            );
            parts_payload(&header, &[0; 8])
        }),
        ("a byte after a valid part", |id| {
            let header = format!(
                r#"{{"id":{id},"ok":true,"result":{{"value":{{"kind":"array","domain":"[0:1]","cell_size":4,"cells_part":0}}}},"parts":[8]}}"#
            );
            parts_payload(&header, &[0; 9])
        }),
        ("part lengths past the frame", |id| {
            let header = format!(
                r#"{{"id":{id},"ok":true,"result":{{"value":{{"kind":"array","domain":"[0:1]","cell_size":4,"cells_part":0}}}},"parts":[4611686018427387904]}}"#
            );
            parts_payload(&header, &[0; 8])
        }),
        ("cells_part out of range", |id| {
            array_response(
                id,
                r#""domain":"[0:1]","cell_size":4,"cells_part":1"#,
                &[&[0; 8]],
            )
        }),
        ("no cells at all", |id| {
            array_response(id, r#""domain":"[0:1]","cell_size":4"#, &[])
        }),
        ("part not domain cells x cell_size", |id| {
            array_response(
                id,
                r#""domain":"[0:1]","cell_size":4,"cells_part":0"#,
                &[&[0; 12]],
            )
        }),
        ("zero cell_size", |id| {
            array_response(
                id,
                r#""domain":"[0:1]","cell_size":0,"cells_part":0"#,
                &[&[]],
            )
        }),
        ("unparseable domain", |id| {
            array_response(
                id,
                r#""domain":"[0:","cell_size":4,"cells_part":0"#,
                &[&[0; 8]],
            )
        }),
        ("domain of 2^62 cells", |id| {
            array_response(
                id,
                r#""domain":"[0:4611686018427387903]","cell_size":4,"cells_part":0"#,
                &[&[0; 8]],
            )
        }),
    ];
    let (addr, server) = fake_server(responses.iter().map(|(_, r)| *r).collect());
    let mut client = Client::connect(addr).unwrap();
    for (what, _) in &responses {
        let mut got = None;
        let largest = largest_allocation_during(|| got = Some(client.query("SELECT a FROM a")));
        match got.unwrap() {
            Err(ClientError::Protocol(_)) => {}
            other => panic!("{what}: expected a protocol error, got {other:?}"),
        }
        assert!(
            largest < ALLOCATION_BOUND,
            "{what}: a {largest}-byte allocation"
        );
    }
    drop(client);
    server.join().unwrap();
}
