//! Graceful shutdown must not wait on a peer that stalls mid-frame: the
//! drain joins every session, so a session that never gives up on a half-
//! sent frame turns `shutdown()` (and `Drop`) into a hang. The cluster
//! endpoint's own copy of the frame reader once did exactly that.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tilestore_engine::{Array, CellType, MddType};
use tilestore_server::{ServerConfig, ServerHandle};
use tilestore_tiling::{AlignedTiling, Scheme};

mod endpoints;

/// Opens a connection, starts a 100-byte frame, sends one byte of it and
/// stalls; returns how long `shutdown()` then took.
fn shutdown_with_a_stalled_peer(handle: ServerHandle) -> Duration {
    let mut peer = TcpStream::connect(handle.addr()).unwrap();
    peer.write_all(&100u32.to_le_bytes()).unwrap();
    peer.write_all(b"{").unwrap();
    peer.flush().unwrap();
    // Let the session read the prefix, so shutdown finds it mid-frame.
    std::thread::sleep(Duration::from_millis(200));

    let (done, finished) = mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done.send(started.elapsed());
    });
    let took = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown() still blocked after 10 s behind a stalled peer");
    drop(peer);
    took
}

#[test]
fn a_peer_stalled_mid_frame_does_not_block_shutdown() {
    let endpoints = endpoints::both(
        "grid",
        &MddType::new(CellType::of::<u32>(), "[0:*,0:*]".parse().unwrap()),
        &Scheme::Aligned(AlignedTiling::regular(2, 256)),
        &Array::from_fn("[0:3,0:3]".parse().unwrap(), |p| (p[0] * 4 + p[1]) as u32).unwrap(),
        2,
        &ServerConfig::default(),
    );
    // Both at once: each waits out the same ~5 s grace period.
    std::thread::scope(|s| {
        for (kind, handle) in endpoints {
            s.spawn(move || {
                let took = shutdown_with_a_stalled_peer(handle);
                // The frame in progress is given its grace period first.
                assert!(took >= Duration::from_secs(2), "{kind:?}: {took:?}");
            });
        }
    });
}
