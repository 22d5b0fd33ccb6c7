//! The two backends of the one serving core, set up over the same data, for
//! tests whose claim must hold on either: a single engine behind `serve`
//! and a 2-shard in-process coordinator behind `serve_cluster`.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use tilestore_cluster::{serve_cluster, Coordinator, ShardBackend, ShardMap};
use tilestore_engine::{Array, Database, MddType, SharedDatabase};
use tilestore_exec::ThreadPool;
use tilestore_server::wire::{read_frame, write_frame};
use tilestore_server::{serve, ServerConfig, ServerHandle};
use tilestore_testkit::Json;
use tilestore_tiling::Scheme;

/// Which backend answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Single,
    Coordinator,
}

/// Serves object `name` holding `cells` from both kinds of endpoint; the
/// coordinator's two shards split axis 0 at `cut`.
pub fn both(
    name: &str,
    mdd_type: &MddType,
    scheme: &Scheme,
    cells: &Array,
    cut: i64,
    config: &ServerConfig,
) -> [(Kind, ServerHandle); 2] {
    let db = Database::in_memory().unwrap();
    db.create_object(name, mdd_type.clone(), scheme.clone())
        .unwrap();
    db.insert(name, cells).unwrap();
    let single = serve(SharedDatabase::new(db), None, "127.0.0.1:0", config.clone()).unwrap();

    let shards = (0..2)
        .map(|_| ShardBackend::Local(SharedDatabase::new(Database::in_memory().unwrap())))
        .collect();
    let map = ShardMap::new(0, vec![cut]).unwrap();
    let coord = Coordinator::new(map, shards, Arc::new(ThreadPool::new(2))).unwrap();
    coord
        .create_object(name, mdd_type.clone(), scheme.clone())
        .unwrap();
    coord.insert(name, cells).unwrap();
    let cluster = serve_cluster(Arc::new(coord), None, "127.0.0.1:0", config.clone()).unwrap();

    [(Kind::Single, single), (Kind::Coordinator, cluster)]
}

/// A connection speaking raw frames, so a test controls the request object
/// exactly and sees the whole response envelope.
pub struct Raw {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Raw {
    pub fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).unwrap();
        Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: BufWriter::new(stream),
        }
    }

    pub fn call(&mut self, payload: &str) -> Json {
        let frame = self.frame(payload.as_bytes());
        Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap()
    }

    /// Sends one request payload and returns the response payload as sent.
    pub fn frame(&mut self, payload: &[u8]) -> Vec<u8> {
        write_frame(&mut self.writer, payload).unwrap();
        read_frame(&mut self.reader).unwrap().unwrap()
    }

    /// The `error` code of a refusal (`None` for an `ok` response).
    pub fn error_of(&mut self, payload: &str) -> Option<String> {
        let resp = self.call(payload);
        resp.get("error").and_then(Json::as_str).map(str::to_string)
    }
}
