//! The cluster serve endpoint: a [`Coordinator`] as a [`Service`] backend of
//! the one serving core in `tilestore-server`, so clients are oblivious to
//! sharding and get a single server's ops plane. Query responses also carry
//! `shard_epochs`, the agreed per-shard epoch set of the scatter, and a
//! `cluster` op reports the shard map and member health.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tilestore_engine::Array;
use tilestore_server::wire::{with_epoch, with_field, ErrorCode};
use tilestore_server::{
    serve_backend, Answer, Call, ServerConfig, ServerHandle, Service, ServiceError, ServiceResult,
    Serving,
};
use tilestore_storage::PageStore;
use tilestore_testkit::{Json, ToJson};

use crate::coordinator::{epochs_json, ClusterStatement, ClusterWrite, Coordinator};
use crate::error::ClusterError;

/// Serves `coord` on `addr` (e.g. `"127.0.0.1:0"`). `root` is the cluster
/// directory for the final local-shard save; pass `None` for in-memory or
/// remote shards. The coordinator scatters on the pool it was built with.
///
/// # Errors
/// Socket bind/configuration errors.
pub fn serve_cluster<S: PageStore + 'static>(
    coord: Arc<Coordinator<S>>,
    root: Option<PathBuf>,
    addr: &str,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_backend(coord, root, addr, &config)
}

/// Maps a cluster failure to its wire error class.
impl From<ClusterError> for ServiceError {
    fn from(e: ClusterError) -> Self {
        let code = match e {
            ClusterError::Query(q) => return q.into(),
            ClusterError::ShardUnavailable { .. } => ErrorCode::ShardUnavailable,
            ClusterError::Deadline { .. } => ErrorCode::Deadline,
            ClusterError::Remote { .. } | ClusterError::Io(_) => ErrorCode::Engine,
            ClusterError::Config(_) | ClusterError::Unsupported { .. } => ErrorCode::BadRequest,
        };
        ServiceError::new(code, e.to_string())
    }
}

/// A write receipt as a response: merged counters at the newest shard epoch.
fn write_result<T>(write: &ClusterWrite<T>, merged: &impl ToJson) -> Json {
    let epoch = write.per_shard.iter().map(|(_, e, _)| *e).max();
    with_epoch(merged.to_json(), epoch.unwrap_or(0))
}

impl<S: PageStore + 'static> Service for Coordinator<S> {
    type Session = ();

    fn query(&self, _session: &mut (), q: &str, call: &Call<'_>) -> ServiceResult<Answer> {
        Ok(match self.execute_with(q, call.deadline_ms)? {
            ClusterStatement::Value(v) => {
                let epoch = v.epochs.iter().map(|e| e.epoch).max().unwrap_or(0);
                let mut answer = Answer::value(v.value, v.stats, epoch, call);
                answer.result = with_field(answer.result, "shard_epochs", epochs_json(&v.epochs));
                answer
            }
            ClusterStatement::Explain(e) => Answer {
                result: e.to_json(),
                epoch: e.shards.iter().map(|s| s.epoch).max().unwrap_or(0),
                stats: e.analyze.map(|(stats, _)| stats),
                cells: None,
            },
        })
    }

    fn insert(&self, object: &str, array: &Array) -> ServiceResult<Json> {
        let write = Coordinator::insert(self, object, array)?;
        Ok(write_result(&write, &write.merged()))
    }

    fn retile(&self, object: &str, spec: &str) -> ServiceResult<Json> {
        let write = Coordinator::retile(self, object, spec)?;
        Ok(write_result(&write, &write.merged()))
    }

    fn info(&self, _session: &mut (), object: &str, _call: &Call<'_>) -> ServiceResult<Json> {
        Ok(Coordinator::info(self, object)?)
    }

    fn stats(&self) -> ServiceResult<Json> {
        let names = self.object_names()?.into_iter().map(Json::Str).collect();
        Ok(Json::obj(vec![
            ("objects", Json::Array(names)),
            ("cluster", self.status()),
        ]))
    }

    fn health(&self, serving: Serving) -> Json {
        let status = self.status();
        let healthy = |m: &Json| m.get("healthy").and_then(Json::as_bool) == Some(true);
        let members = status.get("members").and_then(Json::as_array);
        let all_healthy = members.is_some_and(|m| m.iter().all(healthy));
        let word = if all_healthy { "ok" } else { "degraded" };
        Json::obj(vec![
            ("status", Json::Str(word.to_string())),
            ("cluster", status),
            ("inflight", Json::UInt(serving.inflight)),
            ("slow_queries", Json::UInt(serving.slow_queries)),
            ("durable", Json::Bool(serving.durable)),
        ])
    }

    fn backend_op(&self, _session: &mut (), op: &str, _call: &Call<'_>) -> ServiceResult<Json> {
        match op {
            "cluster" => Ok(self.status()),
            other => Err(ServiceError::unknown_op(other)),
        }
    }

    fn save(&self, root: &Path) -> ServiceResult<()> {
        Ok(self.save_local(root)?)
    }
}
