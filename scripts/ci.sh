#!/usr/bin/env bash
# Canonical CI gate: hermetic build + full test suite + formatting, a quick
# pass of the benchmark and the paper-reproduction binary, then an
# end-to-end smoke test of the TCP serving layer on the loopback interface.
#
# The workspace has zero external dependencies (everything lives in
# crates/testkit), so `--offline` must always succeed — a build that
# reaches for the network is a regression. The smoke test stays offline
# too: the server binds 127.0.0.1 on an ephemeral port.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The codec kernels, the run walker, the CRC-32 fold and the buffer pool's
# lent frames and miss path ship with overflow checks off and full
# optimisation, and wrapping arithmetic, inlined SIMD or a race there fails
# differently (silently) than under the debug build above, so their crates
# run again as they ship.
cargo test -q --offline --release -p tilestore-compress -p tilestore-geometry \
    -p tilestore-testkit -p tilestore-storage
# The buffer-pool concurrency suite (stale-frame race repro + cross-shard
# freshness property) is the regression gate for the sharded cache; run it
# by name so a filtered or partial test invocation can never skip it.
cargo test -q --offline -p tilestore-storage --test concurrency
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# --- One serving core: the cluster endpoint is a `Service` backend of the
# server crate's loop, not a copy of it. A second listener or a second
# interruptible frame reader in non-test sources is the fork coming back.
serving_sources() { find crates/server/src crates/cluster/src -name '*.rs' -print0; }
for needle in 'TcpListener::bind' 'fn read_frame_interruptible'; do
    count=$(serving_sources | xargs -0 cat | grep -cF "$needle" || true)
    [ "$count" -le 1 ] || { echo "serving core forked: $count x '$needle'" >&2; exit 1; }
done

# --- One body per engine operation: insert and retile pick between the
# pool and the caller's thread only inside `tilestore_exec::scatter_on`. A
# branch on the executor in non-test engine code (everything before a
# file's `#[cfg(test)]`) is the fork coming back.
non_test() { for f in "$@"; do sed '/^#\[cfg(test)\]/q' "$f"; done; }
engine_non_test() { non_test crates/engine/src/*.rs; }
for needle in 'if let Some(pool)' 'executor.filter(' 'pool.scatter('; do
    if engine_non_test | grep -F "$needle" >/dev/null; then
        echo "engine forked on the executor: '$needle' in crates/engine/src" >&2
        exit 1
    fi
done

# --- One plan per statement: `Snapshot::plan` validates, decides every
# candidate tile and cuts the reads once; range reads, condensers and
# EXPLAIN all consume that plan. EXPLAIN's own candidate walk or coalescing
# pass, or range reads cut into executor bands, in non-test snapshot.rs,
# explain.rs or aggregate.rs is a second plan coming back; so is a second
# place in non-test engine code that cuts read batches.
plan_consumers() {
    non_test crates/engine/src/snapshot.rs crates/engine/src/explain.rs \
        crates/engine/src/aggregate.rs
}
for needle in explain_candidates mark_coalesced scatter_on; do
    # No `grep -q`: exiting at the first match would fail the pipeline
    # under `pipefail` and hide the match.
    if plan_consumers | grep -F "$needle" >/dev/null; then
        echo "second plan: '$needle' in snapshot.rs, explain.rs or aggregate.rs" >&2
        exit 1
    fi
done
batch_cuts=$(engine_non_test | grep -F 'read_batches(' | grep -cvF 'fn read_batches(' || true)
if [ "$batch_cuts" -gt 1 ]; then
    echo "read batches cut at $batch_cuts call sites in crates/engine/src" >&2
    exit 1
fi

# --- One read protocol in the buffer pool: every pool read runs the one
# three-pass body, and only its pass 3 installs. A second call to
# `PoolInner::install` in non-test pool code is a copy of the protocol
# (and of its stale-frame guard) that the freshness tests do not cover.
installs=$(non_test crates/storage/src/buffer.rs | grep -cF '.install(' || true)
if [ "$installs" -ne 1 ]; then
    echo "buffer pool read protocol forked: $installs calls to install in buffer.rs" >&2
    exit 1
fi

# --- No pins: a reader keeps a pool frame alive by holding the frame the
# pool lent it, so the pool has no pin table to leak or underflow. A pin
# API in crates/*/src is that dead machinery coming back.
for needle in pin_page pinned_pages; do
    if grep -rqF "$needle" crates/*/src; then
        echo "pin API is back: '$needle' in crates/*/src" >&2
        exit 1
    fi
done

# --- One I/O accounting path: every read returns the counts of that call
# and a query adds up its own. Diffing the store's shared totals around a
# query counts whatever ran concurrently, so no snapshot/`since` pair may
# come back into non-test engine code, nor the per-batch `RunRead` summary.
if engine_non_test | grep -F -e '.since(' -e 'stats().snapshot()' >/dev/null; then
    echo "per-query I/O diffed from shared counters in crates/engine/src" >&2
    exit 1
fi
if grep -rqw RunRead crates/*/src; then
    echo "RunRead is back in crates/*/src" >&2
    exit 1
fi

# --- One statement resolver: rasql decides what a statement means and the
# coordinator calls it. Axis selections, operator tables or condenser kinds
# spelled out in non-test cluster code are its copy of rasql coming back,
# and the AST carries the engine's operators, not a mirror of them.
for needle in 'AxisSelect::Point' 'AxisSelect::All' 'BinOp::Add' 'AggKind::CountNonDefault'; do
    if non_test crates/cluster/src/*.rs | grep -F "$needle" >/dev/null; then
        echo "coordinator mirrors rasql: '$needle' in crates/cluster/src" >&2
        exit 1
    fi
done
if grep -rqw InducedOp crates/*/src; then
    echo "InducedOp is back in crates/*/src" >&2
    exit 1
fi

# --- One pruning structure per object: the tile synopsis. The bitmap value
# index copied the synopses' bin masks, rewrote a blob on every write and
# pruned no tile the synopsis rules did not; any of its names in
# crates/*/src is that copy coming back.
for needle in BitmapIndex value_index Prune::Bitmap missing_index_blobs bitmap-prune; do
    if grep -rqF "$needle" crates/*/src; then
        echo "bitmap value index is back: '$needle' in crates/*/src" >&2
        exit 1
    fi
done

# --- In-tree clients move cells as binary parts: the hex codec is the JSON
# debug surface of the server, never on the `Client` or coordinator path.
if non_test crates/server/src/client.rs crates/cluster/src/*.rs | grep -E 'hex_(en|de)code' >/dev/null; then
    echo "hex codec on an in-tree client path (client.rs or crates/cluster/src)" >&2
    exit 1
fi

# --- One benchmark harness: `benchmark/` measures, `repro` regenerates the
# paper's tables. Bench binaries beside `repro`, `crates/bench/benches`, a
# bench script or root `BENCH_*.json` reports are the old harness coming back.
stray_bins=$(find crates/bench/src/bin -type f ! -name repro.rs)
if [ -n "$stray_bins" ]; then
    echo "bench binary beside repro: $stray_bins" >&2
    exit 1
fi
for old in crates/bench/benches scripts/bench*.sh BENCH_*.json; do
    if [ -e "$old" ]; then
        echo "superseded bench harness is back: $old" >&2
        exit 1
    fi
done

# --- Keep both harnesses compiling and running against today's APIs.
# The benchmark's tests drive its binary, so they run on one CPU the way
# `run.sh` runs it: a served query's response carries its own buffer-pool
# hits and misses, and the determinism test compares the frame sizes.
cargo test -q --offline --manifest-path benchmark/Cargo.toml --no-run
bench_cpu=$(awk '/^Cpus_allowed_list/ { n = split($2, a, /[,-]/); print a[n] }' /proc/self/status)
taskset -c "$bench_cpu" cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --workload all --quick >/dev/null
cargo run -q --release --offline -p tilestore-bench --bin repro -- table2 >/dev/null

# --- Server smoke test: serve a small database, query it over TCP, shut
# down gracefully through the client, and verify the files stayed clean.
TILESTORE=target/release/tilestore
SMOKE_DIR=$(mktemp -d)
SERVE_LOG="$SMOKE_DIR/serve.log"
SERVER_PID=""
SHARD0_PID=""
SHARD1_PID=""
COORD_PID=""
cleanup() {
    for pid in "$SERVER_PID" "$SHARD0_PID" "$SHARD1_PID" "$COORD_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT

# Polls a serve log for the bound address; dies if the process exits first.
wait_addr() {
    local log=$1 pid=$2 addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^listening on //p' "$log")
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; echo "server died during startup" >&2; return 1; }
        sleep 0.1
    done
    echo "server never reported its address" >&2
    return 1
}

"$TILESTORE" "$SMOKE_DIR/db" init >/dev/null
"$TILESTORE" "$SMOKE_DIR/db" create img u8 2 'aligned:[*,1]:8' >/dev/null
"$TILESTORE" "$SMOKE_DIR/db" load img '[0:63,0:63]' gradient >/dev/null

# The checks below read a command's whole output with `grep -F … >/dev/null`,
# never `grep -q`: under `pipefail`, `grep -q` exiting at the first match
# can kill the writer with SIGPIPE and fail a check whose text is there.

# Slow-query threshold 0: every statement lands in the slow log, so the
# ops-plane checks below observe entries deterministically.
"$TILESTORE" "$SMOKE_DIR/db" serve 127.0.0.1:0 0 >"$SERVE_LOG" &
SERVER_PID=$!
ADDR=$(wait_addr "$SERVE_LOG" "$SERVER_PID")
echo "smoke server on $ADDR"

"$TILESTORE" client "$ADDR" ping | grep -F pong >/dev/null
"$TILESTORE" client "$ADDR" query 'SELECT sum_cells(img) FROM img' >/dev/null
"$TILESTORE" client "$ADDR" query 'SELECT img[0:3,0:3] FROM img' >/dev/null
"$TILESTORE" client "$ADDR" query 'SELECT count_cells(img) FROM img WHERE img > 200' >/dev/null
"$TILESTORE" client "$ADDR" info img | grep -F '"tiles"' >/dev/null
"$TILESTORE" client "$ADDR" fsck >/dev/null
# --- Ops plane: the planner report, the metrics snapshot with percentile
# summaries, the health check, and a slow-query entry for a statement the
# smoke test just ran (threshold 0 records everything).
"$TILESTORE" client "$ADDR" explain 'SELECT count_cells(img) FROM img WHERE img > 200' | grep -F '"plan"' >/dev/null
"$TILESTORE" client "$ADDR" explain 'SELECT sum_cells(img) FROM img' --analyze | grep -F '"analyze"' >/dev/null
"$TILESTORE" client "$ADDR" metrics | grep -F 'engine.queries' >/dev/null
"$TILESTORE" client "$ADDR" metrics | grep -F '"p99"' >/dev/null
"$TILESTORE" client "$ADDR" metrics | grep -F 'pool.second_touch_installs' >/dev/null
"$TILESTORE" client "$ADDR" health | grep -F '"status": "ok"' >/dev/null
"$TILESTORE" client "$ADDR" top | grep -F 'count_cells' >/dev/null
test -s "$SMOKE_DIR/db/slow_queries.log"
"$TILESTORE" client "$ADDR" shutdown >/dev/null
wait "$SERVER_PID"
SERVER_PID=""
"$TILESTORE" "$SMOKE_DIR/db" query 'SELECT max_cells(img) FROM img WHERE img < 100' | grep -F pruned >/dev/null
# --- Defrag smoke: rewrite the tile BLOBs onto contiguous pages (full,
# then budget-paced), and verify queries still answer and fsck stays clean.
"$TILESTORE" "$SMOKE_DIR/db" retile img --defrag | grep -F defragmented >/dev/null
"$TILESTORE" "$SMOKE_DIR/db" retile img --defrag:4 | grep -F defragmented >/dev/null
"$TILESTORE" "$SMOKE_DIR/db" query 'SELECT sum_cells(img) FROM img' | grep -F 'tiles' >/dev/null
"$TILESTORE" "$SMOKE_DIR/db" fsck >/dev/null
echo "server smoke test passed"

# --- Cluster smoke test: a 2-shard store split at row 16, each shard
# served by its own process, with a scatter-gather coordinator in front.
# A seam-straddling query must come back as one stitched slab carrying the
# per-shard epoch vector.
CLUSTER="$SMOKE_DIR/cluster"
"$TILESTORE" "$CLUSTER" cluster-init 2 0 16 >/dev/null
"$TILESTORE" "$CLUSTER" create img u32 2 'regular:4' >/dev/null
"$TILESTORE" "$CLUSTER" load img '[0:31,0:31]' gradient >/dev/null
# The coordinator answers directly over local shards first.
"$TILESTORE" "$CLUSTER" query 'SELECT img[14:17,2:5] FROM img' | grep -F 'array over [14:17,2:5]' >/dev/null
"$TILESTORE" "$CLUSTER" explain 'SELECT img FROM img' | grep -F 'shard 1' >/dev/null
# Defrag shares the retile grammar on a cluster root; the seam query must
# still stitch afterwards.
"$TILESTORE" "$CLUSTER" retile img --defrag | grep -F 'defragmented on 2 shard(s)' >/dev/null
"$TILESTORE" "$CLUSTER" query 'SELECT img[14:17,2:5] FROM img' | grep -F 'array over [14:17,2:5]' >/dev/null

# Each shard directory is a plain database; serve the two shards as
# independent processes, then the coordinator over their addresses.
"$TILESTORE" "$CLUSTER/shard-0" serve 127.0.0.1:0 >"$SMOKE_DIR/shard0.log" &
SHARD0_PID=$!
"$TILESTORE" "$CLUSTER/shard-1" serve 127.0.0.1:0 >"$SMOKE_DIR/shard1.log" &
SHARD1_PID=$!
SHARD0_ADDR=$(wait_addr "$SMOKE_DIR/shard0.log" "$SHARD0_PID")
SHARD1_ADDR=$(wait_addr "$SMOKE_DIR/shard1.log" "$SHARD1_PID")
"$TILESTORE" "$CLUSTER" cluster-serve 127.0.0.1:0 "$SHARD0_ADDR,$SHARD1_ADDR" >"$SMOKE_DIR/coord.log" &
COORD_PID=$!
COORD_ADDR=$(wait_addr "$SMOKE_DIR/coord.log" "$COORD_PID")
echo "cluster coordinator on $COORD_ADDR (shards $SHARD0_ADDR, $SHARD1_ADDR)"

"$TILESTORE" client "$COORD_ADDR" ping | grep -F pong >/dev/null
# Seam-straddling read through the full remote scatter-gather path.
"$TILESTORE" client "$COORD_ADDR" query 'SELECT img[14:17,2:5] FROM img' >/dev/null
"$TILESTORE" client "$COORD_ADDR" query 'SELECT sum_cells(img) FROM img' >/dev/null
"$TILESTORE" client "$COORD_ADDR" explain 'SELECT img FROM img' | grep -F '"shard"' >/dev/null
"$TILESTORE" client "$COORD_ADDR" cluster | grep -F '"shards": 2' >/dev/null
# The coordinator is a backend of the same serving core, so it answers the
# ops plane too and drains on a client's `shutdown` like a single server.
"$TILESTORE" client "$COORD_ADDR" metrics | grep -F 'engine.queries' >/dev/null
"$TILESTORE" client "$COORD_ADDR" health | grep -F '"status": "ok"' >/dev/null
"$TILESTORE" client "$COORD_ADDR" top | grep -F 'slow queries' >/dev/null
"$TILESTORE" client "$COORD_ADDR" shutdown >/dev/null
wait "$COORD_PID"
COORD_PID=""
for pid in "$SHARD0_PID" "$SHARD1_PID"; do kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null || true; done
SHARD0_PID=""
SHARD1_PID=""
echo "cluster smoke test passed"
