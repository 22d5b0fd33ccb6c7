#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]
#
# Prints every metric by name with unit and value, after checking outputs;
# the last line of each workload is the result object the driver reads.
# Exits non-zero if the build fails or any op failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"

# Reuse the repo's own target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$repo/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/tilestore-benchmark" ;;
  *) bin="$PWD/$CARGO_TARGET_DIR/release/tilestore-benchmark" ;;
esac

# Everything the run writes stays under benchmark/out: reports, traces, and
# (through TMPDIR, which tilestore-testkit's tempdir honours) the databases.
mkdir -p "$here/out/tmp"
export TMPDIR="$here/out/tmp"
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)"

# One CPU for the whole process. With two vCPUs on a shared host, a request
# that hops between them pays a wake-up whose cost swings 2x from run to
# run; on one CPU the same hand-offs are plain context switches and two
# runs of the same code agree. The highest-numbered allowed CPU is the one
# least likely to serve device interrupts. Unpinned numbers are another
# benchmark's numbers, so without `taskset` there is no run.
command -v taskset >/dev/null || { echo "run.sh: taskset (util-linux) is required" >&2; exit 1; }
cpu="$(awk '/^Cpus_allowed_list/ { n = split($2, a, /[,-]/); print a[n] }' /proc/self/status)"

status=0
taskset -c "$cpu" "$bin" "$@" || status=$?
rm -rf "$here/out/tmp"
exit "$status"
