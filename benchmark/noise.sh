#!/usr/bin/env bash
# Runs every workload N times (default 10) on the current commit, each run
# with another seed as the driver does, and prints per workload x end-to-end
# metric: median, quartiles, spread (interquartile range / median) and the
# largest relative deviation from the median.
#
# Checks what the driver checks, on the gated workloads (those in
# BENCHMARK.json): every spread but that of setup_s stays within the
# metric's bound, and, given the table of an earlier set, no median, that of
# setup_s included, is worse than the earlier one by more than the bound.
# Exits non-zero otherwise. The ungated `ingest_commit` is run and printed
# the same way; nothing is checked on it.
#
#   benchmark/noise.sh [N] [first-seed] [table-of-an-earlier-set.md]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-10}"
seed0="${2:-1}"
earlier="${3:-}"
spec="$here/../BENCHMARK.json"
gated="$(python3 -c 'import json, sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")"
runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT

# One process per workload and run, as the driver does it: `peak_rss_mib`
# is a high-water mark of the process.
for ((i = 0; i < n; i++)); do
  echo "run $((i + 1))/$n (seed $((seed0 + i)))" >&2
  for w in $gated ingest_commit; do
    echo "$w $("$here/run.sh" --workload "$w" --seed "$((seed0 + i))" --trace 0 | tail -n 1)" >>"$runs"
  done
done

python3 - "$spec" "$runs" "$earlier" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
metrics = {m["name"]: m for m in spec["end_to_end"]}
gated = [w["name"] for w in spec["workloads"]]
by = {}
for line in open(sys.argv[2]):
    workload, result = line.split(" ", 1)
    by.setdefault(workload, []).append(json.loads(result)["metrics"])
# Medians of an earlier set, read back from the table it printed.
before = {}
if sys.argv[3]:
    for line in open(sys.argv[3]):
        cells = [c.strip() for c in line.strip("|\n").split("|")]
        if len(cells) >= 3 and cells[1] in metrics:
            before[cells[0], cells[1]] = float(cells[2])

bad = 0
print("| workload | metric | median | q1 | q3 | spread | max dev | bound | vs earlier set |")
print("|---|---|---:|---:|---:|---:|---:|---:|---:|")
for w, runs in by.items():
    for name, m in metrics.items():
        v = [r[name]["value"] for r in runs]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        dev = max(abs(x - med) for x in v) / med
        notes = []
        if w in gated and name != "setup_s" and spread > m["bound"]:
            notes.append("spread over")
        shift = ""
        if (w, name) in before:
            change = med / before[w, name] - 1
            shift = f"{change:+.1%}"
            worse = change if m["better"] == "lower" else -change
            if w in gated and worse > m["bound"]:
                notes.append("median over")
        bad += len(notes)
        flag = " **" + ", ".join(notes) + "**" if notes else ""
        bound = m["bound"] if w in gated else "ungated"
        print(f"| {w} | {name} | {med:.4f} | {q1:.4f} | {q3:.4f} | {spread:.4f} | {dev:.4f} | {bound} | {shift}{flag} |")
sys.exit(1 if bad else 0)
PY
