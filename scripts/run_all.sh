#!/usr/bin/env bash
# Builds, tests, and regenerates every paper table/figure. Each bench also
# writes a machine-readable JSON result under build/bench_results/, and the
# Table-3 headline run exports a Chrome trace (open in chrome://tracing).
set -euo pipefail
cd "$(dirname "$0")/.."
# Prefer Ninja on a fresh configure; an already-configured build tree keeps
# whatever generator it has (cmake rejects switching generators in place).
if [ ! -f build/CMakeCache.txt ] && command -v ninja > /dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j
ctest --test-dir build 2>&1 | tee test_output.txt

results_dir=build/bench_results
mkdir -p "$results_dir"
# Only run the actual bench executables: the build tree may also place
# directories or non-executable artifacts under build/bench/.
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    name="$(basename "$b")"
    name="${name#bench_}"
    extra=()
    if [ "$name" = "table3_nextgen" ]; then
      extra+=(--trace "$results_dir/table3_nextgen.trace.json")
    fi
    "$b" --json "$results_dir/$name.json" "${extra[@]}"
  fi
done 2>&1 | tee bench_output.txt

# Machine-readable summary: one line per bench, pulled from the JSON files.
python3 - "$results_dir" <<'PYEOF'
import json, os, sys

results_dir = sys.argv[1]
rows = []
for fname in sorted(os.listdir(results_dir)):
    if not fname.endswith(".json") or fname.endswith(".trace.json"):
        continue
    path = os.path.join(results_dir, fname)
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" in doc:  # google-benchmark output (micro primitives)
        rows.append((fname, f"{len(doc['benchmarks'])} microbenchmarks"))
        continue
    metrics = doc.get("metrics", {})
    digest = ", ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in list(metrics.items())[:3]
        if not isinstance(v, (dict, list)))
    rows.append((fname, digest or "(no headline metrics)"))

width = max((len(r[0]) for r in rows), default=0)
print("\n=== bench_results summary ===")
for name, digest in rows:
    print(f"  {name:<{width}}  {digest}")

# Table-3 headline: how each protocol rung moves the app vs inline Mimalloc.
t3_path = os.path.join(results_dir, "table3_nextgen.json")
if os.path.exists(t3_path):
    with open(t3_path) as f:
        m = json.load(f).get("metrics", {})
    sync = m.get("nextgen_speedup_pct")
    pred = m.get("nextgen_prediction_speedup_pct")
    pipe = m.get("nextgen_pipeline_speedup_pct")
    if None not in (sync, pred, pipe):
        print("\n=== Table 3 speedup vs Mimalloc (paper: +4.51%) ===")
        print(f"  sync protocol        {sync:+.2f}%")
        print(f"  + prediction stash   {pred:+.2f}%")
        print(f"  + pipelined refills  {pipe:+.2f}%   "
              f"(pipeline delta over sync: {pipe - sync:+.2f} pp)")
    carve = m.get("carve_cycles")
    if carve:
        print(f"  server carve cycles (sync rung): {carve:,}")
    with open(t3_path) as f:
        at = json.load(f).get("cycle_attribution")
    if at and at.get("total_cycles"):
        total = at["total_cycles"]
        print("\n=== Table 3 cycle attribution (flight recorder) ===")
        for key, label in (("client_path_cycles", "client path"),
                           ("sync_stall_cycles", "sync stall"),
                           ("ring_wait_cycles", "ring wait"),
                           ("server_carve_cycles", "server carve"),
                           ("server_drain_cycles", "server drain")):
            v = at.get(key, 0)
            print(f"  {label:<13} {v:>14,}  ({100.0 * v / total:5.1f}%)")
        print(f"  {'total':<13} {total:>14,}")
PYEOF

# Full flight-recorder report for the table-3 run: attribution breakdown,
# client x shard traffic matrix, and the end-of-run heap snapshot.
python3 scripts/report.py "$results_dir/table3_nextgen.json"
