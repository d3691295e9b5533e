#!/usr/bin/env python3
"""Render a bench --json result as readable text.

Usage: scripts/report.py build/bench_results/table3_nextgen.json [more.json ...]

Every section is optional: benches without a flight recorder (or
google-benchmark JSON from the micro primitives) still get their headline
metrics printed, and files produced by older builds render whatever they
have. Stdlib only.
"""

import json
import sys


def fmt(v):
    if isinstance(v, float):
        return f"{v:.4g}"
    if isinstance(v, int) and abs(v) >= 10_000:
        return f"{v:,}"
    return str(v)


def table(rows, header):
    """Minimal fixed-width text table (no external deps)."""
    rows = [header] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    out = []
    for n, r in enumerate(rows):
        out.append("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if n == 0:
            out.append("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(out)


def print_metrics(doc):
    metrics = doc.get("metrics", {})
    scalars = {k: v for k, v in metrics.items() if not isinstance(v, (dict, list))}
    if scalars:
        print("\nheadline metrics:")
        for k, v in scalars.items():
            print(f"  {k} = {fmt(v)}")
    if "trace_dropped_events" in doc:
        print(f"  trace_dropped_events = {fmt(doc['trace_dropped_events'])}")


def print_attribution(doc):
    at = doc.get("cycle_attribution") or doc.get("flight_recorder", {}).get("attribution")
    if not at:
        return
    total = at.get("total_cycles", 0)
    buckets = [
        ("client path", at.get("client_path_cycles", 0)),
        ("sync stall", at.get("sync_stall_cycles", 0)),
        ("ring wait", at.get("ring_wait_cycles", 0)),
        ("server carve", at.get("server_carve_cycles", 0)),
        ("server drain", at.get("server_drain_cycles", 0)),
    ]
    print("\ncycle attribution:")
    rows = []
    for name, cycles in buckets:
        share = 100.0 * cycles / total if total else 0.0
        bar = "#" * int(round(share / 2))
        rows.append([name, f"{cycles:,}", f"{share:5.1f}%", bar])
    rows.append(["total attributed", f"{total:,}", "100.0%" if total else "-", ""])
    print(table(rows, ["bucket", "cycles", "share", ""]))
    drift = abs(sum(c for _, c in buckets) - total)
    if total and drift > 0.001 * total:
        print(f"  WARNING: buckets drift from total by {drift:,} cycles (> 0.1%)")


def print_matrix(doc):
    tm = doc.get("traffic_matrix") or doc.get("flight_recorder", {}).get("traffic_matrix")
    if not tm or not tm.get("cells"):
        return
    cells = tm["cells"]
    clients = tm.get("clients", 1 + max(c["client"] for c in cells))
    shards = tm.get("shards", 1 + max(c["shard"] for c in cells))
    ops = {(c["client"], c["shard"]): c["sync_ops"] + c["async_ops"] for c in cells}
    peak = max(ops.values(), default=0)
    # Heat glyph per cell: '.' idle through '@' at the per-run peak.
    ramp = " .:-=+*#%@"
    print(f"\ntraffic matrix ({clients} clients x {shards} shards, ops to shard):")
    rows = []
    for cl in range(clients):
        row = [f"client {cl}"]
        for sh in range(shards):
            n = ops.get((cl, sh), 0)
            heat = ramp[min(len(ramp) - 1, (n * (len(ramp) - 1)) // peak)] if peak else " "
            row.append(f"{n:,} {heat}" if n else "-")
        rows.append(row)
    print(table(rows, [""] + [f"shard {s}" for s in range(shards)]))
    total_bytes = sum(c.get("bytes", 0) for c in cells)
    total_sync = sum(c.get("sync_ops", 0) for c in cells)
    total_async = sum(c.get("async_ops", 0) for c in cells)
    large = sum(c.get("large_mallocs", 0) for c in cells)
    print(f"  totals: {total_sync:,} sync + {total_async:,} async ops, "
          f"{total_bytes:,} bytes requested, {large:,} large mallocs")


def print_snapshot(doc):
    snap = doc.get("final_heap_snapshot")
    if snap is None:
        snaps = doc.get("flight_recorder", {}).get("snapshots", [])
        snap = snaps[-1] if snaps else None
    if not snap or not snap.get("shards"):
        return
    n_periodic = len(doc.get("flight_recorder", {}).get("snapshots", []))
    print(f"\nheap snapshot @ cycle {snap.get('cycle', 0):,}"
          f" ({n_periodic} snapshots recorded):")
    rows = []
    for sh in snap["shards"]:
        spans = sh.get("spans", {})
        fill = sh.get("slab_fill_decile")
        # One glyph per fill decile (0%..100% full), height = slab count.
        spark = "".join(" .:-=+*#%@"[min(9, v if v < 10 else 9)] for v in fill) if fill else "-"
        rows.append([
            sh.get("shard", "?"),
            f"{sh.get('bytes_live', 0):,}",
            f"{sh.get('data_mapped_bytes', 0):,}",
            f"{sh.get('internal_frag_pct', 0):.1f}%",
            f"{sh.get('external_frag_pct', 0):.1f}%",
            f"{spans.get('free', 0)}/{spans.get('owned', 0)}",
            spans.get("away", 0),
            sh.get("empty_pool_segments", 0),
            spark,
        ])
    print(table(rows, ["shard", "bytes live", "mapped", "int frag", "ext frag",
                       "free/owned spans", "away", "empty segs", "slab fill 0->100%"]))
    if any(sh.get("truncated") for sh in snap["shards"]):
        print("  (slab walk truncated at its cap; counts are lower bounds)")


def print_dtlb_regions(doc):
    """Per-region dTLB table from any case carrying a dtlb_regions map
    (bench_ablation_hugepage, bench_table3_nextgen): one row per
    (case, fabric window) with lookups, walks and the walk rate."""
    cases = doc.get("cases")
    if not isinstance(cases, list):
        return
    rows = []
    for case in cases:
        regions = case.get("dtlb_regions")
        if not isinstance(regions, dict):
            continue
        label = case.get("label", case.get("name", "?"))
        for region, c in regions.items():
            lookups = c.get("lookups", 0)
            walks = c.get("walks", 0)
            if not lookups:
                continue
            rate = 100.0 * walks / lookups
            rows.append([label, region, f"{lookups:,}", f"{walks:,}",
                         f"{rate:.3f}%", "#" * int(round(min(rate, 50.0)))])
    if rows:
        print("\nper-region dTLB walks:")
        print(table(rows, ["case", "region", "lookups", "walks", "walk rate", ""]))


def print_fleet(doc):
    """Per-epoch fleet shape from any case carrying a fleet_timeline
    (bench_ablation_adaptive_routing): active-core bar per epoch plus the
    epoch's op count and how many clients the packer re-homed."""
    cases = doc.get("cases")
    if not isinstance(cases, list):
        return
    for case in cases:
        tl = case.get("fleet_timeline")
        if not tl:
            continue
        name = case.get("routing", case.get("name", "?"))
        fleet = max((e.get("active_shards", 0) + e.get("parked_shards", 0)
                     for e in tl), default=0)
        print(f"\nfleet timeline [{name}] ({len(tl)} epochs, "
              f"{fleet} cores provisioned):")
        rows = []
        for n, e in enumerate(tl):
            active = e.get("active_shards", 0)
            moves = e.get("client_moves", 0)
            bar = "#" * active + "." * max(0, fleet - active)
            rows.append([
                n + 1,
                f"{e.get('cycle', 0):,}",
                f"{e.get('epoch_ops', 0):,}",
                f"{active}/{fleet}",
                bar,
                f"{moves} moved" if moves else "-",
            ])
        print(table(rows, ["epoch", "cycle", "ops", "active", "fleet", "clients"]))
        parked = case.get("parked_core_cycles", 0)
        if parked:
            print(f"  parked core cycles released: {parked:,}")


def report(path):
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" in doc:  # google-benchmark output (micro primitives)
        print(f"=== {path}: {len(doc['benchmarks'])} microbenchmarks ===")
        for b in doc["benchmarks"]:
            per_op = {k: v for k, v in b.items() if k.startswith("sim_cycles")}
            extras = ", ".join(f"{k}={fmt(v)}" for k, v in per_op.items())
            print(f"  {b['name']}: {extras or fmt(b.get('real_time', 0)) + ' ns'}")
        return
    print(f"=== {doc.get('bench', path)} ===")
    print_metrics(doc)
    print_attribution(doc)
    print_matrix(doc)
    print_snapshot(doc)
    print_dtlb_regions(doc)
    print_fleet(doc)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for n, path in enumerate(argv[1:]):
        if n:
            print()
        report(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
