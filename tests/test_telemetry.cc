// Telemetry-layer tests: histogram bucketing/percentile math, metric label
// aggregation, the in-repo JSON writer/validator, Chrome-trace export, and
// the layer's core contract -- a run with telemetry (and tracing) enabled is
// bit-identical to the same run with telemetry off.
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/nextgen_malloc.h"
#include "src/core/segment_heap.h"
#include "src/telemetry/telemetry.h"
#include "src/workload/churn.h"
#include "src/workload/runner.h"
#include "src/workload/xalanc.h"
#include "tests/test_util.h"

namespace ngx {
namespace {

// ---- Histogram bucket math ----

TEST(Histogram, SmallValuesGetExactBuckets) {
  // 0..3 are exact: the bucket's upper bound is the value itself.
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketOf(v)), v);
  }
}

TEST(Histogram, BucketUpperBoundIsTightAndMonotonic) {
  // Every value lands in a bucket whose range covers it, and the bucket
  // boundaries never overlap (upper(b-1) < v <= upper(b)).
  for (const std::uint64_t v :
       {4ull, 5ull, 7ull, 8ull, 100ull, 1000ull, 4095ull, 4096ull, 1ull << 20,
        (1ull << 40) + 123, (1ull << 62) + 1}) {
    const std::uint32_t b = Histogram::BucketOf(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(b)) << v;
    ASSERT_GT(b, 0u);
    EXPECT_GT(v, Histogram::BucketUpperBound(b - 1)) << v;
  }
}

TEST(Histogram, QuantizationErrorBounded) {
  // 4 sub-buckets per octave bounds relative error at 25%.
  for (std::uint64_t v = 4; v < (1ull << 24); v = v * 3 + 1) {
    const std::uint64_t ub = Histogram::BucketUpperBound(Histogram::BucketOf(v));
    EXPECT_LE(static_cast<double>(ub - v) / static_cast<double>(v), 0.25) << v;
  }
}

TEST(Histogram, PercentilesExactForExactBucketValues) {
  // 100 samples of 0..3 cycle through the exact buckets: percentiles of a
  // distribution confined to them have no quantization error at all.
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(static_cast<std::uint64_t>(i % 4));  // 25 samples each of 0,1,2,3
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.Percentile(25), 0u);
  EXPECT_EQ(h.Percentile(50), 1u);
  EXPECT_EQ(h.Percentile(75), 2u);
  EXPECT_EQ(h.Percentile(100), 3u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 3u);
}

TEST(Histogram, PercentileClampsToMax) {
  Histogram h;
  h.Record(1000);  // bucket upper bound is > 1000, but p100 must equal max
  EXPECT_EQ(h.Percentile(100), 1000u);
  EXPECT_EQ(h.Summary().max, 1000u);
  EXPECT_EQ(h.Summary().p99, 1000u);
}

TEST(Histogram, SummaryOrdering) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) {
    h.Record(v);
  }
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 10000u);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  // Each percentile is within one bucket (25%) of the true order statistic.
  EXPECT_GE(s.p50, 5000u);
  EXPECT_LE(s.p50, 6250u);
  EXPECT_GE(s.p99, 9900u);
  EXPECT_EQ(s.max, 10000u);
}

TEST(Histogram, MergeAddsCountsAndExtremes) {
  Histogram a;
  Histogram b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  b.Record(40);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 75u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 40u);
}

TEST(Histogram, EmptyHistogramIsAllZeros) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
  EXPECT_EQ(h.Summary().p50, 0u);
}

// ---- Metric keys and label aggregation ----

TEST(Metrics, KeyCanonicalizesLabelOrder) {
  EXPECT_EQ(MetricKey("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(MetricKey("m", {}), "m");
}

TEST(Metrics, SameNameAndLabelsShareOneInstance) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("x", {{"k", "v"}});
  Counter& b = reg.GetCounter("x", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, CounterTotalAggregatesOverLabelSubset) {
  MetricsRegistry reg;
  reg.GetCounter("ops", {{"shard", "0"}, {"op", "malloc"}}).Add(5);
  reg.GetCounter("ops", {{"shard", "0"}, {"op", "free"}}).Add(7);
  reg.GetCounter("ops", {{"shard", "1"}, {"op", "malloc"}}).Add(11);
  reg.GetCounter("other", {{"shard", "0"}}).Add(100);
  EXPECT_EQ(reg.CounterTotal("ops"), 23u);
  EXPECT_EQ(reg.CounterTotal("ops", {{"shard", "0"}}), 12u);
  EXPECT_EQ(reg.CounterTotal("ops", {{"op", "malloc"}}), 16u);
  EXPECT_EQ(reg.CounterTotal("ops", {{"shard", "2"}}), 0u);
}

TEST(Metrics, HistogramTotalMergesMatchingShards) {
  MetricsRegistry reg;
  reg.GetHistogram("lat", {{"shard", "0"}}).Record(10);
  reg.GetHistogram("lat", {{"shard", "0"}}).Record(30);
  reg.GetHistogram("lat", {{"shard", "1"}}).Record(500);
  const Histogram all = reg.HistogramTotal("lat");
  EXPECT_EQ(all.count(), 3u);
  EXPECT_EQ(all.max(), 500u);
  const Histogram s0 = reg.HistogramTotal("lat", {{"shard", "0"}});
  EXPECT_EQ(s0.count(), 2u);
  EXPECT_EQ(s0.max(), 30u);
}

TEST(Metrics, ToJsonIsValidAndDeterministic) {
  MetricsRegistry reg;
  reg.GetCounter("c", {{"a", "1"}}).Add(2);
  reg.GetGauge("g").Set(9);
  reg.GetHistogram("h", {{"q", "\"quoted\\path\""}}).Record(42);
  const std::string dump = reg.ToJson().Dump(2);
  std::string err;
  EXPECT_TRUE(JsonValidate(dump, &err)) << err;
  // Iteration is sorted by key, so a second dump is byte-identical.
  EXPECT_EQ(dump, reg.ToJson().Dump(2));
}

// ---- JSON writer / validator ----

TEST(Json, ValidatorAcceptsWellFormedDocuments) {
  for (const char* text :
       {"{}", "[]", "null", "-3.5e2", "\"s\"", R"({"a":[1,{"b":null}],"c":"\u00e9\n"})"}) {
    std::string err;
    EXPECT_TRUE(JsonValidate(text, &err)) << text << ": " << err;
  }
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
  for (const char* text : {"", "{", "[1,]", "{\"a\":}", "{'a':1}", "nul", "1 2",
                           "\"unterminated", "{\"a\":1,}"}) {
    EXPECT_FALSE(JsonValidate(text)) << text;
  }
}

TEST(Json, DumpRoundTripsThroughValidator) {
  JsonValue o = JsonValue::Object();
  o.Set("name", JsonValue("bench \"x\"\\path\n"));
  o.Set("nan", JsonValue(std::numeric_limits<double>::quiet_NaN()));  // -> null
  JsonValue arr = JsonValue::Array();
  arr.Push(JsonValue(std::uint64_t{18446744073709551615ull}));
  arr.Push(JsonValue(-1.25));
  arr.Push(JsonValue(true));
  o.Set("vals", arr);
  for (const int indent : {0, 2}) {
    std::string err;
    EXPECT_TRUE(JsonValidate(o.Dump(indent), &err)) << err;
  }
}

// ---- Tracer ----

TEST(Tracer, ExportsValidChromeTraceJson) {
  Tracer tr;
  tr.SetTrackName(0, "app core 0");
  tr.Complete("malloc \"fast\"", 0, 100, 25);
  tr.Instant("ring_full", 1, 200);
  tr.Counter("queue_depth", 300, 7);
  std::ostringstream os;
  tr.WriteChromeTrace(os);
  std::string err;
  EXPECT_TRUE(JsonValidate(os.str(), &err)) << err;
  EXPECT_NE(os.str().find("traceEvents"), std::string::npos);
  EXPECT_EQ(os.str(), tr.ToChromeTraceJson());
}

TEST(Tracer, DropsBeyondCapWithoutGrowing) {
  Tracer tr(/*max_events=*/4);
  for (int i = 0; i < 10; ++i) {
    tr.Instant("e", 0, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
  EXPECT_TRUE(JsonValidate(tr.ToChromeTraceJson()));
}

TEST(Tracer, ReportsDroppedEventsInTraceMetadata) {
  // A saturated buffer must say so in the exported file: consumers can then
  // distinguish "quiet run" from "truncated capture".
  Tracer tr(/*max_events=*/2);
  for (int i = 0; i < 7; ++i) {
    tr.Instant("e", 0, static_cast<std::uint64_t>(i));
  }
  const std::string json = tr.ToChromeTraceJson();
  EXPECT_NE(json.find("\"dropped_events\":5"), std::string::npos) << json;
  // An unsaturated tracer reports zero, not nothing.
  Tracer ok(/*max_events=*/16);
  ok.Instant("e", 0, 1);
  EXPECT_NE(ok.ToChromeTraceJson().find("\"dropped_events\":0"), std::string::npos);
}

// ---- End-to-end: instrumentation on a real offloaded run ----

RunResult RunOffloaded(Machine& machine) {
  NgxConfig cfg = NgxConfig::PaperPrototype();
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*server_core=*/1);
  XalancConfig wl_cfg;
  wl_cfg.documents = 2;
  wl_cfg.nodes_per_doc = 400;
  wl_cfg.transform_passes = 2;
  wl_cfg.compute_per_node = 100;
  XalancLike workload(wl_cfg);
  RunOptions opt;
  opt.cores = {0};
  opt.seed = 13;
  opt.server_cores = {1};
  RunResult r = RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  return r;
}

void ExpectSamePmu(const PmuCounters& a, const PmuCounters& b, const char* what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  EXPECT_EQ(a.stores, b.stores) << what;
  EXPECT_EQ(a.atomic_rmws, b.atomic_rmws) << what;
  EXPECT_EQ(a.l1d_load_misses, b.l1d_load_misses) << what;
  EXPECT_EQ(a.l1d_store_misses, b.l1d_store_misses) << what;
  EXPECT_EQ(a.l2_load_misses, b.l2_load_misses) << what;
  EXPECT_EQ(a.l2_store_misses, b.l2_store_misses) << what;
  EXPECT_EQ(a.llc_load_misses, b.llc_load_misses) << what;
  EXPECT_EQ(a.llc_store_misses, b.llc_store_misses) << what;
  EXPECT_EQ(a.remote_hitm, b.remote_hitm) << what;
  EXPECT_EQ(a.dtlb_load_misses, b.dtlb_load_misses) << what;
  EXPECT_EQ(a.dtlb_store_misses, b.dtlb_store_misses) << what;
  EXPECT_EQ(a.dtlb_l1_misses, b.dtlb_l1_misses) << what;
  EXPECT_EQ(a.alloc_instructions, b.alloc_instructions) << what;
  EXPECT_EQ(a.alloc_cycles, b.alloc_cycles) << what;
  EXPECT_EQ(a.invalidations_sent, b.invalidations_sent) << what;
  EXPECT_EQ(a.invalidations_received, b.invalidations_received) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

TEST(TelemetryDeterminism, EnabledRunIsBitIdenticalToDisabled) {
  // The core contract: telemetry (metrics + tracing + PMU snapshots) only
  // reads simulation state. Same machine config, same workload, same seed
  // -- every counter and clock must match with it on vs off.
  Machine plain(MachineConfig::Default(2));
  const RunResult r_off = RunOffloaded(plain);

  Machine instrumented(MachineConfig::Default(2));
  TelemetryConfig tc;
  tc.enabled = true;
  tc.trace = true;
  tc.pmu_snapshot_interval = 50000;
  instrumented.EnableTelemetry(tc);
  const RunResult r_on = RunOffloaded(instrumented);

  EXPECT_EQ(r_off.wall_cycles, r_on.wall_cycles);
  ExpectSamePmu(r_off.app, r_on.app, "app");
  ExpectSamePmu(r_off.server, r_on.server, "server");
  EXPECT_EQ(r_off.alloc_stats.mallocs, r_on.alloc_stats.mallocs);
  EXPECT_EQ(r_off.alloc_stats.frees, r_on.alloc_stats.frees);

  // And the instrumented run actually observed something.
  const MetricsRegistry& m = instrumented.telemetry().metrics();
  EXPECT_FALSE(m.empty());
  EXPECT_GT(m.HistogramTotal("offload.sync_latency").count(), 0u);
  EXPECT_GT(instrumented.telemetry().tracer().size(), 0u);
}

TEST(TelemetryDeterminism, ShardSyncLatencyDigestIsPopulatedAndSane) {
  Machine machine(MachineConfig::Default(2));
  TelemetryConfig tc;
  tc.enabled = true;
  machine.EnableTelemetry(tc);
  const RunResult r = RunOffloaded(machine);

  ASSERT_EQ(r.shard_sync_latency.size(), 1u);
  const HistogramSummary& s = r.shard_sync_latency[0];
  EXPECT_GT(s.count, 0u);
  EXPECT_GT(s.p50, 0u) << "every sync round trip costs cycles";
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  // The digest is a client-observed latency: it must cover at least the
  // sync mallocs the allocator reports.
  EXPECT_GE(s.count, 1u);
  // Without telemetry the digest stays empty.
  Machine off(MachineConfig::Default(2));
  EXPECT_TRUE(RunOffloaded(off).shard_sync_latency.empty());
}

// ---- Flight recorder (DESIGN.md §13) ----

TEST(FlightRecorder, AttributionBucketsAreAnExactDecomposition) {
  Machine machine(MachineConfig::Default(2));
  TelemetryConfig tc;
  tc.enabled = true;
  tc.recorder = true;
  machine.EnableTelemetry(tc);
  const RunResult r = RunOffloaded(machine);

  ASSERT_TRUE(r.recorder_enabled);
  const CycleAttribution& at = r.attribution;
  EXPECT_GT(at.client_op, 0u) << "allocator ops must have been scoped";
  EXPECT_GT(at.server_busy, 0u) << "the shard core must have served requests";
  // Exact by construction, not within a tolerance: the derived buckets are
  // defined as the remainders of the two measured windows.
  EXPECT_EQ(at.client_path() + at.sync_stall + at.ring_wait, at.client_op);
  EXPECT_EQ(at.server_carve + at.server_drain(), at.server_busy);
  EXPECT_EQ(at.client_op + at.server_busy, at.total());
  // The client spends at most its own wall clock inside allocator ops.
  EXPECT_LE(at.client_op, r.wall_cycles);
}

TEST(FlightRecorder, TrafficMatrixAccountsEveryOperation) {
  Machine machine(MachineConfig::Default(2));
  TelemetryConfig tc;
  tc.enabled = true;
  tc.recorder = true;
  machine.EnableTelemetry(tc);
  const RunResult r = RunOffloaded(machine);

  const TrafficMatrix& tm = r.traffic_matrix;
  ASSERT_GE(tm.num_clients(), 1);
  EXPECT_EQ(tm.num_shards(), 1);
  std::uint64_t small_mallocs = 0;
  std::uint64_t large_mallocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;
  std::uint64_t class_ops = 0;
  for (int cl = 0; cl < tm.num_clients(); ++cl) {
    if (const TrafficCell* cell = tm.CellOrNull(cl, 0)) {
      small_mallocs += cell->mallocs;
      large_mallocs += cell->large_mallocs;
      frees += cell->frees;
      bytes += cell->bytes;
      for (const std::uint64_t n : cell->class_ops) {
        class_ops += n;
      }
    }
  }
  EXPECT_EQ(small_mallocs + large_mallocs, r.alloc_stats.mallocs);
  EXPECT_EQ(frees, r.alloc_stats.frees);
  EXPECT_EQ(bytes, r.alloc_stats.bytes_requested);
  EXPECT_EQ(class_ops, small_mallocs)
      << "every small malloc lands in exactly one size-class bucket";
  EXPECT_GT(tm.TotalSyncOps(), 0u);
}

TEST(FlightRecorder, SnapshotJsonValidatesAndCarriesTheSchema) {
  Machine machine(MachineConfig::Default(2));
  TelemetryConfig tc;
  tc.enabled = true;
  tc.recorder = true;
  tc.recorder_snapshot_interval = 100000;
  machine.EnableTelemetry(tc);
  const RunResult r = RunOffloaded(machine);

  EXPECT_FALSE(r.snapshots.empty()) << "the periodic cadence must have fired";
  ASSERT_EQ(r.final_snapshot.shards.size(), 1u);
  EXPECT_TRUE(r.final_snapshot.on_demand);

  const std::string dump = machine.telemetry().recorder().ToJson().Dump(2);
  std::string err;
  ASSERT_TRUE(JsonValidate(dump, &err)) << err;
  // Spot-check the schema consumers depend on (scripts/report.py, CI).
  for (const char* key :
       {"\"attribution\"", "\"traffic_matrix\"", "\"snapshots\"",
        "\"client_path_cycles\"", "\"total_cycles\"", "\"op_matrix\"",
        "\"cells\"", "\"spans\"", "\"bytes_live\"", "\"data_mapped_bytes\"",
        "\"internal_frag_pct\"", "\"external_frag_pct\"", "\"on_demand\""}) {
    EXPECT_NE(dump.find(key), std::string::npos) << key;
  }
  // Snapshot cycles are monotonically nondecreasing along the run.
  for (std::size_t i = 1; i < r.snapshots.size(); ++i) {
    EXPECT_LE(r.snapshots[i - 1].cycle, r.snapshots[i].cycle);
  }
  // Fragmentation percentages are percentages.
  for (const HeapShardSnapshot& sh : r.final_snapshot.shards) {
    EXPECT_GE(sh.internal_frag_pct, 0.0);
    EXPECT_LE(sh.internal_frag_pct, 100.0);
    EXPECT_GE(sh.external_frag_pct, 0.0);
    EXPECT_LE(sh.external_frag_pct, 100.0);
  }
}

TEST(FlightRecorder, SnapshotSourceUnregistersWithTheAllocator) {
  Machine machine(MachineConfig::Default(2));
  TelemetryConfig tc;
  tc.enabled = true;
  tc.recorder = true;
  machine.EnableTelemetry(tc);
  {
    NgxSystem sys = MakeNgxSystem(machine, NgxConfig::PaperPrototype(), 1);
    EXPECT_TRUE(machine.telemetry().recorder().has_snapshot_source());
  }
  // After the allocator dies, an on-demand snapshot must be a safe no-op
  // instead of a dangling call into the destroyed heap.
  EXPECT_FALSE(machine.telemetry().recorder().has_snapshot_source());
  EXPECT_EQ(machine.telemetry().recorder().TakeSnapshot(123, true), nullptr);
}

TEST(TelemetryDeterminism, TraceFromRealRunIsWellFormed) {
  Machine machine(MachineConfig::Default(2));
  TelemetryConfig tc;
  tc.enabled = true;
  tc.trace = true;
  machine.EnableTelemetry(tc);
  RunOffloaded(machine);
  const std::string trace = machine.telemetry().tracer().ToChromeTraceJson();
  std::string err;
  EXPECT_TRUE(JsonValidate(trace, &err)) << err;
  EXPECT_NE(trace.find("sync_request"), std::string::npos);
  const std::string metrics = machine.telemetry().metrics().ToJson().Dump();
  EXPECT_TRUE(JsonValidate(metrics, &err)) << err;
}

// ---- One home per count ----
//
// Every allocator count lives in one host-side book, kept by its owner (the
// allocator, its control plane and span directory, the engines, the heaps).
// The registry holds distributions and the counts that have no book, never a
// second copy of one -- so a book reads the same with telemetry off or on.

using Books = std::map<std::string, std::uint64_t>;

Books ReadBooks(const NgxSystem& sys) {
  NgxAllocator& a = *sys.allocator;
  const OffloadEngineStats f = sys.fabric->TotalStats();
  Books b = {
      {"stash_hits", a.stash_hits()},
      {"sync_mallocs", a.sync_mallocs()},
      {"stash_refills", a.stash_refills()},
      {"refill_overlap_cycles", a.refill_overlap_cycles()},
      {"stash_starvation_stalls", a.stash_starvation_stalls()},
      {"stash_recycled_frees", a.stash_recycled_frees()},
      {"partition_ooms", a.partition_oom_failures()},
      {"rebalance_moves", a.rebalance_moves()},
      {"inline_donation_fallbacks", a.inline_donation_fallbacks()},
      {"routing_epochs", a.routing_epochs()},
      {"shards_parked", a.shards_parked()},
      {"parked_core_cycles", a.parked_core_cycles()},
      {"map_mapped_bytes", a.map_mapped_bytes()},
      {"map_requested_bytes", a.map_requested_bytes()},
      {"map_waste_bytes", a.map_waste_bytes()},
      {"sync_requests", f.sync_requests},
      {"async_ops", f.async_ops},
      {"ring_full_stalls", f.ring_full_stalls},
      {"carve_cycles", f.carve_cycles},
  };
  if (const ControlPlane* cp = a.control()) {
    b["donated_spans"] = cp->directory().total_donated();
    b["returned_spans"] = cp->directory().total_returned();
    b["client_moves"] = cp->client_moves();
    for (const FleetEpoch& e : cp->fleet_timeline()) {
      b["fleet_timeline.epochs"] += 1;
      b["fleet_timeline.ops"] += e.epoch_ops;
      b["fleet_timeline.parked_shards"] += static_cast<std::uint64_t>(e.parked_shards);
      b["fleet_timeline.client_moves"] += e.client_moves;
    }
  }
  if (const HugepageLedger* ledger = a.hugepage_ledger()) {
    b["hugepage_backed_bytes"] = ledger->backed_bytes();
  }
  for (int s = 0; s < a.num_shards(); ++s) {
    const SegmentHeapStats& seg = dynamic_cast<SegmentHeap&>(a.heap(s)).segment_stats();
    b["slab_reuses"] += seg.unit_reuses + seg.segment_reuses;
    b["slab_fresh"] += seg.fresh_segments;
  }
  return b;
}

struct BookRun {
  Books books;
  std::string registry;  // the registry dump; empty with telemetry off
};

BookRun RunForBooks(const NgxConfig& cfg, int clients, const ChurnConfig& wl, bool telemetry) {
  Machine machine(MachineConfig::Default(clients + cfg.num_shards));
  if (telemetry) {
    TelemetryConfig tc;
    tc.enabled = true;
    tc.trace = true;
    tc.recorder = true;
    machine.EnableTelemetry(tc);
  }
  NgxSystem sys = MakeNgxSystem(machine, cfg, /*first_server_core=*/clients);
  Churn workload(wl);
  RunOptions opt;
  opt.cores = FirstCores(clients);
  for (int s = 0; s < cfg.num_shards; ++s) {
    opt.server_cores.push_back(clients + s);
  }
  opt.seed = 5;
  RunWorkload(machine, *sys.allocator, workload, opt);
  sys.fabric->DrainAll();
  BookRun out;
  out.books = ReadBooks(sys);
  if (telemetry) {
    out.registry = machine.telemetry().metrics().ToJson().Dump();
  }
  return out;
}

// Runs `cfg` with telemetry off and with metrics, recorder and tracing on:
// every book must agree, each of `exercised` must be nonzero, and the
// registry must carry no twin of a book.
void ExpectBooksIgnoreTelemetry(const NgxConfig& cfg, int clients, const ChurnConfig& wl,
                                const std::vector<std::string>& exercised) {
  const BookRun off = RunForBooks(cfg, clients, wl, /*telemetry=*/false);
  const BookRun on = RunForBooks(cfg, clients, wl, /*telemetry=*/true);
  EXPECT_EQ(off.books, on.books);
  for (const std::string& name : exercised) {
    ASSERT_EQ(off.books.count(name), 1u) << name;
    EXPECT_GT(off.books.at(name), 0u) << name << " is not exercised, so its equality is vacuous";
  }
  ASSERT_FALSE(on.registry.empty());
  for (const char* twin :
       {"ngx.stash_refills", "ngx.refill_overlap_cycles", "ngx.stash_starvation_stalls",
        "ngx.stash_recycles", "ngx.donated_spans", "ngx.returned_spans", "ngx.rebalance_moves",
        "ngx.inline_donation_fallbacks", "ngx.routing_epochs", "ngx.client_moves",
        "ngx.shards_parked", "offload.sync_requests", "offload.async_ops",
        "offload.ring_full_stalls", "ngx.server_carve_cycles"}) {
    for (const char* end : {"{", "\""}) {
      EXPECT_EQ(on.registry.find("\"" + std::string(twin) + end), std::string::npos)
          << "the registry keeps a twin of a book: " << twin;
    }
  }
}

TEST(TelemetryBooks, CountsDoNotDependOnTelemetry) {
  // A 4-shard fabric on a small heap window with the span economy and the
  // fleet controller on: donation, watermarks and adaptive parking.
  NgxConfig fabric;
  fabric.num_shards = 4;
  fabric.hugepage_spans = false;
  fabric.heap_window = 16ull << 20;
  fabric.span_donation = true;
  fabric.span_low_mark = 8;
  fabric.span_high_mark = 16;
  fabric.routing = RoutingKind::kAdaptive;
  fabric.adaptive_routing = true;
  fabric.epoch_cycles = 20000;
  fabric.park_threshold_ops = 1u << 30;  // parks one shard per epoch down to one
  // Blocks up to 64 KiB keep every book below exercised: with 48-KiB blocks
  // this window took one inline donation fallback, or none, depending on
  // the ring protocol's timing.
  ChurnConfig large;
  large.live_blocks = 60;
  large.ops = 600;
  large.min_size = 256;
  large.max_size = 64 * 1024;
  ExpectBooksIgnoreTelemetry(
      fabric, 4, large,
      {"sync_mallocs", "rebalance_moves", "inline_donation_fallbacks", "routing_epochs",
       "shards_parked", "parked_core_cycles", "map_mapped_bytes", "map_requested_bytes",
       "sync_requests", "async_ops", "carve_cycles", "donated_spans", "returned_spans",
       "client_moves", "fleet_timeline.epochs", "slab_reuses", "slab_fresh"});

  // Two clients sharing one shard behind a pipelined stash, on packed
  // hugepage spans: the shared server publishes some refills after a client
  // drained its half, so starvation stalls are exercised too.
  NgxConfig pipelined;
  pipelined.prediction = true;
  pipelined.stash_pipeline = true;
  pipelined.stash_refill_mark = 2;
  pipelined.hugepage_packing = true;
  ChurnConfig small;
  small.live_blocks = 200;
  small.ops = 3000;
  ExpectBooksIgnoreTelemetry(
      pipelined, 2, small,
      {"stash_hits", "sync_mallocs", "stash_refills", "refill_overlap_cycles",
       "stash_starvation_stalls", "stash_recycled_frees", "map_mapped_bytes",
       "map_requested_bytes", "map_waste_bytes", "hugepage_backed_bytes", "sync_requests",
       "async_ops", "carve_cycles", "slab_reuses", "slab_fresh"});
}

}  // namespace
}  // namespace ngx
