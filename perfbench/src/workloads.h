// The benchmark's three workloads: for each, the simulated machine, the
// NextGen configuration under test, the matching Mimalloc anchor and the
// closed-loop workload every simulated thread runs.
#ifndef NGX_PERFBENCH_SRC_WORKLOADS_H_
#define NGX_PERFBENCH_SRC_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/alloc/mimalloc/mi_allocator.h"
#include "src/core/nextgen_config.h"
#include "src/sim/machine.h"
#include "src/workload/workload.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  ngx::MachineConfig machine;
  ngx::NgxConfig ngx;
  // Always built with hugepage_backing == ngx.hugepage_spans: the anchor runs
  // under the same page policy as the configuration it is compared with.
  ngx::MiConfig mi;
  std::vector<int> app_cores;
  std::vector<int> server_cores;  // one per NextGen shard
  // Simulated runs per benchmark run, each on its own seed derived from the
  // benchmark seed, summed: pooling seeds steadies the workloads whose
  // outcome swings from one seed to the next.
  int seeds_per_run = 1;
  // Allocator books this workload must exercise: a zero here means the
  // benchmark read the wrong object, not that the allocator was idle.
  std::vector<std::string> expect_nonzero;
  // `reduced` shrinks the offered work for quick determinism tests (a
  // reduced run also simulates one seed only); the machine and allocator
  // configurations stay the same.
  std::unique_ptr<ngx::Workload> (*make_workload)(bool reduced);
};

// Names of every workload, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

// Returns false if `name` is not a workload.
bool FindWorkload(const std::string& name, WorkloadSpec* out);

}  // namespace perfbench

#endif  // NGX_PERFBENCH_SRC_WORKLOADS_H_
