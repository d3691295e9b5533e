#include "src/workload/xalanc.h"

#include "src/alloc/layout.h"
#include "src/workload/thread_body.h"

namespace ngx {

namespace {

// One document at a time: parse, transform, serialize, teardown (see
// xalanc.h). Simulated node layout: [left child addr][right/link addr]
// [string addr][payload...]; the first three words are pointers the walks
// chase.
ThreadBody XalancBody(Env env, Allocator& alloc, XalancConfig config, std::uint64_t seed,
                      Addr stylesheet_base) {
  Rng rng(seed);
  const SizeDist node_sizes = SizeDist::XalancNodes();
  const SizeDist string_sizes = SizeDist::XalancStrings();
  std::vector<Addr> nodes;
  nodes.reserve(config.nodes_per_doc);
  std::vector<std::vector<Addr>> retained_per_doc;
  for (std::uint32_t doc = 1;; ++doc) {
    // Parse, one node at a time: tokenize (compute), allocate node + string,
    // initialize, and link into the tree.
    do {
      env.Work(config.compute_per_node / 2);  // tokenizing/lexing
      const std::uint64_t node_size = node_sizes.Sample(rng);
      const Addr node = co_await MallocCall{env, alloc, node_size};
      const std::uint64_t str_size = string_sizes.Sample(rng);
      const Addr str = co_await MallocCall{env, alloc, str_size};
      if (node == kNullAddr || str == kNullAddr) {
        co_return;  // OOM: end the run
      }
      env.Store<Addr>(node + 16, str);
      env.TouchWrite(str, static_cast<std::uint32_t>(str_size));
      if (!nodes.empty()) {
        // Link from a random recent parent (tree locality like a SAX build).
        const std::size_t window = std::min<std::size_t>(nodes.size(), 32);
        const Addr parent = nodes[nodes.size() - 1 - rng.Below(window)];
        env.Store<Addr>(parent, node);
        env.Store<Addr>(node + 8, parent);
      } else {
        env.Store<Addr>(node + 8, kNullAddr);
      }
      nodes.push_back(node);
    } while (nodes.size() < config.nodes_per_doc);

    // Transform: walk every node per pass -- chase links, read strings,
    // compute, and occasionally build short-lived temporaries.
    std::uint32_t pass = 0;
    do {
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const Addr node = nodes[i];
        const Addr parent = env.Load<Addr>(node + 8);
        if (parent != kNullAddr) {
          env.TouchRead(parent, 8);
        }
        const Addr str = env.Load<Addr>(node + 16);
        env.TouchRead(str, 32);
        env.Work(config.compute_per_node);
        // XPath-style cross-references: chase a few random nodes elsewhere
        // in the document (the pointer-heavy part of real XSLT evaluation).
        for (std::uint32_t k = 0; k < config.chase_per_visit; ++k) {
          const Addr ref = nodes[rng.Below(nodes.size())];
          env.TouchRead(ref, 24);
          env.Work(config.compute_per_node / 4);
        }
        if (rng.Chance(config.stylesheet_percent, 100)) {
          // Stylesheet/symbol-table lookup in static 4 KiB-paged data.
          env.TouchRead(stylesheet_base + AlignDown(rng.Below(config.stylesheet_bytes), 8), 8);
        }
        if (rng.Chance(config.temp_alloc_percent, 100)) {
          const std::uint64_t temp_size = rng.Range(32, 512);
          const Addr temp = co_await MallocCall{env, alloc, temp_size};
          if (temp != kNullAddr) {
            env.TouchWrite(temp, static_cast<std::uint32_t>(temp_size));
            env.TouchRead(temp, 16);
            co_await FreeCall{env, alloc, temp};
          }
        }
        // Result annotation back into the node.
        env.Store<std::uint64_t>(node + 24, i);
      }
    } while (++pass < config.transform_passes);

    // Serialize: emit a buffer covering a run of nodes, then release it.
    constexpr std::uint32_t kNodesPerBuffer = 64;
    std::size_t cursor = 0;
    do {
      const std::uint64_t buf_size = rng.Range(1024, 4096);
      const Addr buf = co_await MallocCall{env, alloc, buf_size};
      if (buf == kNullAddr) {
        co_return;
      }
      std::uint64_t written = 0;
      for (std::uint32_t i = 0; i < kNodesPerBuffer && cursor < nodes.size(); ++i, ++cursor) {
        const Addr str = env.Load<Addr>(nodes[cursor] + 16);
        env.TouchRead(str, 24);
        env.TouchWrite(buf + (written % (buf_size - 64)), 48);
        written += 48;
        env.Work(config.compute_per_node / 4);
      }
      co_await FreeCall{env, alloc, buf};
    } while (cursor < nodes.size());

    // Teardown: destructor-style touch, then free node and string -- except
    // for the retained fraction (interned strings / grammar pool), which
    // survives `retain_window` further documents.
    std::vector<Addr> retained;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const Addr node = nodes[i];
      const Addr str = env.Load<Addr>(node + 16);
      if (rng.Chance(config.retain_percent, 100)) {
        retained.push_back(str);
        retained.push_back(node);
      } else {
        co_await FreeCall{env, alloc, str};
        co_await FreeCall{env, alloc, node};
      }
      env.Work(8);
    }
    nodes.clear();
    retained_per_doc.push_back(std::move(retained));
    if (retained_per_doc.size() > config.retain_window) {
      const std::vector<Addr>& oldest = retained_per_doc.front();
      for (std::size_t i = 0; i < oldest.size(); ++i) {
        co_await FreeCall{env, alloc, oldest[i]};
      }
      retained_per_doc.erase(retained_per_doc.begin());
    }
    if (doc >= config.documents) {
      for (const std::vector<Addr>& batch : retained_per_doc) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          co_await FreeCall{env, alloc, batch[i]};
        }
      }
      co_return;
    }
  }
}

}  // namespace

std::vector<std::unique_ptr<SimThread>> XalancLike::MakeThreads(Machine& machine,
                                                                Allocator& alloc,
                                                                const std::vector<int>& cores,
                                                                std::uint64_t seed) {
  std::vector<std::unique_ptr<SimThread>> threads;
  threads.reserve(cores.size());
  const Addr stylesheet_area = kWorkloadBase + (64ull << 20);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const Addr base = stylesheet_area + (static_cast<Addr>(i) << 23);
    machine.address_map().Add(
        Region{base, config_.stylesheet_bytes, PageKind::kSmall4K, "stylesheet"});
    threads.push_back(std::make_unique<BodyThread>(
        cores[i], XalancBody(Env(machine, cores[i]), alloc, config_, seed + 1000 * i, base)));
  }
  return threads;
}

}  // namespace ngx
