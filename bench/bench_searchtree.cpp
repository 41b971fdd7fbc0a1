// T1-tree — the paper's §3 search-tree example: n parallel inserts into the
// batched 2-3 tree, with the Θ(n lg n / P) optimality check and the
// simulated speedup curve.
//
// A span-profile section drives the 2-3 tree's run_batch directly at
// controlled batch sizes so the report carries per-size s(n) histograms of
// its bulk insert and tombstone erase (gated downstream as
// span_growth/tree23).
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "ds/batched_tree23.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "sim/cost_model.hpp"
#include "sim/dag.hpp"
#include "sim/sim_batcher.hpp"

namespace {
namespace bench = batcher::bench;
using batcher::Stopwatch;
using batcher::ds::BatchedTree23;

const std::int64_t kN = bench::scaled(100000, 10000);

double run_batched_tree(unsigned workers, double* mean_batch,
                        bench::Report& report) {
  batcher::rt::Scheduler sched(workers);
  BatchedTree23 tree(sched);
  const auto keys = bench::random_keys(kN, 5);
  Stopwatch sw;
  sched.run([&] {
    batcher::rt::parallel_for(
        0, kN,
        [&](std::int64_t i) { tree.insert(keys[static_cast<std::size_t>(i)]); },
        /*grain=*/16);
  });
  const double secs = sw.elapsed_seconds();
  const batcher::BatcherStats stats = tree.batcher().stats();
  report.batcher_stats("BATCHED-2-3/P=" + std::to_string(workers), stats);
  *mean_batch = stats.mean_batch_size();
  return secs;
}

double run_std_set() {
  std::set<std::int64_t> tree;
  const auto keys = bench::random_keys(kN, 5);
  Stopwatch sw;
  for (auto k : keys) tree.insert(k);
  return sw.elapsed_seconds();
}

// Directly driven batches at controlled sizes: an insert round of fresh keys
// then an erase round of the same keys, booked into the bound ledger under
// the tree's trace domain (see bench_fig5_skiplist.cpp for the rationale).
void span_profile(batcher::rt::Scheduler& sched, BatchedTree23& tree,
                  std::uint64_t seed) {
  constexpr std::size_t kProfileSizes[] = {1, 4, 16, 64, 4096};
  // Unbooked warmup reps absorb cold caches and arena block faults; the
  // booked mean still rides OS jitter, so take enough samples that one
  // descheduled rep cannot dominate a bucket.
  constexpr int kWarmup = 3;
  constexpr int kReps = 96;
  constexpr std::int64_t kPrepopulate = 10000;

  const auto init_keys =
      bench::random_keys(static_cast<std::size_t>(kPrepopulate), seed + 1);
  for (auto k : init_keys) tree.insert_unsafe(k);

  const std::uint16_t domain = tree.batcher().trace_id();
  std::uint64_t salt = seed + 2;
  sched.run([&] {
    for (std::size_t n : kProfileSizes) {
      for (int rep = 0; rep < kWarmup + kReps; ++rep) {
        const bool warm = rep >= kWarmup;
        const auto keys = bench::random_keys(n, ++salt);
        std::vector<BatchedTree23::Op> ops(n);
        std::vector<batcher::OpRecordBase*> ptrs(n);
        for (std::size_t i = 0; i < n; ++i) {
          ops[i].kind = BatchedTree23::Kind::Insert;
          ops[i].key = keys[i];
          ptrs[i] = &ops[i];
        }
        if (warm) {
          bench::profiled_bop(domain, n,
                              [&] { tree.run_batch(ptrs.data(), n); });
        } else {
          tree.run_batch(ptrs.data(), n);
        }
        for (std::size_t i = 0; i < n; ++i) {
          ops[i].kind = BatchedTree23::Kind::Erase;
          ops[i].key = keys[i];
          ops[i].found = false;
        }
        if (warm) {
          bench::profiled_bop(domain, n,
                              [&] { tree.run_batch(ptrs.data(), n); });
        } else {
          tree.run_batch(ptrs.data(), n);
        }
      }
    }
  });
}

}  // namespace

int main() {
  bench::header("T1-tree",
                "n parallel inserts into the batched 2-3 tree (paper §3 "
                "search-tree example)");
  bench::note("%lld random keys; sequential std::set shown for scale",
              static_cast<long long>(kN));
  bench::Report report("searchtree");
  report.config("n", static_cast<std::uint64_t>(kN));
  report.config("nproc",
                static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  bench::TraceScope trace(report);

  // Constructed before the throughput lanes and kept alive through
  // report.write() so their recycled-on-unregister trace domain ids (and the
  // labels bound to them) stay stable.
  batcher::rt::Scheduler profile_sched(1);
  BatchedTree23 profile(profile_sched);
  report.domain_label(profile.batcher().trace_id(), "tree23");
  if (batcher::trace::enabled()) {
    bench::note("span profile: directly driven batches of size 1..4096, "
                "insert+erase -> bound_ledger");
    span_profile(profile_sched, profile, 23);
  }

  bench::row("%-6s %-18s %12s %12s", "P", "variant", "Mins/s", "mean batch");
  {
    const double secs = run_std_set();
    bench::row("%-6d %-18s %12.3f %12s", 1, "STD::SET", bench::mops(kN, secs),
               "-");
    report.metric("mins_per_s/STD::SET", bench::mops(kN, secs) * 1e6, "1/s");
  }
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    double mean_batch = 0;
    const double secs = run_batched_tree(p, &mean_batch, report);
    bench::row("%-6u %-18s %12.3f %12.2f", p, "BATCHED-2-3",
               bench::mops(kN, secs), mean_batch);
    report.metric("mins_per_s/BATCHED-2-3/P=" + std::to_string(p),
                  bench::mops(kN, secs) * 1e6, "1/s");
  }

  bench::note("simulated processors: makespan vs the Theta(n lg n / P) "
              "optimum (ratio should stay bounded as P grows)");
  bench::row("%-6s %12s %16s %8s", "P", "makespan", "n*lg(n)/P (opt)",
             "ratio");
  using namespace batcher::sim;
  const std::int64_t n_ops = 4096;
  Dag core = build_parallel_loop_with_ds(n_ops, 1, 1, 1);
  for (unsigned workers : {1u, 2u, 4u, 8u, 16u}) {
    SearchTreeCostModel model(1 << 20);
    BatcherSimConfig cfg;
    cfg.workers = workers;
    const SimResult res = simulate_batcher(core, model, cfg);
    const double opt = static_cast<double>(n_ops) * ilog2(1 << 20) /
                       static_cast<double>(workers);
    bench::row("%-6u %12lld %16.0f %8.2f", workers,
               static_cast<long long>(res.makespan), opt,
               static_cast<double>(res.makespan) / opt);
    report.metric("sim_makespan_over_opt/P=" + std::to_string(workers),
                  static_cast<double>(res.makespan) / opt, "ratio");
  }
  bench::note("paper: O((T1 + n lg n)/P + m lg n + T-inf) == asymptotically "
              "optimal in the comparison model, linear speedup");
  report.write();
  std::printf("\n");
  return 0;
}
