// Randomized stress tests for the runtime + BATCHER stack: irregular nested
// parallelism, mixed structure access from arbitrary recursion shapes, and
// repeated scheduler lifecycles.  These exist to shake out interleaving bugs
// that the deterministic unit tests can't reach.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "ds/batched_counter.hpp"
#include "ds/batched_om.hpp"
#include "ds/batched_tree23.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"

namespace batcher {
namespace {

// Irregular recursion: every node flips a seeded coin for its arity and
// whether to do leaf work, giving a different dag shape per seed while
// keeping the leaf count checkable.
std::int64_t irregular(std::uint64_t seed, int depth,
                       std::atomic<std::int64_t>& leaves) {
  if (depth <= 0) {
    leaves.fetch_add(1);
    return 1;
  }
  SplitMix64 mix(seed);
  const std::uint64_t a = mix.next();
  std::int64_t left = 0, right = 0;
  if (a & 1) {
    rt::parallel_invoke(
        [&] { left = irregular(a, depth - 1, leaves); },
        [&] { right = irregular(a ^ 0x9e37, depth - 2, leaves); });
  } else {
    left = irregular(a, depth - 1, leaves);
    right = irregular(a ^ 0x79b9, depth - 3, leaves);
  }
  return left + right;
}

class StressSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StressSeed, IrregularRecursionCountsLeavesExactly) {
  rt::Scheduler sched(4);
  std::atomic<std::int64_t> leaves{0};
  std::int64_t returned = 0;
  sched.run([&] { returned = irregular(GetParam(), 14, leaves); });
  EXPECT_EQ(returned, leaves.load());
  EXPECT_GT(returned, 0);
}

TEST_P(StressSeed, StructureAccessFromIrregularRecursion) {
  rt::Scheduler sched(4);
  ds::BatchedCounter counter(sched);
  ds::BatchedTree23 tree(sched);
  std::atomic<std::int64_t> inserted{0};

  std::function<void(std::uint64_t, int)> go = [&](std::uint64_t seed,
                                                   int depth) {
    if (depth <= 0) {
      counter.increment(1);
      // Mix of colliding and distinct keys.
      if (tree.insert(static_cast<std::int64_t>(seed % 997))) {
        inserted.fetch_add(1);
      }
      return;
    }
    SplitMix64 mix(seed);
    const std::uint64_t a = mix.next();
    rt::parallel_invoke([&] { go(a, depth - 1); },
                        [&] { go(a ^ 0x5bd1, depth - 2); });
  };
  sched.run([&] { go(GetParam() * 7919 + 1, 12); });

  EXPECT_EQ(static_cast<std::size_t>(inserted.load()), tree.size_unsafe());
  EXPECT_GT(counter.value_unsafe(), 0);
  EXPECT_TRUE(tree.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSeed,
                         ::testing::Values(1u, 7u, 42u, 1337u));

TEST(RuntimeStress, RapidSchedulerChurnWithBatching) {
  for (unsigned workers : {1u, 3u, 8u}) {
    for (int round = 0; round < 3; ++round) {
      rt::Scheduler sched(workers);
      ds::BatchedCounter counter(sched);
      sched.run([&] {
        rt::parallel_for(0, 300, [&](std::int64_t) { counter.increment(1); });
      });
      ASSERT_EQ(counter.value_unsafe(), 300);
    }
  }
}

TEST(RuntimeStress, ThreeStructuresInterleavedUnderOneScheduler) {
  rt::Scheduler sched(8);
  ds::BatchedCounter counter(sched);
  ds::BatchedTree23 tree(sched);
  ds::BatchedOrderMaintenance om(sched);
  constexpr std::int64_t kN = 900;
  std::atomic<std::int64_t> om_inserts{0};
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      switch (i % 3) {
        case 0:
          counter.increment(1);
          break;
        case 1:
          tree.insert(i);
          break;
        default: {
          const auto h = om.insert_after(om.base());
          if (h != ds::BatchedOrderMaintenance::kInvalidHandle) {
            om_inserts.fetch_add(1);
          }
          break;
        }
      }
    });
  });
  EXPECT_EQ(counter.value_unsafe(), kN / 3);
  EXPECT_EQ(tree.size_unsafe(), static_cast<std::size_t>(kN / 3));
  EXPECT_EQ(om_inserts.load(), kN / 3);
  EXPECT_EQ(om.size_unsafe(), static_cast<std::size_t>(kN / 3) + 1);
  EXPECT_TRUE(tree.check_invariants());
  EXPECT_TRUE(om.check_invariants());
}

TEST(RuntimeStress, DeeplyNestedParallelForWithBatchify) {
  // parallel_for inside parallel_for, both levels calling batchify.
  rt::Scheduler sched(4);
  ds::BatchedCounter counter(sched);
  sched.run([&] {
    rt::parallel_for(0, 20, [&](std::int64_t) {
      rt::parallel_for(0, 20, [&](std::int64_t) { counter.increment(1); },
                       /*grain=*/1);
      counter.increment(1);
    },
                     /*grain=*/1);
  });
  EXPECT_EQ(counter.value_unsafe(), 20 * 20 + 20);
}

TEST(RuntimeStress, HeavyBopSpawnsDeepBatchDags) {
  // A structure whose BOP itself runs a deep parallel recursion: trapped
  // workers must execute this batch dag without touching core work.
  struct DeepBop final : BatchedStructure {
    std::atomic<std::int64_t> total{0};
    void run_batch(OpRecordBase* const* /*ops*/, std::size_t count) override {
      std::atomic<std::int64_t> leaves{0};
      irregular(count, 10, leaves);
      total.fetch_add(leaves.load());
    }
  } probe;
  rt::Scheduler sched(4);
  Batcher batcher(sched, probe);
  struct NoopOp : OpRecordBase {};
  sched.run([&] {
    rt::parallel_for(0, 200, [&](std::int64_t) {
      NoopOp op;
      batcher.batchify(op);
    });
  });
  EXPECT_GT(probe.total.load(), 0);
}

}  // namespace
}  // namespace batcher
