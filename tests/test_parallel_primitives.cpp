// Tests for the parallel primitives: scan, reduce, pack, sort, merge.
//
// The batch-prep primitives (scan_exclusive / pack_indices in
// parallel/prefix_sum.hpp, the blocked reduce in parallel/reduce.hpp,
// parallel_merge in parallel/sort.hpp) are exercised here
// directly — outside any BOP — both for correctness (serial fast path AND
// the forced-parallel scheme via the cutoff guards) and for their measured
// task-count span, which is a schedule-invariant dag property the sort-merge
// s(n) story rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "parallel/prefix_sum.hpp"
#include "parallel/reduce.hpp"
#include "parallel/sort.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace batcher {
namespace {

std::vector<std::int64_t> random_values(std::size_t n, std::uint64_t seed,
                                        std::int64_t range = 1000000) {
  Xoshiro256 rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(range))) -
        range / 2;
  }
  return v;
}

// Affine-map composition: associative but NOT commutative, so it catches
// scans that reorder the operator's arguments.
struct Affine {
  std::int64_t a = 1, b = 0;  // x -> a*x + b
  bool operator==(const Affine& o) const { return a == o.a && b == o.b; }
};
Affine compose(const Affine& f, const Affine& g) {
  // (g ∘ f): apply f first, then g — scan convention op(prefix, next).
  return Affine{f.a * g.a, f.b * g.a + g.b};
}

class ScanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanTest, BlockedMatchesSerial) {
  const std::size_t n = GetParam();
  rt::Scheduler sched(4);
  auto data = random_values(n, 1);
  auto expected = data;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  sched.run([&] {
    par::prefix_sums(data.data(), static_cast<std::int64_t>(n));
  });
  EXPECT_EQ(data, expected);
}

TEST_P(ScanTest, RecursiveMatchesSerial) {
  const std::size_t n = GetParam();
  rt::Scheduler sched(4);
  auto data = random_values(n, 2);
  auto expected = data;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  sched.run([&] {
    par::scan_inclusive_recursive(
        data.data(), static_cast<std::int64_t>(n),
        [](std::int64_t a, std::int64_t b) { return a + b; });
  });
  EXPECT_EQ(data, expected);
}

TEST_P(ScanTest, NonCommutativeOperator) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  rt::Scheduler sched(4);
  Xoshiro256 rng(3);
  std::vector<Affine> data(n);
  for (auto& f : data) {
    f.a = (rng.next() & 1) ? 1 : -1;  // keep magnitudes bounded
    f.b = static_cast<std::int64_t>(rng.next_below(100));
  }
  std::vector<Affine> expected(data);
  for (std::size_t i = 1; i < n; ++i) {
    expected[i] = compose(expected[i - 1], expected[i]);
  }
  sched.run([&] {
    par::scan_inclusive(data.data(), static_cast<std::int64_t>(n), compose);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(data[i], expected[i]) << "position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 64u, 100u,
                                           1000u, 4097u, 50000u));

TEST(Scan, WorksOutsideScheduler) {
  std::vector<std::int64_t> v{1, 2, 3, 4};
  par::prefix_sums(v.data(), 4);
  EXPECT_EQ(v, (std::vector<std::int64_t>{1, 3, 6, 10}));
}

TEST(Reduce, SumMatchesSerial) {
  rt::Scheduler sched(4);
  auto data = random_values(10000, 4);
  const std::int64_t expected =
      std::accumulate(data.begin(), data.end(), std::int64_t{0});
  std::int64_t got = 0;
  sched.run([&] {
    got = par::parallel_sum<std::int64_t>(
        0, static_cast<std::int64_t>(data.size()),
        [&](std::int64_t i) { return data[static_cast<std::size_t>(i)]; });
  });
  EXPECT_EQ(got, expected);
}

TEST(Reduce, MaxWithIdentity) {
  rt::Scheduler sched(2);
  auto data = random_values(5000, 5);
  const std::int64_t expected = *std::max_element(data.begin(), data.end());
  std::int64_t got = 0;
  sched.run([&] {
    got = par::parallel_reduce<std::int64_t>(
        0, static_cast<std::int64_t>(data.size()),
        std::numeric_limits<std::int64_t>::min(),
        [&](std::int64_t i) { return data[static_cast<std::size_t>(i)]; },
        [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
  });
  EXPECT_EQ(got, expected);
}

TEST(Reduce, EmptyRangeYieldsIdentity) {
  EXPECT_EQ(par::parallel_sum<std::int64_t>(5, 5,
                                            [](std::int64_t) { return 1; }),
            0);
}

class SortTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SortTest, MatchesStdSortOnRandomInput) {
  const std::size_t n = GetParam();
  rt::Scheduler sched(4);
  auto data = random_values(n, 6, 100);  // narrow range -> many duplicates
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  sched.run([&] { par::parallel_sort(data); });
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 100u, 511u, 512u,
                                           513u, 5000u, 100000u));

TEST(Sort, AlreadySortedAndReversed) {
  rt::Scheduler sched(2);
  std::vector<std::int64_t> asc(10000), desc(10000);
  std::iota(asc.begin(), asc.end(), 0);
  for (std::size_t i = 0; i < desc.size(); ++i) {
    desc[i] = static_cast<std::int64_t>(desc.size() - i);
  }
  auto asc_copy = asc;
  sched.run([&] {
    par::parallel_sort(asc);
    par::parallel_sort(desc);
  });
  EXPECT_EQ(asc, asc_copy);
  EXPECT_TRUE(std::is_sorted(desc.begin(), desc.end()));
}

TEST(Sort, StableForEqualKeys) {
  rt::Scheduler sched(4);
  struct Item {
    int key;
    int seq;
  };
  Xoshiro256 rng(7);
  std::vector<Item> data(20000);
  for (int i = 0; i < static_cast<int>(data.size()); ++i) {
    data[static_cast<std::size_t>(i)] = {static_cast<int>(rng.next_below(16)), i};
  }
  sched.run([&] {
    par::parallel_sort(data.data(), static_cast<std::int64_t>(data.size()),
                       [](const Item& a, const Item& b) { return a.key < b.key; });
  });
  for (std::size_t i = 1; i < data.size(); ++i) {
    ASSERT_LE(data[i - 1].key, data[i].key);
    if (data[i - 1].key == data[i].key) {
      ASSERT_LT(data[i - 1].seq, data[i].seq) << "instability at " << i;
    }
  }
}

TEST(Sort, CustomComparatorDescending) {
  rt::Scheduler sched(2);
  auto data = random_values(3000, 8);
  sched.run([&] {
    par::parallel_sort(data.data(), static_cast<std::int64_t>(data.size()),
                       [](std::int64_t a, std::int64_t b) { return a > b; });
  });
  EXPECT_TRUE(std::is_sorted(data.rbegin(), data.rend()));
}

// --- batch-prep primitives (prefix_sum.hpp, reduce.hpp), serial and parallel --

TEST(CutoffGuards, SetAndRestoreTheSharedTunables) {
  const std::int64_t scan0 = par::scan_serial_cutoff();
  const std::int64_t sort0 = par::sort_serial_cutoff();
  const std::int64_t merge0 = par::merge_serial_cutoff();
  {
    par::ScanCutoffGuard scan_guard(1);
    par::SortCutoffGuard sort_guard(2, 3);
    EXPECT_EQ(par::scan_serial_cutoff(), 1);
    EXPECT_EQ(par::sort_serial_cutoff(), 2);
    EXPECT_EQ(par::merge_serial_cutoff(), 3);
  }
  EXPECT_EQ(par::scan_serial_cutoff(), scan0);
  EXPECT_EQ(par::sort_serial_cutoff(), sort0);
  EXPECT_EQ(par::merge_serial_cutoff(), merge0);
}

class ScanExclusiveTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanExclusiveTest, MatchesSerialModelOnBothSchemes) {
  const std::size_t n = GetParam();
  rt::Scheduler sched(4);
  const auto input = random_values(n, 11);
  std::vector<std::int64_t> expected(n);
  std::int64_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = running;
    running += input[i];
  }
  for (const std::int64_t cutoff : {std::int64_t{512}, std::int64_t{1}}) {
    par::ScanCutoffGuard guard(cutoff);
    auto data = input;
    std::int64_t total = 0;
    sched.run([&] {
      total = par::exclusive_prefix_sums(data.data(),
                                         static_cast<std::int64_t>(n));
    });
    EXPECT_EQ(data, expected) << "cutoff " << cutoff;
    EXPECT_EQ(total, running) << "cutoff " << cutoff;
  }
}

TEST_P(ScanExclusiveTest, NonCommutativeOperator) {
  const std::size_t n = GetParam();
  rt::Scheduler sched(4);
  Xoshiro256 rng(12);
  std::vector<Affine> input(n);
  for (auto& f : input) {
    f.a = (rng.next() & 1) ? 1 : -1;
    f.b = static_cast<std::int64_t>(rng.next_below(100));
  }
  std::vector<Affine> expected(n);
  Affine running{1, 0};
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = running;
    running = compose(running, input[i]);
  }
  par::ScanCutoffGuard guard(1);  // force the blocked parallel scheme
  auto data = input;
  Affine total{1, 0};
  sched.run([&] {
    total = par::scan_exclusive(data.data(), static_cast<std::int64_t>(n),
                                compose, Affine{1, 0});
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(data[i], expected[i]) << "position " << i;
  }
  EXPECT_EQ(total, running);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanExclusiveTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 64u, 511u,
                                           512u, 513u, 4097u, 20000u));

TEST(PackIndices, MatchesSerialFilterOnBothSchemes) {
  rt::Scheduler sched(4);
  const std::size_t n = 5000;
  const auto vals = random_values(n, 13, 100);
  std::vector<std::uint32_t> expected;
  for (std::size_t i = 0; i < n; ++i) {
    if (vals[i] > 0) expected.push_back(static_cast<std::uint32_t>(i));
  }
  for (const std::int64_t cutoff : {std::int64_t{1 << 20}, std::int64_t{1}}) {
    par::ScanCutoffGuard guard(cutoff);
    std::vector<std::uint32_t> out;
    std::int64_t count = 0;
    sched.run([&] {
      count = par::pack_indices(
          static_cast<std::int64_t>(n),
          [&](std::int64_t i) { return vals[static_cast<std::size_t>(i)] > 0; },
          out);
    });
    EXPECT_EQ(count, static_cast<std::int64_t>(expected.size()))
        << "cutoff " << cutoff;
    EXPECT_EQ(out, expected) << "cutoff " << cutoff;
  }
}

TEST(PackIndices, EmptyAllAndNone) {
  par::ScanCutoffGuard guard(1);
  rt::Scheduler sched(2);
  std::vector<std::uint32_t> out{99};  // stale contents must be discarded
  sched.run([&] {
    EXPECT_EQ(par::pack_indices(0, [](std::int64_t) { return true; }, out), 0);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(par::pack_indices(100, [](std::int64_t) { return false; }, out),
              0);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(par::pack_indices(100, [](std::int64_t) { return true; }, out),
              100);
  });
  ASSERT_EQ(out.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i);
}

TEST(ScanReduce, MatchesSerialOnBothSchemes) {
  rt::Scheduler sched(4);
  const auto vals = random_values(3000, 14);
  const std::int64_t expected_sum =
      std::accumulate(vals.begin(), vals.end(), std::int64_t{0});
  const std::int64_t expected_max =
      *std::max_element(vals.begin(), vals.end());
  for (const std::int64_t cutoff : {std::int64_t{1 << 20}, std::int64_t{1}}) {
    par::ScanCutoffGuard guard(cutoff);
    std::int64_t sum = 0, mx = 0;
    sched.run([&] {
      sum = par::reduce<std::int64_t>(
          static_cast<std::int64_t>(vals.size()),
          [&](std::int64_t i) { return vals[static_cast<std::size_t>(i)]; },
          [](std::int64_t a, std::int64_t b) { return a + b; },
          std::int64_t{0});
      mx = par::reduce<std::int64_t>(
          static_cast<std::int64_t>(vals.size()),
          [&](std::int64_t i) { return vals[static_cast<std::size_t>(i)]; },
          [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
          std::numeric_limits<std::int64_t>::min());
    });
    EXPECT_EQ(sum, expected_sum) << "cutoff " << cutoff;
    EXPECT_EQ(mx, expected_max) << "cutoff " << cutoff;
  }
  EXPECT_EQ(par::reduce<std::int64_t>(
                0, [](std::int64_t) { return 1; },
                [](std::int64_t a, std::int64_t b) { return a + b; },
                std::int64_t{42}),
            42);
}

// --- parallel merge (parallel/sort.hpp), outside msort ----------------------

TEST(ParallelMerge, MatchesStdMergeAcrossSkews) {
  rt::Scheduler sched(4);
  par::SortCutoffGuard guard(4);  // force the split recursion
  Xoshiro256 rng(15);
  const std::size_t shapes[][2] = {{0, 0},   {0, 100}, {100, 0}, {1, 1000},
                                   {777, 778}, {2048, 16}};
  for (const auto& shape : shapes) {
    std::vector<std::int64_t> a(shape[0]), b(shape[1]);
    for (auto& x : a) x = static_cast<std::int64_t>(rng.next_below(500));
    for (auto& x : b) x = static_cast<std::int64_t>(rng.next_below(500));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<std::int64_t> expected(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
    std::vector<std::int64_t> out(a.size() + b.size());
    sched.run([&] {
      par::parallel_merge(a.data(), static_cast<std::int64_t>(a.size()),
                          b.data(), static_cast<std::int64_t>(b.size()),
                          out.data(), std::less<std::int64_t>{});
    });
    EXPECT_EQ(out, expected) << "shape " << shape[0] << "+" << shape[1];
  }
}

TEST(ParallelMerge, StableLeftBeforeRightOnTies) {
  rt::Scheduler sched(4);
  par::SortCutoffGuard guard(2);
  struct Item {
    int key;
    int src;  // 0 = left run, 1 = right run
  };
  Xoshiro256 rng(16);
  std::vector<Item> a(4000), b(4000);
  for (auto& it : a) it = {static_cast<int>(rng.next_below(8)), 0};
  for (auto& it : b) it = {static_cast<int>(rng.next_below(8)), 1};
  auto by_key = [](const Item& x, const Item& y) { return x.key < y.key; };
  std::stable_sort(a.begin(), a.end(), by_key);
  std::stable_sort(b.begin(), b.end(), by_key);
  std::vector<Item> out(a.size() + b.size());
  sched.run([&] {
    par::parallel_merge(a.data(), static_cast<std::int64_t>(a.size()),
                        b.data(), static_cast<std::int64_t>(b.size()),
                        out.data(), by_key);
  });
  for (std::size_t i = 1; i < out.size(); ++i) {
    ASSERT_LE(out[i - 1].key, out[i].key) << "position " << i;
    if (out[i - 1].key == out[i].key) {
      // Within a tie group all left-run elements precede right-run ones.
      ASSERT_LE(out[i - 1].src, out[i].src) << "instability at " << i;
    }
  }
}

// --- measured span of the primitives ----------------------------------------
//
// span_tasks counts spawns along the critical path and is schedule-invariant
// (a dag property), so these are exact asserts, valid even on one core.
// Measuring requires an active TraceSession (the ledger is off-path
// otherwise).

std::uint64_t measure_span_tasks(const std::function<void()>& body) {
  trace::TraceSession::Options opt;
  opt.ring_capacity = std::size_t{1} << 14;
  trace::TraceSession session(opt);
  rt::StatsSnapshot stats;
  {
    rt::Scheduler sched(2);
    sched.export_final_stats(&stats);
    sched.run([&] { body(); });
  }
  session.stop();
  EXPECT_EQ(stats.runs_measured, 1u);
  return stats.span_tasks;
}

TEST(PrimitiveSpan, BlockedScanSpanIsFlatInN) {
  // The blocked schemes fork min(n, 4P) blocks: once n clears that, the
  // task-count span does not depend on n at all.
  par::ScanCutoffGuard guard(1);
  std::vector<std::int64_t> small(4096, 1), large(65536, 1);
  const std::uint64_t span_small = measure_span_tasks([&] {
    par::exclusive_prefix_sums(small.data(),
                               static_cast<std::int64_t>(small.size()));
  });
  const std::uint64_t span_large = measure_span_tasks([&] {
    par::exclusive_prefix_sums(large.data(),
                               static_cast<std::int64_t>(large.size()));
  });
  EXPECT_GT(span_small, 0u);
  EXPECT_EQ(span_large, span_small)
      << "blocked scan span must not grow with n (16x input)";
}

TEST(PrimitiveSpan, PackSpanIsFlatInN) {
  par::ScanCutoffGuard guard(1);
  std::vector<std::uint32_t> out;
  const std::uint64_t span_small = measure_span_tasks([&] {
    par::pack_indices(4096, [](std::int64_t i) { return (i & 1) == 0; }, out);
  });
  const std::uint64_t span_large = measure_span_tasks([&] {
    par::pack_indices(65536, [](std::int64_t i) { return (i & 1) == 0; }, out);
  });
  EXPECT_GT(span_small, 0u);
  EXPECT_EQ(span_large, span_small);
}

TEST(PrimitiveSpan, MergeSortSpanGrowsPolylogarithmically) {
  // msort is Θ(lg³ n) span: multiplying n by 16 must multiply the measured
  // task span by far less than 16 (a serial splice would scale linearly).
  par::SortCutoffGuard guard(8);
  auto small = random_values(1024, 17);
  auto large = random_values(16384, 18);
  const std::uint64_t span_small = measure_span_tasks([&] {
    par::parallel_sort(small);
  });
  const std::uint64_t span_large = measure_span_tasks([&] {
    par::parallel_sort(large);
  });
  ASSERT_GT(span_small, 0u);
  EXPECT_LT(span_large, 4 * span_small)
      << "16x input must cost <4x span (polylog), got " << span_small
      << " -> " << span_large;
  EXPECT_LT(span_large, large.size() / 16)
      << "span must be far below linear";
}

TEST(PrimitiveSpan, ParallelMergeSpanGrowsPolylogarithmically) {
  par::SortCutoffGuard guard(8);
  auto mk = [](std::size_t n, std::uint64_t seed) {
    auto v = random_values(n, seed);
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto a_small = mk(512, 19), b_small = mk(512, 20);
  const auto a_large = mk(8192, 21), b_large = mk(8192, 22);
  std::vector<std::int64_t> out_small(1024), out_large(16384);
  const std::uint64_t span_small = measure_span_tasks([&] {
    par::parallel_merge(a_small.data(), 512, b_small.data(), 512,
                        out_small.data(), std::less<std::int64_t>{});
  });
  const std::uint64_t span_large = measure_span_tasks([&] {
    par::parallel_merge(a_large.data(), 8192, b_large.data(), 8192,
                        out_large.data(), std::less<std::int64_t>{});
  });
  ASSERT_GT(span_small, 0u);
  EXPECT_LT(span_large, 4 * span_small)
      << "16x input must cost <4x merge span, got " << span_small << " -> "
      << span_large;
}

}  // namespace
}  // namespace batcher
