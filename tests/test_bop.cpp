// BOP property suite (`ctest -R bop`).
//
// The skip list picks its BOP path by batch size: at most
// ds::kSerialApplyMaxKeys write keys replay serially in working-set order,
// larger batches run the sort-merge path, which reorders the batch
// internally (sort by key, scan-pack groups, parallel combine).  The 2-3
// tree always sorts each phase's keys before its bulk pass, which reorders
// the same way; the hash map always replays serially.
// That reordering is exactly where same-key semantics can silently break:
// two inserts of one key racing for "first wins", an erase and a contains
// straddling the phase boundary, update deltas folding in the wrong order.
// This suite pins those semantics four ways:
//
//   1. 500-seed perturbed-tape sweeps per structure: randomly generated
//      batches over a deliberately tiny key universe (so nearly every batch
//      carries same-key collisions), sized across [1, 4 * cutoff] and
//      driven through run_batch, checked op-for-op against a sequential
//      phase-aware reference model.  Every skip-list seed must land rounds
//      on both sides of the cutoff, so its sweep is also the
//      serial-vs-sort-merge equivalence check.
//   2. Skip-list boundary batches at exactly the cutoff and one key past it,
//      including a MultiInsert record that straddles it.
//   3. Blocking-API rounds under the schedule perturber (when BATCHER_AUDIT
//      hooks are compiled in): batch partitions are whatever the real launch
//      protocol produces, so each round asserts only partition-insensitive
//      aggregates — per-key success counts and delta sums.
//   4. Large direct-driven batches (including the paper's MultiInsert trick)
//      that push every size bucket the span profile measures.
//
// The reference semantics (documented in each structure's header): reads
// observe the pre-batch state; then erases apply in working-set order; then
// inserts apply in working-set order ("first wins" on duplicates).  The hash
// map is stronger: full sequential replay in working-set order, so a Get
// observes an earlier same-batch Put.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit_session.hpp"
#include "audit/schedule_perturber.hpp"
#include "batcher/op_record.hpp"
#include "ds/batch_prep.hpp"
#include "ds/batched_hashmap.hpp"
#include "ds/batched_skiplist.hpp"
#include "ds/batched_tree23.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace batcher {
namespace {

using ds::BatchedHashMap;
using ds::BatchedSkipList;
using ds::BatchedTree23;
using Key = std::int64_t;

constexpr std::uint64_t kSweepSeeds = 500;
constexpr int kRoundsPerSeed = 6;
// A seed keeps drawing rounds past kRoundsPerSeed until it has hit both
// sides of the serial cutoff; this caps that.
constexpr int kMaxRoundsPerSeed = 64;
constexpr std::size_t kCutoff = ds::kSerialApplyMaxKeys;

// Sweep batch size: uniform over [1, 4 * cutoff] ops.
std::size_t draw_batch_size(Xoshiro256& rng) {
  return 1 + static_cast<std::size_t>(rng.next_below(4 * kCutoff));
}

// Counts a seed's rounds on each side of the cutoff.
struct SideCount {
  int serial = 0;
  int sortmerge = 0;

  void note(std::size_t write_keys) {
    ++(write_keys <= kCutoff ? serial : sortmerge);
  }
  bool both() const { return serial > 0 && sortmerge > 0; }
  bool more_rounds(int round) const {
    return round < kRoundsPerSeed || (!both() && round < kMaxRoundsPerSeed);
  }
};

// Keys are drawn from {0, 10, 20, ..., 110}: 12 values, so a 30-op batch
// averages multiple ops per key, and the gaps make Successor / RangeCount
// probes distinguish "key present" from "neighbour present".
constexpr std::int64_t kUniverse = 12;

Key draw_key(Xoshiro256& rng) {
  return static_cast<Key>(rng.next_below(kUniverse)) * 10;
}

// ---------------------------------------------------------------------------
// 1a. Skip list: mixed tape vs phase-aware model.
// ---------------------------------------------------------------------------

struct SkipSpec {
  BatchedSkipList::Kind kind = BatchedSkipList::Kind::Insert;
  Key key = 0;
  Key key2 = 0;
  std::vector<Key> multi;  // MultiInsert payload
};

struct SkipExpected {
  bool found = false;
  std::int64_t count = 0;
  std::optional<Key> out_key;
};

std::vector<SkipSpec> random_skip_batch(Xoshiro256& rng, std::size_t n) {
  std::vector<SkipSpec> specs(n);
  for (auto& s : specs) {
    const std::uint64_t pick = rng.next_below(12);
    s.key = draw_key(rng);
    if (pick < 4) {
      s.kind = BatchedSkipList::Kind::Insert;
    } else if (pick < 7) {
      s.kind = BatchedSkipList::Kind::Erase;
    } else if (pick < 9) {
      s.kind = BatchedSkipList::Kind::Contains;
    } else if (pick < 10) {
      s.kind = BatchedSkipList::Kind::Successor;
      s.key += static_cast<Key>(rng.next_below(15)) - 7;  // off-grid probes
    } else if (pick < 11) {
      s.kind = BatchedSkipList::Kind::RangeCount;
      s.key2 = s.key + static_cast<Key>(rng.next_below(60));
    } else {
      s.kind = BatchedSkipList::Kind::MultiInsert;
      s.multi.resize(1 + rng.next_below(4));
      for (auto& k : s.multi) k = draw_key(rng);
    }
  }
  return specs;
}

// Applies one batch to the model set and returns per-op expectations
// (reads on the pre state, then erases, then inserts, each in batch order).
std::vector<SkipExpected> model_skip_batch(std::set<Key>& s,
                                           const std::vector<SkipSpec>& specs) {
  std::vector<SkipExpected> exp(specs.size());
  const std::set<Key> pre = s;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SkipSpec& sp = specs[i];
    switch (sp.kind) {
      case BatchedSkipList::Kind::Contains:
        exp[i].found = pre.count(sp.key) > 0;
        break;
      case BatchedSkipList::Kind::Successor: {
        auto it = pre.lower_bound(sp.key);
        exp[i].out_key =
            it != pre.end() ? std::optional<Key>(*it) : std::nullopt;
        break;
      }
      case BatchedSkipList::Kind::RangeCount: {
        std::int64_t c = 0;
        for (auto it = pre.lower_bound(sp.key);
             it != pre.end() && *it <= sp.key2; ++it) {
          ++c;
        }
        exp[i].count = c;
        break;
      }
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedSkipList::Kind::Erase) {
      exp[i].found = s.erase(specs[i].key) > 0;
    }
  }
  // Insert phase.  The gather numbers every single-Insert record before any
  // MultiInsert payload key, so `found` goes to the first single Insert of a
  // key (in batch order) — a same-batch MultiInsert of that key never steals
  // the attribution, though membership is the union either way.
  const std::set<Key> pre_insert = s;
  std::set<Key> claimed;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedSkipList::Kind::Insert) {
      const bool first = claimed.insert(specs[i].key).second;
      exp[i].found = first && pre_insert.count(specs[i].key) == 0;
      s.insert(specs[i].key);
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedSkipList::Kind::MultiInsert) {
      for (Key k : specs[i].multi) s.insert(k);
    }
  }
  return exp;
}

// The skip list's cutoff counts erases, single inserts and every MultiInsert
// payload key.
std::size_t skip_write_keys(const std::vector<SkipSpec>& specs) {
  std::size_t n = 0;
  for (const SkipSpec& sp : specs) {
    switch (sp.kind) {
      case BatchedSkipList::Kind::Erase:
      case BatchedSkipList::Kind::Insert: ++n; break;
      case BatchedSkipList::Kind::MultiInsert: n += sp.multi.size(); break;
      default: break;
    }
  }
  return n;
}

void run_skip_batch(BatchedSkipList& list, const std::vector<SkipSpec>& specs,
                    const std::vector<SkipExpected>& exp, const char* tag,
                    std::uint64_t seed, int round) {
  std::vector<BatchedSkipList::Op> ops(specs.size());
  std::vector<OpRecordBase*> ptrs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops[i].kind = specs[i].kind;
    ops[i].key = specs[i].key;
    ops[i].key2 = specs[i].key2;
    ops[i].keys = specs[i].multi.data();
    ops[i].num_keys = specs[i].multi.size();
    ptrs[i] = &ops[i];
  }
  list.run_batch(ptrs.data(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const char* where = tag;
    switch (specs[i].kind) {
      case BatchedSkipList::Kind::MultiInsert:
        break;  // no per-op result contract
      case BatchedSkipList::Kind::Successor:
        ASSERT_EQ(ops[i].out_key, exp[i].out_key)
            << where << " seed " << seed << " round " << round << " op " << i;
        break;
      case BatchedSkipList::Kind::RangeCount:
        ASSERT_EQ(ops[i].count, exp[i].count)
            << where << " seed " << seed << " round " << round << " op " << i;
        break;
      default:
        ASSERT_EQ(ops[i].found, exp[i].found)
            << where << " seed " << seed << " round " << round << " op " << i;
        break;
    }
  }
}

TEST(BopSameKey, SkipListMixedTapeMatchesModel) {
  rt::Scheduler sched(2);
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    Xoshiro256 rng(seed * 2 + 1);
    BatchedSkipList list(sched, seed + 1);
    std::set<Key> model;
    SideCount sides;
    sched.run([&] {
      for (int round = 0; sides.more_rounds(round); ++round) {
        const auto specs = random_skip_batch(rng, draw_batch_size(rng));
        sides.note(skip_write_keys(specs));
        const auto exp = model_skip_batch(model, specs);
        ASSERT_NO_FATAL_FAILURE(
            run_skip_batch(list, specs, exp, "skiplist", seed, round));
      }
    });
    ASSERT_TRUE(sides.both()) << "seed " << seed << " serial "
                              << sides.serial << " sortmerge "
                              << sides.sortmerge;
    ASSERT_TRUE(list.check_invariants()) << "seed " << seed;
    ASSERT_EQ(list.size_unsafe(), model.size()) << "seed " << seed;
    for (std::int64_t k = 0; k < kUniverse; ++k) {
      ASSERT_EQ(list.contains_unsafe(k * 10), model.count(k * 10) > 0)
          << "seed " << seed << " key " << k * 10;
    }
  }
}

// ---------------------------------------------------------------------------
// 1b. 2-3 tree: insert/erase/contains tape vs phase-aware model.
// ---------------------------------------------------------------------------

struct TreeSpec {
  BatchedTree23::Kind kind = BatchedTree23::Kind::Insert;
  Key key = 0;
};

std::vector<TreeSpec> random_tree_batch(Xoshiro256& rng, std::size_t n) {
  std::vector<TreeSpec> specs(n);
  for (auto& s : specs) {
    const std::uint64_t pick = rng.next_below(9);
    s.key = draw_key(rng);
    if (pick < 4) {
      s.kind = BatchedTree23::Kind::Insert;
    } else if (pick < 7) {
      s.kind = BatchedTree23::Kind::Erase;
    } else {
      s.kind = BatchedTree23::Kind::Contains;
    }
  }
  return specs;
}

// Per-op expected `found`: contains on the pre state, then erases, then
// inserts, each in batch order.
std::vector<bool> model_tree_batch(std::set<Key>& s,
                                   const std::vector<TreeSpec>& specs) {
  std::vector<bool> exp(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedTree23::Kind::Contains) {
      exp[i] = s.count(specs[i].key) > 0;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedTree23::Kind::Erase) {
      exp[i] = s.erase(specs[i].key) > 0;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedTree23::Kind::Insert) {
      exp[i] = s.insert(specs[i].key).second;
    }
  }
  return exp;
}

void run_tree_batch(BatchedTree23& tree, const std::vector<TreeSpec>& specs,
                    const std::vector<bool>& exp, const char* tag,
                    std::uint64_t seed, int round) {
  std::vector<BatchedTree23::Op> ops(specs.size());
  std::vector<OpRecordBase*> ptrs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops[i].kind = specs[i].kind;
    ops[i].key = specs[i].key;
    ptrs[i] = &ops[i];
  }
  tree.run_batch(ptrs.data(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(ops[i].found, exp[i])
        << tag << " seed " << seed << " round " << round << " op " << i;
  }
}

// The tree has no serial cutoff (one bulk path at every size), so its sweep
// draws the same batch sizes but has no sides to count.
TEST(BopSameKey, Tree23MixedTapeMatchesModel) {
  rt::Scheduler sched(2);
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    Xoshiro256 rng(seed * 2 + 2);
    BatchedTree23 tree(sched);
    std::set<Key> model;
    sched.run([&] {
      for (int round = 0; round < kRoundsPerSeed; ++round) {
        const auto specs = random_tree_batch(rng, draw_batch_size(rng));
        const auto exp = model_tree_batch(model, specs);
        ASSERT_NO_FATAL_FAILURE(
            run_tree_batch(tree, specs, exp, "tree23", seed, round));
      }
    });
    ASSERT_TRUE(tree.check_invariants()) << "seed " << seed;
    ASSERT_EQ(tree.size_unsafe(), model.size()) << "seed " << seed;
    for (std::int64_t k = 0; k < kUniverse; ++k) {
      ASSERT_EQ(tree.contains_unsafe(k * 10), model.count(k * 10) > 0)
          << "seed " << seed << " key " << k * 10;
    }
  }
}

// ---------------------------------------------------------------------------
// 1c. Hash map: mixed tape vs sequential working-set replay.
// ---------------------------------------------------------------------------

struct MapSpec {
  BatchedHashMap::Kind kind = BatchedHashMap::Kind::Put;
  Key key = 0;
  std::int64_t value = 0;
};

struct MapExpected {
  bool found = false;
  std::optional<std::int64_t> out;
};

std::vector<MapSpec> random_map_batch(Xoshiro256& rng, std::size_t n) {
  std::vector<MapSpec> specs(n);
  for (auto& s : specs) {
    const std::uint64_t pick = rng.next_below(8);
    s.key = draw_key(rng);
    s.value = static_cast<std::int64_t>(rng.next_below(1000));
    if (pick < 2) {
      s.kind = BatchedHashMap::Kind::Put;
    } else if (pick < 4) {
      s.kind = BatchedHashMap::Kind::Get;
    } else if (pick < 6) {
      s.kind = BatchedHashMap::Kind::Update;
    } else {
      s.kind = BatchedHashMap::Kind::Erase;
    }
  }
  return specs;
}

// The hash map's documented semantics are full sequential replay in
// working-set order: a Get observes an earlier same-batch Put, and Update
// deltas fold left-to-right.
std::vector<MapExpected> model_map_batch(std::map<Key, std::int64_t>& m,
                                         const std::vector<MapSpec>& specs) {
  std::vector<MapExpected> exp(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MapSpec& sp = specs[i];
    switch (sp.kind) {
      case BatchedHashMap::Kind::Put:
        m[sp.key] = sp.value;
        break;
      case BatchedHashMap::Kind::Get: {
        auto it = m.find(sp.key);
        exp[i].out = it != m.end() ? std::optional<std::int64_t>(it->second)
                                   : std::nullopt;
        break;
      }
      case BatchedHashMap::Kind::Update:
        m[sp.key] += sp.value;
        exp[i].out = m[sp.key];
        break;
      case BatchedHashMap::Kind::Erase:
        exp[i].found = m.erase(sp.key) > 0;
        break;
    }
  }
  return exp;
}

void run_map_batch(BatchedHashMap& map, const std::vector<MapSpec>& specs,
                   const std::vector<MapExpected>& exp, const char* tag,
                   std::uint64_t seed, int round) {
  std::vector<BatchedHashMap::Op> ops(specs.size());
  std::vector<OpRecordBase*> ptrs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops[i].kind = specs[i].kind;
    ops[i].key = specs[i].key;
    ops[i].value = specs[i].value;
    ptrs[i] = &ops[i];
  }
  map.run_batch(ptrs.data(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    switch (specs[i].kind) {
      case BatchedHashMap::Kind::Get:
      case BatchedHashMap::Kind::Update:
        ASSERT_EQ(ops[i].out, exp[i].out)
            << tag << " seed " << seed << " round " << round << " op " << i;
        break;
      case BatchedHashMap::Kind::Erase:
        ASSERT_EQ(ops[i].found, exp[i].found)
            << tag << " seed " << seed << " round " << round << " op " << i;
        break;
      default:
        break;
    }
  }
}

// The map replays serially at every size, so like the tree it has no sides
// to count.
TEST(BopSameKey, HashMapMixedTapeMatchesWorkingSetReplay) {
  rt::Scheduler sched(2);
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    Xoshiro256 rng(seed * 2 + 3);
    BatchedHashMap map(sched);
    std::map<Key, std::int64_t> model;
    sched.run([&] {
      for (int round = 0; round < kRoundsPerSeed; ++round) {
        const auto specs = random_map_batch(rng, draw_batch_size(rng));
        const auto exp = model_map_batch(model, specs);
        ASSERT_NO_FATAL_FAILURE(
            run_map_batch(map, specs, exp, "hashmap", seed, round));
      }
    });
    ASSERT_TRUE(map.check_invariants()) << "seed " << seed;
    ASSERT_EQ(map.size_unsafe(), model.size()) << "seed " << seed;
    for (const auto& [k, v] : model) {
      ASSERT_EQ(map.get_unsafe(k), std::optional<std::int64_t>(v))
          << "seed " << seed << " key " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Boundary batches: exactly the cutoff, and one write key past it.
// ---------------------------------------------------------------------------

// A skip-list batch with `write_keys` write keys over a small universe (so
// same-key collisions still occur) and a few reads.  With `multi_keys` > 0
// the last `multi_keys` of them ride in one MultiInsert record, so for
// write_keys == cutoff + 1 that record straddles the cutoff.
std::vector<SkipSpec> boundary_skip_batch(Xoshiro256& rng,
                                          std::size_t write_keys,
                                          std::size_t multi_keys) {
  std::vector<SkipSpec> specs;
  for (std::size_t i = 0; i + multi_keys < write_keys; ++i) {
    SkipSpec sp;
    sp.kind = rng.next_below(3) == 0 ? BatchedSkipList::Kind::Erase
                                     : BatchedSkipList::Kind::Insert;
    sp.key = draw_key(rng);
    specs.push_back(sp);
    if (i % 8 == 0) {
      SkipSpec read;
      read.kind = BatchedSkipList::Kind::Contains;
      read.key = draw_key(rng);
      specs.push_back(read);
    }
  }
  if (multi_keys > 0) {
    SkipSpec sp;
    sp.kind = BatchedSkipList::Kind::MultiInsert;
    sp.multi.resize(multi_keys);
    for (auto& k : sp.multi) k = draw_key(rng);
    specs.push_back(sp);
  }
  return specs;
}

TEST(BopCutoff, SkipListBatchesAtAndPastTheCutoffMatchModel) {
  rt::Scheduler sched(2);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Xoshiro256 rng(seed + 300);
    BatchedSkipList list(sched, seed + 1);
    std::set<Key> model;
    int round = 0;
    sched.run([&] {
      for (std::size_t write_keys : {kCutoff, kCutoff + 1}) {
        for (std::size_t multi_keys : {std::size_t{0}, std::size_t{1},
                                       std::size_t{5}}) {
          const auto specs = boundary_skip_batch(rng, write_keys, multi_keys);
          ASSERT_EQ(skip_write_keys(specs), write_keys);
          const auto exp = model_skip_batch(model, specs);
          ASSERT_NO_FATAL_FAILURE(
              run_skip_batch(list, specs, exp, "boundary", seed, round++));
        }
      }
    });
    ASSERT_TRUE(list.check_invariants()) << "seed " << seed;
    ASSERT_EQ(list.size_unsafe(), model.size()) << "seed " << seed;
    for (Key k : model) ASSERT_TRUE(list.contains_unsafe(k)) << "key " << k;
  }
}

// ---------------------------------------------------------------------------
// 3. Blocking API under the schedule perturber: partition-insensitive
//    same-key aggregates.  The launch protocol decides the batch partition,
//    so each round asserts only quantities every partition must produce.
// ---------------------------------------------------------------------------

class PerturbedScope {
 public:
  explicit PerturbedScope(std::uint64_t seed) {
    if (rt::hooks::kEnabled) {
      audit::SchedulePerturber::Options opts;
      opts.yield_one_in = 96;
      opts.pause_one_in = 8;
      opts.max_pause_spins = 32;
      session_ = std::make_unique<audit::AuditSession>(4, seed, opts);
      session_->install();
    }
  }
  ~PerturbedScope() {
    if (session_ != nullptr) {
      EXPECT_TRUE(session_->auditor().clean()) << session_->auditor().report();
      session_->uninstall();
    }
  }

 private:
  std::unique_ptr<audit::AuditSession> session_;
};

TEST(BopPerturbed, SameKeyRoundsKeepAggregateSemantics) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    PerturbedScope perturbed(seed + 100);
    Xoshiro256 rng(seed + 100);
    rt::Scheduler sched(4);
    BatchedSkipList list(sched, seed + 1);
    std::set<Key> member;  // pre-round membership
    sched.run([&] {
      for (int round = 0; round < 8; ++round) {
        // Each key is touched by ops of a single kind per round, several
        // strands each, so per-key success counts are partition-invariant:
        // exactly one insert per absent key wins, exactly one erase per
        // present key wins, and contains always answers pre-round
        // membership (no other op touches that key this round).
        struct RoundPlan {
          Key key;
          int kind;  // 0=insert 1=erase 2=contains
        };
        std::vector<RoundPlan> plan(static_cast<std::size_t>(kUniverse));
        for (std::int64_t k = 0; k < kUniverse; ++k) {
          plan[static_cast<std::size_t>(k)] =
              RoundPlan{k * 10, static_cast<int>(rng.next_below(3))};
        }
        const std::int64_t per_key = 3;
        std::vector<std::atomic<std::int64_t>> hits(
            static_cast<std::size_t>(kUniverse));
        for (auto& h : hits) h.store(0);
        rt::parallel_for(
            0, kUniverse * per_key,
            [&](std::int64_t i) {
              const auto ki = static_cast<std::size_t>(i / per_key);
              const Key key = plan[ki].key;
              bool hit = false;
              switch (plan[ki].kind) {
                case 0: hit = list.insert(key); break;
                case 1: hit = list.erase(key); break;
                default: hit = list.contains(key); break;
              }
              if (hit) hits[ki].fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/1);
        for (std::int64_t k = 0; k < kUniverse; ++k) {
          const auto ki = static_cast<std::size_t>(k);
          const bool was_in = member.count(k * 10) > 0;
          std::int64_t expect_hits = 0;
          switch (plan[ki].kind) {
            case 0:  // exactly one of the duplicate inserts wins
              expect_hits = was_in ? 0 : 1;
              member.insert(k * 10);
              break;
            case 1:  // exactly one of the duplicate erases wins
              expect_hits = was_in ? 1 : 0;
              member.erase(k * 10);
              break;
            default:  // every contains sees pre-round membership
              expect_hits = was_in ? per_key : 0;
              break;
          }
          ASSERT_EQ(hits[ki].load(), expect_hits)
              << "seed " << seed << " round " << round << " key " << k * 10
              << " kind " << plan[ki].kind;
        }
      }
    });
    ASSERT_TRUE(list.check_invariants()) << "seed " << seed;
    ASSERT_EQ(list.size_unsafe(), member.size()) << "seed " << seed;
  }
}

TEST(BopPerturbed, UpdateDeltasFoldExactly) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    PerturbedScope perturbed(seed + 200);
    rt::Scheduler sched(4);
    BatchedHashMap map(sched);
    const std::int64_t per_key = 25;
    sched.run([&] {
      // All strands update the same few keys with delta 1: whatever the
      // batch partition, the returned post-values for one key must be a
      // permutation of {1, ..., per_key} and the final value per_key.
      std::vector<std::atomic<std::int64_t>> sum(
          static_cast<std::size_t>(kUniverse));
      for (auto& s : sum) s.store(0);
      rt::parallel_for(
          0, kUniverse * per_key,
          [&](std::int64_t i) {
            const std::int64_t k = i / per_key;
            const std::int64_t post = map.update_add(k * 10, 1);
            sum[static_cast<std::size_t>(k)].fetch_add(
                post, std::memory_order_relaxed);
          },
          /*grain=*/1);
      for (std::int64_t k = 0; k < kUniverse; ++k) {
        ASSERT_EQ(sum[static_cast<std::size_t>(k)].load(),
                  per_key * (per_key + 1) / 2)
            << "seed " << seed << " key " << k * 10;
      }
    });
    ASSERT_TRUE(map.check_invariants()) << "seed " << seed;
    for (std::int64_t k = 0; k < kUniverse; ++k) {
      ASSERT_EQ(map.get_unsafe(k * 10), std::optional<std::int64_t>(per_key))
          << "seed " << seed << " key " << k * 10;
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Large direct-driven batches: the sizes the span profile measures.
// ---------------------------------------------------------------------------

TEST(BopLarge, DirectBatchesAcrossAllSizeBuckets) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched, 99);
  BatchedTree23 tree(sched);
  std::set<Key> model;
  Xoshiro256 rng(99);
  sched.run([&] {
    for (std::size_t n : {1u, 4u, 16u, 64u, 1024u}) {
      std::vector<Key> keys(n);
      for (auto& k : keys) {
        k = static_cast<Key>(rng.next_below(4 * n));  // ~25% duplicates
      }
      std::vector<BatchedSkipList::Op> lops(n);
      std::vector<BatchedTree23::Op> tops(n);
      std::vector<OpRecordBase*> lptr(n), tptr(n);
      for (std::size_t i = 0; i < n; ++i) {
        lops[i].kind = BatchedSkipList::Kind::Insert;
        lops[i].key = keys[i];
        tops[i].kind = BatchedTree23::Kind::Insert;
        tops[i].key = keys[i];
        lptr[i] = &lops[i];
        tptr[i] = &tops[i];
      }
      list.run_batch(lptr.data(), n);
      tree.run_batch(tptr.data(), n);
      for (Key k : keys) model.insert(k);
      ASSERT_EQ(list.size_unsafe(), model.size()) << "after insert n=" << n;
      ASSERT_EQ(tree.size_unsafe(), model.size()) << "after insert n=" << n;
      // Erase half of this round's keys in the same large-batch style.
      const std::size_t half = (n + 1) / 2;
      for (std::size_t i = 0; i < half; ++i) {
        lops[i].kind = BatchedSkipList::Kind::Erase;
        lops[i].found = false;
        tops[i].kind = BatchedTree23::Kind::Erase;
        tops[i].found = false;
      }
      list.run_batch(lptr.data(), half);
      tree.run_batch(tptr.data(), half);
      for (std::size_t i = 0; i < half; ++i) model.erase(keys[i]);
      ASSERT_EQ(list.size_unsafe(), model.size()) << "after erase n=" << n;
      ASSERT_EQ(tree.size_unsafe(), model.size()) << "after erase n=" << n;
    }
  });
  ASSERT_TRUE(list.check_invariants());
  ASSERT_TRUE(tree.check_invariants());
  for (Key k : model) {
    ASSERT_TRUE(list.contains_unsafe(k)) << "key " << k;
    ASSERT_TRUE(tree.contains_unsafe(k)) << "key " << k;
  }
}

TEST(BopLarge, MultiInsertLargeBatchMatchesSet) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched, 7);
  Xoshiro256 rng(7);
  // The paper's BATCHIFY trick: each record carries 100 keys; one batch of
  // 16 records therefore splices 1600 keys (gt_64 bucket) in one BOP.
  constexpr std::size_t kRecords = 16;
  constexpr std::size_t kPerRecord = 100;
  std::vector<std::vector<Key>> payload(kRecords);
  std::set<Key> model;
  for (auto& p : payload) {
    p.resize(kPerRecord);
    for (auto& k : p) {
      k = static_cast<Key>(rng.next_below(800));  // heavy duplication
      model.insert(k);
    }
  }
  std::vector<BatchedSkipList::Op> ops(kRecords);
  std::vector<OpRecordBase*> ptrs(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    ops[i].kind = BatchedSkipList::Kind::MultiInsert;
    ops[i].keys = payload[i].data();
    ops[i].num_keys = payload[i].size();
    ptrs[i] = &ops[i];
  }
  sched.run([&] { list.run_batch(ptrs.data(), kRecords); });
  ASSERT_TRUE(list.check_invariants());
  ASSERT_EQ(list.size_unsafe(), model.size());
  for (Key k : model) ASSERT_TRUE(list.contains_unsafe(k)) << "key " << k;
}

// Above the cutoff both write phases search each leaf's distinct keys as one
// lockstep group of up to ds::kSearchGroup cursors.  These batches aim at
// the group's edges: an empty list, keys beyond both ends of the list,
// duplicate runs longer than two groups (so they straddle group and leaf
// boundaries wherever those fall), sizes that are not a multiple of the
// group, and batches whose keys are all present.  Every op's result is
// checked against the phase model: erases in working-set order, then
// inserts in working-set order.
TEST(BopLarge, GroupedSearchMatchesSequentialModel) {
  using Kind = BatchedSkipList::Kind;
  constexpr std::size_t kGroup = ds::kSearchGroup;
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  static_assert((kCutoff + 3) % kGroup != 0 && (kCutoff + 5) % kGroup != 0);
  for (unsigned p : {1u, 4u}) {
    SCOPED_TRACE("P=" + std::to_string(p));
    rt::Scheduler sched(p);
    BatchedSkipList list(sched, 31 + p);
    std::set<Key> model;
    Xoshiro256 rng(17 + p);
    using Batch = std::vector<std::pair<Kind, Key>>;
    auto apply = [&](const Batch& batch, const char* what) {
      SCOPED_TRACE(what);
      ASSERT_GT(batch.size(), kCutoff);
      const std::size_t n = batch.size();
      std::vector<BatchedSkipList::Op> ops(n);
      std::vector<OpRecordBase*> ptrs(n);
      std::vector<bool> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        ops[i].kind = batch[i].first;
        ops[i].key = batch[i].second;
        ptrs[i] = &ops[i];
        if (batch[i].first == Kind::Erase) {
          expected[i] = model.erase(batch[i].second) > 0;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i].first == Kind::Insert) {
          expected[i] = model.insert(batch[i].second).second;
        }
      }
      sched.run([&] { list.run_batch(ptrs.data(), n); });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ops[i].found, expected[i])
            << "op " << i << " key " << batch[i].second;
      }
      ASSERT_TRUE(list.check_invariants());
      ASSERT_EQ(list.size_unsafe(), model.size());
      for (Key k : model) ASSERT_TRUE(list.contains_unsafe(k)) << "key " << k;
    };
    auto uniform = [](Kind kind, const std::vector<Key>& keys) {
      Batch b;
      for (Key k : keys) b.emplace_back(kind, k);
      return b;
    };
    auto inside_keys = [&](std::size_t n) {
      std::vector<Key> keys(n);
      for (auto& k : keys) k = 1000 + static_cast<Key>(rng.next_below(4000));
      return keys;
    };

    // Empty list: every erase misses, then the first inserts land.
    ASSERT_NO_FATAL_FAILURE(
        apply(uniform(Kind::Erase, inside_keys(kCutoff + 3)),
              "erase on empty"));
    ASSERT_NO_FATAL_FAILURE(
        apply(uniform(Kind::Insert, inside_keys(kCutoff + 5)),
              "insert on empty"));
    ASSERT_NO_FATAL_FAILURE(
        apply(uniform(Kind::Insert, inside_keys(40 * kGroup + 3)),
              "populate"));

    // Keys below the minimum and above the maximum (including the Key
    // range's ends and 0, the head sentinel's key), mixed with inside keys.
    std::vector<Key> outside = {kMin, kMin + 1, -7, 0, 1, 999,
                                5001, 1 << 20, kMax - 1, kMax};
    std::vector<Key> ends = inside_keys(kCutoff + 1);
    ends.insert(ends.end(), outside.begin(), outside.end());
    ASSERT_NO_FATAL_FAILURE(
        apply(uniform(Kind::Insert, ends),
              "insert beyond both ends"));
    ASSERT_NO_FATAL_FAILURE(
        apply(uniform(Kind::Erase, ends),
              "erase beyond both ends"));

    // Duplicate runs: one key repeated 2G + 3 times straddles at least two
    // group/leaf boundaries; short runs of 2-3 land at assorted offsets.
    // Erases and inserts of one key share the batch, so the erase phase's
    // duplicate handling feeds the insert phase.
    Batch dups;
    const Key hot =
        *std::next(model.begin(), static_cast<long>(model.size() / 2));
    for (std::size_t i = 0; i < 2 * kGroup + 3; ++i) {
      dups.emplace_back(i % 3 == 0 ? Kind::Erase : Kind::Insert, hot);
    }
    for (Key k : inside_keys(kCutoff)) {
      const std::size_t copies = 1 + rng.next_below(3);
      for (std::size_t c = 0; c < copies; ++c) {
        dups.emplace_back(rng.next_below(2) == 0 ? Kind::Erase : Kind::Insert,
                          k);
      }
    }
    for (std::size_t i = 0; i < dups.size(); ++i) {
      std::swap(dups[i], dups[i + rng.next_below(dups.size() - i)]);
    }
    ASSERT_NO_FATAL_FAILURE(apply(dups, "duplicate runs"));
    Batch insert_dups;
    for (std::size_t i = 0; i < 3 * kGroup + 1; ++i) {
      insert_dups.emplace_back(Kind::Insert, kMax - 3);
    }
    for (Key k : inside_keys(kCutoff)) {
      insert_dups.emplace_back(Kind::Insert, k);
    }
    ASSERT_NO_FATAL_FAILURE(apply(insert_dups, "insert duplicate runs"));

    // Batches whose keys are all present: inserts all lose, erases all win.
    std::vector<Key> present;
    for (Key k : model) {
      if (present.size() == kCutoff + kGroup + 1) break;
      present.push_back(k);
    }
    ASSERT_NO_FATAL_FAILURE(
        apply(uniform(Kind::Insert, present),
              "insert all present"));
    ASSERT_NO_FATAL_FAILURE(
        apply(uniform(Kind::Erase, present),
              "erase all present"));

    // Random mixed batches whose sizes are not multiples of the group.
    for (int round = 0; round < 8; ++round) {
      std::size_t n = kCutoff + 1 + rng.next_below(4 * kCutoff);
      if (n % kGroup == 0) ++n;
      Batch mixed;
      for (Key k : inside_keys(n)) {
        mixed.emplace_back(rng.next_below(3) == 0 ? Kind::Erase : Kind::Insert,
                           k);
      }
      ASSERT_NO_FATAL_FAILURE(apply(mixed, "random mixed"));
    }
  }
}

// ---------------------------------------------------------------------------
// 5. Deterministic s(n) evidence.  The bench-side span_growth gate
// measures wall-clock and therefore rides OS jitter; span_tasks is a
// schedule-invariant dag property (the ledger folds strand segments max-wise
// at joins), so the sublinearity of the sort-merge BOPs can be pinned
// exactly, in tier-1, on any machine.
// ---------------------------------------------------------------------------

std::uint64_t measure_bop_span_tasks(
    const std::function<void(rt::Scheduler&)>& body) {
  trace::TraceSession::Options opt;
  opt.ring_capacity = std::size_t{1} << 14;
  trace::TraceSession session(opt);
  rt::StatsSnapshot stats;
  {
    rt::Scheduler sched(2);
    sched.export_final_stats(&stats);
    body(sched);
  }
  session.stop();
  EXPECT_EQ(stats.runs_measured, 1u);
  return stats.span_tasks;
}

std::uint64_t skiplist_insert_span_tasks(std::size_t n) {
  return measure_bop_span_tasks([&](rt::Scheduler& sched) {
    BatchedSkipList list(sched, 1234);
    Xoshiro256 rng(5);
    for (int i = 0; i < 8192; ++i) {
      list.insert_unsafe(static_cast<Key>(rng.next()));
    }
    std::vector<BatchedSkipList::Op> ops(n);
    std::vector<OpRecordBase*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      ops[i].kind = BatchedSkipList::Kind::Insert;
      ops[i].key = static_cast<Key>(rng.next());
      ptrs[i] = &ops[i];
    }
    sched.run([&] { list.run_batch(ptrs.data(), n); });
  });
}

std::uint64_t tree23_insert_span_tasks(std::size_t n) {
  return measure_bop_span_tasks([&](rt::Scheduler& sched) {
    BatchedTree23 tree(sched);
    Xoshiro256 rng(5);
    for (int i = 0; i < 8192; ++i) {
      tree.insert_unsafe(static_cast<Key>(rng.next()));
    }
    std::vector<BatchedTree23::Op> ops(n);
    std::vector<OpRecordBase*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      ops[i].kind = BatchedTree23::Kind::Insert;
      ops[i].key = static_cast<Key>(rng.next());
      ptrs[i] = &ops[i];
    }
    sched.run([&] { tree.run_batch(ptrs.data(), n); });
  });
}

TEST(BopSpanTasks, SkipListBatchSpanIsSublinear) {
  const std::uint64_t span_small = skiplist_insert_span_tasks(512);
  const std::uint64_t span_large = skiplist_insert_span_tasks(4096);
  EXPECT_GT(span_small, 0u);
  // 8x the batch must cost far less than 8x the task-count span (polylog
  // growth), and the large batch's span must be way below its size (a
  // serial splice is one task that does all n keys).
  EXPECT_LT(span_large, 4 * span_small)
      << "span_small=" << span_small << " span_large=" << span_large;
  EXPECT_LT(span_large, 4096u / 8u)
      << "span_large=" << span_large << " is not sublinear in the batch";
}

// The serial replay forks no tasks, so its task-count span is the root
// strand's alone at any size up to the cutoff; one key past it, the
// sort-merge passes fork.
TEST(BopSpanTasks, SkipListSwitchesPathPastTheCutoff) {
  const std::uint64_t at_cutoff = skiplist_insert_span_tasks(kCutoff);
  EXPECT_EQ(at_cutoff, skiplist_insert_span_tasks(1));
  EXPECT_GT(skiplist_insert_span_tasks(kCutoff + 1), at_cutoff);
}

TEST(BopSpanTasks, Tree23BatchSpanIsSublinear) {
  const std::uint64_t span_small = tree23_insert_span_tasks(512);
  const std::uint64_t span_large = tree23_insert_span_tasks(4096);
  EXPECT_GT(span_small, 0u);
  EXPECT_LT(span_large, 4 * span_small)
      << "span_small=" << span_small << " span_large=" << span_large;
  EXPECT_LT(span_large, 4096u / 8u)
      << "span_large=" << span_large << " is not sublinear in the batch";
}

}  // namespace
}  // namespace batcher
