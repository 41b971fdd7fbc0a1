// Shared batch-prep layer for the sort-merge BOPs (DESIGN.md §16).
//
// Only the skip list picks its apply path by batch size, with one rule:
//
//   * at most kSerialApplyMaxKeys write keys — replay the batch serially in
//     working-set order on the live list.  That is the sequential model
//     itself, so there is nothing to gather, sort or merge, and W(n) is the
//     sequential cost of the ops;
//   * above the cutoff — the sort-merge path below, which buys polylog s(n)
//     with a constant-factor W(n) tax that only pays off on large batches.
//
// The weight-balanced tree always runs its bulk merge on this layer: no
// benchmark workload drives it, so no measurement could justify a second
// branch there.  The hash map always replays serially: its ops are
// single-key, so a batch holds at most one op per worker or client slot and
// never reaches a size where sort-merge pays.
//
// The sort-merge path runs the same prefix of phases on the working set:
//
//   gather  — copy each op's key(s) into a flat record array; variable
//             multiplicity (MultiInsert) handled with one exclusive scan of
//             per-source counts followed by a parallel scatter;
//   sort    — parallel::msort on (key, working-set index), ties broken by
//             ws index so "first/last op on a key" is deterministic;
//   group   — flag the first record of every distinct key and pack the flag
//             positions with a scan (par::pack_indices), yielding the
//             distinct-key groups in O(lg)-ish span instead of a serial
//             boundary walk;
//   combine — structure-specific: the per-group functor sees its records in
//             working-set order (the sort's tie-break), so first-insert-
//             wins semantics fall out of a serial in-order walk of one
//             key's ops while distinct keys combine in parallel.
//
// The merge phase (splice / bulk tree merge) stays in the
// structure; this header owns everything before it.  Per Invariant 1 nothing
// here synchronizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "runtime/api.hpp"

namespace batcher::ds {

// Largest skip-list batch, counted in write keys, that the BOP replays
// serially.  Any value in [4, 99] keeps point_mix_small's batches (at most 4
// keys) serial and a 100-key Fig. 5 MultiInsert record parallel; within that
// range the skip-list span profile (EXPERIMENTS.md "BOP-span") picked the
// largest rung at which the serial replay does no more work than sort-merge.
inline constexpr std::size_t kSerialApplyMaxKeys = 64;

// Distinct keys one skip-list search leaf walks in lockstep
// (find_preds_group), and the grain of that search pass, so a leaf is one
// group.  Its cursors' cache misses overlap, so a leaf costs about one miss
// chain instead of one per key; EXPERIMENTS.md "FIG5-real" has the sweep
// over {8, 16, 32} that picked it.
inline constexpr std::size_t kSearchGroup = 16;

namespace prep {

// A batch record: one key plus the index of the op it came from.  Ordered by
// key, then by working-set index, so equal keys keep submission order.
template <typename Key>
struct Tagged {
  Key key;
  std::uint32_t ws;

  bool operator<(const Tagged& o) const {
    return key != o.key ? key < o.key : ws < o.ws;
  }
};

// Gather phase with per-source multiplicities.  `size_of(s)` gives source
// s's record count; `emit(s, base)` must write exactly that many records at
// out[base..).  Offsets come from one exclusive scan, so the gather itself
// is a flat parallel_for.
template <typename Rec, typename SizeFn, typename EmitFn>
void gather(std::size_t num_sources, const SizeFn& size_of, const EmitFn& emit,
            std::vector<Rec>& out, std::vector<std::uint32_t>& offsets) {
  offsets.resize(num_sources);
  rt::parallel_for(
      0, static_cast<std::int64_t>(num_sources),
      [&](std::int64_t s) {
        offsets[static_cast<std::size_t>(s)] =
            static_cast<std::uint32_t>(size_of(static_cast<std::size_t>(s)));
      },
      /*grain=*/1);
  const std::uint32_t total = par::scan_exclusive(
      offsets.data(), static_cast<std::int64_t>(num_sources),
      [](std::uint32_t a, std::uint32_t b) { return a + b; }, 0u);
  out.resize(total);
  rt::parallel_for(
      0, static_cast<std::int64_t>(num_sources),
      [&](std::int64_t s) {
        emit(static_cast<std::size_t>(s),
             static_cast<std::size_t>(offsets[static_cast<std::size_t>(s)]));
      },
      /*grain=*/1);
}

// Sort + group: sorts `recs` (by operator<) and packs the positions where a
// new key starts into `heads`, appending recs.size() as a sentinel.  Group g
// spans [heads[g], heads[g+1]) and holds one distinct key's ops in
// working-set order.
template <typename Rec>
void sort_and_group(std::vector<Rec>& recs,
                    std::vector<std::uint32_t>& heads) {
  par::parallel_sort(recs.data(), static_cast<std::int64_t>(recs.size()));
  par::pack_indices(
      static_cast<std::int64_t>(recs.size()),
      [&](std::int64_t i) {
        return i == 0 ||
               recs[static_cast<std::size_t>(i - 1)].key <
                   recs[static_cast<std::size_t>(i)].key;
      },
      heads);
  heads.push_back(static_cast<std::uint32_t>(recs.size()));
}

// Combine phase driver: applies `f(group_index, lo, hi)` to every distinct-
// key group in parallel.
template <typename Fn>
void for_each_group(const std::vector<std::uint32_t>& heads, const Fn& f) {
  if (heads.size() < 2) return;
  rt::parallel_for(
      0, static_cast<std::int64_t>(heads.size() - 1),
      [&](std::int64_t g) {
        const auto gi = static_cast<std::size_t>(g);
        f(gi, static_cast<std::size_t>(heads[gi]),
          static_cast<std::size_t>(heads[gi + 1]));
      },
      /*grain=*/1);
}

}  // namespace prep
}  // namespace batcher::ds
