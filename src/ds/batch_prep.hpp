// Batch-prep constants and record type shared by the sort-merge BOPs
// (DESIGN.md §16).
//
// Only the skip list picks its apply path by batch size, with one rule:
//
//   * at most kSerialApplyMaxKeys write keys — replay the batch serially in
//     working-set order on the live list.  That is the sequential model
//     itself, so there is nothing to gather, sort or merge, and W(n) is the
//     sequential cost of the ops;
//   * above the cutoff — sort-merge: gather the batch's keys into
//     prep::Tagged records, parallel-sort them on (key, working-set index),
//     and pack the distinct-key group heads with a scan
//     (par::pack_indices), which buys polylog s(n) with a constant-factor
//     W(n) tax that only pays off on large batches.
//
// The 2-3 tree sorts every write phase's keys as prep::Tagged records too,
// at every batch size.  The hash map always replays serially: its ops are
// single-key, so a batch holds at most one op per worker or client slot and
// never reaches a size where sort-merge pays.
//
// The gather, group and merge phases stay in each structure; this header
// owns only what they share.
#pragma once

#include <cstddef>
#include <cstdint>

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

}  // namespace prep
}  // namespace batcher::ds
