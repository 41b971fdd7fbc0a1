// Parallel prefix sums (scan) and scan-based compaction (pack).
//
// Prefix sums are the paper's workhorse primitive: the batched counter's BOP
// is one scan (Fig. 2), and LAUNCHBATCH compacts the pending array with one
// (Fig. 4).  Two inclusive scans are provided, the pair Fig. 4 compares:
//
//  * `scan_inclusive_blocked` — the practical three-phase scheme (block sums,
//    serial scan of per-block sums, block fixup).  Θ(n) work, Θ(n/B + B)
//    span; with B = min(n, 4P) blocks it is effectively flat for the
//    batch-sized arrays BATCHER scans.
//  * `scan_inclusive_recursive` — Ladner–Fischer-style divide and conquer
//    with Θ(n) work and Θ(lg² n) span under binary forking (lg n levels of
//    recursion, each adding a constant offset in parallel).  This matches the
//    bound the paper quotes for prefix sums in the fork/join model.
//
// The sort-merge BOPs' batch prep also uses `scan_exclusive` and
// `pack_indices` (flag → exclusive scan → scatter), which turn a sorted
// batch into distinct-key groups without a Θ(batch)-span serial boundary
// walk.  Every blocked scheme here, and the blocked `reduce` in reduce.hpp,
// takes its block count from one rule, `detail::scan_blocks_for`.
//
// All are in-place where they rewrite data and generic over the
// (associative) operator.  Per Invariant 1 nothing here synchronizes: the
// phases communicate only through the fork/join structure.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/api.hpp"

namespace batcher::par {

// Serial cutoff shared by the blocked scan/reduce/pack schemes (here and in
// parallel/reduce.hpp): inputs of at most this size run as one serial loop,
// with no task spawns and no block-total allocation.  Forking pays off only
// once the per-block work dwarfs the spawn cost; below the cutoff the serial
// loop is both faster *and* a constant-span leaf, so the asymptotic story is
// unchanged.  Tunable (like the msort cutoffs in parallel/sort.hpp) so span
// tests can force the parallel scheme on small inputs.
inline std::atomic<std::int64_t>& scan_cutoff_cell() {
  static std::atomic<std::int64_t> cell{512};
  return cell;
}
inline std::int64_t scan_serial_cutoff() {
  return scan_cutoff_cell().load(std::memory_order_relaxed);
}
inline void set_scan_serial_cutoff(std::int64_t n) {
  scan_cutoff_cell().store(n < 1 ? 1 : n, std::memory_order_relaxed);
}

// RAII override, mirroring sort.hpp's SortCutoffGuard.
class ScanCutoffGuard {
 public:
  explicit ScanCutoffGuard(std::int64_t cutoff)
      : saved_(scan_serial_cutoff()) {
    set_scan_serial_cutoff(cutoff);
  }
  ~ScanCutoffGuard() { set_scan_serial_cutoff(saved_); }
  ScanCutoffGuard(const ScanCutoffGuard&) = delete;
  ScanCutoffGuard& operator=(const ScanCutoffGuard&) = delete;

 private:
  std::int64_t saved_;
};

namespace detail {

// The one block-count rule of the blocked schemes: inputs within the serial
// cutoff are one block (no forks); larger ones split into min(n, 4P) blocks,
// P being the current scheduler's worker count (1 off-worker).
inline std::int64_t scan_blocks_for(std::int64_t n) {
  if (n <= scan_serial_cutoff()) return 1;
  rt::Worker* w = rt::current_worker();
  const std::int64_t p = (w != nullptr) ? w->scheduler()->num_workers() : 1;
  return std::min<std::int64_t>(n, 4 * p);
}

// Runs body(b, lo, hi) for blocks b in [first, blocks) of [0, n), one task
// per block; block b covers [b * size, min(n, (b + 1) * size)) with
// size = ceil(n / blocks).
template <typename Body>
void for_blocks(std::int64_t n, std::int64_t blocks, std::int64_t first,
                const Body& body) {
  const std::int64_t size = (n + blocks - 1) / blocks;
  rt::parallel_for(
      first, blocks,
      [&](std::int64_t b) {
        const std::int64_t lo = b * size;
        body(b, lo, std::min(n, lo + size));
      },
      /*grain=*/1);
}

template <typename T, typename Op>
void add_offset(T* data, std::int64_t n, const T& offset, const Op& op) {
  rt::parallel_for(0, n, [&](std::int64_t i) { data[i] = op(offset, data[i]); });
}

template <typename T, typename Op>
void scan_recursive_impl(T* data, std::int64_t n, const Op& op,
                         std::int64_t grain) {
  if (n <= grain) {
    for (std::int64_t i = 1; i < n; ++i) data[i] = op(data[i - 1], data[i]);
    return;
  }
  const std::int64_t mid = n / 2;
  rt::parallel_invoke([&] { scan_recursive_impl(data, mid, op, grain); },
                      [&] { scan_recursive_impl(data + mid, n - mid, op, grain); });
  add_offset(data + mid, n - mid, data[mid - 1], op);
}

}  // namespace detail

// In-place inclusive scan, recursive variant (theory-shaped span).
template <typename T, typename Op>
void scan_inclusive_recursive(T* data, std::int64_t n, const Op& op,
                              std::int64_t grain = 0) {
  if (n <= 1) return;
  if (grain <= 0) grain = rt::default_grain(n);
  detail::scan_recursive_impl(data, n, op, grain);
}

// In-place inclusive scan, blocked variant (practical default).
template <typename T, typename Op>
void scan_inclusive_blocked(T* data, std::int64_t n, const Op& op) {
  if (n <= 1) return;
  const std::int64_t blocks = detail::scan_blocks_for(n);
  if (blocks <= 1) {
    for (std::int64_t i = 1; i < n; ++i) data[i] = op(data[i - 1], data[i]);
    return;
  }
  std::vector<T> sums(static_cast<std::size_t>(blocks));

  // Phase 1: independent scans of each block, recording each block's total.
  detail::for_blocks(n, blocks, 0,
                     [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo + 1; i < hi; ++i)
                         data[i] = op(data[i - 1], data[i]);
                       sums[static_cast<std::size_t>(b)] = data[hi - 1];
                     });

  // Phase 2: serial exclusive scan over the (few) block totals.
  for (std::int64_t b = 1; b < blocks; ++b)
    sums[static_cast<std::size_t>(b)] =
        op(sums[static_cast<std::size_t>(b - 1)], sums[static_cast<std::size_t>(b)]);

  // Phase 3: add each block's prefix offset.
  detail::for_blocks(n, blocks, 1,
                     [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
                       const T& offset = sums[static_cast<std::size_t>(b - 1)];
                       for (std::int64_t i = lo; i < hi; ++i)
                         data[i] = op(offset, data[i]);
                     });
}

// Default entry point used throughout the library.
template <typename T, typename Op>
void scan_inclusive(T* data, std::int64_t n, const Op& op) {
  scan_inclusive_blocked(data, n, op);
}

template <typename T>
void prefix_sums(T* data, std::int64_t n) {
  scan_inclusive(data, n, [](const T& a, const T& b) { return a + b; });
}

// In-place *exclusive* scan: data[i] becomes op(identity, data[0..i)), so
// data[0] == identity and the old data[n-1] drops off the end.  Returns the
// total op(identity, data[0..n)) — callers packing variable-size records use
// it as the output length.
template <typename T, typename Op>
T scan_exclusive(T* data, std::int64_t n, const Op& op, T identity) {
  if (n <= 0) return identity;
  const std::int64_t blocks = detail::scan_blocks_for(n);
  if (blocks <= 1) {
    T running = identity;
    for (std::int64_t i = 0; i < n; ++i) {
      T tmp = data[i];
      data[i] = running;
      running = op(running, tmp);
    }
    return running;
  }
  std::vector<T> sums(static_cast<std::size_t>(blocks), identity);

  // Phase 1: per-block totals (read-only over data).
  detail::for_blocks(n, blocks, 0,
                     [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
                       T total = identity;
                       for (std::int64_t i = lo; i < hi; ++i)
                         total = op(total, data[i]);
                       sums[static_cast<std::size_t>(b)] = total;
                     });

  // Phase 2: serial exclusive scan over the (few) block totals.
  T running = identity;
  for (std::int64_t b = 0; b < blocks; ++b) {
    T tmp = sums[static_cast<std::size_t>(b)];
    sums[static_cast<std::size_t>(b)] = running;
    running = op(running, tmp);
  }

  // Phase 3: per-block exclusive rewrite seeded with the block's offset.
  detail::for_blocks(n, blocks, 0,
                     [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
                       T acc = sums[static_cast<std::size_t>(b)];
                       for (std::int64_t i = lo; i < hi; ++i) {
                         T tmp = data[i];
                         data[i] = acc;
                         acc = op(acc, tmp);
                       }
                     });
  return running;
}

template <typename T>
T exclusive_prefix_sums(T* data, std::int64_t n) {
  return scan_exclusive(data, n, [](const T& a, const T& b) { return a + b; },
                        T{});
}

// Pack: collect the indices i in [0, n) with pred(i), in increasing order,
// into `out` (resized to the hit count).  Flag → exclusive scan → scatter,
// in place of a serial "walk the array appending matches" loop with Θ(n)
// span.
template <typename Pred>
std::int64_t pack_indices(std::int64_t n, const Pred& pred,
                          std::vector<std::uint32_t>& out) {
  if (n <= 0) {
    out.clear();
    return 0;
  }
  const std::int64_t blocks = detail::scan_blocks_for(n);
  if (blocks <= 1) {
    out.clear();
    for (std::int64_t i = 0; i < n; ++i) {
      if (pred(i)) out.push_back(static_cast<std::uint32_t>(i));
    }
    return static_cast<std::int64_t>(out.size());
  }
  std::vector<std::int64_t> counts(static_cast<std::size_t>(blocks), 0);
  detail::for_blocks(n, blocks, 0,
                     [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
                       std::int64_t c = 0;
                       for (std::int64_t i = lo; i < hi; ++i)
                         c += pred(i) ? 1 : 0;
                       counts[static_cast<std::size_t>(b)] = c;
                     });
  std::int64_t total = 0;
  for (std::int64_t b = 0; b < blocks; ++b) {
    std::int64_t tmp = counts[static_cast<std::size_t>(b)];
    counts[static_cast<std::size_t>(b)] = total;
    total += tmp;
  }
  out.resize(static_cast<std::size_t>(total));
  detail::for_blocks(n, blocks, 0,
                     [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
                       std::int64_t at = counts[static_cast<std::size_t>(b)];
                       for (std::int64_t i = lo; i < hi; ++i) {
                         if (pred(i))
                           out[static_cast<std::size_t>(at++)] =
                               static_cast<std::uint32_t>(i);
                       }
                     });
  return total;
}

}  // namespace batcher::par
