// Parallel reductions, Θ(n) work each:
//
//  * `parallel_reduce` — binary forking down to a grain, Θ(lg n) span;
//  * `reduce` — the blocked scheme of prefix_sum.hpp (per-block totals, then
//    a serial fold of the min(n, 4P) block totals), so it forks exactly like
//    the batch-prep scans it runs beside.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "parallel/prefix_sum.hpp"
#include "runtime/api.hpp"

namespace batcher::par {

namespace detail {

template <typename T, typename Map, typename Op>
T reduce_recurse(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                 const T& identity, const Map& map, const Op& op) {
  if (hi - lo <= grain) {
    T acc = identity;
    for (std::int64_t i = lo; i < hi; ++i) acc = op(std::move(acc), map(i));
    return acc;
  }
  const std::int64_t mid = lo + (hi - lo) / 2;
  T left{}, right{};
  rt::parallel_invoke(
      [&] { left = reduce_recurse(lo, mid, grain, identity, map, op); },
      [&] { right = reduce_recurse(mid, hi, grain, identity, map, op); });
  return op(std::move(left), std::move(right));
}

}  // namespace detail

// reduce over [lo, hi): op(... op(map(lo), map(lo+1)) ..., map(hi-1)).
// `op` must be associative; `identity` its neutral element.
template <typename T, typename Map, typename Op>
T parallel_reduce(std::int64_t lo, std::int64_t hi, T identity, const Map& map,
                  const Op& op, std::int64_t grain = 0) {
  if (hi <= lo) return identity;
  if (grain <= 0) grain = rt::default_grain(hi - lo);
  return detail::reduce_recurse(lo, hi, grain, identity, map, op);
}

// Convenience: sum of map(i).
template <typename T, typename Map>
T parallel_sum(std::int64_t lo, std::int64_t hi, const Map& map,
               std::int64_t grain = 0) {
  return parallel_reduce<T>(
      lo, hi, T{}, map, [](T a, T b) { return a + b; }, grain);
}

// Blocked reduction over [0, n) of value(i) under an associative `op`.
template <typename T, typename ValueFn, typename Op>
T reduce(std::int64_t n, const ValueFn& value, const Op& op, T identity) {
  if (n <= 0) return identity;
  const std::int64_t blocks = detail::scan_blocks_for(n);
  if (blocks <= 1) {
    T total = identity;
    for (std::int64_t i = 0; i < n; ++i) total = op(total, value(i));
    return total;
  }
  std::vector<T> sums(static_cast<std::size_t>(blocks), identity);
  detail::for_blocks(n, blocks, 0,
                     [&](std::int64_t b, std::int64_t lo, std::int64_t hi) {
                       T total = identity;
                       for (std::int64_t i = lo; i < hi; ++i)
                         total = op(total, value(i));
                       sums[static_cast<std::size_t>(b)] = total;
                     });
  T total = identity;
  for (std::int64_t b = 0; b < blocks; ++b)
    total = op(total, sums[static_cast<std::size_t>(b)]);
  return total;
}

}  // namespace batcher::par
