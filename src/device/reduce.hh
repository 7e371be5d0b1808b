// Device-style reductions: each "block" reduces a contiguous chunk into a
// partial, partials are combined by the launching thread — the standard
// two-phase GPU reduction.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "device/arena.hh"
#include "device/launch.hh"

namespace szi::dev {

/// Two-phase reduction of `data` with a binary op and identity element.
template <typename T, typename Op>
[[nodiscard]] T reduce(std::span<const T> data, T identity, Op op,
                       std::size_t chunk = 1 << 16) {
  if (data.empty()) return identity;
  const std::size_t nchunks = ceil_div(data.size(), chunk);
  std::vector<T> partial(nchunks, identity);
  launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, data.size());
        T acc = identity;
        for (std::size_t i = begin; i < end; ++i) acc = op(acc, data[i]);
        partial[c] = acc;
      },
      1);
  T acc = identity;
  for (const T& p : partial) acc = op(acc, p);
  return acc;
}

/// Minimum and maximum in one pass (used by the value-range profiler).
template <typename T>
struct MinMax {
  T min, max;
};

namespace detail {
template <typename T>
struct MinMaxPair {
  T lo, hi;
};

/// Core of minmax(): `partial` must hold ceil(n / 2^16) pairs; every slot is
/// overwritten, so unzeroed workspace memory is fine. `FiniteOnly` skips
/// infinities and NaNs; with no finite value at all the result is {0, 0}.
template <typename T, bool FiniteOnly = false>
[[nodiscard]] MinMax<T> minmax_over(std::span<const T> data,
                                    std::span<MinMaxPair<T>> partial) {
  const std::size_t chunk = 1 << 16;
  const std::size_t nchunks = ceil_div(data.size(), chunk);
  launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, data.size());
        MinMaxPair<T> p{data[begin], data[begin]};
        if constexpr (FiniteOnly)
          p = {std::numeric_limits<T>::infinity(),
               -std::numeric_limits<T>::infinity()};
        for (std::size_t i = begin; i < end; ++i) {
          if constexpr (FiniteOnly)
            if (!std::isfinite(data[i])) continue;
          if (data[i] < p.lo) p.lo = data[i];
          if (data[i] > p.hi) p.hi = data[i];
        }
        partial[c] = p;
      },
      1);
  MinMaxPair<T> acc = partial[0];
  for (std::size_t c = 1; c < nchunks; ++c) {
    if (partial[c].lo < acc.lo) acc.lo = partial[c].lo;
    if (partial[c].hi > acc.hi) acc.hi = partial[c].hi;
  }
  if constexpr (FiniteOnly)
    if (acc.lo > acc.hi) return {T{}, T{}};
  return {acc.lo, acc.hi};
}
}  // namespace detail

/// `FiniteOnly` ranges over the finite values only ({0, 0} when there are
/// none), so one infinity or NaN cannot blow a value range up.
template <typename T, bool FiniteOnly = false>
[[nodiscard]] MinMax<T> minmax(std::span<const T> data) {
  if (data.empty()) return {T{}, T{}};
  std::vector<detail::MinMaxPair<T>> partial(
      ceil_div(data.size(), std::size_t{1} << 16));
  return detail::minmax_over<T, FiniteOnly>(data, partial);
}

/// Workspace form: the partial-pair scratch comes from the pool.
template <typename T, bool FiniteOnly = false>
[[nodiscard]] MinMax<T> minmax(std::span<const T> data, Workspace& ws) {
  if (data.empty()) return {T{}, T{}};
  auto partial =
      ws.make<detail::MinMaxPair<T>>(ceil_div(data.size(), std::size_t{1} << 16));
  return detail::minmax_over<T, FiniteOnly>(data, partial);
}

}  // namespace szi::dev
