#include "metrics/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "device/launch.hh"
#include "device/reduce.hh"

namespace szi::metrics {

namespace {

template <typename T>
Distortion distortion_impl(std::span<const T> original,
                           std::span<const T> reconstructed) {
  if (original.size() != reconstructed.size())
    throw std::invalid_argument("distortion: size mismatch");
  Distortion d;
  if (original.empty()) return d;

  // The value range spans finite originals only: an Inf original is either
  // reproduced exactly (zero error) or an unbounded error, and must not
  // turn the range, and with it PSNR, infinite.
  struct Acc {
    double sum_sq = 0;
    double max_abs = 0;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
  };
  const std::size_t n = original.size();
  const std::size_t chunk = 1 << 16;
  const std::size_t nchunks = dev::ceil_div(n, chunk);
  std::vector<Acc> partial(nchunks);
  dev::launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        Acc a;
        for (std::size_t i = begin; i < end; ++i) {
          double e = static_cast<double>(original[i]) -
                     static_cast<double>(reconstructed[i]);
          // A non-finite difference is exact only for a bit-identical pair
          // (+Inf/+Inf, the same NaN); any other pair with a non-finite
          // side is an unbounded error — which std::max would drop as NaN.
          if (!std::isfinite(e))
            e = std::memcmp(&original[i], &reconstructed[i], sizeof(T)) == 0
                    ? 0.0
                    : std::numeric_limits<double>::infinity();
          a.sum_sq += e * e;
          a.max_abs = std::max(a.max_abs, std::abs(e));
          const auto o = static_cast<double>(original[i]);
          if (std::isfinite(o)) {
            a.lo = std::min(a.lo, o);
            a.hi = std::max(a.hi, o);
          }
        }
        partial[c] = a;
      },
      1);

  Acc t = partial[0];
  for (std::size_t c = 1; c < nchunks; ++c) {
    t.sum_sq += partial[c].sum_sq;
    t.max_abs = std::max(t.max_abs, partial[c].max_abs);
    t.lo = std::min(t.lo, partial[c].lo);
    t.hi = std::max(t.hi, partial[c].hi);
  }

  d.mse = t.sum_sq / static_cast<double>(n);
  d.max_err = t.max_abs;
  d.range = t.hi >= t.lo ? t.hi - t.lo : 0;  // 0 without finite originals
  if (d.mse == 0) {
    d.psnr = std::numeric_limits<double>::infinity();
    d.nrmse = 0;
  } else if (std::isinf(d.mse) || d.range == 0) {
    d.psnr = -std::numeric_limits<double>::infinity();
    d.nrmse = std::numeric_limits<double>::infinity();
  } else {
    d.psnr = 20.0 * std::log10(d.range) - 10.0 * std::log10(d.mse);
    d.nrmse = std::sqrt(d.mse) / d.range;
  }
  return d;
}

template <typename T>
bool error_bounded_impl(std::span<const T> original,
                        std::span<const T> reconstructed, double bound,
                        double slack) {
  if (original.size() != reconstructed.size()) return false;
  const double base_limit = bound * (1.0 + slack) + 1e-30;
  // 4 ulps of the value type, relative.
  constexpr double kUlps =
      4.0 * static_cast<double>(std::numeric_limits<T>::epsilon());
  const std::size_t n = original.size();
  const std::size_t chunk = 1 << 16;
  const std::size_t nchunks = dev::ceil_div(n, chunk);
  std::vector<char> ok(nchunks, 1);
  dev::launch_linear(
      nchunks,
      [&](std::size_t c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        for (std::size_t i = begin; i < end; ++i) {
          const double a = original[i], b = reconstructed[i];
          // Same rule as distortion(): a pair with a non-finite side is in
          // bound only when bit-identical (+Inf/+Inf, the same NaN).
          if (!std::isfinite(a) || !std::isfinite(b)) {
            if (std::memcmp(&original[i], &reconstructed[i], sizeof(T)) == 0)
              continue;
            ok[c] = 0;
            return;
          }
          const double e = std::abs(a - b);
          const double limit =
              base_limit + kUlps * std::max(std::abs(a), std::abs(b));
          if (e > limit) {
            ok[c] = 0;
            return;
          }
        }
      },
      1);
  for (char c : ok)
    if (!c) return false;
  return true;
}

}  // namespace

Distortion distortion(std::span<const float> original,
                      std::span<const float> reconstructed) {
  return distortion_impl<float>(original, reconstructed);
}
Distortion distortion(std::span<const double> original,
                      std::span<const double> reconstructed) {
  return distortion_impl<double>(original, reconstructed);
}

double value_range(std::span<const float> data) {
  if (data.empty()) return 0;
  const auto mm = dev::minmax(data);
  return static_cast<double>(mm.max) - static_cast<double>(mm.min);
}
double value_range(std::span<const double> data) {
  if (data.empty()) return 0;
  const auto mm = dev::minmax(data);
  return mm.max - mm.min;
}

bool error_bounded(std::span<const float> original,
                   std::span<const float> reconstructed, double bound,
                   double slack) {
  return error_bounded_impl<float>(original, reconstructed, bound, slack);
}
bool error_bounded(std::span<const double> original,
                   std::span<const double> reconstructed, double bound,
                   double slack) {
  return error_bounded_impl<double>(original, reconstructed, bound, slack);
}

}  // namespace szi::metrics
