#include "predictor/autotune.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "device/reduce.hh"
#include "predictor/spline.hh"

namespace szi::predictor {

namespace {

std::size_t dim_of(const dev::Dim3& d, int i) {
  return i == 0 ? d.x : (i == 1 ? d.y : d.z);
}

/// Sample coordinates along an axis of length n: `count` interior positions,
/// clamped so the stride-1 cubic stencil (±3) stays in bounds.
std::vector<std::size_t> sample_coords(std::size_t n, std::size_t count) {
  std::vector<std::size_t> coords;
  if (n < 7) {
    coords.push_back(n / 2);
    return coords;
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t c = (i + 1) * n / (count + 1);
    c = std::clamp<std::size_t>(c, 3, n - 4);
    if (coords.empty() || coords.back() != c) coords.push_back(c);
  }
  return coords;
}

template <typename T>
ProfileResult autotune_impl(std::span<const T> data, const dev::Dim3& dims,
                            double eb, std::size_t samples_per_dim,
                            dev::Workspace* ws) {
  ProfileResult r;

  // Step 1: value range -> relative error bound -> α via Eq. (1). The range
  // spans the finite values: a Rel bound scales with it, and one infinity
  // would make it infinite (non-finite values are stored as outliers).
  constexpr bool kFiniteOnly = true;
  const auto mm = ws ? dev::minmax<T, kFiniteOnly>(data, *ws)
                     : dev::minmax<T, kFiniteOnly>(data);
  r.value_range = static_cast<double>(mm.max) - static_cast<double>(mm.min);
  r.epsilon = r.value_range > 0 ? eb / r.value_range : 1.0;
  r.config.alpha = alpha_of_epsilon(r.epsilon);

  // Step 2: sampled cubic-spline prediction errors per (spline, dimension).
  // Two instances of cubic interpolation per dimension per sample, as §V-C.1
  // describes (both cubic kinds on the same stencil).
  const auto xs = sample_coords(dims.x, samples_per_dim);
  const auto ys = sample_coords(dims.y, samples_per_dim);
  const auto zs = sample_coords(dims.z, samples_per_dim);
  const std::array<std::size_t, 3> strides{1, dims.x, dims.x * dims.y};

  for (const std::size_t z : zs)
    for (const std::size_t y : ys)
      for (const std::size_t x : xs) {
        const std::size_t idx = dev::linearize(dims, x, y, z);
        const std::array<std::size_t, 3> c{x, y, z};
        for (int d = 0; d < 3; ++d) {
          const std::size_t nd = dim_of(dims, d);
          if (c[d] < 3 || c[d] + 3 >= nd) continue;
          const std::size_t s = strides[static_cast<std::size_t>(d)];
          const T a = data[idx - 3 * s];
          const T b = data[idx - s];
          const T cc = data[idx + s];
          const T dd = data[idx + 3 * s];
          const T v = data[idx];
          r.err_nak[static_cast<std::size_t>(d)] +=
              std::abs(static_cast<double>(v) - cubic_nak(a, b, cc, dd));
          r.err_natural[static_cast<std::size_t>(d)] +=
              std::abs(static_cast<double>(v) - cubic_natural(a, b, cc, dd));
        }
      }

  // Per-dimension spline choice: the cubic with the lower profiled error.
  std::array<double, 3> best{};
  for (int d = 0; d < 3; ++d) {
    const auto du = static_cast<std::size_t>(d);
    r.config.cubic[du] = r.err_nak[du] <= r.err_natural[du]
                             ? CubicKind::NotAKnot
                             : CubicKind::Natural;
    best[du] = std::min(r.err_nak[du], r.err_natural[du]);
    // Absent dimensions are "perfectly smooth": order them last.
    if (dim_of(dims, d) == 1) best[du] = -1.0;
  }

  // Dimension order: least smooth (largest error) first, so the smoothest
  // dimension receives the most interpolations (§V-C.2).
  std::array<std::uint8_t, 3> order{0, 1, 2};
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint8_t l, std::uint8_t rgt) {
                     return best[l] > best[rgt];
                   });
  r.config.dim_order = order;
  return r;
}

}  // namespace

ProfileResult autotune(std::span<const float> data, const dev::Dim3& dims,
                       double eb, std::size_t samples_per_dim) {
  return autotune_impl<float>(data, dims, eb, samples_per_dim, nullptr);
}

ProfileResult autotune(std::span<const double> data, const dev::Dim3& dims,
                       double eb, std::size_t samples_per_dim) {
  return autotune_impl<double>(data, dims, eb, samples_per_dim, nullptr);
}

ProfileResult autotune(std::span<const float> data, const dev::Dim3& dims,
                       double eb, dev::Workspace& ws,
                       std::size_t samples_per_dim) {
  return autotune_impl<float>(data, dims, eb, samples_per_dim, &ws);
}

ProfileResult autotune(std::span<const double> data, const dev::Dim3& dims,
                       double eb, dev::Workspace& ws,
                       std::size_t samples_per_dim) {
  return autotune_impl<double>(data, dims, eb, samples_per_dim, &ws);
}

}  // namespace szi::predictor
