#include "oracle.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

namespace perfbench::oracle {

double finite_range(std::span<const float> data) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const float v : data) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, static_cast<double>(v));
    hi = std::max(hi, static_cast<double>(v));
  }
  return hi >= lo ? hi - lo : 0.0;
}

std::size_t count_exceedances(std::span<const float> original,
                              std::span<const float> recon, double eb) {
  if (original.size() != recon.size())
    return std::max(original.size(), recon.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const float o = original[i];
    const float r = recon[i];
    if (std::isfinite(o)) {
      const double err =
          std::abs(static_cast<double>(r) - static_cast<double>(o));
      // !(err <= eb) is also true for a NaN or infinite reconstruction.
      if (!(err <= eb)) ++bad;
    } else if (std::memcmp(&o, &r, sizeof o) != 0) {
      ++bad;
    }
  }
  return bad;
}

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}
template bool same_bytes<float>(std::span<const float>, std::span<const float>);
template bool same_bytes<double>(std::span<const double>,
                                 std::span<const double>);
template bool same_bytes<std::byte>(std::span<const std::byte>,
                                    std::span<const std::byte>);

bool crop_matches(std::span<const float> full, const szi::dev::Dim3& dims,
                  const szi::RoiBox& box, std::span<const float> box_data) {
  const auto& lo = box.lo;
  const auto& ext = box.ext;
  if (box_data.size() != ext.volume() || lo.x + ext.x > dims.x ||
      lo.y + ext.y > dims.y || lo.z + ext.z > dims.z)
    return false;
  for (std::size_t z = 0; z < ext.z; ++z)
    for (std::size_t y = 0; y < ext.y; ++y) {
      const float* want =
          full.data() + ((lo.z + z) * dims.y + (lo.y + y)) * dims.x + lo.x;
      const float* got = box_data.data() + (z * ext.y + y) * ext.x;
      if (std::memcmp(want, got, ext.x * sizeof(float)) != 0) return false;
    }
  return true;
}

std::uint64_t hash_bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t h = 0xcbf29ce484222325ull ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b + i, 8);
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  return h;
}

int self_test() {
  int failed = 0;
  auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("oracle self-test FAILED: %s\n", what);
      ++failed;
    }
  };
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const double eb = 0.5;
  const std::vector<float> orig = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};

  check(count_exceedances(orig, orig, eb) == 0, "identical output passes");
  auto within = orig;
  within[0] += 0.5f;  // exactly at the bound
  within[1] -= 0.25f;
  check(count_exceedances(orig, within, eb) == 0, "errors <= eb pass");

  auto planted = orig;
  planted[1] = nan;
  check(count_exceedances(orig, planted, eb) == 1, "planted NaN caught");
  planted = orig;
  planted[2] = inf;
  check(count_exceedances(orig, planted, eb) == 1, "planted +Inf caught");
  planted = orig;
  planted[3] = -inf;
  check(count_exceedances(orig, planted, eb) == 1, "planted -Inf caught");
  planted = orig;
  planted[4] += 0.75f;
  check(count_exceedances(orig, planted, eb) == 1, "planted exceedance caught");
  planted = orig;
  planted[0] = nan;
  planted[5] = -inf;
  planted[2] += 1.0f;
  check(count_exceedances(orig, planted, eb) == 3, "faults counted apart");
  check(count_exceedances(orig, std::span<const float>(orig).first(5), eb) ==
            6,
        "size mismatch fails every element");

  // Non-finite originals must come back bit-identical.
  std::vector<float> special = {nan, inf, -inf, 1.0f};
  check(count_exceedances(special, special, eb) == 0,
        "bit-identical non-finite passes");
  auto swapped = special;
  swapped[1] = -inf;
  swapped[2] = 1.0f;
  check(count_exceedances(special, swapped, eb) == 2,
        "changed non-finite values caught");

  check(finite_range(special) == 0.0, "range ignores non-finite values");
  check(finite_range(orig) == 5.0, "range of finite values");

  const szi::dev::Dim3 dims{4, 3, 2};
  std::vector<float> full(dims.volume());
  for (std::size_t i = 0; i < full.size(); ++i) full[i] = static_cast<float>(i);
  const szi::RoiBox box{{1, 1, 1}, {2, 2, 1}};
  std::vector<float> crop = {17, 18, 21, 22};
  check(crop_matches(full, dims, box, crop), "exact crop matches");
  crop[3] = 23;
  check(!crop_matches(full, dims, box, crop), "wrong crop caught");

  const std::vector<std::byte> a(100, std::byte{7});
  auto b = a;
  b[99] = std::byte{8};
  check(hash_bytes(a.data(), a.size()) != hash_bytes(b.data(), b.size()),
        "hash sees the last byte");
  check(!same_bytes<std::byte>(a, b), "byte mismatch caught");
  return failed;
}

}  // namespace perfbench::oracle
