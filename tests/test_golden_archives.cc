// Committed golden archive digests: FNV-1a 64 of the raw SZI2 archive
// (cuszi_compress) and the BBC2-wrapped archive (cuszi_compress_bitcomp)
// for f32/f64 fields, two error modes and five shapes. The fields are built
// with integer arithmetic and a power-of-two scale only, so no libm
// difference can move an input value; a digest change means the archive
// bytes changed. Unlike the parallel-determinism suite, which compares a run
// against goldens written earlier in the same ctest session, these digests
// are fixed in the source: any change to the writer that alters a single
// archive byte fails here, whatever the worker count.
//
// Relative mode on a 1-element field has a zero value range and is rejected
// (kRejected); that entry pins the rejection, not an archive.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cuszi.hh"
#include "device/arena.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;
using szi::dev::Dim3;

constexpr std::uint64_t kRejected = 0;

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Smooth quadratic trend + small LCG noise + a sparse spike train, all in
/// integers, scaled by 2^-10 (exact in both precisions).
template <typename T>
std::vector<T> make_field(const Dim3& d) {
  std::vector<T> v(d.volume());
  std::uint32_t lcg = 0x9E3779B9u;
  std::size_t i = 0;
  for (std::int64_t z = 0; z < static_cast<std::int64_t>(d.z); ++z)
    for (std::int64_t y = 0; y < static_cast<std::int64_t>(d.y); ++y)
      for (std::int64_t x = 0; x < static_cast<std::int64_t>(d.x); ++x, ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        const std::int64_t noise = static_cast<std::int64_t>(lcg >> 27) - 16;
        std::int64_t q = 3 * x * x + 5 * y * y + 7 * z * z + 2 * x * y -
                         3 * y * z + 11 * x + noise;
        if (i % 997 == 500) q += 40000;
        v[i] = static_cast<T>(q) * static_cast<T>(1.0 / 1024.0);
      }
  return v;
}

struct Golden {
  const char* name;  ///< "<precision>/<mode>/<dims>/<raw|wrapped>"
  std::uint64_t digest;
};

// Generated from this test's own failure output by the writer that
// preceded the parallel inner-archive assembler; that assembler reproduces
// every byte.
constexpr Golden kGoldens[] = {
    {"f32/abs1e-4/100x70x1/raw", 0xca22aa1dde837e80ULL},
    {"f32/abs1e-4/100x70x1/wrapped", 0xa8becc1e65e28095ULL},
    {"f32/abs1e-4/1x1x1/raw", 0x6a4b56921fe04f01ULL},
    {"f32/abs1e-4/1x1x1/wrapped", 0xb2ae75866c7218f5ULL},
    {"f32/abs1e-4/33x17x9/raw", 0x2fb21f1749b5f301ULL},
    {"f32/abs1e-4/33x17x9/wrapped", 0x526c42940bb937b6ULL},
    {"f32/abs1e-4/64x64x64/raw", 0x77ab23a097af6b3fULL},
    {"f32/abs1e-4/64x64x64/wrapped", 0x2cb89b4d55f268edULL},
    {"f32/abs1e-4/7x1x1/raw", 0x28f3f89f7ae89627ULL},
    {"f32/abs1e-4/7x1x1/wrapped", 0x1157330b7e10ca14ULL},
    {"f32/rel1e-3/100x70x1/raw", 0x09be7f8afc7afcb5ULL},
    {"f32/rel1e-3/100x70x1/wrapped", 0xbc0a1ad276a38859ULL},
    {"f32/rel1e-3/1x1x1/raw", 0x0000000000000000ULL},
    {"f32/rel1e-3/1x1x1/wrapped", 0x0000000000000000ULL},
    {"f32/rel1e-3/33x17x9/raw", 0xcca647e9d403dd0eULL},
    {"f32/rel1e-3/33x17x9/wrapped", 0x1d6a8f658777c800ULL},
    {"f32/rel1e-3/64x64x64/raw", 0x9001985eb71db0daULL},
    {"f32/rel1e-3/64x64x64/wrapped", 0x43cb556227926f15ULL},
    {"f32/rel1e-3/7x1x1/raw", 0x0166c63dca7d0033ULL},
    {"f32/rel1e-3/7x1x1/wrapped", 0x9452e265237f6937ULL},
    {"f64/abs1e-4/100x70x1/raw", 0xde4b327ee1e462c1ULL},
    {"f64/abs1e-4/100x70x1/wrapped", 0x950589759cd73aefULL},
    {"f64/abs1e-4/1x1x1/raw", 0x65d36faa68925727ULL},
    {"f64/abs1e-4/1x1x1/wrapped", 0xdb79e062a4b053d4ULL},
    {"f64/abs1e-4/33x17x9/raw", 0x51e0acbd9c6bbe56ULL},
    {"f64/abs1e-4/33x17x9/wrapped", 0xd358bc494bcec0d7ULL},
    {"f64/abs1e-4/64x64x64/raw", 0xcc2d974fcf5e3a96ULL},
    {"f64/abs1e-4/64x64x64/wrapped", 0x515b6592d6129d15ULL},
    {"f64/abs1e-4/7x1x1/raw", 0xbb53825f55d23ce8ULL},
    {"f64/abs1e-4/7x1x1/wrapped", 0x280f1b3992d70119ULL},
    {"f64/rel1e-3/100x70x1/raw", 0x1ebe36c478eba768ULL},
    {"f64/rel1e-3/100x70x1/wrapped", 0x51630e81e0296e09ULL},
    {"f64/rel1e-3/1x1x1/raw", 0x0000000000000000ULL},
    {"f64/rel1e-3/1x1x1/wrapped", 0x0000000000000000ULL},
    {"f64/rel1e-3/33x17x9/raw", 0x690c54b9dbc9aaf7ULL},
    {"f64/rel1e-3/33x17x9/wrapped", 0x8f57c50a7b88cb35ULL},
    {"f64/rel1e-3/64x64x64/raw", 0x4f6d560cf64f1e5cULL},
    {"f64/rel1e-3/64x64x64/wrapped", 0x356b5ffce3f763fcULL},
    {"f64/rel1e-3/7x1x1/raw", 0xe29d5dbdd3303d8cULL},
    {"f64/rel1e-3/7x1x1/wrapped", 0x5d4425bbf0e252e5ULL},
};

std::uint64_t golden_for(const std::string& name, bool* found) {
  for (const auto& g : kGoldens)
    if (name == g.name) {
      *found = true;
      return g.digest;
    }
  *found = false;
  return 0;
}

template <typename T>
void check_all(const char* precision) {
  const Dim3 shapes[] = {{1, 1, 1}, {7, 1, 1}, {33, 17, 9}, {100, 70, 1},
                         {64, 64, 64}};
  const std::pair<const char*, CompressParams> modes[] = {
      {"rel1e-3", {ErrorMode::Rel, 1e-3}}, {"abs1e-4", {ErrorMode::Abs, 1e-4}}};
  szi::dev::Arena arena;
  szi::dev::Workspace ws(arena);
  for (const auto& dims : shapes) {
    const auto field = make_field<T>(dims);
    const std::span<const T> data(field);
    for (const auto& [mode_name, params] : modes) {
      const std::string stem = std::string(precision) + "/" + mode_name + "/" +
                               std::to_string(dims.x) + "x" +
                               std::to_string(dims.y) + "x" +
                               std::to_string(dims.z) + "/";
      for (const bool wrapped : {false, true}) {
        const std::string name = stem + (wrapped ? "wrapped" : "raw");
        std::uint64_t got = kRejected;
        try {
          const auto bytes =
              wrapped ? szi::cuszi_compress_bitcomp(data, dims, params,
                                                    nullptr, ws)
                      : szi::cuszi_compress(data, dims, params);
          got = fnv1a(bytes);
        } catch (const std::invalid_argument&) {
          got = kRejected;
        }
        bool found = false;
        const std::uint64_t want = golden_for(name, &found);
        char line[160];
        std::snprintf(line, sizeof line, "    {\"%s\", 0x%016" PRIx64 "ULL},",
                      name.c_str(), got);
        EXPECT_TRUE(found) << "no golden for\n" << line;
        EXPECT_EQ(got, want) << "digest changed:\n" << line;
      }
    }
  }
}

TEST(GoldenArchives, F32DigestsUnchanged) { check_all<float>("f32"); }

TEST(GoldenArchives, F64DigestsUnchanged) { check_all<double>("f64"); }

}  // namespace
