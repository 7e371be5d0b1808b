// End-to-end cuSZ-i pipeline tests: round trips over real generator output,
// error-bound modes, archive robustness, and the de-redundancy wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/cuszi.hh"
#include "datagen/datasets.hh"
#include "device/thread_pool.hh"
#include "metrics/stats.hh"

namespace {

using szi::CompressParams;
using szi::ErrorMode;

szi::Field small_field(const std::string& dataset) {
  auto fields = szi::datagen::make_dataset(dataset, szi::datagen::Size::Small);
  auto f = std::move(fields.front());
  return f;
}

TEST(Cuszi, RoundTripAbsMode) {
  auto c = szi::make_cuszi();
  const auto f = small_field("miranda");
  const double eb = 1e-3;
  const auto enc = c->compress(f, {ErrorMode::Abs, eb});
  const auto dec = c->decompress(enc.bytes);
  ASSERT_EQ(dec.size(), f.size());
  EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, eb));
}

TEST(Cuszi, RoundTripRelMode) {
  auto c = szi::make_cuszi();
  const auto f = small_field("nyx");  // huge dynamic range
  const double rel = 1e-3;
  const auto range = szi::metrics::value_range(f.data);
  const auto enc = c->compress(f, {ErrorMode::Rel, rel});
  const auto dec = c->decompress(enc.bytes);
  EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, rel * range));
}

// Rel mode scales the bound by the value range of the finite values: one
// infinity must neither blow the bound up (every finite value would decode
// off-bound or non-finite) nor come back altered.
TEST(Cuszi, RelBoundSpansFiniteValuesOnly) {
  const szi::dev::Dim3 dims{32, 32, 32};
  std::vector<float> v(dims.volume());
  for (std::size_t z = 0; z < dims.z; ++z)
    for (std::size_t y = 0; y < dims.y; ++y)
      for (std::size_t x = 0; x < dims.x; ++x)
        v[x + dims.x * (y + dims.y * z)] = static_cast<float>(
            std::sin(0.2 * static_cast<double>(x)) *
                std::cos(0.15 * static_cast<double>(y)) +
            0.05 * static_cast<double>(z));
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  const double range = static_cast<double>(*hi) - static_cast<double>(*lo);
  const std::size_t pinf = 1000;
  const std::size_t ninf = 20000;
  v[pinf] = std::numeric_limits<float>::infinity();
  v[ninf] = -std::numeric_limits<float>::infinity();

  const double rel = 1e-3;
  const auto bytes =
      szi::cuszi_compress(std::span<const float>(v), dims, {ErrorMode::Rel, rel});
  const auto out = szi::cuszi_decompress_f32(bytes);
  ASSERT_EQ(out.size(), v.size());
  std::size_t off_bound = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i == pinf || i == ninf) continue;
    const double err =
        std::abs(static_cast<double>(out[i]) - static_cast<double>(v[i]));
    if (!(err <= rel * range * (1 + 1e-6))) ++off_bound;
  }
  EXPECT_EQ(off_bound, 0u) << "finite values off the 1e-3 x finite-range bound";
  EXPECT_EQ(std::memcmp(&out[pinf], &v[pinf], sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&out[ninf], &v[ninf], sizeof(float)), 0);
}

TEST(Cuszi, CompressesSmoothDataWell) {
  auto c = szi::make_cuszi();
  const auto f = small_field("miranda");
  const auto enc = c->compress(f, {ErrorMode::Rel, 1e-3});
  const double cr = szi::metrics::compression_ratio(f.bytes(), enc.bytes.size());
  EXPECT_GT(cr, 20.0) << "Miranda at 1e-3 should compress well";
}

TEST(Cuszi, RejectsFixedRate) {
  auto c = szi::make_cuszi();
  const auto f = small_field("qmcpack");
  EXPECT_THROW((void)c->compress(f, {ErrorMode::FixedRate, 4.0}),
               std::invalid_argument);

  // The batch front end rejects an invalid field mid-batch too: every field
  // runs, then the failure is rethrown — also when the next field shares
  // the failing field's lane (at one or two workers). Constant field + Rel
  // mode: zero value range -> non-positive abs bound.
  szi::Field constant = f;
  std::fill(constant.data.begin(), constant.data.end(), 42.f);
  const std::vector<szi::FieldView> views{{f.view(), f.dims},
                                          {constant.view(), constant.dims},
                                          {f.view(), f.dims}};
  EXPECT_THROW(
      (void)szi::cuszi_compress_many(views, {ErrorMode::Rel, 1e-3}),
      std::invalid_argument);
}

// Every field of a batch runs, then the lowest-index failure is rethrown,
// whichever lane ran it. The failing fields' workspaces are reset, so a
// later batch over the same arena shards is byte-identical to per-field
// compress. The lane count is min(workers, fields); the wide batches are
// sized from the worker count, so lane 0 always runs a field after a
// failed one on every host.
TEST(CusziBatch, RethrowsLowestIndexFailureAndKeepsPoolsClean) {
  const auto f = small_field("miranda");
  szi::Field constant = f;  // Rel mode: zero value range -> bound <= 0
  std::fill(constant.data.begin(), constant.data.end(), 42.f);
  const szi::FieldView mismatch{f.view().first(f.size() - 1), f.dims};
  const szi::FieldView good{f.view(), f.dims};
  const szi::FieldView bad_bound{constant.view(), constant.dims};
  const CompressParams p{ErrorMode::Rel, 1e-3};

  const auto first_error =
      [&](const std::vector<szi::FieldView>& views) -> std::string {
    try {
      (void)szi::cuszi_compress_many(views, p);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_NE(first_error({good, mismatch, bad_bound, good})
                .find("size/dims mismatch"),
            std::string::npos);
  EXPECT_NE(first_error({good, bad_bound, mismatch, good})
                .find("non-positive error bound"),
            std::string::npos);
  EXPECT_NE(first_error({bad_bound}).find("non-positive error bound"),
            std::string::npos);

  // 2 * workers + 1 fields: lane 0 runs fields 0, w and 2w on one
  // Workspace. Its first two fail, so it resets twice and still runs the
  // third, and a later-lane failure does not win over field 0's.
  const std::size_t w = szi::dev::ThreadPool::instance().worker_count();
  const std::size_t wide = 2 * w + 1;
  const auto wide_batch = [&](const szi::FieldView& first,
                              const szi::FieldView& second) {
    std::vector<szi::FieldView> views(wide, good);
    views[0] = first;
    views[w] = second;
    if (w > 1) views[w + 1] = mismatch;  // lane 1's second field
    return views;
  };
  EXPECT_NE(first_error(wide_batch(bad_bound, mismatch))
                .find("non-positive error bound"),
            std::string::npos);
  EXPECT_NE(first_error(wide_batch(mismatch, bad_bound))
                .find("size/dims mismatch"),
            std::string::npos);

  const auto direct = szi::cuszi_compress(f.view(), f.dims, p);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, wide}) {
    const std::vector<szi::FieldView> views(n, good);
    const auto out = szi::cuszi_compress_many(views, p);
    ASSERT_EQ(out.size(), views.size());
    for (const auto& a : out) EXPECT_EQ(a, direct) << n << " fields";
  }
}

TEST(Cuszi, ThrowsOnCorruptArchive) {
  auto c = szi::make_cuszi();
  const auto f = small_field("rtm");
  auto enc = c->compress(f, {ErrorMode::Rel, 1e-2});
  enc.bytes[0] = std::byte{0xFF};  // break the magic
  EXPECT_THROW((void)c->decompress(enc.bytes), std::runtime_error);
  auto enc2 = c->compress(f, {ErrorMode::Rel, 1e-2});
  enc2.bytes.resize(enc2.bytes.size() / 3);
  EXPECT_THROW((void)c->decompress(enc2.bytes), std::runtime_error);
}

TEST(Cuszi, TimingsArePopulated) {
  auto c = szi::make_cuszi();
  const auto f = small_field("s3d");
  const auto enc = c->compress(f, {ErrorMode::Rel, 1e-3});
  EXPECT_GT(enc.timings.total, 0.0);
  EXPECT_GT(enc.timings.predict, 0.0);
  EXPECT_LE(enc.timings.kernel_time(), enc.timings.total);
  double dec_s = -1;
  (void)c->decompress(enc.bytes, &dec_s);
  EXPECT_GT(dec_s, 0.0);
}

TEST(CusziBitcomp, WrapperRoundTripsAndShrinks) {
  auto plain = szi::make_cuszi();
  auto wrapped = szi::with_bitcomp(szi::make_cuszi());
  const auto f = small_field("s3d");  // mostly-zero CO field: best case
  const CompressParams p{ErrorMode::Rel, 1e-2};
  const auto a = plain->compress(f, p);
  const auto b = wrapped->compress(f, p);
  EXPECT_LT(b.bytes.size(), a.bytes.size());
  const auto dec = wrapped->decompress(b.bytes);
  const auto range = szi::metrics::value_range(f.data);
  EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, 1e-2 * range));
  EXPECT_EQ(wrapped->name(), "cuSZ-i w/ Bitcomp");
}

TEST(CusziBitcomp, WrapperRejectsPlainArchive) {
  auto plain = szi::make_cuszi();
  auto wrapped = szi::with_bitcomp(szi::make_cuszi());
  const auto f = small_field("miranda");
  const auto enc = plain->compress(f, {ErrorMode::Rel, 1e-3});
  EXPECT_THROW((void)wrapped->decompress(enc.bytes), std::runtime_error);
}

// Every dataset x error bound must round-trip within bound — the paper's
// TABLE III grid as a correctness property.
class CusziDatasetSweep
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(CusziDatasetSweep, ErrorBounded) {
  const auto& [dataset, rel] = GetParam();
  auto c = szi::make_cuszi();
  for (const auto& f :
       szi::datagen::make_dataset(dataset, szi::datagen::Size::Small)) {
    const auto enc = c->compress(f, {ErrorMode::Rel, rel});
    const auto dec = c->decompress(enc.bytes);
    const auto range = szi::metrics::value_range(f.data);
    EXPECT_TRUE(szi::metrics::error_bounded(f.data, dec, rel * range))
        << f.label();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, CusziDatasetSweep,
    ::testing::Combine(::testing::ValuesIn(szi::datagen::dataset_names()),
                       ::testing::Values(1e-2, 1e-3, 1e-4)));

}  // namespace
