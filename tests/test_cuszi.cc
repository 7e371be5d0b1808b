// End-to-end cuSZ-i pipeline tests: round trips over real generator output,
// error-bound modes, archive robustness, and the de-redundancy wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/cuszi.hh"
#include "datagen/datasets.hh"
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
  // the failing field's stream. Constant field + Rel mode: zero value
  // range -> non-positive abs bound.
  szi::Field constant = f;
  std::fill(constant.data.begin(), constant.data.end(), 42.f);
  const std::vector<szi::FieldView> views{{f.view(), f.dims},
                                          {constant.view(), constant.dims},
                                          {f.view(), f.dims}};
  for (std::size_t streams : {std::size_t{1}, std::size_t{2}})
    EXPECT_THROW((void)szi::cuszi_compress_many(
                     views, {ErrorMode::Rel, 1e-3}, nullptr, streams),
                 std::invalid_argument);
}

// Every field of a batch runs, then the lowest-index failure is rethrown,
// whichever stream ran it. The failing fields' workspaces are reset, so a
// later batch over the same arena shards is byte-identical to per-field
// compress.
TEST(CusziBatch, RethrowsLowestIndexFailureAndKeepsPoolsClean) {
  const auto f = small_field("miranda");
  szi::Field constant = f;  // Rel mode: zero value range -> bound <= 0
  std::fill(constant.data.begin(), constant.data.end(), 42.f);
  const szi::FieldView mismatch{f.view().first(f.size() - 1), f.dims};
  const szi::FieldView good{f.view(), f.dims};
  const szi::FieldView bad_bound{constant.view(), constant.dims};
  const CompressParams p{ErrorMode::Rel, 1e-3};

  const auto first_error = [&](const std::vector<szi::FieldView>& views,
                               std::size_t streams) -> std::string {
    try {
      (void)szi::cuszi_compress_many(views, p, nullptr, streams);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  for (std::size_t streams : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    EXPECT_NE(first_error({good, mismatch, bad_bound, good}, streams)
                  .find("size/dims mismatch"),
              std::string::npos)
        << streams << " streams";
    EXPECT_NE(first_error({good, bad_bound, mismatch, good}, streams)
                  .find("non-positive error bound"),
              std::string::npos)
        << streams << " streams";
  }

  const auto direct = szi::cuszi_compress(f.view(), f.dims, p);
  const std::vector<szi::FieldView> views{good, good, good};
  for (std::size_t streams : {std::size_t{1}, std::size_t{2}}) {
    const auto out = szi::cuszi_compress_many(views, p, nullptr, streams);
    ASSERT_EQ(out.size(), views.size());
    for (const auto& a : out) EXPECT_EQ(a, direct) << streams << " streams";
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
