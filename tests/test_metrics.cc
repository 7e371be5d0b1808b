// Metrics unit tests: PSNR/NRMSE math against hand-computed values,
// error-bound verification edges, size accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "metrics/stats.hh"

namespace {

using szi::metrics::bit_rate;
using szi::metrics::compression_ratio;
using szi::metrics::distortion;
using szi::metrics::error_bounded;
using szi::metrics::value_range;

TEST(Metrics, DistortionKnownValues) {
  // orig in [0, 3] (range 3), every error exactly 0.1 -> mse 0.01,
  // psnr = 20 log10(3) - 10 log10(0.01) = 9.542 + 20 = 29.542.
  std::vector<float> orig{0.0f, 1.0f, 2.0f, 3.0f};
  std::vector<float> recon{0.1f, 1.1f, 2.1f, 3.1f};
  const auto d = distortion(orig, recon);
  EXPECT_NEAR(d.mse, 0.01, 1e-6);
  EXPECT_NEAR(d.range, 3.0, 1e-9);
  EXPECT_NEAR(d.max_err, 0.1, 1e-6);
  EXPECT_NEAR(d.psnr, 20.0 * std::log10(3.0) + 20.0, 1e-3);
  EXPECT_NEAR(d.nrmse, 0.1 / 3.0, 1e-6);
}

TEST(Metrics, PerfectReconstructionIsInfinitePsnr) {
  std::vector<float> v{1.0f, 2.0f, 5.0f};
  const auto d = distortion(v, v);
  EXPECT_TRUE(std::isinf(d.psnr));
  EXPECT_EQ(d.max_err, 0.0);
}

TEST(Metrics, NonFiniteMismatchIsInfiniteMaxErr) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> orig{1.0f, inf, 3.0f};
  for (const float bad : {nan, -inf, 2.0f}) {
    const std::vector<float> recon{1.0f, bad, 3.0f};
    EXPECT_EQ(distortion(orig, recon).max_err, inf) << bad;
  }
  // A NaN original reconstructed as a finite value is no better.
  const std::vector<double> o64{0.0, std::nan("")};
  const std::vector<double> r64{0.0, 5.0};
  EXPECT_TRUE(std::isinf(distortion(o64, r64).max_err));
}

TEST(Metrics, BitIdenticalNonFinitePairsContributeZero) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> v{1.0f, inf, -inf, nan, 3.0f};
  const auto same = distortion(v, v);
  EXPECT_EQ(same.max_err, 0.0);
  EXPECT_EQ(same.mse, 0.0);
  // Finite errors next to an exact +Inf/+Inf pair still count.
  const std::vector<float> orig{0.0f, inf};
  const std::vector<float> recon{0.5f, inf};
  const auto d = distortion(orig, recon);
  EXPECT_EQ(d.max_err, 0.5);
  EXPECT_EQ(d.mse, 0.125);
}

TEST(Metrics, ErrorBoundedRejectsNonFiniteMismatch) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(error_bounded(std::vector<float>{1.0f, 2.0f},
                             std::vector<float>{1.0f, nan}, 1e-3));
  EXPECT_FALSE(error_bounded(std::vector<float>{1.0f, nan},
                             std::vector<float>{1.0f, 2.0f}, 1e-3));
  EXPECT_FALSE(error_bounded(std::vector<float>{inf}, std::vector<float>{-inf},
                             1e-3));
  EXPECT_FALSE(error_bounded(std::vector<float>{inf}, std::vector<float>{nan},
                             1e-3));
  EXPECT_FALSE(error_bounded(std::vector<double>{0.0, 3.0},
                             std::vector<double>{std::nan(""), 3.0}, 1e-3));
  // Bit-identical non-finite pairs are exact.
  const std::vector<float> v{1.0f, inf, -inf, nan};
  EXPECT_TRUE(error_bounded(v, v, 1e-3));
}

TEST(Metrics, PsnrRangeSpansFiniteOriginalsOnly) {
  const float inf = std::numeric_limits<float>::infinity();
  // An exact +Inf/+Inf pair neither widens the range nor hides the finite
  // error: range 3, mse 0.25/3.
  const auto d = distortion(std::vector<float>{0.0f, 3.0f, inf},
                            std::vector<float>{0.5f, 3.0f, inf});
  EXPECT_EQ(d.range, 3.0);
  EXPECT_NEAR(d.mse, 0.25 / 3.0, 1e-12);
  EXPECT_NEAR(d.psnr, 20.0 * std::log10(3.0) - 10.0 * std::log10(0.25 / 3.0),
              1e-9);
}

TEST(Metrics, InfiniteMseIsMinusInfinitePsnr) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto d = distortion(std::vector<float>{0.0f, inf},
                            std::vector<float>{0.0f, nan});
  EXPECT_EQ(d.psnr, -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(d.nrmse));
  EXPECT_EQ(d.range, 0.0);
}

/// `--verify` prints PSNR and max error straight from distortion(): no
/// combination of finite and non-finite values may yield a NaN field.
TEST(Metrics, NoDistortionFieldIsNan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> vals{0.0, 1.0, -2.5, inf, -inf, nan};
  for (const double o0 : vals)
    for (const double o1 : vals)
      for (const double r0 : vals)
        for (const double r1 : vals) {
          const auto d = distortion(std::vector<double>{o0, o1},
                                    std::vector<double>{r0, r1});
          for (const double f : {d.psnr, d.nrmse, d.max_err, d.mse, d.range})
            EXPECT_FALSE(std::isnan(f))
                << "orig {" << o0 << ", " << o1 << "} recon {" << r0 << ", "
                << r1 << "}";
        }
}

TEST(Metrics, DistortionRejectsSizeMismatch) {
  std::vector<float> a(4), b(5);
  EXPECT_THROW((void)distortion(a, b), std::invalid_argument);
}

TEST(Metrics, ErrorBoundedEdges) {
  std::vector<float> orig{1.0f, 2.0f};
  std::vector<float> within{1.0009f, 1.9991f};
  std::vector<float> outside{1.02f, 2.0f};
  EXPECT_TRUE(error_bounded(orig, within, 1e-3));
  EXPECT_FALSE(error_bounded(orig, outside, 1e-3));
  std::vector<float> other(3);
  EXPECT_FALSE(error_bounded(orig, other, 1.0));  // size mismatch
}

TEST(Metrics, ErrorBoundedUlpToleranceScalesWithMagnitude) {
  // A half-ulp overshoot at magnitude 1e6 (ulp ~ 0.06) must pass even for a
  // tiny absolute bound — the documented GPU float-arithmetic allowance.
  std::vector<float> orig{1.0e6f};
  std::vector<float> recon{std::nextafter(1.0e6f, 2.0e6f)};
  EXPECT_TRUE(error_bounded(orig, recon, 1e-6));
}

TEST(Metrics, ValueRange) {
  std::vector<float> v{-2.0f, 5.0f, 1.0f};
  EXPECT_DOUBLE_EQ(value_range(v), 7.0);
  EXPECT_DOUBLE_EQ(value_range(std::vector<float>{}), 0.0);
  std::vector<double> dv{-2.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(value_range(dv), 7.0);
}

TEST(Metrics, RatioAndBitRate) {
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 100), 10.0);
  EXPECT_DOUBLE_EQ(compression_ratio(1000, 0), 0.0);
  // 1M floats -> 1 MB compressed = 8 bits/value; 32/CR identity.
  EXPECT_DOUBLE_EQ(bit_rate(1u << 20, 1u << 20), 8.0);
  EXPECT_DOUBLE_EQ(bit_rate(0, 10), 0.0);
  const double cr = compression_ratio((1u << 20) * 4, 1u << 20);
  EXPECT_DOUBLE_EQ(32.0 / cr, bit_rate(1u << 20, 1u << 20));
}

TEST(Metrics, DoubleOverloadsAgreeWithFloat) {
  std::vector<float> of{0.5f, 1.5f, 2.5f};
  std::vector<float> rf{0.6f, 1.4f, 2.5f};
  std::vector<double> od(of.begin(), of.end());
  std::vector<double> rd(rf.begin(), rf.end());
  const auto df = distortion(of, rf);
  const auto dd = distortion(od, rd);
  EXPECT_NEAR(df.psnr, dd.psnr, 1e-4);
  EXPECT_NEAR(df.max_err, dd.max_err, 1e-7);
}

}  // namespace
