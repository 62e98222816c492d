#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/submanifold_conv.hpp"
#include "quant/qsubconv.hpp"
#include "quant/qtensor.hpp"
#include "quant/quantizer.hpp"
#include "sparse/geometry.hpp"
#include "test_util.hpp"

namespace esca::quant {
namespace {

TEST(QuantizerTest, CalibrateMapsAbsMaxToQmax) {
  const QuantParams p = calibrate(12.7F, kInt8Max);
  EXPECT_NEAR(p.scale, 0.1F, 1e-6F);
  EXPECT_EQ(quantize_value(12.7F, p, kInt8Max), 127);
  EXPECT_EQ(quantize_value(-12.7F, p, kInt8Max), -127);
}

TEST(QuantizerTest, CalibrateZeroTensorUsesNeutralScale) {
  const QuantParams p = calibrate(0.0F, kInt16Max);
  EXPECT_FLOAT_EQ(p.scale, 1.0F);
  EXPECT_EQ(quantize_value(0.0F, p, kInt16Max), 0);
}

TEST(QuantizerTest, SaturatesOutOfRange) {
  const QuantParams p{1.0F};
  EXPECT_EQ(quantize_value(1e9F, p, kInt8Max), 127);
  EXPECT_EQ(quantize_value(-1e9F, p, kInt8Max), -127);
}

TEST(QuantizerTest, BeyondInt32RangeSaturatesToItsOwnSign) {
  const QuantParams p{1.0F};
  EXPECT_EQ(quantize_value(1e12F, p, kInt16Max), kInt16Max);
  EXPECT_EQ(quantize_value(-1e12F, p, kInt16Max), -kInt16Max);
  EXPECT_EQ(quantize_value(std::numeric_limits<float>::infinity(), p, kInt8Max), kInt8Max);
  EXPECT_EQ(quantize_value(-std::numeric_limits<float>::infinity(), p, kInt8Max), -kInt8Max);
  // Ties at the bound round to even (32768) before saturating back.
  EXPECT_EQ(quantize_value(32767.5F, p, kInt16Max), kInt16Max);
  EXPECT_EQ(quantize_value(-32766.5F, p, kInt16Max), -32766);
  EXPECT_EQ(quantize_value(std::numeric_limits<float>::quiet_NaN(), p, kInt16Max), -kInt16Max);
}

TEST(QuantizerTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(71);
  std::vector<float> values(1000);
  for (auto& v : values) v = rng.uniform_f(-5.0F, 5.0F);
  const QuantParams p = calibrate(5.0F, kInt16Max);
  EXPECT_LE(quantization_error(values, p, kInt16Max), p.scale * 0.5F + 1e-7F);
}

TEST(QuantizerTest, Int8VectorQuantization) {
  const QuantParams p{0.5F};
  const std::vector<float> v{0.0F, 0.49F, 0.51F, -1.0F, 100.0F};
  const auto q = quantize_int8(v, p);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 1);
  EXPECT_EQ(q[2], 1);
  EXPECT_EQ(q[3], -2);
  EXPECT_EQ(q[4], 127);  // saturated
}

TEST(QuantizerTest, RoundHalfToEven) {
  const QuantParams p{1.0F};
  // nearbyint default rounding: ties to even.
  EXPECT_EQ(quantize_value(0.5F, p, kInt16Max), 0);
  EXPECT_EQ(quantize_value(1.5F, p, kInt16Max), 2);
  EXPECT_EQ(quantize_value(2.5F, p, kInt16Max), 2);
}

TEST(QTensorTest, FromFloatRoundTrip) {
  Rng rng(72);
  const auto t = test::random_sparse_tensor({10, 10, 10}, 4, 0.1, rng);
  const QSparseTensor q = QSparseTensor::from_float_calibrated(t);
  EXPECT_EQ(q.size(), t.size());
  EXPECT_EQ(q.channels(), 4);
  const auto back = q.to_float();
  // Round-trip error bounded by scale/2 per entry.
  EXPECT_LE(sparse::max_abs_diff(t, back), q.params().scale * 0.5F + 1e-6F);
}

TEST(QTensorTest, PreservesCoordinates) {
  Rng rng(73);
  const auto t = test::random_sparse_tensor({8, 8, 8}, 2, 0.15, rng);
  const QSparseTensor q = QSparseTensor::from_float_calibrated(t);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(q.find(t.coord(i)), 0);
  }
  EXPECT_EQ(q.find({7, 7, 7}) >= 0, t.find({7, 7, 7}) >= 0);
}

TEST(QTensorTest, EqualityDetectsValueDifferences) {
  Rng rng(74);
  const auto t = test::random_sparse_tensor({8, 8, 8}, 2, 0.1, rng);
  const QSparseTensor a = QSparseTensor::from_float_calibrated(t);
  QSparseTensor b = a;
  EXPECT_TRUE(a == b);
  if (b.size() > 0) {
    b.features(0)[0] = static_cast<std::int16_t>(b.features(0)[0] + 1);
    EXPECT_FALSE(a == b);
  }
}

TEST(QTensorTest, EqualityDetectsCoordDifferences) {
  QSparseTensor a({4, 4, 4}, 1, QuantParams{1.0F});
  QSparseTensor b({4, 4, 4}, 1, QuantParams{1.0F});
  a.add_site({0, 0, 0});
  b.add_site({1, 1, 1});
  EXPECT_FALSE(a == b);
}

TEST(QTensorTest, DuplicateAndOutOfBoundsSitesThrow) {
  QSparseTensor q({4, 4, 4}, 1, QuantParams{1.0F});
  q.add_site({0, 0, 0});
  EXPECT_THROW(q.add_site({0, 0, 0}), InvalidArgument);
  EXPECT_THROW(q.add_site({4, 0, 0}), InvalidArgument);
  EXPECT_THROW(QSparseTensor({4, 4, 4}, 1, QuantParams{0.0F}), InvalidArgument);
}

TEST(QTensorTest, Int16RangeRespected) {
  sparse::SparseTensor t({4, 4, 4}, 1);
  const float big[] = {1000.0F};
  const float small[] = {-1000.0F};
  t.add_site({0, 0, 0}, big);
  t.add_site({1, 1, 1}, small);
  const QSparseTensor q = QSparseTensor::from_float_calibrated(t);
  const auto r0 = static_cast<std::size_t>(q.find({0, 0, 0}));
  const auto r1 = static_cast<std::size_t>(q.find({1, 1, 1}));
  EXPECT_EQ(q.features(r0)[0], kInt16Max);
  EXPECT_EQ(q.features(r1)[0], -kInt16Max);
}

/// `t`'s sites and features with rows in reverse order.
sparse::SparseTensor reversed_rows(const sparse::SparseTensor& t) {
  sparse::SparseTensor r(t.spatial_extent(), t.channels());
  for (std::size_t i = t.size(); i-- > 0;) r.add_site(t.coord(i), t.features(i));
  return r;
}

TEST(QTensorTest, FromFloatKeepsRowOrderAndIndexOfOutOfOrderRows) {
  Rng rng(75);
  // Several quantize chunks; rows added against Morton order.
  const auto sorted = test::random_sparse_tensor({40, 40, 40}, 8, 0.15, rng, 8000);
  ASSERT_GT(sorted.size() * 8, std::size_t{3} << 14);
  const sparse::SparseTensor t = reversed_rows(sorted);
  ASSERT_FALSE(t.canonically_sorted());
  const QuantParams params = calibrate(t.abs_max(), kInt16Max);
  const QSparseTensor q = QSparseTensor::from_float(t, params);
  ASSERT_EQ(q.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ(q.coord(i), t.coord(i)) << "row " << i;
    ASSERT_EQ(q.find(q.coord(i)), static_cast<std::int32_t>(i)) << "row " << i;
    for (int c = 0; c < 8; ++c) {
      ASSERT_EQ(q.features(i)[static_cast<std::size_t>(c)],
                quantize_value(t.feature(i, c), params, kInt16Max));
    }
  }
  // to_float keeps the rows too, and does not claim canonical order.
  const sparse::SparseTensor back = q.to_float();
  EXPECT_EQ(back.coords(), t.coords());
  EXPECT_FALSE(back.canonically_sorted());
  EXPECT_TRUE(QSparseTensor::from_float(sorted, params).to_float().canonically_sorted());
}

TEST(QTensorTest, ZerosLikeKeepsSitesAndGeometryMemo) {
  Rng rng(76);
  const QSparseTensor q =
      QSparseTensor::from_float_calibrated(test::random_sparse_tensor({12, 12, 12}, 2, 0.2, rng));
  const auto geometry = q.submanifold_geometry(3);
  const QSparseTensor z = q.zeros_like(5, QuantParams{0.5F});
  EXPECT_EQ(z.coords(), q.coords());
  EXPECT_EQ(z.channels(), 5);
  EXPECT_FLOAT_EQ(z.params().scale, 0.5F);
  EXPECT_TRUE(std::all_of(z.raw_features().begin(), z.raw_features().end(),
                          [](std::int16_t v) { return v == 0; }));
  for (std::size_t i = 0; i < z.size(); ++i) {
    ASSERT_EQ(z.find(z.coord(i)), static_cast<std::int32_t>(i));
  }
  EXPECT_EQ(z.submanifold_geometry(3), geometry);  // memo carried, not rebuilt
}

TEST(QTensorTest, EqualityIgnoresRowOrderAndSeesOneFlippedValue) {
  Rng rng(77);
  const auto t = test::random_sparse_tensor({16, 16, 16}, 3, 0.1, rng);
  const QuantParams params = calibrate(t.abs_max(), kInt16Max);
  const QSparseTensor a = QSparseTensor::from_float(t, params);
  const QSparseTensor permuted = QSparseTensor::from_float(reversed_rows(t), params);
  ASSERT_GT(a.size(), 2U);
  ASSERT_NE(a.coords(), permuted.coords());
  EXPECT_TRUE(a == permuted);
  EXPECT_TRUE(permuted == a);

  const std::size_t mid = a.size() / 2;
  QSparseTensor aligned_flip = a;
  aligned_flip.features(mid)[1] ^= 1;
  EXPECT_FALSE(a == aligned_flip);
  EXPECT_FALSE(aligned_flip == a);

  QSparseTensor permuted_flip = permuted;
  permuted_flip.features(static_cast<std::size_t>(permuted.find(a.coord(mid))))[1] ^= 1;
  EXPECT_FALSE(a == permuted_flip);
  EXPECT_FALSE(permuted_flip == a);
}

TEST(QTensorTest, EqualityFalseForDifferentSitesOfEqualSize) {
  QSparseTensor a({8, 8, 8}, 2, QuantParams{1.0F});
  QSparseTensor b({8, 8, 8}, 2, QuantParams{1.0F});
  for (int i = 0; i < 6; ++i) {
    a.add_site({i, 0, 0});
    b.add_site({i, i == 5 ? 1 : 0, 0});  // one site differs, all values zero
  }
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(b == a);
}

TEST(QuantizedSubConvTest, ForwardEqualsReferenceAndFindsEverySite) {
  Rng rng(78);
  // Several requantize row chunks, rows out of Morton order.
  const sparse::SparseTensor x =
      reversed_rows(test::random_sparse_tensor({32, 32, 32}, 3, 0.15, rng, 5000));
  ASSERT_GT(x.size(), 3U * 1024U);
  nn::SubmanifoldConv3d conv(3, 4, 3);
  conv.init_kaiming(rng);
  const float in_scale = calibrate(x.abs_max(), kInt16Max).scale;
  const QuantizedSubConv layer =
      QuantizedSubConv::from_float(conv, nullptr, true, in_scale, 0.01F, "bulk");
  const QSparseTensor qx = QSparseTensor::from_float(x, QuantParams{in_scale});
  const QSparseTensor y = layer.forward(qx);
  const QSparseTensor reference =
      layer.forward_reference(qx, qx.submanifold_geometry(3)->rulebook);
  EXPECT_TRUE(y == reference);
  EXPECT_EQ(y.raw_features().size(), reference.raw_features().size());
  EXPECT_TRUE(std::equal(y.raw_features().begin(), y.raw_features().end(),
                         reference.raw_features().begin()));
  ASSERT_EQ(y.coords(), qx.coords());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(y.find(qx.coord(i)), static_cast<std::int32_t>(i)) << "row " << i;
  }
}

}  // namespace
}  // namespace esca::quant
