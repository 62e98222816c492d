#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sparse/sparse_tensor.hpp"
#include "test_util.hpp"
#include "voxel/voxel_grid.hpp"

namespace esca::sparse {
namespace {

TEST(SparseTensorTest, AddAndFind) {
  SparseTensor t({8, 8, 8}, 2);
  const auto r0 = t.add_site({1, 2, 3});
  const auto r1 = t.add_site({3, 2, 1});
  EXPECT_EQ(t.size(), 2U);
  EXPECT_EQ(t.find({1, 2, 3}), r0);
  EXPECT_EQ(t.find({3, 2, 1}), r1);
  EXPECT_EQ(t.find({0, 0, 0}), -1);
  EXPECT_TRUE(t.contains({1, 2, 3}));
}

TEST(SparseTensorTest, DuplicateSiteThrows) {
  SparseTensor t({8, 8, 8}, 1);
  t.add_site({1, 1, 1});
  EXPECT_THROW(t.add_site({1, 1, 1}), InvalidArgument);
}

TEST(SparseTensorTest, OutOfBoundsSiteThrows) {
  SparseTensor t({8, 8, 8}, 1);
  EXPECT_THROW(t.add_site({8, 0, 0}), InvalidArgument);
  EXPECT_THROW(SparseTensor({0, 8, 8}, 1), InvalidArgument);
  EXPECT_THROW(SparseTensor({8, 8, 8}, 0), InvalidArgument);
}

TEST(SparseTensorTest, FeatureAccess) {
  SparseTensor t({4, 4, 4}, 3);
  const float feats[] = {1.0F, -2.0F, 3.0F};
  const auto row = t.add_site({0, 0, 0}, feats);
  EXPECT_FLOAT_EQ(t.feature(static_cast<std::size_t>(row), 1), -2.0F);
  t.set_feature(static_cast<std::size_t>(row), 2, 9.0F);
  EXPECT_FLOAT_EQ(t.features(static_cast<std::size_t>(row))[2], 9.0F);
}

TEST(SparseTensorTest, AddSiteFeatureSizeMismatchThrows) {
  SparseTensor t({4, 4, 4}, 3);
  const float two[] = {1.0F, 2.0F};
  EXPECT_THROW(t.add_site({0, 0, 0}, two), InvalidArgument);
}

TEST(SparseTensorTest, FromVoxelGridCopiesOccupancy) {
  voxel::VoxelGrid g({8, 8, 8});
  g.insert({1, 1, 1}, 0.5F);
  g.insert({2, 2, 2}, 1.5F);
  const SparseTensor t = SparseTensor::from_voxel_grid(g, 2);
  EXPECT_EQ(t.size(), 2U);
  EXPECT_EQ(t.channels(), 2);
  const auto row = t.find({2, 2, 2});
  ASSERT_GE(row, 0);
  EXPECT_FLOAT_EQ(t.feature(static_cast<std::size_t>(row), 0), 1.5F);
  EXPECT_FLOAT_EQ(t.feature(static_cast<std::size_t>(row), 1), 0.0F);
}

TEST(SparseTensorTest, FromVoxelGridBulkBuildMatchesIncrementalReference) {
  // from_voxel_grid builds the CoordIndex with one sort + one rebuild; it
  // must be indistinguishable from the incremental add_site path followed
  // by a canonical sort.
  Rng rng(31);
  voxel::VoxelGrid grid({24, 24, 24});
  for (int i = 0; i < 600; ++i) {
    grid.insert({static_cast<std::int32_t>(rng.uniform_int(0, 23)),
                 static_cast<std::int32_t>(rng.uniform_int(0, 23)),
                 static_cast<std::int32_t>(rng.uniform_int(0, 23))},
                static_cast<float>(rng.uniform(0.1, 2.0)));
  }

  const SparseTensor bulk = SparseTensor::from_voxel_grid(grid, 3);
  SparseTensor reference(grid.extent(), 3);
  for (const Coord3& c : grid.coords()) {
    const auto row = reference.add_site(c);
    reference.set_feature(static_cast<std::size_t>(row), 0, grid.feature_at(c));
  }
  reference.sort_canonical();

  ASSERT_EQ(bulk.size(), reference.size());
  EXPECT_TRUE(bulk.canonically_sorted());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    EXPECT_EQ(bulk.coord(i), reference.coord(i));
    for (int c = 0; c < 3; ++c) EXPECT_FLOAT_EQ(bulk.feature(i, c), reference.feature(i, c));
    EXPECT_EQ(bulk.find(bulk.coord(i)), static_cast<std::int32_t>(i));
  }
  EXPECT_FLOAT_EQ(max_abs_diff(bulk, reference), 0.0F);
}

TEST(SparseTensorTest, FromVoxelGridRejectsExtentBeyondMortonRange) {
  // The tensor constructor guards the conversion: a grid extent outside the
  // 2^21 Morton coordinate range cannot be indexed.
  voxel::VoxelGrid grid({1 << 22, 8, 8});
  EXPECT_THROW((void)SparseTensor::from_voxel_grid(grid, 1), InvalidArgument);
}

TEST(SparseTensorTest, ZerosLikeSharesCoords) {
  Rng rng(2);
  const SparseTensor t = test::random_sparse_tensor({16, 16, 16}, 4, 0.05, rng);
  const SparseTensor z = t.zeros_like(7);
  EXPECT_EQ(z.size(), t.size());
  EXPECT_EQ(z.channels(), 7);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(z.coord(i), t.coord(i));
    for (int c = 0; c < 7; ++c) EXPECT_FLOAT_EQ(z.feature(i, c), 0.0F);
  }
}

TEST(SparseTensorTest, SortCanonicalOrdersAndKeepsFeatures) {
  SparseTensor t({8, 8, 8}, 1);
  const float f2[] = {2.0F};
  const float f1[] = {1.0F};
  const float f3[] = {3.0F};
  t.add_site({7, 7, 7}, f2);
  t.add_site({0, 0, 0}, f1);
  t.add_site({1, 0, 0}, f3);
  t.sort_canonical();
  EXPECT_EQ(t.coord(0), (Coord3{0, 0, 0}));
  EXPECT_EQ(t.coord(1), (Coord3{1, 0, 0}));
  EXPECT_EQ(t.coord(2), (Coord3{7, 7, 7}));
  EXPECT_FLOAT_EQ(t.feature(0, 0), 1.0F);
  EXPECT_FLOAT_EQ(t.feature(1, 0), 3.0F);
  EXPECT_FLOAT_EQ(t.feature(2, 0), 2.0F);
  // Index stays consistent after the permutation.
  EXPECT_EQ(t.find({7, 7, 7}), 2);
}

TEST(SparseTensorTest, AbsMax) {
  SparseTensor t({4, 4, 4}, 2);
  const float a[] = {0.5F, -3.0F};
  const float b[] = {2.0F, 1.0F};
  t.add_site({0, 0, 0}, a);
  t.add_site({1, 1, 1}, b);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0F);
  const SparseTensor empty({4, 4, 4}, 1);
  EXPECT_FLOAT_EQ(empty.abs_max(), 0.0F);
}

TEST(SparseTensorTest, AbsMaxFindsTheMaxAtAnyPosition) {
  // Enough values for several executor chunks; the max moves from the first
  // value over interior and boundary positions to the last.
  SparseTensor t({64, 64, 16}, 2);
  for (std::int32_t z = 0; z < 16; ++z) {
    for (std::int32_t y = 0; y < 64; ++y) {
      for (std::int32_t x = 0; x < 40; ++x) t.add_site({x, y, z});
    }
  }
  std::vector<float>& f = t.raw_features();
  ASSERT_GT(f.size(), std::size_t{4} << 14);
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = (i % 2 == 0 ? 0.25F : -0.5F);
  EXPECT_FLOAT_EQ(t.abs_max(), 0.5F);
  for (const std::size_t pos : {std::size_t{0}, std::size_t{1} << 14, (std::size_t{1} << 14) - 1,
                                f.size() / 2 + 3, f.size() - 1}) {
    const float saved = f[pos];
    f[pos] = pos % 3 == 0 ? -9.0F : 9.0F;
    EXPECT_FLOAT_EQ(t.abs_max(), 9.0F) << "pos " << pos;
    f[pos] = saved;
  }
}

TEST(SparseTensorTest, FromCoordsDetectsCanonicalOrder) {
  SparseTensor t({8, 8, 8}, 1);
  t.add_site({1, 0, 0});
  t.add_site({0, 1, 0});
  t.add_site({0, 0, 1});
  ASSERT_TRUE(t.canonically_sorted());
  EXPECT_TRUE(SparseTensor::from_coords(t.spatial_extent(), 2, t.coords(), t.index())
                  .canonically_sorted());
  std::vector<Coord3> reversed(t.coords().rbegin(), t.coords().rend());
  CoordIndex index;
  ASSERT_TRUE(index.rebuild(reversed));
  EXPECT_FALSE(SparseTensor::from_coords(t.spatial_extent(), 2, reversed, index)
                   .canonically_sorted());
}

TEST(SparseTensorTest, MaxAbsDiff) {
  Rng rng(4);
  const SparseTensor a = test::random_sparse_tensor({8, 8, 8}, 3, 0.2, rng);
  SparseTensor b = a;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0F);
  b.set_feature(0, 0, b.feature(0, 0) + 0.25F);
  EXPECT_NEAR(max_abs_diff(a, b), 0.25F, 1e-6F);
}

TEST(SparseTensorTest, ReservePreservesSemantics) {
  SparseTensor t({16, 16, 16}, 2);
  t.reserve(100);
  const float f[] = {1.0F, 2.0F};
  for (int i = 0; i < 10; ++i) t.add_site({i, i, i}, f);
  EXPECT_EQ(t.size(), 10U);
  EXPECT_EQ(t.find({4, 4, 4}), 4);
  EXPECT_FLOAT_EQ(t.feature(7, 1), 2.0F);
}

TEST(SparseTensorTest, CanonicallySortedFlagTracksInsertionOrder) {
  SparseTensor t({8, 8, 8}, 1);
  EXPECT_TRUE(t.canonically_sorted());  // vacuously
  t.add_site({0, 0, 0});
  t.add_site({1, 0, 0});
  t.add_site({0, 1, 0});  // (z,y,x) order: still ascending
  EXPECT_TRUE(t.canonically_sorted());
  t.add_site({5, 0, 0});  // out of order
  EXPECT_FALSE(t.canonically_sorted());
  t.sort_canonical();
  EXPECT_TRUE(t.canonically_sorted());
  EXPECT_TRUE(t.zeros_like(3).canonically_sorted());
}

TEST(SparseTensorTest, MaxAbsDiffFastPathMatchesLookupPath) {
  // a: canonically sorted; b: same sites in a different row order. The
  // sorted/sorted pair takes the row-aligned fast path, the mixed pair the
  // lookup fallback — both must agree.
  Rng rng(9);
  const SparseTensor a = test::random_sparse_tensor({10, 10, 10}, 2, 0.15, rng);
  ASSERT_TRUE(a.canonically_sorted());

  SparseTensor sorted_copy = a;
  sorted_copy.set_feature(0, 0, a.feature(0, 0) + 0.5F);
  ASSERT_TRUE(sorted_copy.canonically_sorted());
  EXPECT_NEAR(max_abs_diff(a, sorted_copy), 0.5F, 1e-6F);

  SparseTensor reversed(a.spatial_extent(), a.channels());
  for (std::size_t i = a.size(); i-- > 0;) {
    reversed.add_site(a.coord(i), a.features(i));
  }
  ASSERT_FALSE(reversed.canonically_sorted());
  reversed.set_feature(reversed.size() - 1, 0, a.feature(0, 0) + 0.5F);
  EXPECT_NEAR(max_abs_diff(a, reversed), 0.5F, 1e-6F);
  EXPECT_NEAR(max_abs_diff(reversed, a), 0.5F, 1e-6F);
}

TEST(SparseTensorTest, MaxAbsDiffRejectsMismatchedShapes) {
  SparseTensor a({4, 4, 4}, 1);
  SparseTensor b({4, 4, 4}, 2);
  a.add_site({0, 0, 0});
  b.add_site({0, 0, 0});
  EXPECT_THROW((void)max_abs_diff(a, b), InvalidArgument);

  SparseTensor c({4, 4, 4}, 1);
  c.add_site({1, 1, 1});
  EXPECT_THROW((void)max_abs_diff(a, c), InvalidArgument);
}

}  // namespace
}  // namespace esca::sparse
