#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/zero_removing.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

TEST(ZeroRemovingTest, StatsMatchTileGrid) {
  Rng rng(101);
  const auto t = test::clustered_tensor({64, 64, 64}, 1, rng, 10, 400);
  const ZeroRemoving zr({8, 8, 8});
  ZeroRemovingStats stats;
  const voxel::TileGrid tiles = zr.apply(t, &stats);
  EXPECT_EQ(stats.active_tiles, tiles.active_tiles());
  EXPECT_EQ(stats.total_tiles, 512);
  EXPECT_DOUBLE_EQ(stats.removing_ratio, tiles.removing_ratio());
  EXPECT_EQ(stats.active_sites, static_cast<std::int64_t>(t.size()));
  EXPECT_EQ(stats.kept_voxels, stats.active_tiles * 512);
  EXPECT_EQ(stats.total_voxels, 64LL * 64 * 64);
}

TEST(ZeroRemovingTest, LosslessSiteCoverage) {
  // The union of tile-core sites equals the original site set: removal
  // drops only all-zero regions.
  Rng rng(102);
  const auto t = test::random_sparse_tensor({48, 48, 48}, 1, 0.01, rng);
  const ZeroRemoving zr({8, 8, 8});
  const voxel::TileGrid tiles = zr.apply(t);

  std::set<Coord3> covered;
  for (const voxel::Tile& tile : tiles.tiles()) {
    for (const Coord3& c : tile.occupied) covered.insert(c);
  }
  EXPECT_EQ(covered.size(), t.size());
  for (const Coord3& c : t.coords()) EXPECT_TRUE(covered.contains(c));
}

TEST(ZeroRemovingTest, FinerNestedTilesKeepFewerVoxels) {
  // For *nested* tile sizes (each dividing the next) a finer partition never
  // keeps more voxels: every active coarse tile is a union of fine tiles of
  // which only the active ones survive. (The paper's Table I trend; note it
  // is not a theorem for non-nested sizes like 12 vs 16.)
  Rng rng(103);
  const auto t = test::clustered_tensor({96, 96, 96}, 1, rng, 12, 600);
  std::int64_t previous_kept = 0;
  bool first = true;
  for (const std::int32_t size : {4, 8, 16, 32}) {
    ZeroRemovingStats stats;
    (void)ZeroRemoving({size, size, size}).apply(t, &stats);
    if (!first) {
      EXPECT_GE(stats.kept_voxels, previous_kept) << "tile size " << size;
    }
    first = false;
    previous_kept = stats.kept_voxels;
    EXPECT_GT(stats.removing_ratio, 0.9) << "tile size " << size;
  }
}

TEST(ZeroRemovingTest, Table1AllTileCounts) {
  sparse::SparseTensor t({192, 192, 192}, 1);
  t.add_site({96, 96, 96});
  const struct {
    std::int32_t size;
    std::int64_t all;
  } rows[] = {{4, 110592}, {8, 13824}, {12, 4096}, {16, 1728}};
  for (const auto& row : rows) {
    ZeroRemovingStats stats;
    (void)ZeroRemoving({row.size, row.size, row.size}).apply(t, &stats);
    EXPECT_EQ(stats.total_tiles, row.all);
    EXPECT_EQ(stats.active_tiles, 1);
  }
}

TEST(ZeroRemovingTest, EmptyTensorYieldsNoActiveTiles) {
  const sparse::SparseTensor t({32, 32, 32}, 1);
  ZeroRemovingStats stats;
  (void)ZeroRemoving({8, 8, 8}).apply(t, &stats);
  EXPECT_EQ(stats.active_tiles, 0);
  EXPECT_DOUBLE_EQ(stats.removing_ratio, 1.0);
}

TEST(ZeroRemovingTest, RejectsBadTileSize) {
  EXPECT_THROW(ZeroRemoving({0, 8, 8}), InvalidArgument);
}

}  // namespace
}  // namespace esca::core
