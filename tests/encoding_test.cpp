#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/encoding.hpp"
#include "core/zero_removing.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

struct Encoded {
  sparse::SparseTensor geometry;
  std::vector<EncodedTile> tiles;
  EncodingStats stats;
};

Encoded encode_tensor(const sparse::SparseTensor& t, const ArchConfig& cfg) {
  sparse::SparseTensor geometry(t.spatial_extent(), 1);
  for (const Coord3& c : t.coords()) geometry.add_site(c);
  const ZeroRemoving zr(cfg.tile_size);
  const voxel::TileGrid grid = zr.apply(geometry);
  EncodingStats stats;
  const TileEncoder encoder(cfg);
  auto tiles = encoder.encode(geometry, grid, &stats);
  return {std::move(geometry), std::move(tiles), stats};
}

TEST(EncodedTileTest, PaddedGeometry) {
  const EncodedTile t({1, 2, 3}, {8, 16, 24}, {8, 8, 8}, 1);
  EXPECT_EQ(t.padded_size(), (Coord3{10, 10, 10}));
  EXPECT_EQ(t.padded_origin(), (Coord3{7, 15, 23}));
  EXPECT_EQ(t.columns(), 100);
  EXPECT_EQ(t.depth(), 10);
  EXPECT_EQ(t.mask_bits(), 1000);
}

TEST(TileEncoderTest, MaskMatchesGeometry) {
  Rng rng(91);
  ArchConfig cfg;
  cfg.tile_size = {8, 8, 8};
  const auto t = test::clustered_tensor({32, 32, 32}, 1, rng);
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_FALSE(e.tiles.empty());

  for (const EncodedTile& tile : e.tiles) {
    const Coord3 po = tile.padded_origin();
    for (int x = 0; x < tile.padded_size().x; ++x) {
      for (int y = 0; y < tile.padded_size().y; ++y) {
        for (int z = 0; z < tile.padded_size().z; ++z) {
          const Coord3 global = po + Coord3{x, y, z};
          const bool active = in_bounds(global, e.geometry.spatial_extent()) &&
                              e.geometry.contains(global);
          EXPECT_EQ(tile.mask_at(tile.column_of(x, y), z), active)
              << "tile " << tile.tile_coord() << " at " << global;
        }
      }
    }
  }
}

TEST(TileEncoderTest, ColumnPrefixEqualsPopcount) {
  Rng rng(92);
  ArchConfig cfg;
  cfg.tile_size = {4, 4, 4};
  const auto t = test::clustered_tensor({16, 16, 16}, 1, rng, 5, 120);
  const Encoded e = encode_tensor(t, cfg);
  for (const EncodedTile& tile : e.tiles) {
    for (int col = 0; col < tile.columns(); ++col) {
      std::int32_t count = 0;
      for (int z = 0; z <= tile.depth(); ++z) {
        EXPECT_EQ(tile.column_prefix(col, z), count);
        if (z < tile.depth() && tile.mask_at(col, z)) ++count;
      }
    }
  }
}

TEST(TileEncoderTest, SiteRowsAreColumnMajorZAscending) {
  Rng rng(93);
  ArchConfig cfg;
  const auto t = test::clustered_tensor({32, 32, 32}, 1, rng);
  const Encoded e = encode_tensor(t, cfg);
  for (const EncodedTile& tile : e.tiles) {
    const auto& starts = tile.column_start();
    ASSERT_EQ(starts.size(), static_cast<std::size_t>(tile.columns()) + 1);
    for (int col = 0; col < tile.columns(); ++col) {
      const std::int32_t begin = starts[static_cast<std::size_t>(col)];
      const std::int32_t end = starts[static_cast<std::size_t>(col) + 1];
      ASSERT_LE(begin, end);
      // Walk the mask: the i-th set bit of the column must reference the
      // site at that exact z.
      std::int32_t addr = begin;
      const int x = col / tile.padded_size().y;
      const int y = col % tile.padded_size().y;
      for (int z = 0; z < tile.depth(); ++z) {
        if (!tile.mask_at(col, z)) continue;
        ASSERT_LT(addr, end);
        const Coord3 global = tile.padded_origin() + Coord3{x, y, z};
        EXPECT_EQ(tile.site_row(addr), e.geometry.find(global));
        ++addr;
      }
      EXPECT_EQ(addr, end);
    }
  }
}

TEST(TileEncoderTest, HaloIncludesNeighbourTileSites) {
  // Two sites in adjacent 8^3 tiles, one voxel apart across the boundary.
  sparse::SparseTensor t({32, 32, 32}, 1);
  t.add_site({7, 4, 4});  // tile (0,0,0)
  t.add_site({8, 4, 4});  // tile (1,0,0)
  ArchConfig cfg;
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_EQ(e.tiles.size(), 2U);

  // Tile (0,0,0)'s padded region must contain the neighbour (8,4,4) as halo.
  const EncodedTile& t0 = e.tiles.front();
  ASSERT_EQ(t0.tile_coord(), (Coord3{0, 0, 0}));
  const Coord3 rel = Coord3{8, 4, 4} - t0.padded_origin();
  EXPECT_TRUE(t0.mask_at(t0.column_of(rel.x, rel.y), rel.z));
  // Both tiles store both sites -> 4 stored, 2 core, 2 halo duplicates.
  EXPECT_EQ(e.stats.stored_sites, 4);
  EXPECT_EQ(e.stats.core_sites, 2);
  EXPECT_EQ(e.stats.halo_duplicates, 2);
}

TEST(TileEncoderTest, CoreActiveCountsSumToSites) {
  Rng rng(94);
  ArchConfig cfg;
  const auto t = test::clustered_tensor({32, 32, 32}, 1, rng, 8, 300);
  const Encoded e = encode_tensor(t, cfg);
  std::int64_t total = 0;
  for (const EncodedTile& tile : e.tiles) total += tile.core_active_count();
  EXPECT_EQ(total, static_cast<std::int64_t>(t.size()));
  EXPECT_EQ(e.stats.core_sites, total);
}

TEST(TileEncoderTest, StatsMaskBytesMatchGeometry) {
  sparse::SparseTensor t({16, 16, 16}, 1);
  t.add_site({0, 0, 0});
  ArchConfig cfg;
  cfg.tile_size = {8, 8, 8};
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_EQ(e.stats.tiles, 1);
  // Padded 10^3 = 1000 bits -> 125 bytes.
  EXPECT_EQ(e.stats.mask_bytes, 125);
}

TEST(TileEncoderTest, GridBorderTilesClampHalo) {
  // A site at the grid corner: halo would extend outside; encoder must not
  // read out of bounds and the mask stays consistent.
  sparse::SparseTensor t({8, 8, 8}, 1);
  t.add_site({0, 0, 0});
  t.add_site({7, 7, 7});
  ArchConfig cfg;
  const Encoded e = encode_tensor(t, cfg);
  ASSERT_EQ(e.tiles.size(), 1U);
  const EncodedTile& tile = e.tiles.front();
  EXPECT_EQ(tile.core_active_count(), 2);
  EXPECT_EQ(tile.stored_sites(), 2);
}

// ---------------------------------------------------------------------------
// The bucketed encoder against a brute-force encoder that looks up every
// voxel of every padded tile in the geometry.
// ---------------------------------------------------------------------------

struct BruteTile {
  std::vector<bool> mask;  ///< column-major, z innermost
  std::vector<std::int32_t> column_start;
  std::vector<std::int32_t> site_rows;
  std::int32_t core_active{0};
};

BruteTile brute_encode(const sparse::SparseTensor& geometry, const EncodedTile& shape) {
  const Coord3 porigin = shape.padded_origin();
  const Coord3 psize = shape.padded_size();
  const int r = shape.kernel_radius();
  const Coord3 core = shape.core_size();
  BruteTile t;
  t.mask.assign(static_cast<std::size_t>(shape.mask_bits()), false);
  t.column_start.assign(static_cast<std::size_t>(shape.columns()) + 1, 0);
  for (int x = 0; x < psize.x; ++x) {
    for (int y = 0; y < psize.y; ++y) {
      const int col = shape.column_of(x, y);
      for (int z = 0; z < psize.z; ++z) {
        const Coord3 global = porigin + Coord3{x, y, z};
        if (!in_bounds(global, geometry.spatial_extent())) continue;
        const std::int32_t row = geometry.find(global);
        if (row < 0) continue;
        t.mask[static_cast<std::size_t>(col) * static_cast<std::size_t>(psize.z) +
               static_cast<std::size_t>(z)] = true;
        ++t.column_start[static_cast<std::size_t>(col) + 1];
        t.site_rows.push_back(row);
        if (x >= r && x < r + core.x && y >= r && y < r + core.y && z >= r && z < r + core.z) {
          ++t.core_active;
        }
      }
    }
  }
  for (std::size_t c = 1; c < t.column_start.size(); ++c) {
    t.column_start[c] += t.column_start[c - 1];
  }
  return t;
}

struct EncoderCase {
  std::string name;
  Coord3 extent;
  Coord3 tile;
  int kernel;
  double density;

  friend void PrintTo(const EncoderCase& c, std::ostream* os) { *os << c.name; }
};

class EncoderOracleTest : public ::testing::TestWithParam<EncoderCase> {};

TEST_P(EncoderOracleTest, EqualsBruteForceEncoder) {
  const EncoderCase& c = GetParam();
  Rng rng(4200 + static_cast<std::uint64_t>(c.kernel));
  // Sites inserted in random order, so geometry rows are not scan order.
  std::vector<Coord3> coords;
  for (std::int64_t i = 0; i < c.extent.volume(); ++i) {
    if (rng.bernoulli(c.density)) coords.push_back(delinearize(i, c.extent));
  }
  std::shuffle(coords.begin(), coords.end(), rng.engine());
  sparse::SparseTensor geometry(c.extent, 1);
  for (const Coord3& coord : coords) geometry.add_site(coord);

  ArchConfig cfg;
  cfg.kernel_size = c.kernel;
  cfg.tile_size = c.tile;
  const voxel::TileGrid grid = ZeroRemoving(cfg.tile_size).apply(geometry);
  EncodingStats stats;
  const std::vector<EncodedTile> tiles = TileEncoder(cfg).encode(geometry, grid, &stats);
  ASSERT_EQ(static_cast<std::int64_t>(tiles.size()), grid.active_tiles());

  EncodingStats want;
  for (const EncodedTile& tile : tiles) {
    const BruteTile brute = brute_encode(geometry, tile);
    for (int col = 0; col < tile.columns(); ++col) {
      std::int32_t below = 0;
      for (int z = 0; z < tile.depth(); ++z) {
        const bool bit = brute.mask[static_cast<std::size_t>(col) *
                                        static_cast<std::size_t>(tile.depth()) +
                                    static_cast<std::size_t>(z)];
        ASSERT_EQ(tile.mask_at(col, z), bit) << tile.tile_coord() << " col " << col << " z " << z;
        ASSERT_EQ(tile.column_prefix(col, z), below) << tile.tile_coord() << " col " << col;
        int next = z;
        while (next < tile.depth() && !brute.mask[static_cast<std::size_t>(col) *
                                                      static_cast<std::size_t>(tile.depth()) +
                                                  static_cast<std::size_t>(next)]) {
          ++next;
        }
        ASSERT_EQ(tile.next_active(col, z, tile.depth()), next) << tile.tile_coord();
        below += bit ? 1 : 0;
      }
      ASSERT_EQ(tile.column_prefix(col, tile.depth()), below);
    }
    EXPECT_EQ(tile.column_start(), brute.column_start) << tile.tile_coord();
    EXPECT_EQ(tile.site_rows(), brute.site_rows) << tile.tile_coord();
    EXPECT_EQ(tile.core_active_count(), brute.core_active) << tile.tile_coord();

    want.tiles += 1;
    want.mask_bytes += (tile.mask_bits() + 7) / 8;
    want.stored_sites += static_cast<std::int64_t>(brute.site_rows.size());
    want.core_sites += brute.core_active;
    want.halo_duplicates += static_cast<std::int64_t>(brute.site_rows.size()) - brute.core_active;
  }
  EXPECT_EQ(stats.tiles, want.tiles);
  EXPECT_EQ(stats.mask_bytes, want.mask_bytes);
  EXPECT_EQ(stats.stored_sites, want.stored_sites);
  EXPECT_EQ(stats.core_sites, want.core_sites);
  EXPECT_EQ(stats.halo_duplicates, want.halo_duplicates);
  EXPECT_EQ(stats.core_sites, static_cast<std::int64_t>(geometry.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncoderOracleTest,
    ::testing::Values(
        // Extents that are not a multiple of the tile: border tiles overhang.
        EncoderCase{"ragged_extent_k3", {13, 11, 9}, {4, 4, 4}, 3, 0.15},
        EncoderCase{"ragged_extent_k5", {10, 7, 12}, {8, 8, 8}, 5, 0.1},
        // Tiles smaller than the radius: the halo spans two neighbours.
        EncoderCase{"tile1_k5", {7, 6, 8}, {1, 1, 1}, 5, 0.2},
        EncoderCase{"tile2_k5", {9, 8, 7}, {2, 2, 2}, 5, 0.2},
        EncoderCase{"tile1_k3", {6, 7, 5}, {1, 1, 1}, 3, 0.3},
        // Anisotropic tiles.
        EncoderCase{"aniso_2x3x5_k3", {12, 12, 12}, {2, 3, 5}, 3, 0.1},
        EncoderCase{"aniso_8x4x2_k5", {16, 9, 10}, {8, 4, 2}, 5, 0.1},
        // Empty grid (no active tile) and every voxel occupied (full tiles).
        EncoderCase{"empty", {8, 8, 8}, {4, 4, 4}, 3, 0.0},
        EncoderCase{"full_k3", {9, 8, 10}, {4, 4, 4}, 3, 1.0},
        EncoderCase{"full_k5", {6, 6, 6}, {3, 2, 4}, 5, 1.0},
        // Columns longer than a 64-bit mask word.
        EncoderCase{"tall_columns", {6, 5, 150}, {2, 2, 70}, 3, 0.3},
        // Sparse scatter: most tiles sit on the grid border.
        EncoderCase{"sparse_border", {20, 20, 20}, {8, 8, 8}, 3, 0.01},
        EncoderCase{"k1", {10, 10, 10}, {4, 4, 4}, 1, 0.2}),
    [](const ::testing::TestParamInfo<EncoderCase>& info) { return info.param.name; });

}  // namespace
}  // namespace esca::core
