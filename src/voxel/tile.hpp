// Tile partition of a voxel grid (substrate for the paper's §III.A
// tile-based zero-removing strategy).
//
// The grid extent is divided into tiles of a fixed N x M x L shape; a tile is
// *active* when it contains at least one occupied voxel. Removing fully
// sparse tiles is lossless for submanifold convolution because outputs exist
// only at occupied sites.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "voxel/voxel_grid.hpp"

namespace esca::voxel {

struct TileShape {
  Coord3 size{8, 8, 8};

  std::int64_t voxels() const { return size.volume(); }
};

/// One active tile: its tile-space coordinate plus the occupied voxels that
/// fall inside it (global coordinates), each with its row in the source.
struct Tile {
  Coord3 tile_coord;              ///< position in tile space
  Coord3 origin;                  ///< voxel-space origin (tile_coord * size)
  std::vector<Coord3> occupied;   ///< occupied voxels inside this tile, ascending
  std::vector<std::int32_t> rows; ///< rows[i]: index of occupied[i] in the source list
};

class TileGrid {
 public:
  /// Partition `grid` with the given tile shape. Extent need not be an exact
  /// multiple of the tile size; edge tiles are logically padded. Rows index
  /// grid.coords().
  TileGrid(const VoxelGrid& grid, TileShape shape);
  /// Partition a list of distinct in-extent coordinates (e.g. a sparse
  /// tensor's sites); each voxel's row is its index in `coords`.
  TileGrid(std::span<const Coord3> coords, Coord3 extent, TileShape shape);

  const TileShape& shape() const { return shape_; }
  const Coord3& grid_extent() const { return grid_extent_; }
  Coord3 tiles_extent() const { return tiles_extent_; }

  /// Total number of tiles covering the grid ("All Tiles" in Table I).
  std::int64_t total_tiles() const { return tiles_extent_.volume(); }
  /// Tiles containing at least one occupied voxel ("Active Tiles").
  std::int64_t active_tiles() const { return static_cast<std::int64_t>(tiles_.size()); }
  /// Fraction of tiles removed ("Removing Ratio").
  double removing_ratio() const;

  const std::vector<Tile>& tiles() const { return tiles_; }
  bool tile_active(const Coord3& tile_coord) const { return tile_index_.contains(tile_coord); }
  const Tile* find_tile(const Coord3& tile_coord) const;

  /// Occupied voxel count summed over active tiles (== grid occupied count).
  std::int64_t occupied_voxels() const;

 private:
  TileShape shape_;
  Coord3 grid_extent_;
  Coord3 tiles_extent_;
  std::vector<Tile> tiles_;
  std::unordered_map<Coord3, std::size_t, Coord3Hash> tile_index_;
};

}  // namespace esca::voxel
