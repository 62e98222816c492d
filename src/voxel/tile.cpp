#include "voxel/tile.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace esca::voxel {

namespace {

Coord3 ceil_div(const Coord3& a, const Coord3& b) {
  return {(a.x + b.x - 1) / b.x, (a.y + b.y - 1) / b.y, (a.z + b.z - 1) / b.z};
}

Coord3 tile_of(const Coord3& voxel, const Coord3& tile_size) {
  return {voxel.x / tile_size.x, voxel.y / tile_size.y, voxel.z / tile_size.z};
}

}  // namespace

TileGrid::TileGrid(const VoxelGrid& grid, TileShape shape)
    : TileGrid(grid.coords(), grid.extent(), shape) {}

TileGrid::TileGrid(std::span<const Coord3> coords, Coord3 extent, TileShape shape)
    : shape_(shape), grid_extent_(extent) {
  ESCA_REQUIRE(shape.size.x > 0 && shape.size.y > 0 && shape.size.z > 0,
               "tile size must be positive, got " << shape.size);
  tiles_extent_ = ceil_div(grid_extent_, shape.size);

  struct Entry {
    Coord3 tile;
    Coord3 voxel;
    std::int32_t row;
  };
  std::vector<Entry> entries;
  entries.reserve(coords.size());
  for (std::size_t i = 0; i < coords.size(); ++i) {
    entries.push_back({tile_of(coords[i], shape.size), coords[i], static_cast<std::int32_t>(i)});
  }
  // Deterministic processing order: tiles sorted by tile coordinate, voxels
  // within a tile sorted by coordinate.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.tile != b.tile ? a.tile < b.tile : a.voxel < b.voxel;
  });
  for (const Entry& e : entries) {
    if (tiles_.empty() || tiles_.back().tile_coord != e.tile) {
      tile_index_.emplace(e.tile, tiles_.size());
      tiles_.push_back(Tile{e.tile,
                            {e.tile.x * shape.size.x, e.tile.y * shape.size.y,
                             e.tile.z * shape.size.z},
                            {},
                            {}});
    }
    tiles_.back().occupied.push_back(e.voxel);
    tiles_.back().rows.push_back(e.row);
  }
}

double TileGrid::removing_ratio() const {
  const auto total = total_tiles();
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(active_tiles()) / static_cast<double>(total);
}

const Tile* TileGrid::find_tile(const Coord3& tile_coord) const {
  const auto it = tile_index_.find(tile_coord);
  return it == tile_index_.end() ? nullptr : &tiles_[it->second];
}

std::int64_t TileGrid::occupied_voxels() const {
  std::int64_t n = 0;
  for (const auto& t : tiles_) n += static_cast<std::int64_t>(t.occupied.size());
  return n;
}

}  // namespace esca::voxel
