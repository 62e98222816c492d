#include "core/zero_removing.hpp"

#include "common/check.hpp"

namespace esca::core {

ZeroRemoving::ZeroRemoving(Coord3 tile_size) : tile_size_(tile_size) {
  ESCA_REQUIRE(tile_size.x > 0 && tile_size.y > 0 && tile_size.z > 0,
               "tile size must be positive, got " << tile_size);
}

namespace {

void fill_stats(const voxel::TileGrid& tiles, ZeroRemovingStats* stats) {
  if (stats != nullptr) {
    stats->tile_size = tiles.shape().size;
    stats->active_tiles = tiles.active_tiles();
    stats->total_tiles = tiles.total_tiles();
    stats->removing_ratio = tiles.removing_ratio();
    stats->active_sites = tiles.occupied_voxels();
    stats->kept_voxels = tiles.active_tiles() * tiles.shape().voxels();
    stats->total_voxels = tiles.grid_extent().volume();
  }
}

}  // namespace

voxel::TileGrid ZeroRemoving::apply(const voxel::VoxelGrid& grid,
                                    ZeroRemovingStats* stats) const {
  voxel::TileGrid tiles(grid, voxel::TileShape{tile_size_});
  fill_stats(tiles, stats);
  return tiles;
}

voxel::TileGrid ZeroRemoving::apply(const sparse::SparseTensor& tensor,
                                    ZeroRemovingStats* stats) const {
  voxel::TileGrid tiles(tensor.coords(), tensor.spatial_extent(), voxel::TileShape{tile_size_});
  fill_stats(tiles, stats);
  return tiles;
}

}  // namespace esca::core
