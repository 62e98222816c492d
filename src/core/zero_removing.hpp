// Tile-based zero-removing strategy (paper §III.A, Table I).
//
// Partition the feature map into fixed-size tiles and drop the fully sparse
// ones. Sub-Conv outputs exist only at active sites, and every neighbourhood
// a Sub-Conv reads is covered by the halo of some active tile, so removal is
// lossless — asserted by tests.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/tile.hpp"
#include "voxel/voxel_grid.hpp"

namespace esca::core {

struct ZeroRemovingStats {
  Coord3 tile_size;
  std::int64_t active_tiles{0};
  std::int64_t total_tiles{0};
  double removing_ratio{0.0};
  std::int64_t active_sites{0};
  /// Voxels kept for processing (active tiles x tile volume) vs full grid.
  std::int64_t kept_voxels{0};
  std::int64_t total_voxels{0};
};

class ZeroRemoving {
 public:
  explicit ZeroRemoving(Coord3 tile_size);

  /// Partition and drop fully sparse tiles; the returned TileGrid holds the
  /// surviving (active) tiles only.
  voxel::TileGrid apply(const voxel::VoxelGrid& grid, ZeroRemovingStats* stats = nullptr) const;

  /// Geometry-only convenience over a sparse tensor's coordinate set.
  voxel::TileGrid apply(const sparse::SparseTensor& tensor,
                        ZeroRemovingStats* stats = nullptr) const;

  const Coord3& tile_size() const { return tile_size_; }

 private:
  Coord3 tile_size_;
};

}  // namespace esca::core
