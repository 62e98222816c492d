#include "core/encoding.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace esca::core {

namespace {

/// a / b rounded toward negative infinity (b > 0).
int floor_div(int a, int b) { return a >= 0 ? a / b : -((-a + b - 1) / b); }

}  // namespace

EncodedTile::EncodedTile(Coord3 tile_coord, Coord3 core_origin, Coord3 core_size,
                         int kernel_radius)
    : tile_coord_(tile_coord),
      core_origin_(core_origin),
      core_size_(core_size),
      radius_(kernel_radius) {
  ESCA_REQUIRE(core_size.x > 0 && core_size.y > 0 && core_size.z > 0,
               "tile core size must be positive");
  ESCA_REQUIRE(kernel_radius >= 0, "kernel radius must be non-negative");
  padded_size_ = core_size + Coord3{2 * radius_, 2 * radius_, 2 * radius_};
  mask_.assign((static_cast<std::size_t>(mask_bits()) + 63) / 64, 0);
}

void EncodedTile::set_mask(int col, int z) {
  ESCA_ASSERT(col >= 0 && col < columns() && z >= 0 && z < depth(), "mask index out of range");
  const std::size_t bit = bit_of(col, z);
  mask_[bit / 64] |= (1ULL << (bit % 64));
}

std::int32_t EncodedTile::column_prefix(int col, int z) const {
  std::int32_t n = 0;
  for (int from = 0; from < z; from += 64) {
    n += std::popcount(column_bits(col, from, std::min(64, z - from)));
  }
  return n;
}

int EncodedTile::next_active(int col, int z, int z_end) const {
  for (; z < z_end; z += 64) {
    const std::uint64_t bits = column_bits(col, z, std::min(64, z_end - z));
    if (bits != 0) return z + std::countr_zero(bits);
  }
  return z_end;
}

void EncodedTile::finalize(std::vector<std::int32_t> column_start,
                           std::vector<std::int32_t> site_rows,
                           std::int32_t core_active_count) {
  ESCA_CHECK(column_start.size() == static_cast<std::size_t>(columns()) + 1,
             "column_start size mismatch");
  column_start_ = std::move(column_start);
  site_rows_ = std::move(site_rows);
  core_active_count_ = core_active_count;
  // The stored activation layout must agree with the mask.
  ESCA_CHECK(column_start_.front() == 0 &&
                 column_start_.back() == static_cast<std::int32_t>(site_rows_.size()),
             "column_start does not cover site_rows");
  ESCA_CHECK(std::is_sorted(column_start_.begin(), column_start_.end()),
             "column_start is not a prefix");
  std::size_t set_bits = 0;
  for (const std::uint64_t word : mask_) set_bits += static_cast<std::size_t>(std::popcount(word));
  ESCA_CHECK(set_bits == site_rows_.size(), "mask and site_rows disagree on the stored site count");
}

TileEncoder::TileEncoder(const ArchConfig& config) : config_(config) { config_.validate(); }

std::vector<EncodedTile> TileEncoder::encode(const sparse::SparseTensor& geometry,
                                             const voxel::TileGrid& tiles,
                                             EncodingStats* stats) const {
  ESCA_REQUIRE(tiles.occupied_voxels() == static_cast<std::int64_t>(geometry.size()) &&
                   tiles.grid_extent() == geometry.spatial_extent(),
               "tile grid does not partition the geometry's sites");
  const int radius = config_.kernel_radius();
  const Coord3 size = tiles.shape().size;
  const Coord3 padded = size + Coord3{2 * radius, 2 * radius, 2 * radius};
  const Coord3 last = tiles.tiles_extent() - Coord3{1, 1, 1};

  // Every site is stored by each tile whose padded box holds it: its own
  // tile, and for sites within `radius` of a tile face the neighbours whose
  // halo reaches them (t * size - radius <= v < (t + 1) * size + radius).
  struct Hit {
    std::uint64_t key;  ///< tile index << 32 | mask bit (column * depth + z)
    std::int32_t row;
  };
  std::vector<Hit> hits;
  hits.reserve(geometry.size() * 2);
  const std::vector<voxel::Tile>& all = tiles.tiles();
  for (std::size_t ti = 0; ti < all.size(); ++ti) {
    const voxel::Tile& tile = all[ti];
    for (std::size_t i = 0; i < tile.occupied.size(); ++i) {
      const Coord3 v = tile.occupied[i];
      const Coord3 lo{std::max(0, floor_div(v.x - radius, size.x)),
                      std::max(0, floor_div(v.y - radius, size.y)),
                      std::max(0, floor_div(v.z - radius, size.z))};
      const Coord3 hi{std::min(last.x, (v.x + radius) / size.x),
                      std::min(last.y, (v.y + radius) / size.y),
                      std::min(last.z, (v.z + radius) / size.z)};
      ESCA_ASSERT(geometry.find(v) == tile.rows[i],
                  "tile grid row disagrees with the geometry at " << v);
      for (int tx = lo.x; tx <= hi.x; ++tx) {
        for (int ty = lo.y; ty <= hi.y; ++ty) {
          for (int tz = lo.z; tz <= hi.z; ++tz) {
            const Coord3 tc{tx, ty, tz};
            const voxel::Tile* target = tc == tile.tile_coord ? &tile : tiles.find_tile(tc);
            if (target == nullptr) continue;
            const Coord3 p = v - target->origin + Coord3{radius, radius, radius};
            const auto bit = static_cast<std::uint64_t>((p.x * padded.y + p.y) * padded.z + p.z);
            const auto index = static_cast<std::uint64_t>(target - all.data());
            hits.push_back({index << 32 | bit, tile.rows[i]});
          }
        }
      }
    }
  }
  // Tile by tile; column-major, ascending z inside a column: the exact order
  // the valid-data buffer is filled in (paper Fig. 4).
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) { return a.key < b.key; });

  std::vector<EncodedTile> encoded;
  encoded.reserve(all.size());
  std::size_t h = 0;
  for (std::size_t ti = 0; ti < all.size(); ++ti) {
    const voxel::Tile& tile = all[ti];
    EncodedTile et(tile.tile_coord, tile.origin, size, radius);
    std::vector<std::int32_t> column_start(static_cast<std::size_t>(et.columns()) + 1, 0);
    std::vector<std::int32_t> site_rows;
    for (; h < hits.size() && (hits[h].key >> 32) == ti; ++h) {
      const auto bit = static_cast<int>(hits[h].key & 0xffffffffU);
      const int col = bit / padded.z;
      et.set_mask(col, bit % padded.z);
      ++column_start[static_cast<std::size_t>(col) + 1];
      site_rows.push_back(hits[h].row);
    }
    for (std::size_t c = 1; c < column_start.size(); ++c) column_start[c] += column_start[c - 1];

    const auto core_active = static_cast<std::int32_t>(tile.occupied.size());
    const auto stored = static_cast<std::int64_t>(site_rows.size());
    et.finalize(std::move(column_start), std::move(site_rows), core_active);

    if (stats != nullptr) {
      stats->tiles += 1;
      stats->mask_bytes += (et.mask_bits() + 7) / 8;
      stats->stored_sites += stored;
      stats->core_sites += core_active;
      stats->halo_duplicates += stored - core_active;
    }
    encoded.push_back(std::move(et));
  }
  return encoded;
}

}  // namespace esca::core
