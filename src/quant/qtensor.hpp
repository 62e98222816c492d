// Quantized sparse tensor: INT16 activations at active sites + a scale.
// Coordinate lookup uses the same Morton-ordered CoordIndex as the float
// SparseTensor (no hash table).
//
// Tensors over a coordinate set that already exists are built in bulk:
// from_float, to_float and zeros_like take flat copies of the source's
// coords and index (no per-site CoordIndex insert) and then fill the feature
// array element-wise, in fixed-size chunks on the shared executor
// (common/executor.hpp); every value is computed on its own, so the result
// is the same at any thread count. add_site() remains for hand-built tensors.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "quant/quantizer.hpp"
#include "sparse/coord_index.hpp"
#include "sparse/sparse_tensor.hpp"

namespace esca::sparse {
struct LayerGeometry;
}  // namespace esca::sparse

namespace esca::quant {

class QSparseTensor {
 public:
  QSparseTensor(Coord3 spatial_extent, int channels, QuantParams params);

  // Explicit so the geometry memo is read/written atomically even if a
  // concurrent reader is filling it (see submanifold_geometry()).
  QSparseTensor(const QSparseTensor& other);
  QSparseTensor& operator=(const QSparseTensor& other);
  QSparseTensor(QSparseTensor&&) noexcept = default;
  QSparseTensor& operator=(QSparseTensor&&) noexcept = default;
  ~QSparseTensor() = default;

  /// Quantize a float tensor with the given (or calibrated) params. The
  /// result has `t`'s sites in `t`'s row order (flat copies, see above).
  static QSparseTensor from_float(const sparse::SparseTensor& t, QuantParams params);
  static QSparseTensor from_float_calibrated(const sparse::SparseTensor& t);

  /// Zero tensor with `channels` channels and `params` over this tensor's
  /// sites, in the same row order. The submanifold geometry memo is carried
  /// over: it depends on the sites alone.
  QSparseTensor zeros_like(int channels, QuantParams params) const;

  const Coord3& spatial_extent() const { return extent_; }
  int channels() const { return channels_; }
  std::size_t size() const { return coords_.size(); }
  const QuantParams& params() const { return params_; }

  std::int32_t add_site(const Coord3& c);
  std::int32_t find(const Coord3& c) const;
  const Coord3& coord(std::size_t row) const { return coords_[row]; }
  const std::vector<Coord3>& coords() const { return coords_; }

  std::span<std::int16_t> features(std::size_t row);
  std::span<const std::int16_t> features(std::size_t row) const;

  /// Row-major feature storage (site-major, `channels()` per row) — the
  /// compute engine's input view.
  std::span<const std::int16_t> raw_features() const { return features_; }

  /// Coordinate-only (1-channel) float tensor over the same sites: flat
  /// copies of the coords and the Morton index — no re-sorting, no per-site
  /// insertion. Geometry is shared between the float and integer worlds.
  sparse::SparseTensor sites() const;

  /// Submanifold geometry over these coordinates, built on first use and
  /// cached on the tensor (per kernel size; invalidated by add_site(),
  /// carried over by zeros_like()).
  /// Safe to call from concurrent readers of one shared tensor: the memo is
  /// accessed atomically, racing first calls each build and one wins (the
  /// geometry is deterministic, so every caller sees identical content).
  std::shared_ptr<const sparse::LayerGeometry> submanifold_geometry(int kernel_size) const;

  /// Dequantize back to float (for accuracy comparisons); rows keep this
  /// tensor's order.
  sparse::SparseTensor to_float() const;

  /// True iff both hold the same sites with the same channels and every
  /// site's int16 values match, in any row order. Equal coordinate lists
  /// compare the feature arrays directly; otherwise each site is looked up.
  friend bool operator==(const QSparseTensor& a, const QSparseTensor& b);

 private:
  struct CachedGeometry {
    int kernel_size;
    std::shared_ptr<const sparse::LayerGeometry> geometry;
  };

  /// Zero tensor over copies of an existing site list and its index
  /// (`index` maps exactly coords[i] -> i).
  QSparseTensor(Coord3 spatial_extent, int channels, QuantParams params,
                std::vector<Coord3> coords, sparse::CoordIndex index);

  Coord3 extent_;
  int channels_;
  QuantParams params_;
  std::vector<Coord3> coords_;
  std::vector<std::int16_t> features_;
  sparse::CoordIndex index_;
  /// submanifold_geometry() memo — copied with the tensor (geometry is
  /// coordinate-only, so a copy's coords still match).
  mutable std::shared_ptr<const CachedGeometry> cached_geometry_;
};

}  // namespace esca::quant
