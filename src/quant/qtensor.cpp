#include "quant/qtensor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/executor.hpp"
#include "sparse/geometry.hpp"
#include "voxel/morton.hpp"

namespace esca::quant {

namespace {

/// Feature values per executor task in the element-wise conversions.
constexpr std::size_t kConvertChunk = std::size_t{1} << 14;

}  // namespace

QSparseTensor::QSparseTensor(Coord3 spatial_extent, int channels, QuantParams params)
    : extent_(spatial_extent), channels_(channels), params_(params) {
  ESCA_REQUIRE(extent_.x > 0 && extent_.y > 0 && extent_.z > 0, "extent must be positive");
  ESCA_REQUIRE(extent_.x <= voxel::kMortonMaxCoord && extent_.y <= voxel::kMortonMaxCoord &&
                   extent_.z <= voxel::kMortonMaxCoord,
               "extent " << extent_ << " exceeds the 2^21 Morton range");
  ESCA_REQUIRE(channels > 0, "channels must be positive");
  ESCA_REQUIRE(params.scale > 0.0F, "scale must be positive");
}

QSparseTensor::QSparseTensor(const QSparseTensor& other)
    : extent_(other.extent_),
      channels_(other.channels_),
      params_(other.params_),
      coords_(other.coords_),
      features_(other.features_),
      index_(other.index_),
      cached_geometry_(std::atomic_load(&other.cached_geometry_)) {}

QSparseTensor& QSparseTensor::operator=(const QSparseTensor& other) {
  if (this == &other) return *this;
  extent_ = other.extent_;
  channels_ = other.channels_;
  params_ = other.params_;
  coords_ = other.coords_;
  features_ = other.features_;
  index_ = other.index_;
  std::atomic_store(&cached_geometry_, std::atomic_load(&other.cached_geometry_));
  return *this;
}

QSparseTensor::QSparseTensor(Coord3 spatial_extent, int channels, QuantParams params,
                             std::vector<Coord3> coords, sparse::CoordIndex index)
    : QSparseTensor(spatial_extent, channels, params) {
  coords_ = std::move(coords);
  index_ = std::move(index);
  features_.assign(coords_.size() * static_cast<std::size_t>(channels_), 0);
}

QSparseTensor QSparseTensor::from_float(const sparse::SparseTensor& t, QuantParams params) {
  QSparseTensor q(t.spatial_extent(), t.channels(), params, t.coords(), t.index());
  const std::vector<float>& src = t.raw_features();
  std::int16_t* dst = q.features_.data();
  parallel_for_chunks(src.size(), kConvertChunk, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      dst[i] = static_cast<std::int16_t>(quantize_value(src[i], params, kInt16Max));
    }
  });
  return q;
}

QSparseTensor QSparseTensor::from_float_calibrated(const sparse::SparseTensor& t) {
  return from_float(t, calibrate(t.abs_max(), kInt16Max));
}

QSparseTensor QSparseTensor::zeros_like(int channels, QuantParams params) const {
  QSparseTensor out(extent_, channels, params, coords_, index_);
  out.cached_geometry_ = std::atomic_load(&cached_geometry_);
  return out;
}

std::int32_t QSparseTensor::add_site(const Coord3& c) {
  ESCA_REQUIRE(in_bounds(c, extent_), "site " << c << " outside extent " << extent_);
  const auto row = static_cast<std::int32_t>(coords_.size());
  ESCA_REQUIRE(index_.insert(c, row), "site " << c << " already present");
  coords_.push_back(c);
  features_.resize(features_.size() + static_cast<std::size_t>(channels_), 0);
  // The coordinate set changed; drop the geometry memo (atomically, to
  // pair with concurrent submanifold_geometry() readers — though mutating
  // a tensor that others are reading is already a caller error).
  std::atomic_store(&cached_geometry_, std::shared_ptr<const CachedGeometry>{});
  return row;
}

sparse::SparseTensor QSparseTensor::sites() const {
  return sparse::SparseTensor::from_coords(extent_, 1, coords_, index_);
}

std::shared_ptr<const sparse::LayerGeometry> QSparseTensor::submanifold_geometry(
    int kernel_size) const {
  // Atomic memo: concurrent first calls on a shared tensor each build the
  // (deterministic) geometry and the last store wins — no torn state, no
  // locking on the hit path.
  const std::shared_ptr<const CachedGeometry> cached = std::atomic_load(&cached_geometry_);
  if (cached != nullptr && cached->kernel_size == kernel_size) return cached->geometry;
  auto fresh = std::make_shared<CachedGeometry>();
  fresh->kernel_size = kernel_size;
  fresh->geometry = sparse::make_submanifold_geometry(sites(), kernel_size);
  std::atomic_store(&cached_geometry_,
                    std::shared_ptr<const CachedGeometry>(fresh));
  return fresh->geometry;
}

std::int32_t QSparseTensor::find(const Coord3& c) const {
  if (!in_bounds(c, extent_)) return -1;
  return index_.find(c);
}

std::span<std::int16_t> QSparseTensor::features(std::size_t row) {
  ESCA_ASSERT(row < coords_.size(), "row out of range");
  return {features_.data() + row * static_cast<std::size_t>(channels_),
          static_cast<std::size_t>(channels_)};
}

std::span<const std::int16_t> QSparseTensor::features(std::size_t row) const {
  ESCA_ASSERT(row < coords_.size(), "row out of range");
  return {features_.data() + row * static_cast<std::size_t>(channels_),
          static_cast<std::size_t>(channels_)};
}

sparse::SparseTensor QSparseTensor::to_float() const {
  sparse::SparseTensor t = sparse::SparseTensor::from_coords(extent_, channels_, coords_, index_);
  float* dst = t.raw_features().data();
  parallel_for_chunks(features_.size(), kConvertChunk, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) dst[i] = params_.dequantize(features_[i]);
  });
  return t;
}

bool operator==(const QSparseTensor& a, const QSparseTensor& b) {
  if (a.channels_ != b.channels_ || a.coords_.size() != b.coords_.size()) return false;
  // Rows aligned (e.g. a backend output against its gold): one flat compare.
  if (a.coords_ == b.coords_) return a.features_ == b.features_;
  for (std::size_t i = 0; i < a.coords_.size(); ++i) {
    const std::int32_t j = b.find(a.coords_[i]);
    if (j < 0) return false;
    const auto fa = a.features(i);
    const auto fb = b.features(static_cast<std::size_t>(j));
    if (!std::equal(fa.begin(), fa.end(), fb.begin())) return false;
  }
  return true;
}

}  // namespace esca::quant
