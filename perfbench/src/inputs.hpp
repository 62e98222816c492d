// Seeded input generators. Every input is a pure function of the benchmark
// seed and the input's index, so one seed always gives the same workload.
#pragma once

#include <cstdint>

#include "pointcloud/point_cloud.hpp"

namespace perfbench {

/// Rays per outdoor sweep: 2048 azimuth steps x 64 elevation rings.
inline constexpr int kSweepAzimuth = 2048;
inline constexpr int kSweepElevation = 64;

/// One spinning-LiDAR sweep over a street scene (ground, two rows of
/// buildings, a few cars) drawn from `seed`, in meters around the sensor.
esca::pc::PointCloud street_sweep(std::uint64_t seed);

/// One NYU-like indoor depth capture (2100 points) drawn from `seed`.
esca::pc::PointCloud indoor_capture(std::uint64_t seed);

}  // namespace perfbench
