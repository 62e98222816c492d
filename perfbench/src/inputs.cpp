#include "inputs.hpp"

#include <cmath>
#include <numbers>

#include "common/rng.hpp"
#include "datasets/depth_camera.hpp"
#include "datasets/nyu_like.hpp"

namespace perfbench {

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): generator helpers

/// A rotating scanner at sensor height: `azimuth_steps` x `elevation_steps`
/// rays between -15 and +2 degrees elevation, returns beyond 40 m dropped.
pc::PointCloud lidar_sweep(const datasets::Scene& scene, int azimuth_steps,
                           int elevation_steps) {
  pc::PointCloud cloud;
  const geom::Vec3 origin{0.0F, 0.0F, 1.8F};
  for (int e = 0; e < elevation_steps; ++e) {
    const float elev = -0.26F + 0.30F * static_cast<float>(e) /
                                    static_cast<float>(elevation_steps);
    for (int a = 0; a < azimuth_steps; ++a) {
      const float azim = 2.0F * std::numbers::pi_v<float> * static_cast<float>(a) /
                         static_cast<float>(azimuth_steps);
      const geom::Vec3 dir{std::cos(azim) * std::cos(elev), std::sin(azim) * std::cos(elev),
                           std::sin(elev)};
      const auto t = scene.raycast({origin, dir});
      if (!t || *t > 40.0F) continue;
      cloud.add(origin + dir * (*t), 1.0F / (1.0F + *t));
    }
  }
  return cloud;
}

datasets::Scene street_scene(Rng& rng) {
  datasets::Scene scene;
  scene.add_rect({'z', 0.0F, {-50, -50, 0}, {50, 50, 0}});
  for (int i = 0; i < 6; ++i) {
    const float x = -30.0F + 12.0F * static_cast<float>(i);
    for (const float side : {-12.0F, 12.0F}) {
      geom::Aabb building;
      const float w = static_cast<float>(rng.uniform(4.0, 8.0));
      const float h = static_cast<float>(rng.uniform(6.0, 14.0));
      building.expand({x, side - w * 0.5F, 0.0F});
      building.expand({x + w, side + w * 0.5F, h});
      scene.add_box(building);
    }
  }
  for (int i = 0; i < 4; ++i) {
    geom::Aabb car;
    const float x = static_cast<float>(rng.uniform(-20.0, 20.0));
    const float y = static_cast<float>(rng.uniform(-5.0, 5.0));
    car.expand({x, y, 0.0F});
    car.expand({x + 4.2F, y + 1.8F, 1.5F});
    scene.add_box(car);
  }
  return scene;
}

}  // namespace

pc::PointCloud street_sweep(std::uint64_t seed) {
  Rng rng(seed);
  return lidar_sweep(street_scene(rng), kSweepAzimuth, kSweepElevation);
}

pc::PointCloud indoor_capture(std::uint64_t seed) {
  return datasets::NyuLikeDataset(datasets::NyuLikeConfig{}, seed).sample(0);
}

}  // namespace perfbench
