// Golden simulator statistics: a fixed seeded NYU-like scene through a
// 3-level SS U-Net on the ESCA backend, two frames (the second replays with
// its weights resident on chip). Every integer counter of every (frame,
// layer) and the energy meter's total are pinned to recorded values, so a
// change to the simulator's internals must keep its timing, traffic and
// energy accounting bit-identical.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "datasets/nyu_like.hpp"
#include "nn/unet.hpp"
#include "runtime/esca_backend.hpp"
#include "sparse/sparse_tensor.hpp"
#include "voxel/voxelizer.hpp"

namespace esca {
namespace {

constexpr std::size_t kFields = 33;
using Row = std::array<std::int64_t, kFields>;

/// Every integer field of LayerRunStats the simulator produces, in a fixed
/// order: totals, SDMU, zero removing, encoding, DRAM, banked-buffer sim.
Row row_of(const core::LayerRunStats& l) {
  return {l.sites,
          l.total_cycles,
          l.cc_cycles,
          l.mac_ops,
          l.sdmu.cycles,
          l.sdmu.srf_total,
          l.sdmu.srf_active,
          l.sdmu.srf_skipped,
          l.sdmu.matches,
          l.sdmu.scan_stall_cycles,
          l.sdmu.fetch_stall_cycles,
          l.sdmu.mux_idle_cycles,
          static_cast<std::int64_t>(l.sdmu.fifo_high_water),
          l.zero_removing.active_tiles,
          l.zero_removing.total_tiles,
          l.zero_removing.active_sites,
          l.zero_removing.kept_voxels,
          l.zero_removing.total_voxels,
          l.encoding.tiles,
          l.encoding.mask_bytes,
          l.encoding.stored_sites,
          l.encoding.core_sites,
          l.encoding.halo_duplicates,
          l.dram_bytes_in,
          l.dram_bytes_out,
          l.traffic.dram_bursts(),
          l.buffer_spills,
          l.buffer_sim.cycles,
          l.buffer_sim.requests,
          l.buffer_sim.serviced,
          l.buffer_sim.bank_conflict_stalls,
          l.buffer_sim.port_stalls,
          static_cast<std::int64_t>(l.buffer_sim.fifo_high_water)};
}

std::string format_row(const Row& row) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < row.size(); ++i) os << (i == 0 ? "" : ", ") << row[i];
  os << "},";
  return os.str();
}

// clang-format off
const std::vector<Row> kGolden = {
    // frame 0 (weights loaded from DRAM)
    {948, 39847, 9734, 155744, 39847, 12288, 948, 11340, 9734, 2879, 12292, 253, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 6258, 30336, 73, 0, 4936, 10682, 10682, 1609, 14791, 4},
    {948, 39847, 9734, 2491904, 39847, 12288, 948, 11340, 9734, 2879, 12292, 253, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 55128, 30336, 73, 0, 4936, 10682, 10682, 1609, 14791, 4},
    {948, 39847, 9734, 2491904, 39847, 12288, 948, 11340, 9734, 2879, 12292, 253, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 55128, 30336, 73, 0, 4936, 10682, 10682, 1609, 14791, 4},
    {368, 25151, 19264, 4931584, 25151, 4096, 368, 3728, 4816, 10813, 56274, 20, 16, 8, 1728, 368, 4096, 884736, 8, 1000, 603, 368, 235, 67240, 23552, 25, 0, 2425, 5184, 5184, 800, 9325, 4},
    {368, 25151, 19264, 4931584, 25151, 4096, 368, 3728, 4816, 10813, 56274, 20, 16, 8, 1728, 368, 4096, 884736, 8, 1000, 603, 368, 235, 67240, 23552, 25, 0, 2425, 5184, 5184, 800, 9325, 4},
    {113, 17013, 13401, 3430656, 17013, 3072, 113, 2959, 1489, 6045, 33832, 7, 16, 6, 216, 113, 3072, 110592, 6, 750, 232, 113, 119, 85230, 10848, 19, 0, 759, 1602, 1602, 237, 2659, 4},
    {113, 17013, 13401, 3430656, 17013, 3072, 113, 2959, 1489, 6045, 33832, 7, 16, 6, 216, 113, 3072, 110592, 6, 750, 232, 113, 119, 85230, 10848, 19, 0, 759, 1602, 1602, 237, 2659, 4},
    {368, 43606, 38528, 9863168, 43606, 4096, 368, 3728, 4816, 25632, 123733, 13, 16, 8, 1728, 368, 4096, 884736, 8, 1000, 603, 368, 235, 133480, 23552, 25, 0, 2425, 5184, 5184, 800, 9325, 4},
    {368, 25151, 19264, 4931584, 25151, 4096, 368, 3728, 4816, 10813, 56274, 20, 16, 8, 1728, 368, 4096, 884736, 8, 1000, 603, 368, 235, 67240, 23552, 25, 0, 2425, 5184, 5184, 800, 9325, 4},
    {948, 45402, 19468, 4983808, 45402, 12288, 948, 11340, 9734, 8382, 32039, 172, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 107256, 30336, 73, 0, 4936, 10682, 10682, 1609, 14791, 4},
    {948, 39847, 9734, 2491904, 39847, 12288, 948, 11340, 9734, 2879, 12292, 253, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 55128, 30336, 73, 0, 4936, 10682, 10682, 1609, 14791, 4},
    // frame 1 (weights resident)
    {948, 39847, 9734, 155744, 39847, 12288, 948, 11340, 9734, 2879, 12292, 253, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 5826, 30336, 72, 0, 4936, 10682, 10682, 1609, 14791, 4},
    {948, 39847, 9734, 2491904, 39847, 12288, 948, 11340, 9734, 2879, 12292, 253, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 48216, 30336, 72, 0, 4936, 10682, 10682, 1609, 14791, 4},
    {948, 39847, 9734, 2491904, 39847, 12288, 948, 11340, 9734, 2879, 12292, 253, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 48216, 30336, 72, 0, 4936, 10682, 10682, 1609, 14791, 4},
    {368, 25151, 19264, 4931584, 25151, 4096, 368, 3728, 4816, 10813, 56274, 20, 16, 8, 1728, 368, 4096, 884736, 8, 1000, 603, 368, 235, 39592, 23552, 24, 0, 2425, 5184, 5184, 800, 9325, 4},
    {368, 25151, 19264, 4931584, 25151, 4096, 368, 3728, 4816, 10813, 56274, 20, 16, 8, 1728, 368, 4096, 884736, 8, 1000, 603, 368, 235, 39592, 23552, 24, 0, 2425, 5184, 5184, 800, 9325, 4},
    {113, 17013, 13401, 3430656, 17013, 3072, 113, 2959, 1489, 6045, 33832, 7, 16, 6, 216, 113, 3072, 110592, 6, 750, 232, 113, 119, 23022, 10848, 18, 0, 759, 1602, 1602, 237, 2659, 4},
    {113, 17013, 13401, 3430656, 17013, 3072, 113, 2959, 1489, 6045, 33832, 7, 16, 6, 216, 113, 3072, 110592, 6, 750, 232, 113, 119, 23022, 10848, 18, 0, 759, 1602, 1602, 237, 2659, 4},
    {368, 43606, 38528, 9863168, 43606, 4096, 368, 3728, 4816, 25632, 123733, 13, 16, 8, 1728, 368, 4096, 884736, 8, 1000, 603, 368, 235, 78184, 23552, 24, 0, 2425, 5184, 5184, 800, 9325, 4},
    {368, 25151, 19264, 4931584, 25151, 4096, 368, 3728, 4816, 10813, 56274, 20, 16, 8, 1728, 368, 4096, 884736, 8, 1000, 603, 368, 235, 39592, 23552, 24, 0, 2425, 5184, 5184, 800, 9325, 4},
    {948, 45402, 19468, 4983808, 45402, 12288, 948, 11340, 9734, 8382, 32039, 172, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 93432, 30336, 72, 0, 4936, 10682, 10682, 1609, 14791, 4},
    {948, 39847, 9734, 2491904, 39847, 12288, 948, 11340, 9734, 2879, 12292, 253, 16, 24, 13824, 948, 12288, 7077888, 24, 3000, 1413, 948, 465, 48216, 30336, 72, 0, 4936, 10682, 10682, 1609, 14791, 4},
};
// clang-format on
constexpr double kGoldenJoules = 0.00054333939280000357;

TEST(GoldenStatsTest, EscaCountersAndEnergyAreBitIdentical) {
  datasets::NyuLikeConfig dcfg;
  dcfg.max_points = 2100;
  const datasets::NyuLikeDataset ds(dcfg, 7);
  const voxel::VoxelGrid grid = voxel::voxelize(ds.sample(0), {192, false});
  const auto input = sparse::SparseTensor::from_voxel_grid(grid, 1);

  nn::SSUNetConfig cfg;
  cfg.base_planes = 16;
  cfg.levels = 3;
  cfg.reps_per_level = 2;
  const nn::SSUNet net(cfg, 7);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(input, &trace);

  runtime::EscaBackend backend{core::ArchConfig{}};
  const runtime::Plan plan = backend.compile(trace);
  const runtime::RunReport report = backend.run(plan, runtime::FrameBatch::replay(2));
  ASSERT_EQ(report.frames.size(), 2U);
  EXPECT_FALSE(report.frames[0].weights_resident);
  EXPECT_TRUE(report.frames[1].weights_resident);

  std::vector<Row> actual;
  std::string dump;
  for (const runtime::FrameReport& frame : report.frames) {
    for (const core::LayerRunStats& l : frame.stats.layers) {
      actual.push_back(row_of(l));
      dump += "    " + format_row(actual.back()) + "\n";
    }
  }
  ASSERT_EQ(actual.size(), kGolden.size()) << dump;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], kGolden[i]) << "(frame, layer) row " << i << ": actual "
                                     << format_row(actual[i]);
  }

  const double joules = backend.energy_meter()->total_joules();
  EXPECT_EQ(joules, kGoldenJoules) << std::setprecision(17) << joules;
}

}  // namespace
}  // namespace esca
