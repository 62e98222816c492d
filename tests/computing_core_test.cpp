#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/computing_core.hpp"
#include "core/sdmu.hpp"
#include "core/zero_removing.hpp"
#include "nn/submanifold_conv.hpp"
#include "quant/qsubconv.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

TEST(ComputingCoreTest, CyclesPerMatchBlocks) {
  ArchConfig cfg;  // 16 x 16
  EXPECT_EQ(cfg.cycles_per_match(16, 16), 1);
  EXPECT_EQ(cfg.cycles_per_match(1, 16), 1);
  EXPECT_EQ(cfg.cycles_per_match(17, 16), 2);
  EXPECT_EQ(cfg.cycles_per_match(32, 32), 4);
  EXPECT_EQ(cfg.cycles_per_match(48, 16), 3);
  EXPECT_EQ(ComputingCore(cfg, 48, 16).cycles_per_match(), 3);
  EXPECT_THROW((void)cfg.cycles_per_match(0, 16), InvalidArgument);
}

struct LayerFixture {
  quant::QuantizedSubConv layer;
  quant::QSparseTensor input;
  quant::QSparseTensor gold;
};

LayerFixture make_fixture(int cin, int cout, Rng& rng) {
  const auto x = test::clustered_tensor({16, 16, 16}, cin, rng, 5, 120);
  nn::SubmanifoldConv3d conv(cin, cout, 3);
  conv.init_kaiming(rng);
  const float in_scale = quant::calibrate(x.abs_max(), quant::kInt16Max).scale;
  const auto fy = conv.forward(x);
  const float out_scale = quant::calibrate(fy.abs_max(), quant::kInt16Max).scale;
  quant::QuantizedSubConv layer =
      quant::QuantizedSubConv::from_float(conv, nullptr, false, in_scale, out_scale, "fix");
  quant::QSparseTensor qx =
      quant::QSparseTensor::from_float(x, quant::QuantParams{in_scale});
  quant::QSparseTensor gold = layer.forward(qx);
  return {std::move(layer), std::move(qx), std::move(gold)};
}

// The simulator takes its outputs from the compute engine; the SDMU's match
// groups must describe exactly that computation. Accumulating each group's
// matches by hand and requantizing reproduces the accelerator's output row.
TEST(ComputingCoreTest, GroupAccumulationMatchesGold) {
  Rng rng(131);
  const LayerFixture fx = make_fixture(3, 5, rng);

  ArchConfig cfg;
  sparse::SparseTensor geometry(fx.input.spatial_extent(), 1);
  for (const Coord3& c : fx.input.coords()) geometry.add_site(c);
  const ZeroRemoving zr(cfg.tile_size);
  const voxel::TileGrid grid = zr.apply(geometry);
  const TileEncoder encoder(cfg);
  const auto tiles = encoder.encode(geometry, grid, nullptr);
  const Sdmu sdmu(cfg);
  Accelerator acc{cfg};
  const quant::QSparseTensor output = acc.run_layer(fx.layer, fx.input).output;
  ASSERT_TRUE(output == fx.gold);

  for (const EncodedTile& tile : tiles) {
    for (const MatchGroup& group : sdmu.match_tile(tile)) {
      std::vector<std::int64_t> acc_row(5, 0);
      for (const Match& m : group.matches) {
        const auto act = fx.input.features(static_cast<std::size_t>(m.in_row));
        for (int co = 0; co < 5; ++co) {
          for (int ci = 0; ci < 3; ++ci) {
            acc_row[static_cast<std::size_t>(co)] +=
                static_cast<std::int64_t>(act[static_cast<std::size_t>(ci)]) *
                fx.layer.weight(m.weight_index, ci, co);
          }
        }
      }
      const auto out_row = output.features(static_cast<std::size_t>(group.out_row));
      for (int c = 0; c < 5; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        EXPECT_EQ(out_row[ci], quant::requantize(acc_row[ci], fx.layer.requant_scale()[ci],
                                                 fx.layer.requant_shift()[ci], fx.layer.relu()))
            << "out_row " << group.out_row << " channel " << c;
      }
    }
  }
}

TEST(ComputingCoreTest, CycleAndOpAccounting) {
  ArchConfig cfg;
  cfg.ic_parallel = 4;
  cfg.oc_parallel = 4;
  const ComputingCore cc(cfg, 6, 5);  // 2 IC blocks x 2 OC blocks
  EXPECT_EQ(cc.cycles_per_match(), 4);

  const GroupComputeResult r = cc.time_group(2);  // a group of two matches
  EXPECT_EQ(r.cycles, 2 * cc.cycles_per_match());
  EXPECT_EQ(r.mac_ops, 2LL * 6 * 5);
  EXPECT_EQ(cc.time_group(0).cycles, 0);
}

// Outputs go through the shared requantize primitive: they equal the scalar
// reference forward, which requantizes with quant::requantize.
TEST(ComputingCoreTest, WritebackUsesSharedRequantize) {
  Rng rng(133);
  const LayerFixture fx = make_fixture(2, 3, rng);
  Accelerator acc{ArchConfig{}};
  const quant::QSparseTensor output = acc.run_layer(fx.layer, fx.input).output;
  const auto geometry = fx.input.submanifold_geometry(3);
  EXPECT_TRUE(output == fx.layer.forward_reference(fx.input, geometry->rulebook));
}

TEST(ComputingCoreTest, SizeMismatchesThrow) {
  Rng rng(134);
  const LayerFixture fx = make_fixture(2, 3, rng);
  const ArchConfig cfg;
  EXPECT_THROW(ComputingCore(cfg, 0, 3), InvalidArgument);
  EXPECT_THROW(ComputingCore(cfg, 2, 0), InvalidArgument);

  Accelerator acc{cfg};
  const LayerFixture wide = make_fixture(4, 3, rng);
  EXPECT_THROW((void)acc.run_layer(fx.layer, wide.input), InvalidArgument);
  // A precompiled geometry over another coordinate set is rejected.
  sparse::SparseTensor one_site(fx.input.spatial_extent(), 1);
  one_site.add_site(fx.input.coord(0));
  const auto other = sparse::make_submanifold_geometry(one_site, 3);
  EXPECT_THROW((void)acc.run_layer(fx.layer, fx.input, {.geometry = other.get()}),
               InvalidArgument);
}

}  // namespace
}  // namespace esca::core
