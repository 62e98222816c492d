#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/accelerator.hpp"
#include "core/layer_compiler.hpp"
#include "core/perf_model.hpp"
#include "nn/submanifold_conv.hpp"
#include "nn/unet.hpp"
#include "quant/qsubconv.hpp"
#include "test_util.hpp"

namespace esca::core {
namespace {

struct Fixture {
  quant::QuantizedSubConv layer;
  quant::QSparseTensor input;
  quant::QSparseTensor gold;
};

Fixture make_fixture(int cin, int cout, Rng& rng, Coord3 extent = {24, 24, 24},
                     int points = 300) {
  const auto x = test::clustered_tensor(extent, cin, rng, extent.x / 3, points);
  nn::SubmanifoldConv3d conv(cin, cout, 3);
  conv.init_kaiming(rng);
  const float in_scale = quant::calibrate(x.abs_max(), quant::kInt16Max).scale;
  const auto fy = conv.forward(x);
  const float out_scale = quant::calibrate(fy.abs_max(), quant::kInt16Max).scale;
  quant::QuantizedSubConv layer =
      quant::QuantizedSubConv::from_float(conv, nullptr, false, in_scale, out_scale, "acc");
  quant::QSparseTensor qx =
      quant::QSparseTensor::from_float(x, quant::QuantParams{in_scale});
  quant::QSparseTensor gold = layer.forward(qx);
  return {std::move(layer), std::move(qx), std::move(gold)};
}

TEST(AcceleratorTest, BitExactVsIntegerGold) {
  Rng rng(141);
  for (int trial = 0; trial < 3; ++trial) {
    const Fixture fx = make_fixture(2 + trial, 3 + 2 * trial, rng);
    Accelerator acc{ArchConfig{}};
    const LayerRunResult r = acc.run_layer(fx.layer, fx.input);
    EXPECT_TRUE(r.output == fx.gold) << "trial " << trial;
  }
}

TEST(AcceleratorTest, BitExactWithWideChannels) {
  Rng rng(142);
  // Channels wider than the 16x16 array exercise the block loops.
  const Fixture fx = make_fixture(20, 24, rng, {16, 16, 16}, 150);
  Accelerator acc{ArchConfig{}};
  const LayerRunResult r = acc.run_layer(fx.layer, fx.input);
  EXPECT_TRUE(r.output == fx.gold);
}

TEST(AcceleratorTest, StatsCoherence) {
  Rng rng(143);
  const Fixture fx = make_fixture(4, 6, rng);
  Accelerator acc{ArchConfig{}};
  const LayerRunResult r = acc.run_layer(fx.layer, fx.input);
  const LayerRunStats& st = r.stats;

  EXPECT_EQ(st.sites, static_cast<std::int64_t>(fx.input.size()));
  EXPECT_EQ(st.mac_ops, st.sdmu.matches * 4 * 6);
  EXPECT_GT(st.total_cycles, 0);
  EXPECT_GT(st.dram_bytes_in, 0);
  EXPECT_GT(st.dram_bytes_out, 0);
  EXPECT_GT(st.total_seconds, 0.0);
  EXPECT_GT(st.effective_gops, 0.0);
  EXPECT_EQ(st.zero_removing.active_sites, st.sites);
  EXPECT_EQ(st.encoding.core_sites, st.sites);
  // Output traffic = sites x Cout x 2 bytes.
  EXPECT_EQ(st.dram_bytes_out, st.sites * 6 * 2);
  // Utilization is a fraction.
  const double util = st.array_utilization(ArchConfig{}.compute_parallelism());
  EXPECT_GT(util, 0.0);
  EXPECT_LE(util, 1.0);
}

TEST(AcceleratorTest, ZeroRemovingReducesCyclesOnSparseMaps) {
  Rng rng(144);
  // Same site count, one compact cluster: small tiles vs whole-map tiles.
  const Fixture fx = make_fixture(4, 4, rng, {48, 48, 48}, 200);

  ArchConfig with_zr;  // 8^3 tiles
  ArchConfig without_zr;
  without_zr.tile_size = {48, 48, 48};  // single tile == no removal
  without_zr.activation_buffer_bytes = 8 << 20;
  without_zr.mask_buffer_bytes = 8 << 20;

  Accelerator a{with_zr};
  Accelerator b{without_zr};
  const auto ra = a.run_layer(fx.layer, fx.input);
  const auto rb = b.run_layer(fx.layer, fx.input);
  EXPECT_TRUE(ra.output == rb.output);  // strategy is lossless
  EXPECT_LT(ra.stats.total_cycles, rb.stats.total_cycles);
}

TEST(AcceleratorTest, PerfModelTracksSimulator) {
  Rng rng(145);
  const Fixture fx = make_fixture(16, 16, rng, {32, 32, 32}, 500);
  const ArchConfig cfg;
  Accelerator acc{cfg};
  const LayerRunResult r = acc.run_layer(fx.layer, fx.input);

  const PerfModel model(cfg);
  const PerfEstimate est = model.estimate_layer(r.stats.zero_removing.active_tiles,
                                                r.stats.sdmu.matches, 16, 16);
  // First-order model within 40 % of the cycle-accurate simulator.
  const double ratio =
      static_cast<double>(r.stats.total_cycles) / static_cast<double>(est.total_cycles);
  EXPECT_GT(ratio, 0.6);
  EXPECT_LT(ratio, 1.6);
}

TEST(AcceleratorTest, EnergyAccumulatesAcrossLayers) {
  Rng rng(146);
  const Fixture fx = make_fixture(4, 4, rng);
  Accelerator acc{ArchConfig{}};
  (void)acc.run_layer(fx.layer, fx.input);
  const double after_one = acc.energy().total_joules();
  EXPECT_GT(after_one, 0.0);
  (void)acc.run_layer(fx.layer, fx.input);
  EXPECT_GT(acc.energy().total_joules(), after_one);
}

TEST(AcceleratorTest, RejectsMismatchedLayer) {
  Rng rng(147);
  const Fixture fx = make_fixture(4, 4, rng);
  ArchConfig cfg;
  cfg.kernel_size = 5;  // architecture built for K=5, layer is K=3
  Accelerator acc{cfg};
  EXPECT_THROW((void)acc.run_layer(fx.layer, fx.input), InvalidArgument);
}

// The SDMU's match count is checked against the rulebook the output was
// computed from; a rulebook missing one rule must trip that check.
TEST(AcceleratorTest, RulebookEquivalenceCheckFires) {
  Rng rng(150);
  const Fixture fx = make_fixture(2, 3, rng);
  const sparse::LayerGeometryPtr geometry = fx.input.submanifold_geometry(3);
  sparse::LayerGeometry tampered = *geometry;
  sparse::RuleBook rules(tampered.rulebook.kernel_volume());
  bool dropped = false;
  for (int o = 0; o < rules.kernel_volume(); ++o) {
    for (const sparse::Rule& rule : tampered.rulebook.rules_for(o)) {
      if (!dropped) {
        dropped = true;
        continue;
      }
      rules.add(o, rule);
    }
  }
  ASSERT_TRUE(dropped);
  tampered.rulebook = std::move(rules);

  Accelerator acc{ArchConfig{}};
  EXPECT_NO_THROW((void)acc.run_layer(fx.layer, fx.input, {.geometry = geometry.get()}));
  EXPECT_THROW((void)acc.run_layer(fx.layer, fx.input, {.geometry = &tampered}), InternalError);
}

TEST(LayerCompilerTest, CompilesAllSubConvLayers) {
  Rng rng(148);
  const auto x = test::clustered_tensor({24, 24, 24}, 1, rng, 7, 250);
  nn::SSUNetConfig cfg;
  cfg.base_planes = 4;
  cfg.levels = 2;
  cfg.reps_per_level = 1;
  const nn::SSUNet net(cfg, 9);
  std::vector<nn::TraceEntry> trace;
  (void)net.forward(x, &trace);

  const CompiledNetwork compiled = LayerCompiler::compile(trace);
  EXPECT_EQ(compiled.layers.size(), nn::subconv_entries(trace).size());
  EXPECT_GT(compiled.total_macs(), 0);
  for (const auto& cl : compiled.layers) {
    EXPECT_EQ(cl.gold_output.size(), cl.input.size());
    EXPECT_GT(cl.gold_macs, 0);
  }
}

}  // namespace
}  // namespace esca::core
