#include "checks.hpp"

#include <cmath>
#include <sstream>

#include "runtime/backend.hpp"
#include "sparse/geometry.hpp"

namespace perfbench {

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): check helpers

template <typename... Parts>
[[noreturn]] void fail(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  throw CheckFailed(os.str());
}

/// Flip the low bit of one int16 in the middle of `tensor`.
void flip_one_value(quant::QSparseTensor& tensor) {
  if (tensor.size() == 0 || tensor.channels() == 0) fail("probe: empty tensor to tamper with");
  tensor.features(tensor.size() / 2)[0] ^= 1;
}

/// Run `check`; it must throw CheckFailed.
template <typename F>
void require_fires(const char* check_name, F&& check) {
  try {
    check();
  } catch (const CheckFailed&) {
    return;
  }
  fail("probe: ", check_name, " accepted tampered input");
}

}  // namespace

void check_stage_sum(const StageTimes& stages, double wall, const std::string& frame) {
  const double gap = std::abs(wall - stages.sum());
  if (!(wall > 0.0) || gap > kStageSumTolerance * wall) {
    fail("frame ", frame, ": stages sum to ", stages.sum() * 1e3, " ms but the frame took ",
         wall * 1e3, " ms");
  }
}

void check_gold(const core::CompiledLayer& layer, const quant::QSparseTensor& output) {
  try {
    runtime::check_bit_exact(layer, output, "perfbench");
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

void check_outputs_equal(const std::vector<quant::QSparseTensor>& expected,
                         const std::vector<quant::QSparseTensor>& actual,
                         const std::string& what) {
  if (expected.size() != actual.size()) {
    fail(what, ": ", actual.size(), " layer outputs, expected ", expected.size());
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (!(expected[i] == actual[i])) fail(what, ": layer ", i, " output differs");
  }
}

void check_stream_stats_equal(const stream::SequenceFrameStats& served,
                              const stream::SequenceFrameStats& replay,
                              const std::string& frame) {
  if (served.scales.size() != replay.scales.size()) {
    fail("frame ", frame, ": served ", served.scales.size(), " scales, replay ",
         replay.scales.size());
  }
  for (std::size_t s = 0; s < served.scales.size(); ++s) {
    const stream::ScaleUpdate& a = served.scales[s];
    const stream::ScaleUpdate& b = replay.scales[s];
    if (a.sites != b.sites || a.added != b.added || a.removed != b.removed ||
        a.patched != b.patched) {
      fail("frame ", frame, " scale ", s, ": served sites/added/removed/patched ", a.sites, "/",
           a.added, "/", a.removed, "/", a.patched, ", replay ", b.sites, "/", b.added, "/",
           b.removed, "/", b.patched);
    }
  }
}

void check_patched_geometry(const stream::SequenceFrameResult& result,
                            const sparse::SparseTensor& frame, int kernel_size,
                            const std::string& what) {
  sparse::SparseTensor fine = frame.zeros_like(1);
  for (std::size_t s = 0; s < result.geometries.size(); ++s) {
    const sparse::SparseTensor& sites = result.geometries[s]->sites;
    if (s > 0) {
      // The cold pyramid: a 2x2x2 stride-2 downsample of the previous scale.
      const sparse::LayerGeometry down = sparse::build_downsample_geometry(fine, 2, 2);
      if (sites.size() != down.out_coords.size()) {
        fail(what, " scale ", s, ": ", sites.size(), " sites, cold pyramid has ",
             down.out_coords.size());
      }
      for (std::size_t row = 0; row < sites.size(); ++row) {
        if (!(sites.coord(row) == down.out_coords[row])) {
          fail(what, " scale ", s, ": site row ", row, " differs from the cold pyramid");
        }
      }
    }
    const sparse::SparseTensor& cold_input = s == 0 ? fine : sites;
    if (!sparse::geometry_equal(*result.geometries[s],
                                *sparse::make_submanifold_geometry(cold_input, kernel_size))) {
      fail(what, " scale ", s, ": patched geometry differs from a cold build");
    }
    fine = sites.zeros_like(1);
  }
}

void probe_gold_check(const core::CompiledLayer& layer) {
  quant::QSparseTensor tampered = layer.gold_output;
  check_gold(layer, tampered);  // the untampered copy must pass
  flip_one_value(tampered);
  require_fires("gold check", [&] { check_gold(layer, tampered); });
}

void probe_outputs_check(const std::vector<quant::QSparseTensor>& outputs) {
  std::vector<quant::QSparseTensor> tampered = outputs;
  check_outputs_equal(outputs, tampered, "untampered copy");
  flip_one_value(tampered.back());
  require_fires("backend output check", [&] { check_outputs_equal(outputs, tampered, "probe"); });
}

void probe_stream_check(const stream::SequenceFrameStats& stats) {
  stream::SequenceFrameStats tampered = stats;
  check_stream_stats_equal(stats, tampered, "untampered copy");
  if (tampered.scales.empty()) fail("probe: no scales to tamper with");
  tampered.scales.back().removed += 1;
  require_fires("stream stats check",
                [&] { check_stream_stats_equal(stats, tampered, "probe"); });
}

void probe_stage_sum_check(const StageTimes& stages, double wall) {
  check_stage_sum(stages, wall, "warm-up");
  StageTimes tampered = stages;
  tampered.compile += 2.0 * kStageSumTolerance * wall;
  require_fires("stage sum check", [&] { check_stage_sum(tampered, wall, "probe"); });
}

}  // namespace perfbench
