// Correctness checks of the benchmark. Each throws CheckFailed when its
// invariant does not hold; probe_*() feed a check a tampered copy of real
// data and throw CheckFailed when the check does NOT fire (a check that
// cannot fire is itself a bug).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "core/layer_compiler.hpp"
#include "quant/qtensor.hpp"
#include "stream/sequence_session.hpp"

namespace perfbench {

/// A frame's stage times; their sum must account for its wall time.
struct StageTimes {
  double voxelize{0.0};
  double forward{0.0};
  double compile{0.0};
  double run{0.0};
  double sum() const { return voxelize + forward + compile + run; }
};

/// Share of a frame's wall time its stage sum may leave unexplained.
inline constexpr double kStageSumTolerance = 0.05;

/// |wall - stages.sum()| <= kStageSumTolerance * wall.
void check_stage_sum(const StageTimes& stages, double wall, const std::string& frame);

/// `output` equals the layer's integer gold output bit for bit.
void check_gold(const esca::core::CompiledLayer& layer, const esca::quant::QSparseTensor& output);

/// Two backends' per-layer outputs of one Plan are identical.
void check_outputs_equal(const std::vector<esca::quant::QSparseTensor>& expected,
                         const std::vector<esca::quant::QSparseTensor>& actual,
                         const std::string& what);

/// A served frame's per-scale geometry stats equal a direct replay's.
void check_stream_stats_equal(const esca::stream::SequenceFrameStats& served,
                              const esca::stream::SequenceFrameStats& replay,
                              const std::string& frame);

/// Every scale of a SequenceSession frame equals a cold build: scale 0 of
/// `frame` itself, each coarser scale of the cold downsample pyramid.
void check_patched_geometry(const esca::stream::SequenceFrameResult& result,
                            const esca::sparse::SparseTensor& frame, int kernel_size,
                            const std::string& what);

/// Tamper probes. Each copies its argument, corrupts the copy and requires
/// the matching check to reject it.
void probe_gold_check(const esca::core::CompiledLayer& layer);
void probe_outputs_check(const std::vector<esca::quant::QSparseTensor>& outputs);
void probe_stream_check(const esca::stream::SequenceFrameStats& stats);
void probe_stage_sum_check(const StageTimes& stages, double wall);

}  // namespace perfbench
