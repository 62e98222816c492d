// The benchmark's metric catalogue: every end-to-end metric (printed by an
// untraced run) and every per-layer metric (printed by a traced run), by
// name and unit. Every workload prints every metric of its run's kind; a
// per-layer metric whose layer does no work on a workload reads 0.
// BENCHMARK.json at the repository root lists the same names.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The 11 Sub-Conv layers of SS U-Net (m=16, 3 levels, 2 blocks per level),
/// in execution order — the Plan's layer order.
inline const std::array<std::string, 11> kSubconvLayers = {
    "stem",        "enc0.block0", "enc0.block1", "enc1.block0", "enc1.block1", "enc2.block0",
    "enc2.block1", "dec1.block0", "dec1.block1", "dec0.block0", "dec0.block1"};

/// Spans whose per-frame self time a traced run reports (as self_ms.<span>).
/// The bench.* spans are the benchmark's own, around each public entry point.
inline const std::vector<std::string> kTracedSpans = {
    "bench.voxelize", "bench.forward",         "bench.compile",      "bench.run",
    "bench.submit",   "runtime.frame",         "runtime.layer",      "runtime.submit",
    "sparse.build_geometry", "stream.advance", "stream.scale",       "stream.diff_frames",
    "stream.patch_geometry", "serve.enqueue",  "serve.queue_wait",   "serve.request"};

std::vector<MetricSpec> end_to_end_metrics();
std::vector<MetricSpec> per_layer_metrics();

}  // namespace perfbench
