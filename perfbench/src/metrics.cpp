#include "metrics.hpp"

namespace perfbench {

std::vector<MetricSpec> end_to_end_metrics() {
  return {{"setup_s", "s"},         {"frame_ms_p50", "ms"},   {"frame_ms_tail", "ms"},
          {"frames_per_s", "1/s"},  {"latency_ms_p50", "ms"}, {"latency_ms_tail", "ms"},
          {"peak_rss_mb", "MB"}};
}

std::vector<MetricSpec> per_layer_metrics() {
  std::vector<MetricSpec> m = {
      {"voxel.ms", "ms"},
      {"voxel.points", "count"},
      {"voxel.sites", "count"},
      {"nn.forward_ms", "ms"},
      {"sparse.geometry_builds", "count"},
      {"compile.ms", "ms"},
      {"runtime.cpu.run_ms", "ms"},
      {"runtime.cpu.macs", "count"},
  };
  for (const std::string& layer : kSubconvLayers) {
    m.push_back({"runtime.cpu." + layer + ".ms", "ms"});
    m.push_back({"runtime.cpu." + layer + ".gops", "GOPS"});
  }
  m.push_back({"sparse.arena_grows", "count"});
  m.push_back({"sparse.fallback_buckets", "count"});
  m.push_back({"runtime.esca.run_ms", "ms"});
  m.push_back({"runtime.esca.sim_slowdown", "ratio"});
  for (const std::string& layer : kSubconvLayers) {
    m.push_back({"runtime.esca." + layer + ".host_ms", "ms"});
  }
  const std::vector<MetricSpec> rest = {
      {"core.sim_frame_ms", "ms"},
      {"core.cycles", "count"},
      {"core.cc_cycles", "count"},
      {"core.sdmu_matches", "count"},
      {"core.active_tiles", "count"},
      {"core.removing_ratio", "ratio"},
      {"core.sdmu_stall_cycles", "count"},
      {"core.mux_idle_cycles", "count"},
      {"core.array_utilization", "ratio"},
      {"sim.mem.dram_bytes", "bytes"},
      {"sim.mem.bank_conflict_stalls", "count"},
      {"sim.mem.memory_bound_layers", "count"},
      {"stream.geometry_ms", "ms"},
      {"stream.patch_frac", "ratio"},
      {"stream.churn", "count"},
      {"stream.shards", "count"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.execute_ms_p50", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.generator_lag_ms_max", "ms"},
      {"serve.shed", "count"},
      {"serve.expired", "count"},
      {"serve.failed", "count"},
      {"fail_frac", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const std::string& span : kTracedSpans) m.push_back({"self_ms." + span, "ms"});
  return m;
}

}  // namespace perfbench
