// lidar_cpu and indoor_esca: one sensor in a closed loop, one distinct
// seeded capture per frame, each frame taken from points to verified INT
// output through the public entry points:
//
//   voxel::voxelize + SparseTensor::from_voxel_grid   (bench.voxelize; the
//                                                     cloud is normalized into
//                                                     the grid, as in the paper)
//   nn::SSUNet::forward with a trace                   (bench.forward)
//   runtime::Engine::compile                           (bench.compile)
//   runtime::Engine::run, RunOptions::verify = true    (bench.run)
#include <functional>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "metrics.hpp"
#include "nn/unet.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "sparse/compute.hpp"
#include "sparse/geometry.hpp"
#include "sparse/sparse_tensor.hpp"
#include "trace_summary.hpp"
#include "voxel/voxelizer.hpp"

namespace perfbench {

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): workload code

/// Deterministic counts are taken over this many leading frames, so they
/// repeat exactly for a seed whatever the run length.
constexpr std::size_t kCountFrames = 8;
/// Network weights are part of the program under test, not of the input.
constexpr std::uint64_t kNetworkSeed = 2022;
constexpr std::uint64_t kWarmupSeed = 0;

struct PipelineSpec {
  runtime::BackendKind backend;
  int resolution;
  std::function<pc::PointCloud(std::uint64_t)> capture;
  double tail_pct;
};

/// What one frame leaves behind.
struct Frame {
  StageTimes stages;
  double wall{0.0};
  std::size_t points{0};
  std::size_t sites{0};
  std::uint64_t geometry_builds{0};
  runtime::FrameReport report;
  bool traced{false};
};

class Pipeline {
 public:
  explicit Pipeline(const PipelineSpec& spec)
      : spec_(spec),
        net_({.base_planes = 16, .levels = 3}, kNetworkSeed),
        engine_(runtime::RuntimeConfig{.backend = spec.backend}) {}

  /// Points in, verified INT output out; the frame's compiled Plan lands in
  /// `plan`. `keep_outputs` retains every layer's output tensor.
  Frame run(const pc::PointCloud& cloud, bool keep_outputs, runtime::Plan& plan) {
    Frame f;
    f.points = cloud.size();
    const Clock::time_point start = Clock::now();
    std::optional<sparse::SparseTensor> input;
    {
      obs::Span span("bench.voxelize");
      const Clock::time_point t = Clock::now();
      const voxel::VoxelGrid grid =
          voxel::voxelize(cloud, {.resolution = spec_.resolution, .normalize = true});
      input.emplace(sparse::SparseTensor::from_voxel_grid(grid, 1));
      f.stages.voxelize = seconds_since(t);
    }
    f.sites = input->size();
    std::vector<nn::TraceEntry> trace;
    {
      obs::Span span("bench.forward");
      const std::uint64_t builds = sparse::geometry_builds();
      const Clock::time_point t = Clock::now();
      (void)net_.forward(*input, &trace);
      f.stages.forward = seconds_since(t);
      f.geometry_builds = sparse::geometry_builds() - builds;
    }
    {
      obs::Span span("bench.compile");
      const Clock::time_point t = Clock::now();
      plan = engine_.compile(trace);
      f.stages.compile = seconds_since(t);
    }
    {
      obs::Span span("bench.run");
      const Clock::time_point t = Clock::now();
      runtime::RunReport report = engine_.run(plan, runtime::FrameBatch::single("frame"),
                                              {.verify = true, .keep_outputs = keep_outputs});
      f.stages.run = seconds_since(t);
      f.report = std::move(report.frames.front());
    }
    f.wall = seconds_since(start);
    return f;
  }

 private:
  PipelineSpec spec_;
  nn::SSUNet net_;
  runtime::Engine engine_;
};

/// Per-frame sums of the simulated counters (zero on the CPU backend).
struct SimCounts {
  double sim_ms{0}, cycles{0}, cc_cycles{0}, matches{0}, active_tiles{0}, removing_ratio{0},
      sdmu_stalls{0}, mux_idle{0}, utilization{0}, dram_bytes{0}, bank_stalls{0},
      memory_bound{0};
};

SimCounts sim_counts(const runtime::FrameReport& frame, int parallelism) {
  SimCounts c;
  double total_tiles = 0;
  double macs = 0;
  for (const core::LayerRunStats& l : frame.stats.layers) {
    c.cycles += static_cast<double>(l.total_cycles);
    c.cc_cycles += static_cast<double>(l.cc_cycles);
    c.matches += static_cast<double>(l.sdmu.matches);
    c.active_tiles += static_cast<double>(l.zero_removing.active_tiles);
    total_tiles += static_cast<double>(l.zero_removing.total_tiles);
    c.sdmu_stalls += static_cast<double>(l.sdmu.scan_stall_cycles + l.sdmu.fetch_stall_cycles);
    c.mux_idle += static_cast<double>(l.sdmu.mux_idle_cycles);
    macs += static_cast<double>(l.mac_ops);
  }
  c.sim_ms = frame.total_seconds() * 1e3;
  c.removing_ratio = total_tiles > 0 ? 1.0 - c.active_tiles / total_tiles : 0.0;
  c.utilization = c.cycles > 0 ? macs / (parallelism * c.cycles) : 0.0;
  const core::MemorySummary mem = frame.memory_summary();
  c.dram_bytes = static_cast<double>(mem.dram_bytes_in + mem.dram_bytes_out);
  c.bank_stalls = static_cast<double>(mem.bank_conflict_stalls);
  c.memory_bound = mem.memory_bound_layers;
  return c;
}

/// Median over the first kCountFrames frames of `get(frame)`.
template <typename T, typename F>
double leading_median(const std::vector<T>& frames, F&& get) {
  std::vector<double> v;
  for (std::size_t i = 0; i < frames.size() && i < kCountFrames; ++i) v.push_back(get(frames[i]));
  return median(v);
}

Result run_pipeline(const Args& args, const PipelineSpec& spec) {
  const bool esca_backend = spec.backend == runtime::BackendKind::kEsca;
  const int parallelism = core::ArchConfig{}.compute_parallelism();

  // Set-up: network + Engine construction and one warm-up frame, cold each
  // time; input generation stays outside. The warm-up capture is the same
  // for every seed, so setup_s measures the program, not the seed's scene.
  const pc::PointCloud warmup_cloud = spec.capture(derive_seed(kWarmupSeed, 0, 0));
  std::unique_ptr<Pipeline> pipeline;
  Frame warmup;
  runtime::Plan warmup_plan;
  const double setup_s = median_setup([&] {
    pipeline.reset();
    warmup = {};
    warmup_plan = {};
    const Clock::time_point t = Clock::now();
    pipeline = std::make_unique<Pipeline>(spec);
    warmup = pipeline->run(warmup_cloud, /*keep_outputs=*/true, warmup_plan);
    return seconds_since(t);
  });

  // Every check must be able to fire: feed each a tampered copy.
  probe_gold_check(warmup_plan.network.layers.back());
  probe_stage_sum_check(warmup.stages, warmup.wall);
  if (esca_backend) probe_outputs_check(warmup.report.outputs);
  warmup = {};
  warmup_plan = {};

  std::optional<runtime::Engine> cpu_reference;
  if (esca_backend) {
    cpu_reference.emplace(runtime::RuntimeConfig{.backend = runtime::BackendKind::kCpu});
  }

  const std::uint64_t grows0 = sparse::compute_arena_grows();
  const std::uint64_t fallbacks0 = sparse::compute_fallback_buckets();
  const std::size_t min_frames = min_samples_for_tail(spec.tail_pct);
  std::vector<Frame> records;
  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t i = 0; seconds_since(loop_start) < args.seconds || records.size() < min_frames;
       ++i) {
    const pc::PointCloud cloud = spec.capture(derive_seed(args.seed, 1, i));
    // Each frame's Plan dies with its iteration, as in a one-shot caller.
    runtime::Plan plan;
    // A traced run alternates traced and untraced frames, so the tracing
    // overhead is measured on interleaved samples of one process.
    const bool traced = args.trace && i % 2 == 1;
    if (traced) obs::TraceSession::start();
    Frame f = pipeline->run(cloud, /*keep_outputs=*/esca_backend, plan);
    if (traced) obs::TraceSession::stop();
    f.traced = traced;
    const std::string id = "frame " + std::to_string(i);
    check_stage_sum(f.stages, f.wall, id);
    if (esca_backend) {
      // Outside the frame's timing: the same Plan on the CPU backend must
      // give the same outputs as the simulator.
      const runtime::RunReport cpu = cpu_reference->run(plan, runtime::FrameBatch::single(id),
                                                        {.verify = true, .keep_outputs = true});
      check_outputs_equal(cpu.frames.front().outputs, f.report.outputs, id + " esca vs cpu");
      f.report.outputs.clear();
    }
    records.push_back(std::move(f));
  }

  Result result;
  result.attempted = static_cast<std::int64_t>(records.size());
  std::vector<double> walls;
  std::vector<double> traced_walls;
  double wall_sum = 0;
  for (const Frame& r : records) {
    (r.traced ? traced_walls : walls).push_back(r.wall * 1e3);
    wall_sum += r.wall;
  }

  if (!args.trace) {
    result.set("setup_s", setup_s, "s");
    result.set("frame_ms_p50", median(walls), "ms");
    result.set("frame_ms_tail", tail(walls, spec.tail_pct), "ms");
    result.set("frames_per_s", static_cast<double>(records.size()) / wall_sum, "1/s");
    // One sensor in a closed loop: a frame's latency is its wall time.
    result.set("latency_ms_p50", median(walls), "ms");
    result.set("latency_ms_tail", tail(walls, spec.tail_pct), "ms");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  for (const MetricSpec& m : per_layer_metrics()) result.set(m.name, 0.0, m.unit);
  const auto med = [&](auto get) {
    std::vector<double> v;
    for (const Frame& r : records) v.push_back(get(r));
    return median(v);
  };
  const auto lead = [&](auto get) { return leading_median(records, get); };
  result.set("voxel.ms", med([](const Frame& r) { return r.stages.voxelize * 1e3; }), "ms");
  result.set("voxel.points", lead([](const Frame& r) { return double(r.points); }), "count");
  result.set("voxel.sites", lead([](const Frame& r) { return double(r.sites); }), "count");
  result.set("nn.forward_ms", med([](const Frame& r) { return r.stages.forward * 1e3; }), "ms");
  result.set("sparse.geometry_builds",
             lead([](const Frame& r) { return double(r.geometry_builds); }), "count");
  result.set("compile.ms", med([](const Frame& r) { return r.stages.compile * 1e3; }), "ms");
  result.set("sparse.arena_grows", static_cast<double>(sparse::compute_arena_grows() - grows0),
             "count");
  result.set("sparse.fallback_buckets",
             static_cast<double>(sparse::compute_fallback_buckets() - fallbacks0), "count");

  for (const Frame& r : records) {
    if (r.report.stats.layers.size() != kSubconvLayers.size()) {
      throw std::logic_error("plan has " + std::to_string(r.report.stats.layers.size()) +
                             " Sub-Conv layers, expected 11");
    }
    for (std::size_t l = 0; l < kSubconvLayers.size(); ++l) {
      if (r.report.stats.layers[l].layer_name != kSubconvLayers[l]) {
        throw std::logic_error("plan layer " + std::to_string(l) + " is " +
                               r.report.stats.layers[l].layer_name + ", expected " +
                               kSubconvLayers[l]);
      }
    }
  }

  const TraceSummary trace = summarize_trace();
  const double traced_frames = static_cast<double>(traced_walls.size());
  for (const std::string& span : kTracedSpans) {
    const auto it = trace.self_seconds.find(span);
    if (it != trace.self_seconds.end()) {
      result.set("self_ms." + span, it->second * 1e3 / traced_frames, "ms");
    }
  }
  result.set("trace.overhead_pct", (median(traced_walls) / median(walls) - 1.0) * 100.0, "%");

  if (esca_backend) {
    result.set("runtime.esca.run_ms", med([](const Frame& r) { return r.stages.run * 1e3; }), "ms");
    result.set("runtime.esca.sim_slowdown",
               med([](const Frame& r) { return r.stages.run / r.report.total_seconds(); }),
               "ratio");
    for (std::size_t l = 0; l < kSubconvLayers.size(); ++l) {
      const auto it = trace.layer_seconds.find(static_cast<long long>(l));
      const double seconds = it != trace.layer_seconds.end() ? it->second : 0.0;
      result.set("runtime.esca." + kSubconvLayers[l] + ".host_ms", seconds * 1e3 / traced_frames,
                 "ms");
    }
    std::vector<SimCounts> counts;
    for (const Frame& r : records) counts.push_back(sim_counts(r.report, parallelism));
    const auto set_count = [&](const char* name, const char* unit, auto get) {
      result.set(name, leading_median(counts, get), unit);
    };
    set_count("core.sim_frame_ms", "ms", [](const SimCounts& c) { return c.sim_ms; });
    set_count("core.cycles", "count", [](const SimCounts& c) { return c.cycles; });
    set_count("core.cc_cycles", "count", [](const SimCounts& c) { return c.cc_cycles; });
    set_count("core.sdmu_matches", "count", [](const SimCounts& c) { return c.matches; });
    set_count("core.active_tiles", "count", [](const SimCounts& c) { return c.active_tiles; });
    set_count("core.removing_ratio", "ratio", [](const SimCounts& c) { return c.removing_ratio; });
    set_count("core.sdmu_stall_cycles", "count", [](const SimCounts& c) { return c.sdmu_stalls; });
    set_count("core.mux_idle_cycles", "count", [](const SimCounts& c) { return c.mux_idle; });
    set_count("core.array_utilization", "ratio", [](const SimCounts& c) { return c.utilization; });
    set_count("sim.mem.dram_bytes", "bytes", [](const SimCounts& c) { return c.dram_bytes; });
    set_count("sim.mem.bank_conflict_stalls", "count",
              [](const SimCounts& c) { return c.bank_stalls; });
    set_count("sim.mem.memory_bound_layers", "count",
              [](const SimCounts& c) { return c.memory_bound; });
  } else {
    result.set("runtime.cpu.run_ms", med([](const Frame& r) { return r.stages.run * 1e3; }), "ms");
    result.set("runtime.cpu.macs",
               lead([](const Frame& r) { return double(r.report.stats.total_mac_ops()); }),
               "count");
    for (std::size_t l = 0; l < kSubconvLayers.size(); ++l) {
      result.set("runtime.cpu." + kSubconvLayers[l] + ".ms",
                 med([&](const Frame& r) { return r.report.stats.layers[l].total_seconds * 1e3; }),
                 "ms");
      result.set("runtime.cpu." + kSubconvLayers[l] + ".gops",
                 med([&](const Frame& r) { return r.report.stats.layers[l].effective_gops; }),
                 "GOPS");
    }
  }
  return result;
}

}  // namespace

Result run_lidar_cpu(const Args& args) {
  return run_pipeline(args, {runtime::BackendKind::kCpu, 512, street_sweep, 75.0});
}

Result run_indoor_esca(const Args& args) {
  return run_pipeline(args, {runtime::BackendKind::kEsca, 192, indoor_capture, 75.0});
}

}  // namespace perfbench
