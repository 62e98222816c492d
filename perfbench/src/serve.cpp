// sensor_serve: four LiDAR streams served by a serve::Server (2 CPU workers,
// 3-scale SequenceSessions) through serve::Client::submit_sequence, one
// frame per request. One generator thread drives two phases:
//
//   paced   an open loop at a fixed rate; each request is timed from its
//           due time, so a stall also charges the requests queued behind it
//   closed  each stream keeps one request outstanding; frames completed
//           per second is the server's capacity
//
// Every frame is voxelized before timing starts.
//
// Each worker runs single-threaded (one compute thread, one geometry shard),
// so the two workers and the generator never ask for more cores than a
// 4-core host has: a parallel apply on a shared host waits for its slowest
// thread, and any core another tenant takes then stalls the whole frame.
// The process uses one malloc arena: with one arena per thread, the peak
// RSS depended on which arena each worker of each cold set-up landed on,
// and varied by a quarter between runs whose inputs had equal site counts.
#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "common/rng.hpp"
#include "datasets/sequence.hpp"
#include "inputs.hpp"
#include "metrics.hpp"
#include "nn/submanifold_conv.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "serve/serve.hpp"
#include "sparse/compute.hpp"
#include "trace_summary.hpp"
#include "voxel/voxelizer.hpp"

namespace perfbench {

namespace {

using namespace esca;  // NOLINT(google-build-using-namespace): workload code

constexpr int kStreams = 4;
constexpr int kWorkers = 2;
constexpr int kScales = 3;
constexpr int kResolution = 512;
/// Per worker: compute threads (ESCA_COMPUTE_THREADS) and geometry shards.
constexpr const char* kComputeThreads = "1";
constexpr int kGeometryShards = 1;
/// Distinct frames per stream. Every frame re-measures its own random 5% of
/// the sweep, so any two frames of a stream differ by about 10% of their
/// points; the stream cycles through this pool.
constexpr int kFramesPerStream = 12;
constexpr float kResampleFraction = 0.05F;
/// Paced-phase arrival rate: about a third of the closed-loop capacity
/// measured on a 4-core host (20-23 frames/s), so the queue stays short
/// even when a shared host runs at half speed. Fixed, so that two builds
/// see the same offered load.
constexpr double kPacedRate = 7.0;
/// Share of the run spent in the paced phase (the rest is closed loop).
constexpr double kPacedShare = 0.6;
constexpr double kTailPct = 90.0;
/// Served frames of stream 0 replayed directly through a SequenceSession.
constexpr std::size_t kReplayFrames = 32;
/// Replay frames whose patched geometries are compared with cold builds.
constexpr std::size_t kGeometryCheckEvery = 8;
constexpr std::uint64_t kStemSeed = 2022;

serve::ServerConfig server_config() {
  serve::ServerConfig cfg;
  cfg.workers = kWorkers;
  cfg.runtime.backend = runtime::BackendKind::kCpu;
  cfg.sequence.scales = kScales;
  cfg.sequence.geometry.shards = kGeometryShards;
  return cfg;
}

/// One served frame, as the generator saw it.
struct Served {
  int stream{0};
  int frame{0};
  double lag{0.0};  ///< submit time minus due time (paced phase)
  std::future<serve::Response> future;
  serve::Response response;
};

class Streams {
 public:
  explicit Streams(std::uint64_t seed) {
    for (int s = 0; s < kStreams; ++s) {
      // The base sweep is normalized once; frames are voxelized without
      // re-normalizing, so every frame of a stream shares one grid.
      pc::PointCloud base = street_sweep(derive_seed(seed, 3, static_cast<std::uint64_t>(s)));
      base.normalize_unit_cube();
      const datasets::SequenceDataset dataset(
          std::move(base),
          {.frames = kFramesPerStream, .resample_fraction = kResampleFraction},
          derive_seed(seed, 4, static_cast<std::uint64_t>(s)));
      std::vector<sparse::SparseTensor> frames;
      for (int t = 0; t < kFramesPerStream; ++t) {
        const pc::PointCloud cloud = dataset.frame(t);
        points_.push_back(static_cast<double>(cloud.size()));
        const Clock::time_point start = Clock::now();
        const voxel::VoxelGrid grid = voxel::voxelize(cloud, {.resolution = kResolution});
        frames.push_back(sparse::SparseTensor::from_voxel_grid(grid, 1));
        voxelize_ms_.push_back(seconds_since(start) * 1e3);
        sites_.push_back(static_cast<double>(frames.back().size()));
      }
      frames_.push_back(std::move(frames));
    }
    restart();
  }

  /// Start every stream's frame cycle over at frame 0.
  void restart() { next_.assign(kStreams, 0); }

  const sparse::SparseTensor& frame(int stream, int index) const {
    return frames_[static_cast<std::size_t>(stream)][static_cast<std::size_t>(index)];
  }
  /// The stream's next frame index (cycling through its pool).
  int advance(int stream) { return next_[static_cast<std::size_t>(stream)]++ % kFramesPerStream; }

  const std::vector<double>& points() const { return points_; }
  const std::vector<double>& sites() const { return sites_; }
  const std::vector<double>& voxelize_ms() const { return voxelize_ms_; }

 private:
  std::vector<std::vector<sparse::SparseTensor>> frames_;
  std::vector<int> next_;
  std::vector<double> points_, sites_, voxelize_ms_;
};

/// One frame of `stream` into the server, verified against the INT gold model.
std::future<serve::Response> submit(serve::Client& client, int stream,
                                    std::vector<sparse::SparseTensor> payload) {
  obs::Span span("bench.submit");
  return client.submit_sequence(static_cast<std::uint64_t>(stream), std::move(payload),
                                {.run = {.verify = true}});
}

}  // namespace

Result run_sensor_serve(const Args& args) {
  // Both before any thread starts: the thread count is read once, when the
  // first compute engine resolves it.
  setenv("ESCA_COMPUTE_THREADS", kComputeThreads, 1);
  mallopt(M_ARENA_MAX, 1);
  Streams streams(args.seed);

  // Set-up: stem compile, Server start and one warm-up frame per stream
  // (each stream's cold geometry build), cold each time.
  std::unique_ptr<serve::Server> server;
  runtime::PlanPtr plan;
  std::vector<int> stream0_frames;  ///< frame indices stream 0 was served, in order
  std::vector<stream::SequenceFrameStats> stream0_stats;
  const double setup_s = median_setup([&] {
    server.reset();
    streams.restart();
    const Clock::time_point t = Clock::now();
    Rng rng(kStemSeed);
    nn::SubmanifoldConv3d conv(1, 16, 3);
    conv.init_kaiming(rng);
    const runtime::Engine compiler(runtime::RuntimeConfig{.backend = runtime::BackendKind::kCpu});
    plan = runtime::share_plan(
        compiler.compile_layer(conv, streams.frame(0, 0), {.relu = true, .name = "stem"}));
    server = std::make_unique<serve::Server>(server_config(), plan);
    serve::Client client = server->client();
    std::vector<std::future<serve::Response>> warmups;
    for (int s = 0; s < kStreams; ++s) {
      warmups.push_back(submit(client, s, {streams.frame(s, streams.advance(s))}));
    }
    stream0_stats.clear();
    for (int s = 0; s < kStreams; ++s) {
      serve::Response r = warmups[static_cast<std::size_t>(s)].get();
      if (!r.ok()) throw CheckFailed("warm-up frame of stream " + std::to_string(s) + " failed");
      if (s == 0) stream0_stats.push_back(r.sequence.front());
    }
    return seconds_since(t);
  });
  stream0_frames = {0};
  probe_gold_check(plan->network.layers.front());
  probe_stream_check(stream0_stats.front());

  serve::Client client = server->client();
  const std::uint64_t grows0 = sparse::compute_arena_grows();
  const std::uint64_t fallbacks0 = sparse::compute_fallback_buckets();
  const double paced_seconds = args.seconds * kPacedShare;
  const double closed_seconds = args.seconds - paced_seconds;
  const auto paced_requests = static_cast<std::size_t>(
      std::max<double>(paced_seconds * kPacedRate, double(min_samples_for_tail(kTailPct))));

  // Paced phase. A traced run traces only its second half, so the first
  // half is the untraced baseline of the tracing overhead.
  std::vector<Served> paced;
  paced.reserve(paced_requests);
  const Clock::time_point paced_start = Clock::now();
  for (std::size_t i = 0; i < paced_requests; ++i) {
    if (args.trace && i == paced_requests / 2) obs::TraceSession::start();
    const int s = static_cast<int>(i % kStreams);
    const int f = streams.advance(s);
    std::vector<sparse::SparseTensor> payload{streams.frame(s, f)};
    const Clock::time_point due =
        paced_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(static_cast<double>(i) / kPacedRate));
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    paced.push_back({s, f, seconds_between(due, sent), submit(client, s, std::move(payload)), {}});
  }
  for (Served& r : paced) r.response = r.future.get();

  // Closed phase: the generator resubmits a stream's next frame the moment
  // its previous one completes.
  std::vector<Served> closed;
  std::deque<Served> outstanding;
  const Clock::time_point closed_start = Clock::now();
  for (int s = 0; s < kStreams; ++s) {
    const int f = streams.advance(s);
    outstanding.push_back({s, f, 0.0, submit(client, s, {streams.frame(s, f)}), {}});
  }
  while (!outstanding.empty()) {
    (void)outstanding.front().future.wait_for(std::chrono::microseconds(500));
    const bool resubmit = seconds_since(closed_start) < closed_seconds;
    for (std::size_t k = outstanding.size(); k-- > 0;) {
      Served& r = outstanding[k];
      if (r.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) continue;
      r.response = r.future.get();
      const int s = r.stream;
      closed.push_back(std::move(r));
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(k));
      if (resubmit) {
        const int f = streams.advance(s);
        outstanding.push_back({s, f, 0.0, submit(client, s, {streams.frame(s, f)}), {}});
      }
    }
  }
  const double closed_wall = seconds_since(closed_start);
  if (args.trace) obs::TraceSession::stop();

  // Tally: every request must reach a verified OK.
  Result result;
  std::int64_t shed = 0, expired = 0;
  std::vector<double> latency_ms, execute_ms, queue_ms, lag_ms, run_ms, geometry_ms;
  std::vector<double> churn, shards, traced_latency_ms;
  std::size_t patched = 0, scale_updates = 0;
  const auto tally = [&](const Served& r) {
    ++result.attempted;
    switch (r.response.status) {
      case serve::RequestStatus::kOk: break;
      case serve::RequestStatus::kShed: ++shed; ++result.failed; return;
      case serve::RequestStatus::kExpired: ++expired; ++result.failed; return;
      case serve::RequestStatus::kFailed:
        // Execution threw: with verify on, that includes a divergence from
        // the INT gold model.
        throw CheckFailed("stream " + std::to_string(r.stream) + " request failed: " +
                          r.response.error);
    }
    const stream::SequenceFrameStats& st = r.response.sequence.front();
    if (r.stream == 0) {
      stream0_frames.push_back(r.frame);
      stream0_stats.push_back(st);
    }
    queue_ms.push_back(r.response.queue_seconds * 1e3);
    run_ms.push_back(r.response.report.frames.front().total_seconds() * 1e3);
    geometry_ms.push_back(st.geometry_seconds * 1e3);
    churn.push_back(static_cast<double>(st.scales.front().added + st.scales.front().removed));
    shards.push_back(st.max_shards());
    patched += st.patched_scales();
    scale_updates += st.scales.size();
  };
  for (std::size_t i = 0; i < paced.size(); ++i) {
    const Served& r = paced[i];
    tally(r);
    lag_ms.push_back(r.lag * 1e3);
    if (!r.response.ok()) continue;
    const double from_due = (r.lag + r.response.total_seconds) * 1e3;
    (args.trace && i >= paced.size() / 2 ? traced_latency_ms : latency_ms).push_back(from_due);
    execute_ms.push_back(r.response.execute_seconds * 1e3);
  }
  std::size_t closed_ok = 0;
  for (const Served& r : closed) {
    tally(r);
    closed_ok += r.response.ok() ? 1 : 0;
  }
  const std::uint64_t grows = sparse::compute_arena_grows() - grows0;
  const std::uint64_t fallbacks = sparse::compute_fallback_buckets() - fallbacks0;
  server.reset();

  // Outside the timed region: replay stream 0 directly. The per-scale stats
  // must equal the served ones, and a few patched geometries must equal
  // cold builds.
  {
    runtime::Engine engine(server_config().runtime);
    runtime::Session session = engine.open_session(plan);
    stream::SequenceSession replay(session, server_config().sequence);
    const std::size_t n = std::min(kReplayFrames, stream0_frames.size());
    for (std::size_t k = 0; k < n; ++k) {
      const sparse::SparseTensor& frame = streams.frame(0, stream0_frames[k]);
      const stream::SequenceFrameResult r = replay.advance(frame, "", {.verify = true});
      const std::string id = "stream 0 frame " + std::to_string(k);
      check_stream_stats_equal(stream0_stats[k], r.stats, id);
      if (k % kGeometryCheckEvery == kGeometryCheckEvery - 1 || k + 1 == n) {
        check_patched_geometry(r, frame, server_config().sequence.kernel_size, id);
      }
    }
  }

  if (!args.trace) {
    result.set("setup_s", setup_s, "s");
    result.set("frame_ms_p50", median(execute_ms), "ms");
    result.set("frame_ms_tail", tail(execute_ms, kTailPct), "ms");
    result.set("frames_per_s", static_cast<double>(closed_ok) / closed_wall, "1/s");
    result.set("latency_ms_p50", median(latency_ms), "ms");
    result.set("latency_ms_tail", tail(latency_ms, kTailPct), "ms");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  for (const MetricSpec& m : per_layer_metrics()) result.set(m.name, 0.0, m.unit);
  result.set("voxel.ms", median(streams.voxelize_ms()), "ms");
  result.set("voxel.points", median(streams.points()), "count");
  result.set("voxel.sites", median(streams.sites()), "count");
  result.set("sparse.arena_grows", static_cast<double>(grows), "count");
  result.set("sparse.fallback_buckets", static_cast<double>(fallbacks), "count");
  result.set("stream.geometry_ms", median(geometry_ms), "ms");
  result.set("stream.patch_frac",
             static_cast<double>(patched) / static_cast<double>(scale_updates), "ratio");
  result.set("stream.churn", median(churn), "count");
  result.set("stream.shards", median(shards), "count");
  result.set("serve.queue_ms_p50", median(queue_ms), "ms");
  result.set("serve.execute_ms_p50", median(execute_ms), "ms");
  result.set("serve.run_ms", median(run_ms), "ms");
  result.set("serve.generator_lag_ms_max", *std::max_element(lag_ms.begin(), lag_ms.end()), "ms");
  result.set("serve.shed", static_cast<double>(shed), "count");
  result.set("serve.expired", static_cast<double>(expired), "count");
  result.set("serve.failed", 0.0, "count");  // a failed request ends the run above
  result.set("fail_frac",
             static_cast<double>(result.failed) / static_cast<double>(result.attempted), "ratio");

  const TraceSummary trace = summarize_trace();
  // Traced requests: the second half of the paced phase plus the closed phase.
  const double traced_frames =
      static_cast<double>(paced.size() - paced.size() / 2 + closed.size());
  for (const std::string& span : kTracedSpans) {
    const auto it = trace.self_seconds.find(span);
    if (it != trace.self_seconds.end()) {
      result.set("self_ms." + span, it->second * 1e3 / traced_frames, "ms");
    }
  }
  result.set("trace.overhead_pct",
             (median(traced_latency_ms) / median(latency_ms) - 1.0) * 100.0, "%");
  return result;
}

}  // namespace perfbench
