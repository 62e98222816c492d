#include "core/accelerator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "core/computing_core.hpp"
#include "obs/metrics.hpp"

namespace esca::core {

namespace {

// sim::mem stall totals as process-wide registry counters: scrapers see the
// accelerator model's memory pressure without walking per-run reports.
obs::Counter& bank_conflict_stalls_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_sim_buffer_bank_conflict_stalls_total",
      "banked-buffer cycles the front-end blocked on a full bank FIFO");
  return counter;
}

obs::Counter& port_stalls_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_sim_buffer_port_stalls_total", "bank-ready buffer requests denied a port");
  return counter;
}

obs::Counter& sdmu_scan_stalls_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_sim_sdmu_scan_stall_cycles_total", "SDMU scan cycles blocked on a full fragment queue");
  return counter;
}

obs::Counter& sdmu_fetch_stalls_counter() {
  static obs::Counter& counter = obs::Registry::global().counter(
      "esca_sim_sdmu_fetch_stall_cycles_total", "SDMU fetch cycles blocked on a full match FIFO");
  return counter;
}

}  // namespace

double LayerRunStats::array_utilization(int parallelism) const {
  if (total_cycles <= 0 || parallelism <= 0) return 0.0;
  return static_cast<double>(mac_ops) /
         (static_cast<double>(parallelism) * static_cast<double>(total_cycles));
}

void MemorySummary::add(const LayerRunStats& layer) {
  dram_bytes_in += layer.dram_bytes_in;
  dram_bytes_out += layer.dram_bytes_out;
  dram_bursts += layer.traffic.dram_bursts();
  sram_read_bytes += layer.traffic.sram_read_bytes;
  sram_write_bytes += layer.traffic.sram_write_bytes;
  bank_conflict_stalls += layer.buffer_sim.bank_conflict_stalls;
  port_stalls += layer.buffer_sim.port_stalls;
  buffer_fifo_high_water = std::max(buffer_fifo_high_water, layer.buffer_sim.fifo_high_water);
  sdmu_scan_stalls += layer.sdmu.scan_stall_cycles;
  sdmu_fetch_stalls += layer.sdmu.fetch_stall_cycles;
  sdmu_fifo_high_water = std::max(sdmu_fifo_high_water, layer.sdmu.fifo_high_water);
  if (layer.memory_bound) {
    ++memory_bound_layers;
  } else {
    ++compute_bound_layers;
  }
}

void MemorySummary::merge(const MemorySummary& other) {
  dram_bytes_in += other.dram_bytes_in;
  dram_bytes_out += other.dram_bytes_out;
  dram_bursts += other.dram_bursts;
  sram_read_bytes += other.sram_read_bytes;
  sram_write_bytes += other.sram_write_bytes;
  bank_conflict_stalls += other.bank_conflict_stalls;
  port_stalls += other.port_stalls;
  buffer_fifo_high_water = std::max(buffer_fifo_high_water, other.buffer_fifo_high_water);
  sdmu_scan_stalls += other.sdmu_scan_stalls;
  sdmu_fetch_stalls += other.sdmu_fetch_stalls;
  sdmu_fifo_high_water = std::max(sdmu_fifo_high_water, other.sdmu_fifo_high_water);
  memory_bound_layers += other.memory_bound_layers;
  compute_bound_layers += other.compute_bound_layers;
}

Accelerator::Accelerator(ArchConfig config)
    : config_(config),
      dram_(config.dram),
      traffic_(config.traffic_model_config()),
      buffer_(config.buffer_geometry()) {
  config_.validate();
}

LayerRunResult Accelerator::run_layer(const quant::QuantizedSubConv& layer,
                                      const quant::QSparseTensor& input,
                                      const RunOptions& options, sparse::ComputeEngine* engine) {
  ESCA_REQUIRE(input.channels() == layer.in_channels(),
               "input channels " << input.channels() << " != layer " << layer.in_channels());
  ESCA_REQUIRE(layer.kernel_size() == config_.kernel_size,
               "layer kernel " << layer.kernel_size() << " != architecture kernel "
                               << config_.kernel_size);

  LayerRunStats st;
  st.layer_name = layer.name();
  st.in_channels = layer.in_channels();
  st.out_channels = layer.out_channels();
  st.sites = static_cast<std::int64_t>(input.size());

  // Geometry shared by the numerics and the matching pipeline: the caller's
  // precompiled handle (steady-state frames), else the input's memoized
  // build — the same fallback CompiledLayer::run_gold uses.
  sparse::LayerGeometryPtr memoized;
  if (options.geometry == nullptr) memoized = input.submanifold_geometry(layer.kernel_size());
  const sparse::LayerGeometry& geometry =
      options.geometry != nullptr ? *options.geometry : *memoized;
  ESCA_REQUIRE(geometry.sites.size() == input.size() &&
                   geometry.sites.spatial_extent() == input.spatial_extent(),
               "precompiled geometry does not match the input tensor");

  // --- numerics: the shared compute engine ------------------------------------
  quant::QSparseTensor output = layer.forward(input, geometry, engine);

  // --- §III.A zero removing ---------------------------------------------------
  const ZeroRemoving zr(config_.tile_size);
  const voxel::TileGrid tiles = zr.apply(geometry.sites, &st.zero_removing);

  // --- §III.B encoding ----------------------------------------------------------
  const TileEncoder encoder(config_);
  const std::vector<EncodedTile> encoded =
      encoder.encode(geometry.sites, tiles, &st.encoding);

  // --- buffer capacity ----------------------------------------------------------
  // Tiles whose working set overflows a buffer are double-streamed; the
  // traffic model charges the overflow, here we just measure it.
  const std::int64_t weight_bytes = layer.weight_bytes();
  if (weight_bytes > config_.weight_buffer_bytes) ++st.buffer_spills;
  const auto act_bytes_per_site = static_cast<std::int64_t>(layer.in_channels()) * 2;
  std::int64_t overflow_act_sites = 0;
  std::int64_t overflow_mask_bytes = 0;
  for (const EncodedTile& t : encoded) {
    if (t.stored_sites() * act_bytes_per_site > config_.activation_buffer_bytes) {
      ++st.buffer_spills;
      overflow_act_sites += t.stored_sites();
    }
    const std::int64_t tile_mask_bytes = (t.mask_bits() + 7) / 8;
    if (tile_mask_bytes > config_.mask_buffer_bytes) {
      ++st.buffer_spills;
      overflow_mask_bytes += tile_mask_bytes;
    }
  }
  if (st.buffer_spills > 0) {
    ESCA_LOG_WARN << "layer '" << layer.name() << "': " << st.buffer_spills
                  << " tile working sets exceed on-chip buffers (double-streamed)";
  }

  // --- per-tile SDMU + CC timing ------------------------------------------------
  const Sdmu sdmu(config_);
  const ComputingCore cc(config_, layer.in_channels(), layer.out_channels());
  std::int64_t covered_sites = 0;

  for (const EncodedTile& tile : encoded) {
    sdmu.simulate_tile(tile, cc.cycles_per_match(), tile_result_);
    st.sdmu.merge(tile_result_.stats);

    if (config_.mem.simulate_buffer) {
      // Replay this tile's real activation access stream (one read per
      // match, one writeback per output row) through the banked buffer.
      access_scratch_.clear();
      for (const GroupSpan& group : tile_result_.groups) {
        for (std::int32_t i = group.begin; i < group.end; ++i) {
          const Match& m = tile_result_.matches[static_cast<std::size_t>(i)];
          access_scratch_.push_back({static_cast<std::int64_t>(m.in_row), false});
        }
        access_scratch_.push_back({static_cast<std::int64_t>(group.out_row), true});
      }
      st.buffer_sim.merge(buffer_.simulate(access_scratch_));
    }

    for (const GroupSpan& group : tile_result_.groups) {
      const GroupComputeResult gr = cc.time_group(group.size());
      st.cc_cycles += gr.cycles;
      st.mac_ops += gr.mac_ops;
      ++covered_sites;

      // Energy accounting for this group.
      energy_.add_mac(gr.mac_ops);
      energy_.add_bram_read(static_cast<std::int64_t>(group.size()) *
                            ((layer.in_channels() + 3) / 4));  // 72b act words
      energy_.add_bram_read(static_cast<std::int64_t>(group.size()) *
                            ((static_cast<std::int64_t>(layer.in_channels()) *
                              layer.out_channels() + 8) / 9));  // 72b weight words
      energy_.add_bram_write((layer.out_channels() + 3) / 4);
    }
  }
  ESCA_CHECK(covered_sites == st.sites,
             "not every site produced an output group: " << covered_sites << " vs "
                                                         << st.sites);
  // The SDMU derives its matches from the tile encoding alone; they must be
  // exactly the rules the output was computed from.
  ESCA_CHECK(st.sdmu.matches == geometry.total_rules(),
             "layer '" << layer.name() << "': SDMU matched " << st.sdmu.matches
                       << " pairs, the rulebook has " << geometry.total_rules());

  // --- DRAM traffic (sim/mem closed form) ---------------------------------------
  st.traffic_input.active_tiles = st.encoding.tiles;
  st.traffic_input.mask_bytes = st.encoding.mask_bytes;
  st.traffic_input.stored_sites = st.encoding.stored_sites;
  st.traffic_input.core_sites = st.encoding.core_sites;
  st.traffic_input.overflow_act_sites = overflow_act_sites;
  st.traffic_input.overflow_mask_bytes = overflow_mask_bytes;
  st.traffic_input.matches = st.sdmu.matches;
  st.traffic_input.in_channels = layer.in_channels();
  st.traffic_input.out_channels = layer.out_channels();
  st.traffic_input.weight_bytes = weight_bytes;
  st.traffic_input.weights_resident = options.weights_resident;
  st.traffic = traffic_.layer_traffic(st.traffic_input);
  st.dram_bytes_in = st.traffic.dram_bytes_in();
  st.dram_bytes_out = st.traffic.dram_bytes_out();
  dram_.record_read(st.dram_bytes_in);
  dram_.record_write(st.dram_bytes_out);

  st.total_cycles = st.sdmu.cycles;
  energy_.add_logic_cycles(st.total_cycles);
  energy_.add_dram_bytes(st.dram_bytes_in + st.dram_bytes_out);

  // --- timing -------------------------------------------------------------------
  // Bank-conflict stalls are reported, not folded into total_cycles: the
  // SDMU pipeline already rate-limits buffer reads, so folding them in
  // would double-charge the common case.
  st.compute_seconds = static_cast<double>(st.total_cycles) / config_.frequency_hz;
  st.dram_seconds = traffic_.transfer_seconds(st.traffic);
  st.total_seconds = config_.overlap_dram ? std::max(st.compute_seconds, st.dram_seconds)
                                          : st.compute_seconds + st.dram_seconds;
  st.effective_gops =
      st.total_seconds > 0.0
          ? 2.0 * static_cast<double>(st.mac_ops) / st.total_seconds / 1e9
          : 0.0;
  st.memory_bound = st.dram_seconds >= st.compute_seconds;

  bank_conflict_stalls_counter().inc(st.buffer_sim.bank_conflict_stalls);
  port_stalls_counter().inc(st.buffer_sim.port_stalls);
  sdmu_scan_stalls_counter().inc(st.sdmu.scan_stall_cycles);
  sdmu_fetch_stalls_counter().inc(st.sdmu.fetch_stall_cycles);

  return LayerRunResult{std::move(output), std::move(st)};
}

std::int64_t NetworkRunStats::total_cycles() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.total_cycles;
  return n;
}

std::int64_t NetworkRunStats::total_mac_ops() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.mac_ops;
  return n;
}

double NetworkRunStats::total_seconds() const {
  double s = 0.0;
  for (const auto& l : layers) s += l.total_seconds;
  return s;
}

double NetworkRunStats::effective_gops() const {
  const double s = total_seconds();
  return s > 0.0 ? 2.0 * static_cast<double>(total_mac_ops()) / s / 1e9 : 0.0;
}

MemorySummary NetworkRunStats::memory_summary() const {
  MemorySummary m;
  for (const auto& l : layers) m.add(l);
  return m;
}

}  // namespace esca::core
