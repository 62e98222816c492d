// Sparse Data Matching Unit (paper §III.C, Figs. 6-7).
//
// The SDMU turns one encoded tile into match groups and times that work; it
// depends on nothing but the tile's own encoding (index mask + valid-data
// storage). Functional contract: for every active tile, emit exactly the
// match groups the layer's rulebook prescribes (tests assert this, and
// Accelerator::run_layer checks the match count against the rulebook on
// every layer). The matches only drive timing and the buffer access
// stream — the layer's outputs come from sparse::ComputeEngine.
//
// Timing contract: a four-stage pipeline, stepped cycle by cycle —
//   read masks   : one SRF's K^2 column masks per mask_read_cycles cycles
//   judge state  : center bit decides active / skip (skip costs no fetch)
//   generate     : per-column state index (A, B) -> address fragment (A-B, A)
//   fetch        : per-column engines read 1 activation/cycle into the
//                  K^2-FIFO group; the MUX forwards matches, group by group,
//                  to the computing core at its consumption rate
// Backpressure is modelled end to end: full fragment queues stall the scan,
// full FIFOs stall fetch engines, and the CC's cycles-per-match sets the
// drain rate.
//
// That per-cycle model is the semantics. The simulator steps it only on
// cycles where a fetch engine can push, generate can fire, the CC takes a
// match or the judge meets an active center. Every other cycle only
// decrements the CC's busy count, advances the mask read over inactive
// SRFs and adds stall counts, so a run of them is applied in closed form:
// an idle pipeline jumps to the next active center found from the core
// mask bits, and a frozen one (fetch blocked by full FIFOs, generate
// blocked or the scan done) jumps over the CC's busy cycles. Every counter
// equals the per-cycle model's (tests/sdmu_oracle_test.cpp), and a tile
// costs O(active centers + matches) steps plus one pass over its core mask
// words instead of O(simulated cycles).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/arch_config.hpp"
#include "core/encoding.hpp"
#include "core/match.hpp"
#include "core/state_index.hpp"

namespace esca::core {

struct SdmuStats {
  std::int64_t cycles{0};
  std::int64_t srf_total{0};
  std::int64_t srf_active{0};
  std::int64_t srf_skipped{0};
  std::int64_t matches{0};
  std::int64_t scan_stall_cycles{0};   ///< scan blocked on full fragment queue
  std::int64_t fetch_stall_cycles{0};  ///< fetch blocked on full match FIFO
  std::int64_t mux_idle_cycles{0};     ///< CC ready but no match available
  std::size_t fifo_high_water{0};

  void merge(const SdmuStats& other);
};

/// Pipeline state of one decoder column: its address-fragment queue (the
/// fetches each queued fragment has left) and its match FIFO's occupancy.
struct SdmuColumn {
  static constexpr int kFragmentQueueDepth = 2;  ///< generate/fetch skid buffer
  std::array<std::int32_t, kFragmentQueueDepth> fragments{};
  int queued{0};
  int fifo{0};
};

/// One tile's SDMU output: the match stream in the order the computing core
/// consumes it — group by group (scan order of active SRFs), then decoder
/// column, then ascending z — cut into groups.
struct SdmuResult {
  std::vector<Match> matches;
  std::vector<GroupSpan> groups;
  SdmuStats stats;
  /// Per-column pipeline state; kept here so successive tiles reuse it.
  std::vector<SdmuColumn> columns;
};

class Sdmu {
 public:
  explicit Sdmu(const ArchConfig& config);

  /// Pure matching, no timing: all match groups of one tile in scan order.
  /// An SRF center's output row is read from the tile's own storage.
  std::vector<MatchGroup> match_tile(const EncodedTile& tile) const;

  /// Cycle-accurate simulation of one tile into `out`, whose storage is
  /// reused across calls.
  /// @param cc_cycles_per_match  consumption rate of the computing core
  ///                             (ArchConfig::cycles_per_match).
  void simulate_tile(const EncodedTile& tile, int cc_cycles_per_match, SdmuResult& out) const;

  const ArchConfig& config() const { return config_; }

 private:
  ArchConfig config_;
  StateIndexGenerator state_gen_;
};

}  // namespace esca::core
