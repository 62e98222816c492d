// The SDMU's closed-form simulation against a cycle-by-cycle oracle.
//
// Sdmu::simulate_tile steps the four-stage pipeline only on cycles where
// something moves and applies every other cycle in closed form. The oracle
// below is the plain per-cycle model — one loop iteration per simulated
// cycle, real FIFOs of Match values, per-fragment match lists and group
// tickets — and every SdmuStats field and the emitted group/match stream
// must equal it on seeded random tiles, densities 0-100 %, across kernel
// sizes, mask read rates, FIFO depths and computing-core rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/encoding.hpp"
#include "core/sdmu.hpp"
#include "sim/fifo.hpp"
#include "sparse/rulebook.hpp"

namespace esca::core {
namespace {

struct OracleResult {
  std::vector<MatchGroup> groups;  ///< in consumption order
  SdmuStats stats;
};

/// Matches of one column of the SRF centered at (cx, cy, cz): the set mask
/// bits of the window, addressed from the column's storage base.
std::vector<Match> oracle_column_matches(const EncodedTile& tile, int k, int cx, int cy, int cz,
                                         int dx, int dy, std::int32_t out_row) {
  const int r = k / 2;
  const int col = tile.column_of(cx + dx, cy + dy);
  std::int32_t address = tile.column_start()[static_cast<std::size_t>(col)];
  for (int z = 0; z < cz - r; ++z) address += tile.mask_at(col, z) ? 1 : 0;
  std::vector<Match> matches;
  for (int z = cz - r; z <= cz + r; ++z) {
    if (!tile.mask_at(col, z)) continue;
    matches.push_back(Match{tile.site_row(address++),
                            static_cast<std::int16_t>(
                                sparse::kernel_offset_index({dx, dy, z - cz}, k)),
                            static_cast<std::int16_t>((dy + r) * k + (dx + r)), out_row});
  }
  return matches;
}

std::int32_t oracle_center_row(const EncodedTile& tile, int cx, int cy, int cz) {
  const int col = tile.column_of(cx, cy);
  std::int32_t address = tile.column_start()[static_cast<std::size_t>(col)];
  for (int z = 0; z < cz; ++z) address += tile.mask_at(col, z) ? 1 : 0;
  return tile.site_row(address);
}

/// One loop iteration per simulated cycle: the SDMU's timing semantics.
OracleResult oracle_simulate(const EncodedTile& tile, const ArchConfig& cfg, int ccpm) {
  const int r = cfg.kernel_radius();
  const int k2 = cfg.k2();
  const Coord3 core = tile.core_size();
  constexpr std::size_t kFragmentQueueDepth = 2;

  struct Fragment {
    std::vector<Match> matches;
    std::size_t next{0};
  };
  struct GroupTicket {
    std::int32_t out_row{0};
    std::vector<std::int32_t> remaining;  // per column
    std::int64_t total{0};
    int current_column{0};
  };

  std::vector<std::deque<Fragment>> fragment_queues(static_cast<std::size_t>(k2));
  std::deque<GroupTicket> group_queue;
  const auto group_queue_depth = static_cast<std::size_t>(cfg.fifo_depth);
  std::vector<sim::Fifo<Match>> fifos;
  for (int c = 0; c < k2; ++c) fifos.emplace_back(static_cast<std::size_t>(cfg.fifo_depth));

  std::int64_t scan_index = 0;
  const std::int64_t scan_total = core.volume();
  auto scan_position = [&](std::int64_t idx) {
    const auto cz = static_cast<std::int32_t>(idx % core.z);
    idx /= core.z;
    const auto cy = static_cast<std::int32_t>(idx % core.y);
    const auto cx = static_cast<std::int32_t>(idx / core.y);
    return Coord3{cx + r, cy + r, cz + r};
  };

  OracleResult result;
  SdmuStats& st = result.stats;
  st.srf_total = scan_total;

  int read_countdown = cfg.mask_read_cycles;
  bool judged_ready = false;
  Coord3 judged_pos{};
  bool scan_done = (scan_total == 0);
  std::int64_t cc_busy = 0;
  std::int64_t in_flight = 0;

  while (!scan_done || judged_ready || in_flight > 0 || !group_queue.empty()) {
    ++st.cycles;

    // 1) MUX + CC consumption.
    if (cc_busy > 0) {
      --cc_busy;
    } else if (!group_queue.empty()) {
      GroupTicket& g = group_queue.front();
      while (g.remaining[static_cast<std::size_t>(g.current_column)] == 0) ++g.current_column;
      auto popped = fifos[static_cast<std::size_t>(g.current_column)].try_pop();
      if (popped.has_value()) {
        if (result.groups.empty() || result.groups.back().out_row != g.out_row) {
          result.groups.push_back(MatchGroup{g.out_row, {}});
        }
        result.groups.back().matches.push_back(*popped);
        --g.remaining[static_cast<std::size_t>(g.current_column)];
        --g.total;
        --in_flight;
        ++st.matches;
        cc_busy = ccpm - 1;
        if (g.total == 0) group_queue.pop_front();
      } else {
        ++st.mux_idle_cycles;
      }
    }

    // 2) Fetch engines.
    for (int c = 0; c < k2; ++c) {
      auto& q = fragment_queues[static_cast<std::size_t>(c)];
      if (q.empty()) continue;
      Fragment& frag = q.front();
      if (fifos[static_cast<std::size_t>(c)].try_push(frag.matches[frag.next])) {
        ++frag.next;
        if (frag.next >= frag.matches.size()) q.pop_front();
      } else {
        ++st.fetch_stall_cycles;
      }
    }

    // 3) Generate.
    if (judged_ready) {
      bool room = group_queue.size() < group_queue_depth;
      for (int c = 0; room && c < k2; ++c) {
        room = fragment_queues[static_cast<std::size_t>(c)].size() < kFragmentQueueDepth;
      }
      if (room) {
        GroupTicket ticket;
        ticket.out_row = oracle_center_row(tile, judged_pos.x, judged_pos.y, judged_pos.z);
        ticket.remaining.assign(static_cast<std::size_t>(k2), 0);
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            auto matches = oracle_column_matches(tile, cfg.kernel_size, judged_pos.x,
                                                 judged_pos.y, judged_pos.z, dx, dy,
                                                 ticket.out_row);
            if (matches.empty()) continue;
            const int col = (dy + r) * cfg.kernel_size + (dx + r);
            ticket.remaining[static_cast<std::size_t>(col)] =
                static_cast<std::int32_t>(matches.size());
            ticket.total += static_cast<std::int64_t>(matches.size());
            in_flight += static_cast<std::int64_t>(matches.size());
            fragment_queues[static_cast<std::size_t>(col)].push_back(
                Fragment{std::move(matches), 0});
          }
        }
        group_queue.push_back(std::move(ticket));
        judged_ready = false;
      } else {
        ++st.scan_stall_cycles;
      }
    }

    // 4) Read + judge.
    if (!scan_done && !judged_ready) {
      if (read_countdown > 1) {
        --read_countdown;
      } else {
        const Coord3 pos = scan_position(scan_index);
        ++scan_index;
        if (scan_index >= scan_total) scan_done = true;
        read_countdown = cfg.mask_read_cycles;
        if (tile.mask_at(tile.column_of(pos.x, pos.y), pos.z)) {
          judged_ready = true;
          judged_pos = pos;
          ++st.srf_active;
        } else {
          ++st.srf_skipped;
        }
      }
    }
  }

  st.cycles += cfg.pipeline_fill_cycles;
  for (const auto& f : fifos) st.fifo_high_water = std::max(st.fifo_high_water, f.high_water());
  return result;
}

/// A tile whose padded box (halo included) holds each voxel with
/// probability `density`; stored rows are a random permutation.
EncodedTile random_tile(Coord3 core, int radius, double density, Rng& rng) {
  EncodedTile tile({0, 0, 0}, {0, 0, 0}, core, radius);
  std::vector<std::int32_t> column_start(static_cast<std::size_t>(tile.columns()) + 1, 0);
  for (int col = 0; col < tile.columns(); ++col) {
    for (int z = 0; z < tile.depth(); ++z) {
      if (!rng.bernoulli(density)) continue;
      tile.set_mask(col, z);
      ++column_start[static_cast<std::size_t>(col) + 1];
    }
  }
  std::partial_sum(column_start.begin(), column_start.end(), column_start.begin());
  std::vector<std::int32_t> rows(static_cast<std::size_t>(column_start.back()));
  std::iota(rows.begin(), rows.end(), 0);
  std::shuffle(rows.begin(), rows.end(), rng.engine());
  std::int32_t core_active = 0;
  for (int x = radius; x < radius + core.x; ++x) {
    for (int y = radius; y < radius + core.y; ++y) {
      for (int z = radius; z < radius + core.z; ++z) {
        core_active += tile.mask_at(tile.column_of(x, y), z) ? 1 : 0;
      }
    }
  }
  tile.finalize(std::move(column_start), std::move(rows), core_active);
  return tile;
}

void expect_equal(const SdmuResult& got, const OracleResult& want, const std::string& where) {
  const SdmuStats& a = got.stats;
  const SdmuStats& b = want.stats;
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.srf_total, b.srf_total) << where;
  EXPECT_EQ(a.srf_active, b.srf_active) << where;
  EXPECT_EQ(a.srf_skipped, b.srf_skipped) << where;
  EXPECT_EQ(a.matches, b.matches) << where;
  EXPECT_EQ(a.scan_stall_cycles, b.scan_stall_cycles) << where;
  EXPECT_EQ(a.fetch_stall_cycles, b.fetch_stall_cycles) << where;
  EXPECT_EQ(a.mux_idle_cycles, b.mux_idle_cycles) << where;
  EXPECT_EQ(a.fifo_high_water, b.fifo_high_water) << where;

  ASSERT_EQ(got.groups.size(), want.groups.size()) << where;
  std::int32_t offset = 0;
  for (std::size_t g = 0; g < want.groups.size(); ++g) {
    const GroupSpan& span = got.groups[g];
    const MatchGroup& group = want.groups[g];
    ASSERT_EQ(span.out_row, group.out_row) << where << " group " << g;
    ASSERT_EQ(span.begin, offset) << where << " group " << g;
    ASSERT_EQ(span.size(), static_cast<std::int32_t>(group.matches.size()))
        << where << " group " << g;
    for (std::size_t i = 0; i < group.matches.size(); ++i) {
      ASSERT_EQ(got.matches[static_cast<std::size_t>(span.begin) + i], group.matches[i])
          << where << " group " << g << " match " << i;
    }
    offset = span.end;
  }
  EXPECT_EQ(got.matches.size(), static_cast<std::size_t>(offset)) << where;
}

/// (kernel size, computing-core cycles per match)
class SdmuOracleTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SdmuOracleTest, EveryCounterAndTheMatchStreamEqualThePerCycleModel) {
  const auto [k, ccpm] = GetParam();
  Rng rng(9100 + static_cast<std::uint64_t>(k) * 100 + static_cast<std::uint64_t>(ccpm));
  // A cube, an anisotropic core, and columns longer than a 64-bit mask word.
  const std::vector<Coord3> cores = {{4, 4, 4}, {3, 2, 5}, {1, 1, 70}};
  const std::vector<double> densities = {0.0, 0.02, 0.1, 0.3, 0.6, 1.0};
  SdmuResult reused;  // one result object across tiles, as run_layer uses it
  for (const Coord3& core : cores) {
    for (const double density : densities) {
      const EncodedTile tile = random_tile(core, k / 2, density, rng);
      for (const int read_cycles : {1, 2, 3, 4}) {
        for (const int fifo_depth : {1, 2, 16}) {
          ArchConfig cfg;
          cfg.kernel_size = k;
          cfg.mask_read_cycles = read_cycles;
          cfg.fifo_depth = fifo_depth;
          const Sdmu sdmu(cfg);
          const std::string where = "core " + std::to_string(core.x) + "x" +
                                    std::to_string(core.y) + "x" + std::to_string(core.z) +
                                    " density " + std::to_string(density) + " mrc " +
                                    std::to_string(read_cycles) + " fifo " +
                                    std::to_string(fifo_depth);
          sdmu.simulate_tile(tile, ccpm, reused);
          expect_equal(reused, oracle_simulate(tile, cfg, ccpm), where);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KernelsAndCcRates, SdmuOracleTest,
                         ::testing::Combine(::testing::Values(1, 3, 5),
                                            ::testing::Values(1, 2, 16, 64)),
                         [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
                           std::ostringstream name;
                           name << "k" << std::get<0>(info.param) << "_ccpm"
                                << std::get<1>(info.param);
                           return name.str();
                         });

}  // namespace
}  // namespace esca::core
