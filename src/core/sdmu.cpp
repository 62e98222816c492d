#include "core/sdmu.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"
#include "core/mask_judger.hpp"
#include "sparse/rulebook.hpp"

namespace esca::core {

namespace {

/// Layer-input row of an active SRF center: the center's address in the
/// tile's valid-data storage is its column's start plus the nonzeros below
/// it in that column.
std::int32_t center_row(const EncodedTile& tile, const Coord3& center) {
  const int col = tile.column_of(center.x, center.y);
  return tile.site_row(tile.column_start()[static_cast<std::size_t>(col)] +
                       tile.column_prefix(col, center.z));
}

/// Padded-tile position of the `index`-th SRF in scan order: x-major over
/// the core's center columns, z (the scan axis) innermost.
Coord3 scan_position(const EncodedTile& tile, std::int64_t index) {
  const Coord3 core = tile.core_size();
  const int r = tile.kernel_radius();
  const auto cz = static_cast<std::int32_t>(index % core.z);
  index /= core.z;
  const auto cy = static_cast<std::int32_t>(index % core.y);
  const auto cx = static_cast<std::int32_t>(index / core.y);
  return {cx + r, cy + r, cz + r};
}

/// Scan index of the first active center at or after `index`, read from
/// the core's mask bits; core volume when none is left.
std::int64_t next_active_center(const EncodedTile& tile, std::int64_t index) {
  const Coord3 core = tile.core_size();
  const int r = tile.kernel_radius();
  if (index >= core.volume()) return core.volume();
  const Coord3 from = scan_position(tile, index);
  for (int cx = from.x, cy = from.y, z = from.z; cx < r + core.x; z = r) {
    const int found = tile.next_active(tile.column_of(cx, cy), z, r + core.z);
    if (found < r + core.z) {
      return (static_cast<std::int64_t>(cx - r) * core.y + (cy - r)) * core.z + (found - r);
    }
    if (++cy == r + core.y) {
      cy = r;
      ++cx;
    }
  }
  return core.volume();
}

/// Generate stage: append the group of the active SRF centered at `pos` to
/// the match stream and queue its per-column fragments.
void generate_group(const EncodedTile& tile, const Coord3& pos, int kernel_size,
                    SdmuResult& out) {
  const int r = kernel_size / 2;
  const std::int32_t out_row = center_row(tile, pos);
  const auto begin = static_cast<std::int32_t>(out.matches.size());
  const int lo = std::max(0, pos.z - r);
  const int hi = std::min(tile.depth(), pos.z + r + 1);
  for (int dy = -r; dy <= r; ++dy) {
    for (int dx = -r; dx <= r; ++dx) {
      const int decoder_column = (dy + r) * kernel_size + (dx + r);
      const int col = tile.column_of(pos.x + dx, pos.y + dy);
      // The fragment is a view of the column's storage: addresses
      // [A-B, A) past the column base, one per set mask bit of the window.
      std::uint64_t window = tile.column_bits(col, lo, hi - lo);
      if (window == 0) continue;
      const int b = std::popcount(window);
      const AddressFragment frag =
          StateIndexGenerator::to_fragment({tile.column_prefix(col, lo) + b, b});
      std::int32_t address = tile.column_start()[static_cast<std::size_t>(col)] + frag.begin;
      for (; window != 0; window &= window - 1) {
        const int z = lo + std::countr_zero(window);
        const int widx = sparse::kernel_offset_index({dx, dy, z - pos.z}, kernel_size);
        out.matches.push_back(Match{tile.site_row(address++), static_cast<std::int16_t>(widx),
                                    static_cast<std::int16_t>(decoder_column), out_row});
      }
      SdmuColumn& column = out.columns[static_cast<std::size_t>(decoder_column)];
      column.fragments[static_cast<std::size_t>(column.queued++)] = frag.length();
    }
  }
  const auto end = static_cast<std::int32_t>(out.matches.size());
  // A center site always matches itself, so the group is non-empty.
  ESCA_CHECK(end > begin, "active SRF produced no matches");
  out.groups.push_back(GroupSpan{out_row, begin, end});
}

}  // namespace

void SdmuStats::merge(const SdmuStats& other) {
  cycles += other.cycles;
  srf_total += other.srf_total;
  srf_active += other.srf_active;
  srf_skipped += other.srf_skipped;
  matches += other.matches;
  scan_stall_cycles += other.scan_stall_cycles;
  fetch_stall_cycles += other.fetch_stall_cycles;
  mux_idle_cycles += other.mux_idle_cycles;
  fifo_high_water = std::max(fifo_high_water, other.fifo_high_water);
}

Sdmu::Sdmu(const ArchConfig& config) : config_(config), state_gen_(config.kernel_size) {
  config_.validate();
  // Generate reads a window's K mask bits of a column as one 64-bit word.
  ESCA_REQUIRE(config_.kernel_size <= 64, "kernel_size " << config_.kernel_size << " > 64");
}

std::vector<MatchGroup> Sdmu::match_tile(const EncodedTile& tile) const {
  const int r = config_.kernel_radius();
  const Coord3 core = tile.core_size();
  std::vector<MatchGroup> groups;

  // Scan order: x-major over center columns, z (the scan axis) innermost.
  for (int cx = r; cx < r + core.x; ++cx) {
    for (int cy = r; cy < r + core.y; ++cy) {
      for (int cz = r; cz < r + core.z; ++cz) {
        if (MaskJudger::judge(tile, cx, cy, cz) != SrfState::kActive) continue;
        const std::int32_t out_row = center_row(tile, {cx, cy, cz});

        MatchGroup group{out_row, {}};
        for (int dy = -r; dy <= r; ++dy) {
          for (int dx = -r; dx <= r; ++dx) {
            auto column = state_gen_.column_matches(tile, cx, cy, cz, dx, dy, out_row);
            group.matches.insert(group.matches.end(), column.begin(), column.end());
          }
        }
        groups.push_back(std::move(group));
      }
    }
  }
  return groups;
}

void Sdmu::simulate_tile(const EncodedTile& tile, int cc_cycles_per_match,
                         SdmuResult& out) const {
  ESCA_REQUIRE(cc_cycles_per_match >= 1, "cc_cycles_per_match must be >= 1");
  const int read_cycles = config_.mask_read_cycles;
  const auto fifo_depth = static_cast<std::size_t>(config_.fifo_depth);
  const std::int64_t scan_total = tile.core_size().volume();

  out.matches.clear();
  out.groups.clear();
  out.columns.assign(static_cast<std::size_t>(config_.k2()), SdmuColumn{});
  out.stats = SdmuStats{};
  SdmuStats& st = out.stats;
  st.srf_total = scan_total;

  // --- read + judge ------------------------------------------------------------
  std::int64_t scan_index = 0;  // next SRF to judge
  int read_countdown = read_cycles;
  bool scan_done = (scan_total == 0);
  bool judged_ready = false;    // an SRF sits in the judge->generate latch
  Coord3 judged_pos{};
  std::int64_t next_active = -1;  // cached next_active_center(scan_index)

  // --- MUX + CC: the groups queue is out.groups[front_group ..] ---------------
  std::int64_t cc_busy = 0;
  std::size_t consumed = 0;     // matches the CC has taken from out.matches
  std::size_t front_group = 0;  // first group not fully consumed
  std::size_t fifo_high_water = 0;

  const std::int64_t safety_limit =
      16 * (scan_total + 8) * (read_cycles + config_.k3()) * cc_cycles_per_match + 1024;
  const auto work_left = [&] {
    return !scan_done || judged_ready || consumed < out.matches.size();
  };
  const auto generate_has_room = [&] {
    return out.groups.size() - front_group < fifo_depth &&
           std::all_of(out.columns.begin(), out.columns.end(), [](const SdmuColumn& c) {
             return c.queued < SdmuColumn::kFragmentQueueDepth;
           });
  };

  while (work_left()) {
    // --- closed-form skip ----------------------------------------------------
    // While no fetch engine can push and generate cannot fire, a cycle only
    // decrements cc_busy, advances the mask read over inactive SRFs and adds
    // stall counts. That lasts until the CC takes its next match (cycle
    // cc_busy + 1, if a group is queued) or the judge meets the next active
    // center (cycle read_countdown + inactive * read_cycles); with no active
    // center left, the last judgement ends the scan. So an idle pipeline
    // jumps to its next active center, and a frozen one over the CC's busy
    // cycles.
    bool fetch_can_push = false;
    std::int64_t blocked_columns = 0;  // fetch engines facing a full FIFO
    for (const SdmuColumn& column : out.columns) {
      if (column.queued == 0) continue;
      if (static_cast<std::size_t>(column.fifo) < fifo_depth) {
        fetch_can_push = true;
      } else {
        ++blocked_columns;
      }
    }
    if (!fetch_can_push && !(judged_ready && generate_has_room())) {
      std::int64_t quiet = std::numeric_limits<std::int64_t>::max();
      if (front_group < out.groups.size()) quiet = cc_busy;
      if (!judged_ready && !scan_done) {
        if (next_active < scan_index) next_active = next_active_center(tile, scan_index);
        const std::int64_t inactive = next_active - scan_index;
        quiet = std::min(quiet, next_active < scan_total
                                    ? read_countdown + inactive * read_cycles - 1
                                    : read_countdown + (inactive - 1) * read_cycles);
      }
      if (quiet > 0 && quiet < std::numeric_limits<std::int64_t>::max()) {
        st.cycles += quiet;
        cc_busy = std::max<std::int64_t>(0, cc_busy - quiet);
        st.fetch_stall_cycles += quiet * blocked_columns;
        if (judged_ready) {
          st.scan_stall_cycles += quiet;
        } else if (!scan_done) {
          if (quiet >= read_countdown) {
            const std::int64_t after_first = quiet - read_countdown;
            const std::int64_t skipped = 1 + after_first / read_cycles;
            read_countdown = read_cycles - static_cast<int>(after_first % read_cycles);
            st.srf_skipped += skipped;
            scan_index += skipped;
            scan_done = scan_index >= scan_total;
          } else {
            read_countdown -= static_cast<int>(quiet);
          }
        }
        if (!work_left()) break;
      }
    }

    // --- one cycle of the four-stage pipeline ---------------------------------
    ESCA_CHECK(st.cycles < safety_limit, "SDMU simulation did not converge (deadlock?)");
    ++st.cycles;

    // 1) MUX + CC consumption (group by group, column order within a group).
    if (cc_busy > 0) {
      --cc_busy;
    } else if (front_group < out.groups.size()) {
      const Match& next = out.matches[consumed];
      SdmuColumn& column = out.columns[static_cast<std::size_t>(next.column)];
      if (column.fifo > 0) {
        --column.fifo;
        ++consumed;
        ++st.matches;
        cc_busy = cc_cycles_per_match - 1;
        if (consumed == static_cast<std::size_t>(out.groups[front_group].end)) ++front_group;
      } else {
        ++st.mux_idle_cycles;
      }
    }

    // 2) Fetch engines: one activation per column per cycle.
    for (SdmuColumn& column : out.columns) {
      if (column.queued == 0) continue;
      if (static_cast<std::size_t>(column.fifo) < fifo_depth) {
        ++column.fifo;
        fifo_high_water = std::max(fifo_high_water, static_cast<std::size_t>(column.fifo));
        if (--column.fragments[0] == 0) {
          column.fragments[0] = column.fragments[1];
          --column.queued;
        }
      } else {
        ++st.fetch_stall_cycles;
      }
    }

    // 3) Generate stage: expand the judged SRF into fragments + a group.
    if (judged_ready) {
      if (generate_has_room()) {
        generate_group(tile, judged_pos, config_.kernel_size, out);
        judged_ready = false;
      } else {
        ++st.scan_stall_cycles;
      }
    }

    // 4) Read + judge: one SRF every mask_read_cycles cycles unless the
    //    judge->generate latch is occupied (backpressure).
    if (!scan_done && !judged_ready) {
      if (read_countdown > 1) {
        --read_countdown;
      } else {
        const Coord3 pos = scan_position(tile, scan_index);
        ++scan_index;
        scan_done = scan_index >= scan_total;
        read_countdown = read_cycles;
        if (MaskJudger::judge(tile, pos.x, pos.y, pos.z) == SrfState::kActive) {
          judged_ready = true;
          judged_pos = pos;
          ++st.srf_active;
        } else {
          ++st.srf_skipped;
        }
      }
    }
  }

  st.cycles += config_.pipeline_fill_cycles;
  st.fifo_high_water = fifo_high_water;
  ESCA_CHECK(std::all_of(out.columns.begin(), out.columns.end(),
                         [](const SdmuColumn& c) { return c.queued == 0 && c.fifo == 0; }),
             "SDMU queues not drained at end of tile");
}

}  // namespace esca::core
