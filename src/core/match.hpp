// Match and match-group types (paper §III.C, Fig. 5).
//
// A match pairs one nonzero activation with the kernel weight it meets for a
// given center; a match group is all matches of one SRF (one output site).
#pragma once

#include <cstdint>
#include <vector>

namespace esca::core {

struct Match {
  std::int32_t in_row;        ///< activation row in the layer input tensor
  std::int16_t weight_index;  ///< kernel offset index, 0 .. K^3-1
  std::int16_t column;        ///< decoder column (0 .. K^2-1) that produced it
  std::int32_t out_row;       ///< output site row (the SRF center)

  friend bool operator==(const Match&, const Match&) = default;
};

struct MatchGroup {
  std::int32_t out_row;
  std::vector<Match> matches;
};

/// A match group as a window [begin, end) of a flat match stream.
struct GroupSpan {
  std::int32_t out_row;
  std::int32_t begin;
  std::int32_t end;

  std::int32_t size() const { return end - begin; }
  friend bool operator==(const GroupSpan&, const GroupSpan&) = default;
};

}  // namespace esca::core
