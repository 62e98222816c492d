#include "core/computing_core.hpp"

namespace esca::core {

ComputingCore::ComputingCore(const ArchConfig& config, int in_channels, int out_channels)
    : cycles_per_match_(config.cycles_per_match(in_channels, out_channels)),
      macs_per_match_(static_cast<std::int64_t>(in_channels) * out_channels) {}

GroupComputeResult ComputingCore::time_group(std::int64_t matches) const {
  return {matches * cycles_per_match_, matches * macs_per_match_};
}

}  // namespace esca::core
