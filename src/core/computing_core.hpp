// Computing core timing (paper §III.D, Fig. 8): a (m+1) x (n+1) MAC array
// plus an accumulator.
//
// Each cycle one match enters the array: the activations of ic_parallel
// input channels are broadcast to all oc_parallel computing units; unit m
// accumulates the partial sum of output channel m. Channel dimensions wider
// than the array are tiled by the loop structure of Fig. 8(a):
//   for match k in group: for N step ic_parallel: for M step oc_parallel.
// so a match occupies the array for ArchConfig::cycles_per_match cycles and
// performs Cin x Cout MACs.
//
// This model computes that timing only. The arithmetic itself (INT16 x INT8
// products, 64-bit accumulation, the shared quant::requantize) is
// sparse::ComputeEngine's, reached through quant::QuantizedSubConv::forward —
// the one numerics path every backend shares.
#pragma once

#include <cstdint>

#include "core/arch_config.hpp"

namespace esca::core {

struct GroupComputeResult {
  std::int64_t cycles{0};
  std::int64_t mac_ops{0};  ///< effective MACs performed (matches x Cin x Cout)
};

class ComputingCore {
 public:
  /// Timing of the array for one layer's channel shape.
  ComputingCore(const ArchConfig& config, int in_channels, int out_channels);

  int cycles_per_match() const { return cycles_per_match_; }

  /// Array-occupied cycles and effective MACs of a match group of `matches`.
  GroupComputeResult time_group(std::int64_t matches) const;

 private:
  int cycles_per_match_;
  std::int64_t macs_per_match_;
};

}  // namespace esca::core
