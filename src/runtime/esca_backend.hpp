// ESCA backend: the cycle-level simulator (core::Accelerator) behind the
// runtime::Backend interface. This is the accelerator the paper builds —
// zero removing, tile encoding, SDMU matching, 16x16 MAC array — with full
// cycle/traffic statistics and an on-chip weight buffer, so batched frames
// after the first skip the weight DRAM transfer. The simulator computes
// timing only: each layer's output comes from this backend's
// sparse::ComputeEngine over the Plan-cached rulebook, the same numerics
// path the CPU backend runs, so RunOptions::verify is a self-check here.
#pragma once

#include "core/accelerator.hpp"
#include "runtime/backend.hpp"

namespace esca::runtime {

class EscaBackend final : public Backend {
 public:
  explicit EscaBackend(core::ArchConfig config);

  std::string name() const override { return "esca"; }

  const core::Accelerator& accelerator() const { return accelerator_; }
  const sim::EnergyMeter* energy_meter() const override { return &accelerator_.energy(); }

 protected:
  FrameReport execute_frame(const Plan& plan, const std::string& frame_id,
                            const RunOptions& options, bool weights_resident) override;
  bool supports_weight_residency() const override { return true; }

 private:
  core::Accelerator accelerator_;
};

}  // namespace esca::runtime
