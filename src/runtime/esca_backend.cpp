#include "runtime/esca_backend.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace esca::runtime {

EscaBackend::EscaBackend(core::ArchConfig config) : accelerator_(std::move(config)) {}

FrameReport EscaBackend::execute_frame(const Plan& plan, const std::string& frame_id,
                                       const RunOptions& options, bool weights_resident) {
  FrameReport report;
  report.frame_id = frame_id;
  report.weights_resident = weights_resident;
  core::RunOptions hw_options;
  hw_options.weights_resident = weights_resident;
  int layer_index = 0;
  for (const core::CompiledLayer& cl : plan.network.layers) {
    // Plan-cached geometry: the rulebook and site tensor were built once at
    // compile time; the output comes from this backend's compute engine,
    // exactly as on the CPU backend.
    hw_options.geometry = cl.geometry.get();
    obs::Span span("runtime.layer");
    span.arg("layer", layer_index++);
    core::LayerRunResult result =
        accelerator_.run_layer(cl.layer, cl.input, hw_options, &compute_engine());
    // Roofline verdict + DRAM traffic on the span: a Perfetto timeline shows
    // which layers the memory model calls memory-bound without cross-
    // referencing the report tables.
    span.arg("bound", result.stats.bound_verdict());
    span.arg("dram_bytes", result.stats.dram_bytes_in + result.stats.dram_bytes_out);
    if (options.verify) check_bit_exact(cl, result.output, name());
    report.stats.layers.push_back(std::move(result.stats));
    if (options.keep_outputs) report.outputs.push_back(std::move(result.output));
  }
  return report;
}

}  // namespace esca::runtime
