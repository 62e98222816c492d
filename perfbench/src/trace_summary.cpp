#include "trace_summary.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

struct OpenSpan {
  std::string name;
  double begin_us{0.0};
  double children_us{0.0};
  long long layer{-1};
};

}  // namespace

TraceSummary summarize_trace() {
  std::ostringstream os;
  esca::obs::TraceSession::write_json(os);
  esca::json::Value doc;
  std::string error;
  if (!esca::json::parse(os.str(), doc, error)) {
    throw std::runtime_error("trace JSON does not parse: " + error);
  }
  const esca::json::Value* events = doc.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("trace JSON has no traceEvents array");
  }

  TraceSummary summary;
  summary.events = events->array.size();
  // Events come grouped per thread, timestamp-ordered within a thread.
  std::map<long long, std::vector<OpenSpan>> stacks;
  for (const esca::json::Value& ev : events->array) {
    const std::string phase = ev.string_or("ph", "");
    const std::string name = ev.string_or("name", "");
    const double ts = ev.number_or("ts", 0.0);
    std::vector<OpenSpan>& stack = stacks[ev.int_or("tid", 0)];
    if (phase == "B") {
      OpenSpan span{name, ts, 0.0, -1};
      if (const esca::json::Value* args = ev.get("args")) span.layer = args->int_or("layer", -1);
      stack.push_back(std::move(span));
    } else if (phase == "E") {
      if (stack.empty() || stack.back().name != name) {
        throw std::runtime_error("trace: unbalanced end of span " + name);
      }
      const OpenSpan span = std::move(stack.back());
      stack.pop_back();
      const double duration = ts - span.begin_us;
      summary.self_seconds[span.name] += (duration - span.children_us) * 1e-6;
      if (span.name == "runtime.layer" && span.layer >= 0) {
        summary.layer_seconds[span.layer] += duration * 1e-6;
      }
      if (!stack.empty()) stack.back().children_us += duration;
    } else if (phase == "X") {
      // Retroactive intervals (queue waits) have no children.
      summary.self_seconds[name] += ev.number_or("dur", 0.0) * 1e-6;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) throw std::runtime_error("trace: span " + stack.back().name + " left open");
  }
  return summary;
}

}  // namespace perfbench
