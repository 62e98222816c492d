// Per-span self times from the obs tracer's recorded events.
#pragma once

#include <map>
#include <string>

namespace perfbench {

struct TraceSummary {
  /// Span name -> summed self time in seconds: each span's duration minus
  /// the part covered by its child spans on the same thread.
  std::map<std::string, double> self_seconds;
  /// runtime.layer span durations summed per "layer" arg (plan layer index).
  std::map<long long, double> layer_seconds;
  std::size_t events{0};
};

/// Summarize everything obs::TraceSession has recorded so far (call at a
/// quiescent point: no spans open on any thread).
TraceSummary summarize_trace();

}  // namespace perfbench
