#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "common/json.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value after " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

std::string Result::json() const {
  using esca::json::Value;
  esca::json::Object out;
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.first)) throw std::logic_error("metric " + name + " is not finite");
    out[name] = Value::make_object(
        {{"value", Value::make_number(metric.first)}, {"unit", Value::make_string(metric.second)}});
  }
  return Value::make_object({{"correct", Value::make_bool(correct)},
                             {"attempted", Value::make_number(static_cast<double>(attempted))},
                             {"failed", Value::make_number(static_cast<double>(failed))},
                             {"metrics", Value::make_object(std::move(out))}})
      .dump();
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) throw std::logic_error("percentile of an empty sample");
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double tail(const std::vector<double>& values, double pct) {
  const double value = percentile(values, pct);
  const auto beyond = static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > value; }));
  if (beyond < kTailBeyond) {
    throw std::logic_error("p" + std::to_string(pct) + " of " + std::to_string(values.size()) +
                           " samples leaves only " + std::to_string(beyond) + " beyond it");
  }
  return value;
}

std::size_t min_samples_for_tail(double pct) {
  // n samples leave floor((1 - pct) * (n - 1)) ranks strictly above the
  // interpolated percentile; grow n until that is kTailBeyond.
  std::size_t n = kTailBeyond + 1;
  while (static_cast<std::size_t>(std::floor((1.0 - pct / 100.0) *
                                             static_cast<double>(n - 1) + 1e-9)) <
         kTailBeyond) {
    ++n;
  }
  return n;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL + index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
