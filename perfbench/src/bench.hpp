// Shared plumbing of the end-to-end benchmark: command-line arguments, the
// result line, timing and order statistics. See perfbench/README.md for the
// workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// A correctness check that did not hold. The benchmark exits nonzero and
/// prints no result line when one escapes a workload.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The last line of the benchmark's standard output.
struct Result {
  bool correct{true};
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::map<std::string, std::pair<double, std::string>> metrics;  ///< name -> (value, unit)

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  std::string json() const;
};

/// Median of `values` (throws on an empty sample).
double median(std::vector<double> values);

/// Linear-interpolated percentile `pct` (0..100) of `values`.
double percentile(std::vector<double> values, double pct);

/// The tail percentile a workload reports: `pct` of `values`, which must
/// leave at least `kTailBeyond` samples strictly above it (throws when the
/// sample is too small — the workload's minimum sample count is wrong).
inline constexpr std::size_t kTailBeyond = 10;
double tail(const std::vector<double>& values, double pct);

/// The smallest sample size for which `pct` leaves kTailBeyond samples beyond.
std::size_t min_samples_for_tail(double pct);

/// Peak resident set size of this process so far, in MB (2^20 bytes).
double peak_rss_mb();

/// splitmix64 of (seed, stream, index): independent per-input seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

/// setup_s: the median of 5 calls of `setup`, each a cold in-process set-up
/// returning its own wall seconds. The last set-up's state is what the
/// caller keeps.
template <typename F>
double median_setup(F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) times.push_back(setup());
  return median(times);
}

/// Workload entry points (one process runs one workload).
Result run_lidar_cpu(const Args& args);
Result run_indoor_esca(const Args& args);
Result run_sensor_serve(const Args& args);

}  // namespace perfbench
