// End-to-end benchmark entry point. One process runs one workload:
//
//   perfbench --workload <lidar_cpu|indoor_esca|sensor_serve> --seed <n>
//             --seconds <s> --trace <0|1>
//
// and prints, as its last line, {"correct", "attempted", "failed",
// "metrics"}: every end-to-end metric with --trace 0, every per-layer metric
// with --trace 1. A failed correctness check exits 2 without a result line;
// bad arguments or any other error exit 1.
#include <cstdio>
#include <exception>
#include <set>

#include "bench.hpp"
#include "common/check.hpp"
#include "metrics.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(google-build-using-namespace): main
  try {
    const Args args = parse_args(argc, argv);
    Result result;
    if (args.workload == "lidar_cpu") {
      result = run_lidar_cpu(args);
    } else if (args.workload == "indoor_esca") {
      result = run_indoor_esca(args);
    } else if (args.workload == "sensor_serve") {
      result = run_sensor_serve(args);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }

    // The printed metrics must be exactly the catalogue of this run's kind.
    std::set<std::string> expected;
    for (const MetricSpec& m : args.trace ? per_layer_metrics() : end_to_end_metrics()) {
      expected.insert(m.name);
      const auto it = result.metrics.find(m.name);
      if (it == result.metrics.end()) throw std::logic_error("metric " + m.name + " not measured");
      if (it->second.second != m.unit) {
        throw std::logic_error("metric " + m.name + " unit mismatch");
      }
    }
    for (const auto& [name, metric] : result.metrics) {
      if (expected.count(name) == 0) throw std::logic_error("metric " + name + " not catalogued");
    }
    std::printf("%s\n", result.json().c_str());
    return 0;
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n", e.what());
    return 2;
  } catch (const esca::InternalError& e) {
    // The library's own checks, e.g. RunOptions::verify's bit-exact compare.
    std::fprintf(stderr, "perfbench: correctness check failed in the library: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
