// perfbench: the repository benchmark.
//
//   perfbench --workload svc-scale --seed 1 --seconds 10 --trace 0
//             [--pins perfbench/pins.txt] [--trace-out spans.json]
//
// Prints a host stamp, one line per fingerprint and headline figure, and as
// its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics.  A failed correctness gate prints the failures to
// stderr, no result, and exits 1.  Usage errors exit 2.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

using namespace perfbench;

void usage() {
  std::cerr << "usage: perfbench --workload "
               "svc-scale|svc-faults|rounds-1024|check-explore\n"
               "                 [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--pins FILE] [--trace-out FILE]\n";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--pins") {
      options.pins_path = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      usage();
      return 2;
    }
  }
  if (options.seconds <= 0) {
    usage();
    return 2;
  }

  using Workload = void (*)(const Options&, const Pins&, Result&);
  Workload workload = nullptr;
  if (options.workload == "svc-scale") workload = &run_svc_scale;
  if (options.workload == "svc-faults") workload = &run_svc_faults;
  if (options.workload == "rounds-1024") workload = &run_rounds_1024;
  if (options.workload == "check-explore") workload = &run_check_explore;
  if (workload == nullptr) {
    usage();
    return 2;
  }

  Pins pins;
  if (!options.pins_path.empty()) {
    std::string error;
    if (!pins.load(options.pins_path, &error)) {
      std::cerr << "perfbench: " << error << "\n";
      return 2;
    }
  }

  const double calibration = calibration_ms();
  std::cout << "host " << host_stamp_json(calibration) << "\n";
  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace "
            << (options.trace ? 1 : 0) << std::endl;

  Result result;
  workload(options, pins, result);
  if (options.trace) result.set("host.calibration_ms", calibration, "ms");

  for (const std::string& line : result.notes()) std::cout << line << "\n";
  std::cout.flush();
  if (!result.gate_failures().empty()) {
    for (const std::string& f : result.gate_failures()) {
      std::cerr << "perfbench: GATE FAILED: " << f << "\n";
    }
    return 1;
  }

  std::string metrics;
  for (const auto& [name, m] : result.metrics()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << "{\"correct\": true, \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return 0;
}
