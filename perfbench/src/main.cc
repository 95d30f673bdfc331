// Serving benchmark binary. Runs one workload for about --seconds of
// serving and prints one JSON line of raw samples for run.py to
// aggregate. Usage:
//   perfbench --workload chat_prefix|tenant_mix|classify_varlen
//             --seed N --seconds S --trace 0|1 [--rotate-ms R]
//             [--memory-probe 1]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

using namespace perfbench;

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value);
    } else if (key == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (key == "--memory-probe") {
      options.memory_probe = std::atoi(value) != 0;
    } else if (key == "--rotate-ms") {
      options.rotate_ms = std::atoi(value);
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  void (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "chat_prefix") run = run_chat_prefix;
  if (options.workload == "tenant_mix") run = run_tenant_mix;
  if (options.workload == "classify_varlen") run = run_classify_varlen;
  if (run == nullptr || options.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: bad --workload or --seconds\n");
    return 2;
  }

  Report report;
  {
    AffinityRotator rotator(options.rotate_ms);
    try {
      run(options, &report);
    } catch (const std::exception& e) {
      report.errors.push_back(std::string("exception: ") + e.what());
    }
  }
  print_report(options, report);
  return 0;
}
