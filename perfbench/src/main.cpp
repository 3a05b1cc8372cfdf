// Copyright (c) 2026 The tsq Authors.
//
// perfbench — runs one workload and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The line before
// it ("work {...}") carries the exact per-query work counts of the
// untimed pass, which must repeat run to run for one seed.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale <f>]
//
// Database files go to .bench_build/perfbench-scratch-<pid>/ under the
// working directory, which the run creates and removes.
//
// Exit code 0 when the run finished (correct or not), 2 on bad usage.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<range_large|knn_join|ingest_served> --seed <n> --seconds "
               "<s> --trace <0|1> [--scale <f>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.scratch =
      ".bench_build/perfbench-scratch-" + std::to_string(::getpid());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--scale") {
      options.scale = std::atof(value.c_str());
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown or missing --workload");
  if (options.seconds <= 0.0 || options.scale <= 0.0) {
    return Usage("--seconds and --scale must be positive");
  }

  const perfbench::RunResult result = perfbench::RunWorkload(options);
  for (const std::string& fault : result.faults) {
    std::fprintf(stderr, "perfbench: FAULT %s\n", fault.c_str());
  }
  std::printf("work %s\n", perfbench::WorkJson(result).c_str());
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
