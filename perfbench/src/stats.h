// Copyright (c) 2026 The tsq Authors.
//
// Sample summaries and the result record the benchmark prints.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (0 < p <= 100) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// Number of samples strictly beyond the nearest-rank p-th percentile:
/// a tail percentile is reported only when this is at least ten.
size_t SamplesBeyond(size_t count, double p);

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of a workload produced.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Exact per-query work counts of the deterministic (untimed) query
  /// pass, one row per query; they must repeat run to run for a seed.
  std::vector<std::vector<uint64_t>> work;
  /// Correctness faults found by the oracle or the property checks.
  std::vector<std::string> faults;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check (empty `fault` means the check passed).
  void Check(const std::string& fault);
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string ResultJson(const RunResult& result);
/// {"rows": N, "work": [[...], ...]}
std::string WorkJson(const RunResult& result);

/// Resident set size of this process in MiB (VmRSS).
double ResidentMib();
/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMib();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
