// Copyright (c) 2026 The tsq Authors.

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(p / 100.0 * n);
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

size_t SamplesBeyond(size_t count, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(count));
  return count - std::min(count, static_cast<size_t>(rank));
}

void RunResult::Check(const std::string& fault) {
  if (fault.empty()) return;
  correct = false;
  if (faults.size() < 20) faults.push_back(fault);
}

std::string ResultJson(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string WorkJson(const RunResult& result) {
  std::ostringstream out;
  out << "{\"rows\": " << result.work.size() << ", \"work\": [";
  for (size_t i = 0; i < result.work.size(); ++i) {
    out << (i == 0 ? "[" : ", [");
    for (size_t j = 0; j < result.work[i].size(); ++j) {
      out << (j == 0 ? "" : ", ") << result.work[i][j];
    }
    out << "]";
  }
  out << "]}";
  return out.str();
}

namespace {

// A "<key>: <n> kB" line of /proc/self/status, in MiB.
double StatusMib(const char* key) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

double ResidentMib() { return StatusMib("VmRSS"); }
double PeakRssMib() { return StatusMib("VmHWM"); }

}  // namespace perfbench
