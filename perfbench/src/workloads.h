// Copyright (c) 2026 The tsq Authors.
//
// The benchmark's workloads. Each builds its inputs from the seed, sets up
// the database (several times, reporting the median), runs an untimed
// warm-up pass whose per-query work counts form the run's fingerprint,
// measures closed-loop operations, and finally checks answers against the
// time-domain oracle (oracle.h) outside the timed region.
//
//   range_large    in-process range queries over ~100k x 128 random walks,
//                  an index larger than the 1024-frame buffer pool; the
//                  bulk operation, timed after them, is the sequential scan
//   knn_join       in-process exact kNN-10 over ~12k x 128 random walks
//                  (an index that fits the pool); the bulk operation,
//                  interleaved, is Table 1's self-join through
//                  ParallelSelfJoin over eight 1067-series stock markets
//   ingest_served  tsqd on loopback inside this process: one connection
//                  streams InsertBatch frames and a REINDEX every ten,
//                  for a fixed number of rounds per requested second,
//                  while a second runs range queries
//
// With trace == false a run reports the end-to-end metrics; with
// trace == true it arms obs::ArmTracing() and reports the per-layer ones
// (README.md lists both and what each should move).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed phase (ingest_served: 1.2 rounds per second).
  double seconds = 10.0;
  bool trace = false;
  /// Input-size multiplier; the self-test runs every workload at a
  /// fraction of full scale.
  double scale = 1.0;
  /// Directory for the database files; created and removed by the run.
  std::string scratch;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Never throws; setup failures and wrong answers are
/// reported through RunResult::correct / failed / faults.
RunResult RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
