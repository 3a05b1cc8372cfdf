// Copyright (c) 2026 The tsq Authors.
//
// perfbench_reference — the one-off reference figures quoted in
// perfbench/README.md: tsqd's SELFJOIN path (Database::ParallelSelfJoin,
// the tree-match join) against Table 1's per-record index joins
// (SelfJoin with kIndexPlain, method c, and kIndexTransformed, method d)
// over random walks. Each row is after a warm-up join, and reports median
// times over three repeats in alternating order. Not part of a benchmark
// run.
//
//   perfbench_reference [--seed <n>]   (joins run on min(nproc, 4) threads)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>
#include <thread>

#include "common/stopwatch.h"
#include "tsq.h"

namespace {

std::unique_ptr<tsq::Database> Build(const std::string& dir, uint64_t seed,
                                     size_t n) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  tsq::DatabaseOptions options;
  options.directory = dir;
  options.durability = tsq::Durability::kNone;
  auto db = tsq::Database::Create(options).value();
  std::vector<std::string> names;
  std::vector<tsq::RealVec> values;
  for (const auto& s : tsq::workload::MakeRandomWalkDataset(seed, n, 128)) {
    names.push_back(s.name());
    values.push_back(s.values());
  }
  TSQ_CHECK(db->InsertBatch(names, values).ok());
  TSQ_CHECK(db->BuildIndex().ok());
  return db;
}

// Times both joins kReps times, alternating which runs first, and prints
// their median times and the median of the per-repeat ratios.
constexpr int kReps = 3;

void Row(tsq::Database* db, size_t n, double eps, const char* tname,
         const std::optional<tsq::FeatureTransform>& t,
         tsq::JoinMethod per_record, const char* per_record_name,
         size_t threads) {
  std::vector<double> tree_s;
  std::vector<double> index_s;
  std::vector<double> ratio;
  tsq::QueryStats stats;
  size_t pairs = 0;
  auto run_tree = [&] {
    stats = tsq::QueryStats();
    tsq::Stopwatch w;
    auto tree = db->ParallelSelfJoin(eps, t, threads, &stats);
    tree_s.push_back(w.ElapsedSeconds());
    TSQ_CHECK(tree.ok());
    pairs = tree->size();
  };
  auto run_index = [&] {
    tsq::Stopwatch w;
    auto index = db->SelfJoin(eps, per_record, t);
    index_s.push_back(w.ElapsedSeconds());
    TSQ_CHECK(index.ok());
  };
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep % 2 == 0) {
      run_tree();
      run_index();
    } else {
      run_index();
      run_tree();
    }
    ratio.push_back(tree_s.back() / index_s.back());
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::printf(
      "| %5zu | %-6s | %4.2f | %8.3f | %8llu | %-3s %8.3f | %6.1fx | %5zu "
      "|\n",
      n, tname, eps, median(tree_s),
      static_cast<unsigned long long>(stats.nodes_visited), per_record_name,
      median(index_s), median(ratio), pairs);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  const size_t threads =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  if (argc == 3 && std::string(argv[1]) == "--seed") {
    seed = std::strtoull(argv[2], nullptr, 10);
  }
  const std::string dir = ".bench_build/perfbench-reference";
  const auto mavg20 = tsq::FeatureTransform::Spectral(
      tsq::transforms::MovingAverage(128, 20));
  std::printf(
      "| series | transform | eps | tree-match s | tree nodes | per-record s "
      "| tree/per-record | pairs |\n|---|---|---|---|---|---|---|---|\n");
  for (size_t n : {3000, 6000}) {
    auto db = Build(dir, seed, n);
    // Warm-up: the first join also builds the join engine and faults in
    // the relation.
    TSQ_CHECK(db->ParallelSelfJoin(0.1, std::nullopt, threads).ok());
    TSQ_CHECK(
        db->SelfJoin(0.1, tsq::JoinMethod::kIndexPlain, std::nullopt).ok());
    for (double eps : {0.1, 0.2, 0.3}) {
      Row(db.get(), n, eps, "none", std::nullopt,
          tsq::JoinMethod::kIndexPlain, "(c)", threads);
    }
    Row(db.get(), n, 0.1, "mavg20", mavg20,
        tsq::JoinMethod::kIndexTransformed, "(d)", threads);
  }
  std::filesystem::remove_all(dir);
  return 0;
}
