// Copyright (c) 2026 The tsq Authors.
//
// The benchmark's own test.
//
//   1. Each correctness check rejects a deliberately corrupted answer: a
//      dropped match, a perturbed distance, a foreign id, a missing or
//      half-reported join pair, a missing planted pair.
//   2. Each workload runs end to end at reduced scale, untraced and
//      traced, answers correctly, fails no operation, reports every
//      metric, and repeats its per-query work counts exactly for a seed.
//
// Run through `python3 perfbench/run.py --self-test`. Exit code 0 when
// every case passes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "oracle.h"
#include "tsq.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void ExpectAccepts(const std::string& fault, const std::string& what) {
  Expect(fault.empty(), what + (fault.empty() ? "" : " (" + fault + ")"));
}

void ExpectRejects(const std::string& fault, const std::string& what) {
  Expect(!fault.empty(), what + (fault.empty() ? "" : " -> " + fault));
}

std::vector<tsq::RealVec> Walks(size_t n, uint64_t seed) {
  tsq::Rng rng(seed);
  std::vector<tsq::RealVec> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(tsq::workload::RandomWalkSeries(&rng, 128));
  }
  return out;
}

// Every series with its oracle distance to `q`, nearest first.
std::vector<tsq::Match> Ranked(const Oracle& oracle, const tsq::RealVec& q,
                               const Filter& f) {
  std::vector<tsq::Match> all;
  for (uint64_t id = 0; id < oracle.size(); ++id) {
    all.push_back({id, "", oracle.DistanceTo(id, q, f)});
  }
  std::sort(all.begin(), all.end(),
            [](const tsq::Match& a, const tsq::Match& b) {
              return a.distance < b.distance;
            });
  return all;
}

void RangeChecks(const Oracle& oracle, const tsq::RealVec& q,
                 const Filter& f, const std::string& label) {
  const std::vector<tsq::Match> ranked = Ranked(oracle, q, f);
  const double eps = 0.5 * (ranked[3].distance + ranked[4].distance);
  const std::vector<Answer> truth = oracle.Range(q, f, eps);
  std::vector<tsq::Match> good(ranked.begin(), ranked.begin() + 4);
  Expect(truth.size() == 4, label + ": oracle finds the four nearest");
  ExpectAccepts(CheckRange(good, truth, eps), label + ": exact answer");

  auto dropped = good;
  dropped.erase(dropped.begin() + 2);
  ExpectRejects(CheckRange(dropped, truth, eps), label + ": dropped match");
  auto perturbed = good;
  perturbed[1].distance *= 1.0 + 1e-6;
  ExpectRejects(CheckRange(perturbed, truth, eps),
                label + ": perturbed distance");
  auto foreign = good;
  foreign.push_back(ranked[10]);
  foreign.back().distance = eps * 0.99;
  ExpectRejects(CheckRange(foreign, truth, eps), label + ": foreign id");
  auto beyond = good;
  beyond.push_back(ranked[4]);
  ExpectRejects(CheckRange(beyond, truth, eps), label + ": beyond epsilon");
  auto twice = good;
  twice.push_back(good[0]);
  ExpectRejects(CheckRange(twice, truth, eps), label + ": duplicate id");
}

void KnnChecks(const Oracle& oracle, const tsq::RealVec& q, const Filter& f,
               const std::string& label) {
  const size_t k = 5;
  const std::vector<tsq::Match> ranked = Ranked(oracle, q, f);
  const std::vector<double> truth = oracle.KnnDistances(q, f, k);
  auto id_distances = [&](const std::vector<tsq::Match>& got) {
    std::vector<double> d;
    for (const tsq::Match& m : got) d.push_back(oracle.DistanceTo(m.id, q, f));
    return d;
  };
  std::vector<tsq::Match> good(ranked.begin(), ranked.begin() + k);
  ExpectAccepts(CheckKnn(good, truth, id_distances(good)),
                label + ": exact answer");

  auto perturbed = good;
  perturbed[2].distance *= 1.0 + 1e-6;
  ExpectRejects(CheckKnn(perturbed, truth, id_distances(perturbed)),
                label + ": perturbed distance");
  auto dropped = good;
  dropped.pop_back();
  ExpectRejects(CheckKnn(dropped, truth, id_distances(dropped)),
                label + ": dropped neighbour");
  auto swapped = good;
  std::swap(swapped[1], swapped[3]);
  ExpectRejects(CheckKnn(swapped, truth, id_distances(swapped)),
                label + ": ranks out of order");
  auto wrong_id = good;
  wrong_id[4].id = ranked[20].id;
  ExpectRejects(CheckKnn(wrong_id, truth, id_distances(wrong_id)),
                label + ": neighbour replaced by a farther id");
}

void JoinChecks() {
  std::vector<tsq::RealVec> data = Walks(120, 11);
  // A planted near-copy: series 1 follows series 0 closely.
  tsq::Rng rng(12);
  data[1] = data[0];
  for (double& v : data[1]) v += rng.Normal(0.0, 0.05);
  const Oracle oracle(data);
  const Filter mavg{std::vector<double>(20, 0.05), 1};
  const double planted_d = oracle.DistanceTo(1, data[0], mavg);
  // Wide enough for a few random pairs beside the planted one.
  std::vector<double> all;
  for (size_t a = 0; a < data.size(); ++a) {
    for (size_t b = a + 1; b < data.size(); ++b) {
      all.push_back(oracle.DistanceTo(b, data[a], mavg));
    }
  }
  std::sort(all.begin(), all.end());
  const double eps =
      std::max(1.05 * planted_d, 0.5 * (all[5] + all[6]));
  const std::vector<Pair> truth = oracle.SelfJoin(mavg, eps);
  const std::vector<Pair> planted = {{0, 1, planted_d}};
  Expect(truth.size() >= 3, "join: oracle finds several pairs");

  std::vector<tsq::JoinPair> good;
  for (const Pair& p : truth) {
    good.push_back({p.first, p.second, p.distance});
    good.push_back({p.second, p.first, p.distance});
  }
  ExpectAccepts(CheckJoin(good, truth, eps, planted), "join: exact answer");

  auto without = [&](uint64_t a, uint64_t b) {
    std::vector<tsq::JoinPair> out;
    for (const tsq::JoinPair& p : good) {
      if (std::minmax(p.first, p.second) != std::minmax(a, b)) {
        out.push_back(p);
      }
    }
    return out;
  };
  const Pair& other = truth[0].first == 0 && truth[0].second == 1
                          ? truth[1]
                          : truth[0];
  ExpectRejects(CheckJoin(without(other.first, other.second), truth, eps,
                          planted),
                "join: missing pair");
  ExpectRejects(CheckJoin(without(0, 1), truth, eps, planted),
                "join: missing planted pair");
  // The planted-pair check holds on its own: it rejects even when the
  // reference set lacks the pair too.
  std::vector<Pair> truth_without_planted;
  for (const Pair& p : truth) {
    if (!(p.first == 0 && p.second == 1)) truth_without_planted.push_back(p);
  }
  ExpectRejects(CheckJoin(without(0, 1), truth_without_planted, eps, planted),
                "join: planted pair absent from answer and reference");
  auto half = good;
  half.pop_back();
  ExpectRejects(CheckJoin(half, truth, eps, planted),
                "join: pair reported in one order only");
  auto perturbed = good;
  perturbed[0].distance *= 1.0 + 1e-6;
  perturbed[1].distance *= 1.0 + 1e-6;
  ExpectRejects(CheckJoin(perturbed, truth, eps, planted),
                "join: perturbed distance");
  auto extra = good;
  extra.push_back({5, 6, eps * 0.5});
  extra.push_back({6, 5, eps * 0.5});
  const bool five_six_is_answer = std::any_of(
      truth.begin(), truth.end(),
      [](const Pair& p) { return p.first == 5 && p.second == 6; });
  if (!five_six_is_answer) {
    ExpectRejects(CheckJoin(extra, truth, eps, planted),
                  "join: foreign pair");
  }
}

void OracleChecks() {
  const std::vector<tsq::RealVec> data = Walks(300, 5);
  const Oracle oracle(data);
  tsq::Rng rng(6);
  tsq::RealVec q = data[17];
  for (double& v : q) v += rng.Normal(0.0, 0.3);
  const Filter none{};
  const Filter mavg{std::vector<double>(20, 0.05), 1};
  RangeChecks(oracle, q, none, "range raw");
  RangeChecks(oracle, q, mavg, "range mavg20");
  KnnChecks(oracle, q, none, "knn raw");
  KnnChecks(oracle, q, mavg, "knn mavg20");
  JoinChecks();

  // The oracle's filter against the library's moving average.
  const tsq::RealVec nf = NormalForm(data[3]);
  const tsq::RealVec mine = ApplyFilter(nf, mavg);
  const tsq::RealVec lib = tsq::CircularMovingAverage(nf, 20);
  double max_diff = 0.0;
  for (size_t i = 0; i < mine.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(mine[i] - lib[i]));
  }
  Expect(max_diff < 1e-12, "oracle moving average matches the library's");
}

// The metric names one section of BENCHMARK.json lists ("end_to_end" or
// "per_layer"), read from the repository root the test runs in.
std::vector<std::string> DeclaredMetrics(const std::string& section) {
  std::ifstream in("BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  size_t at = all.find("\"" + section + "\"");
  const size_t end = section == "end_to_end" ? all.find("\"per_layer\"")
                                             : all.size();
  std::vector<std::string> names;
  const std::string key = "\"name\": \"";
  while (at != std::string::npos &&
         (at = all.find(key, at)) != std::string::npos && at < end) {
    at += key.size();
    names.push_back(all.substr(at, all.find('"', at) - at));
  }
  return names;
}

void WorkloadChecks() {
  const std::vector<std::string> declared[2] = {
      DeclaredMetrics("end_to_end"), DeclaredMetrics("per_layer")};
  Expect(!declared[0].empty() && !declared[1].empty(),
         "BENCHMARK.json lists end-to-end and per-layer metrics");
  for (const std::string& name : WorkloadNames()) {
    std::vector<std::vector<uint64_t>> first_work;
    for (int trace = 0; trace <= 1; ++trace) {
      Options options;
      options.workload = name;
      options.seed = 7;
      options.seconds = 1.0;
      options.trace = trace == 1;
      options.scale = 0.05;
      options.scratch = ".bench_build/perfbench-selftest";
      const RunResult r = RunWorkload(options);
      const std::string label =
          name + (trace == 1 ? " traced" : " untraced") + " at scale 0.05";
      for (const std::string& fault : r.faults) {
        std::printf("      fault: %s\n", fault.c_str());
      }
      Expect(r.correct && r.failed == 0 && r.attempted > 0,
             label + ": correct, no failed operation");
      std::vector<std::string> reported;
      for (const Metric& m : r.metrics) reported.push_back(m.name);
      Expect(reported == declared[trace],
             label + ": reports exactly the metrics BENCHMARK.json lists");
      if (trace == 0) {
        bool nonzero = true;
        for (const Metric& m : r.metrics) nonzero = nonzero && m.value > 0.0;
        Expect(nonzero, label + ": every end-to-end metric is non-zero");
        first_work = r.work;
      } else {
        Expect(!r.work.empty() && r.work == first_work,
               label + ": work counts repeat the untraced run's");
      }
    }
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::OracleChecks();
  perfbench::WorkloadChecks();
  std::printf("%s: %d failure(s)\n", perfbench::failures == 0 ? "PASS" : "FAIL",
              perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
