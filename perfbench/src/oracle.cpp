// Copyright (c) 2026 The tsq Authors.

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

namespace perfbench {
namespace {

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

unsigned long long U(uint64_t v) { return static_cast<unsigned long long>(v); }

double SquaredDistance(const tsq::RealVec& x, const tsq::RealVec& y) {
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    sum += d * d;
  }
  return sum;
}

// A distance clearly inside (negative) or outside (positive) epsilon, or
// within rounding of it (0).
int Side(double distance, double epsilon) {
  const double tol = DistanceTolerance(epsilon);
  if (distance < epsilon - tol) return -1;
  if (distance > epsilon + tol) return 1;
  return 0;
}

}  // namespace

double DistanceTolerance(double distance) {
  return 1e-9 * std::max(1.0, std::abs(distance));
}

tsq::RealVec NormalForm(const tsq::RealVec& x) {
  const size_t n = x.size();
  tsq::RealVec out(n, 0.0);
  if (n == 0) return out;
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : x) var += (v - mean) * (v - mean);
  const double std = std::sqrt(var / static_cast<double>(n));
  if (std <= 1e-12 * std::max(1.0, std::abs(mean))) return out;
  for (size_t i = 0; i < n; ++i) out[i] = (x[i] - mean) / std;
  return out;
}

tsq::RealVec ApplyFilter(const tsq::RealVec& x, const Filter& filter) {
  tsq::RealVec cur = x;
  const size_t n = x.size();
  for (int r = 0; r < filter.repeat; ++r) {
    tsq::RealVec next(n, 0.0);
    for (size_t t = 0; t < n; ++t) {
      double acc = 0.0;
      for (size_t i = 0; i < filter.taps.size(); ++i) {
        acc += filter.taps[i] * cur[(t + n - i % n) % n];
      }
      next[t] = acc;
    }
    cur = std::move(next);
  }
  return cur;
}

Oracle::Oracle(const std::vector<tsq::RealVec>& data) {
  normal_.reserve(data.size());
  for (const tsq::RealVec& x : data) normal_.push_back(NormalForm(x));
}

double Oracle::DistanceTo(uint64_t id, const tsq::RealVec& query,
                          const Filter& filter) const {
  tsq::RealVec diff = NormalForm(query);
  const tsq::RealVec& x = normal_[id];
  for (size_t i = 0; i < diff.size(); ++i) diff[i] = x[i] - diff[i];
  const tsq::RealVec f = ApplyFilter(diff, filter);
  double sum = 0.0;
  for (double v : f) sum += v * v;
  return std::sqrt(sum);
}

std::vector<Answer> Oracle::Range(const tsq::RealVec& query,
                                  const Filter& filter,
                                  double epsilon) const {
  // The filter is linear, so F(x') - F(q') = F(x' - q'): one filtering of
  // the difference per series instead of a filtered copy of the relation.
  const tsq::RealVec q = NormalForm(query);
  const double limit = epsilon + DistanceTolerance(epsilon);
  std::vector<Answer> out;
  tsq::RealVec diff(q.size());
  for (size_t id = 0; id < normal_.size(); ++id) {
    const tsq::RealVec& x = normal_[id];
    for (size_t i = 0; i < q.size(); ++i) diff[i] = x[i] - q[i];
    const tsq::RealVec f = ApplyFilter(diff, filter);
    double sum = 0.0;
    for (double v : f) sum += v * v;
    const double d = std::sqrt(sum);
    if (d <= limit) out.push_back({id, d});
  }
  std::sort(out.begin(), out.end(), [](const Answer& a, const Answer& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  });
  return out;
}

std::vector<double> Oracle::KnnDistances(const tsq::RealVec& query,
                                         const Filter& filter,
                                         size_t k) const {
  const tsq::RealVec q = NormalForm(query);
  std::vector<double> all;
  all.reserve(normal_.size());
  tsq::RealVec diff(q.size());
  for (const tsq::RealVec& x : normal_) {
    for (size_t i = 0; i < q.size(); ++i) diff[i] = x[i] - q[i];
    const tsq::RealVec f = ApplyFilter(diff, filter);
    double sum = 0.0;
    for (double v : f) sum += v * v;
    all.push_back(std::sqrt(sum));
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                    all.end());
  all.resize(k);
  return all;
}

std::vector<Pair> Oracle::SelfJoin(const Filter& filter,
                                   double epsilon) const {
  std::vector<tsq::RealVec> filtered;
  filtered.reserve(normal_.size());
  for (const tsq::RealVec& x : normal_) {
    filtered.push_back(ApplyFilter(x, filter));
  }
  const double limit = epsilon + DistanceTolerance(epsilon);
  std::vector<Pair> out;
  for (size_t a = 0; a < filtered.size(); ++a) {
    for (size_t b = a + 1; b < filtered.size(); ++b) {
      const double d = std::sqrt(SquaredDistance(filtered[a], filtered[b]));
      if (d <= limit) out.push_back({a, b, d});
    }
  }
  return out;
}

std::string CheckRange(const std::vector<tsq::Match>& got,
                       const std::vector<Answer>& oracle, double epsilon) {
  std::map<uint64_t, double> truth;
  for (const Answer& a : oracle) truth[a.id] = a.distance;
  std::set<uint64_t> seen;
  for (const tsq::Match& m : got) {
    if (!seen.insert(m.id).second) {
      return Format("range: id %llu reported twice", U(m.id));
    }
    if (m.distance > epsilon + DistanceTolerance(epsilon)) {
      return Format("range: id %llu reported at %.12g > epsilon %.12g",
                    U(m.id), m.distance, epsilon);
    }
    auto it = truth.find(m.id);
    if (it == truth.end()) {
      return Format("range: id %llu at %.12g is no answer (epsilon %.12g)",
                    U(m.id), m.distance, epsilon);
    }
    if (std::abs(it->second - m.distance) >
        DistanceTolerance(it->second)) {
      return Format("range: id %llu reported at %.12g, true distance %.12g",
                    U(m.id), m.distance, it->second);
    }
  }
  for (const Answer& a : oracle) {
    if (Side(a.distance, epsilon) < 0 && seen.count(a.id) == 0) {
      return Format("range: false dismissal of id %llu at %.12g (eps %.12g)",
                    U(a.id), a.distance, epsilon);
    }
  }
  return "";
}

std::string CheckKnn(const std::vector<tsq::Match>& got,
                     const std::vector<double>& oracle_distances,
                     const std::vector<double>& id_distances) {
  if (got.size() != oracle_distances.size()) {
    return Format("knn: %zu answers, oracle has %zu", got.size(),
                  oracle_distances.size());
  }
  std::set<uint64_t> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!seen.insert(got[i].id).second) {
      return Format("knn: id %llu reported twice", U(got[i].id));
    }
    if (i > 0 && got[i].distance < got[i - 1].distance) {
      return Format("knn: distances not ascending at rank %zu (%.12g < "
                    "%.12g)",
                    i, got[i].distance, got[i - 1].distance);
    }
    if (std::abs(got[i].distance - oracle_distances[i]) >
        DistanceTolerance(oracle_distances[i])) {
      return Format("knn: rank %zu reported %.12g, oracle %.12g", i,
                    got[i].distance, oracle_distances[i]);
    }
    if (std::abs(got[i].distance - id_distances[i]) >
        DistanceTolerance(id_distances[i])) {
      return Format("knn: id %llu reported %.12g, its distance is %.12g",
                    U(got[i].id), got[i].distance, id_distances[i]);
    }
  }
  return "";
}

std::string CheckJoin(const std::vector<tsq::JoinPair>& got,
                      const std::vector<Pair>& oracle, double epsilon,
                      const std::vector<Pair>& planted) {
  // Unordered pair -> (times reported, reported distance).
  std::map<std::pair<uint64_t, uint64_t>, std::pair<int, double>> reported;
  for (const tsq::JoinPair& p : got) {
    if (p.first == p.second) {
      return Format("join: self pair %llu", U(p.first));
    }
    if (p.distance > epsilon + DistanceTolerance(epsilon)) {
      return Format("join: pair with %llu at %.12g > epsilon %.12g",
                    U(p.first), p.distance, epsilon);
    }
    auto key = std::minmax(p.first, p.second);
    auto& slot = reported[{key.first, key.second}];
    slot.first += 1;
    slot.second = p.distance;
  }
  std::map<std::pair<uint64_t, uint64_t>, double> truth;
  for (const Pair& p : oracle) truth[{p.first, p.second}] = p.distance;
  for (const auto& [key, slot] : reported) {
    if (slot.first != 2) {
      return Format("join: pair (%llu, %llu) reported %d times, want 2",
                    U(key.first), U(key.second), slot.first);
    }
    auto it = truth.find(key);
    if (it == truth.end()) {
      return Format("join: pair (%llu, %llu) at %.12g is no answer",
                    U(key.first), U(key.second), slot.second);
    }
    if (std::abs(it->second - slot.second) >
        DistanceTolerance(it->second)) {
      return Format("join: pair (%llu, %llu) reported %.12g, true %.12g",
                    U(key.first), U(key.second), slot.second, it->second);
    }
  }
  for (const auto& [key, d] : truth) {
    if (Side(d, epsilon) < 0 && reported.count(key) == 0) {
      return Format("join: missing pair (%llu, %llu) at %.12g",
                    U(key.first), U(key.second), d);
    }
  }
  for (const Pair& p : planted) {
    if (reported.count({p.first, p.second}) == 0) {
      return Format("join: planted pair (%llu, %llu) not found",
                    U(p.first), U(p.second));
    }
  }
  return "";
}

}  // namespace perfbench
