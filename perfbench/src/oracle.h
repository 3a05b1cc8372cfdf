// Copyright (c) 2026 The tsq Authors.
//
// The benchmark's answer oracle: a time-domain reference written apart
// from the library. It shares no code with tsq beyond the RealVec, Match
// and JoinPair value types: normal form, circular filtering and Euclidean
// distance are re-derived here from the paper's definitions and brute
// forced over the generated inputs.
//
//   normal form   x' = (x - mean(x)) / std(x)   (population std; a series
//                 whose std vanishes maps to all zeros)
//   filter        circular convolution y[t] = sum_i taps[i] x[(t-i) mod n],
//                 applied `repeat` times (a moving average of width w is
//                 w taps of 1/w; the identity is one tap of 1)
//   distance      D(x, q) = || F(x') - F(q') ||_2   (the transform applied
//                 to both sides, the library's TransformMode::kBoth)
//
// The Check* functions compare a library answer against the oracle's and
// return an empty string when it is right, or a one-line description of
// the first fault. They are pure so the benchmark's own test can feed
// them deliberately corrupted answers.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/queries.h"

namespace perfbench {

/// A circular FIR filter applied `repeat` times; repeat == 0 means "no
/// transform" (the library's empty QuerySpec::transform).
struct Filter {
  std::vector<double> taps;
  int repeat = 0;
};

/// One oracle answer: a series id and its exact distance.
struct Answer {
  uint64_t id = 0;
  double distance = 0.0;
};

/// An unordered join pair (first < second) with its distance.
struct Pair {
  uint64_t first = 0;
  uint64_t second = 0;
  double distance = 0.0;
};

/// Absolute slack for comparing a library distance with the oracle's:
/// the library computes in the frequency domain (Parseval), the oracle in
/// the time domain, so they agree to rounding, not bit for bit.
double DistanceTolerance(double distance);

/// The reference over one relation. Holds the normal forms of every
/// series (ids are positions in `data`).
class Oracle {
 public:
  explicit Oracle(const std::vector<tsq::RealVec>& data);

  size_t size() const { return normal_.size(); }

  /// Every series within `epsilon` (plus tolerance, so callers can tell a
  /// boundary case from a fault), ascending by distance then id.
  std::vector<Answer> Range(const tsq::RealVec& query, const Filter& filter,
                            double epsilon) const;

  /// The k smallest distances, ascending.
  std::vector<double> KnnDistances(const tsq::RealVec& query,
                                   const Filter& filter, size_t k) const;

  /// The exact distance of one stored series to `query`.
  double DistanceTo(uint64_t id, const tsq::RealVec& query,
                    const Filter& filter) const;

  /// Every unordered pair within `epsilon` (plus tolerance).
  std::vector<Pair> SelfJoin(const Filter& filter, double epsilon) const;

 private:
  std::vector<tsq::RealVec> normal_;
};

/// Normal form of one series (exported for the self-test).
tsq::RealVec NormalForm(const tsq::RealVec& x);

/// Applies `filter` to `x` (no-op when repeat == 0).
tsq::RealVec ApplyFilter(const tsq::RealVec& x, const Filter& filter);

/// Range answer check: every reported distance <= epsilon, matches the
/// oracle's distance for that id, no duplicate ids, no false dismissal
/// (every oracle answer clearly inside epsilon is reported) and no false
/// hit (every reported id is within epsilon by the oracle). `oracle` is
/// Oracle::Range's output for the same query.
std::string CheckRange(const std::vector<tsq::Match>& got,
                       const std::vector<Answer>& oracle, double epsilon);

/// kNN check: k answers (or every series when fewer), distances
/// ascending, each equal to the oracle's distance list position by
/// position, and each reported id's own oracle distance (`id_distances`,
/// parallel to `got`) equal to the reported one.
std::string CheckKnn(const std::vector<tsq::Match>& got,
                     const std::vector<double>& oracle_distances,
                     const std::vector<double>& id_distances);

/// Self-join check: the library reports ordered pairs, each unordered
/// pair exactly twice (both orders); their set must equal the oracle's
/// (boundary cases within tolerance excepted), every distance must be
/// <= epsilon and match the oracle's, and every pair in `planted` must be
/// present.
std::string CheckJoin(const std::vector<tsq::JoinPair>& got,
                      const std::vector<Pair>& oracle, double epsilon,
                      const std::vector<Pair>& planted);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
