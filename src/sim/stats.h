// Statistics primitives shared by the traffic accounting and the benches.
#pragma once

#include <cstdint>
#include <limits>

namespace poolnet::sim {

/// Streaming mean / variance / min / max (Welford).
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Recall against a ground-truth oracle, for runs where nodes die mid-run
/// and answers may degrade. Tracks both the per-query recall distribution
/// and the event-weighted aggregate (total returned / total expected).
class RecallStat {
 public:
  /// Records one query: `returned` results out of `expected` oracle
  /// results. An empty-oracle query counts as perfect recall.
  void add(std::uint64_t returned, std::uint64_t expected) {
    returned_ += returned;
    expected_ += expected;
    per_query_.add(expected == 0
                       ? 1.0
                       : static_cast<double>(returned) /
                             static_cast<double>(expected));
  }

  void merge(const RecallStat& other) {
    returned_ += other.returned_;
    expected_ += other.expected_;
    per_query_.merge(other.per_query_);
  }

  /// Event-weighted recall over every query recorded (1 when nothing
  /// was expected).
  double weighted() const {
    return expected_ == 0 ? 1.0
                          : static_cast<double>(returned_) /
                                static_cast<double>(expected_);
  }

  std::uint64_t returned() const { return returned_; }
  std::uint64_t expected() const { return expected_; }
  const RunningStat& per_query() const { return per_query_; }

 private:
  std::uint64_t returned_ = 0;
  std::uint64_t expected_ = 0;
  RunningStat per_query_;
};

}  // namespace poolnet::sim
