// Descriptive statistics: streaming moments, weighted empirical CDFs, and
// fixed-width interval aggregation.
//
// These are the workhorses behind every table and figure reproduction: the
// paper reports means with standard deviations (table 2), cumulative
// distributions weighted by file count or bytes (figures 1-5, 11-14), and
// per-interval aggregates at several granularities (figure 8, table 2).

#ifndef SRC_STATS_DESCRIPTIVE_H_
#define SRC_STATS_DESCRIPTIVE_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ntrace {

// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void Add(double x);
  void Add(double x, double weight);

  int64_t count() const { return count_; }
  double total_weight() const { return total_weight_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;  // Population variance of the weighted sample.
  double stddev() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

  // Merge another accumulator into this one.
  void Merge(const StreamingStats& other);

 private:
  int64_t count_ = 0;
  double total_weight_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Stable LSD radix sort of (value, weight) pairs by value, over the
// order-preserving u64 key of the IEEE double (negatives bit-inverted, the
// sign bit of non-negatives flipped). The key order matches operator< on
// NaN-free data, with -0.0 ordered just before +0.0. Uniform key bytes skip
// their pass, so near-sorted or narrow-range data pays far fewer than eight
// scatter passes. Exposed for the parity test against std::stable_sort.
void SortSamplesByValue(std::vector<std::pair<double, double>>* samples);

// An exact weighted empirical CDF built from retained samples. Memory is
// O(samples) while accumulating and O(distinct values) once finalized:
// Finalize() radix-sorts and coalesces equal values, summing their weights
// (scan weights are counts or integer byte totals, so the sums are exact
// under any grouping and every query result is unchanged). For out-of-core
// scans, SpillTo() bounds accumulation memory too: sorted, pre-coalesced
// sample runs overflow to a temp file and Finalize() streams an external
// merge over them, byte-identical to the in-memory path.
class WeightedCdf {
 public:
  // Default spill granularity: 1M samples = 16 MiB of resident pairs.
  static constexpr size_t kDefaultSpillChunk = size_t{1} << 20;

  WeightedCdf();
  ~WeightedCdf();
  // Copies are for small resident CDFs (analyses combine a few by hand);
  // a CDF holding spilled runs is not copyable.
  WeightedCdf(const WeightedCdf& other);
  WeightedCdf& operator=(const WeightedCdf& other);
  WeightedCdf(WeightedCdf&&) noexcept;
  WeightedCdf& operator=(WeightedCdf&&) noexcept;

  // Inline: the batch scan appends up to four samples per trace record, and
  // an out-of-line call per append costs as much as the append itself.
  void Add(double value, double weight = 1.0) {
    assert(weight >= 0.0);
    samples_.emplace_back(value, weight);
    total_weight_ += weight;
    ++count_;
    finalized_ = false;
    if (spill_ != nullptr && samples_.size() >= spill_chunk_) {
      SpillChunk();
    }
  }

  // Adds every resident sample of unfinalized `other`, as Add() would: a
  // scan folds chunks into small CDFs and appends them here in chunk order.
  // The finalized result equals adding the samples one by one because
  // Finalize coalesces by value and every scan weight is 1 or an integer
  // byte count below 2^53, so each weight sum is exact in any grouping.
  void Append(const WeightedCdf& other);

  // Drops every sample, keeping the sample buffer's capacity (a chunk's
  // CDFs are reused from chunk to chunk). Not for a CDF that spills.
  void Clear();

  // Enables bounded-memory accumulation: every chunk_samples appends, the
  // resident samples sort, coalesce and overflow to `path` as one run (the
  // file is created lazily; if it cannot be, accumulation silently stays
  // in memory). Call before the first Add. Finalize() removes the file.
  void SpillTo(std::string path, size_t chunk_samples = kDefaultSpillChunk);

  // Must be called after all Add()s and before queries; sorts samples by
  // value and coalesces equal values (external-merging spilled runs).
  void Finalize();

  bool empty() const { return count_ == 0; }
  // Resident (post-Finalize: distinct-value) sample entries.
  size_t size() const { return samples_.size(); }
  // Number of Add() calls -- the sample count before coalescing.
  uint64_t count() const { return count_; }
  double total_weight() const { return total_weight_; }

  // Fraction of weight with value <= x. Requires Finalize().
  double Fraction(double x) const;
  // Smallest sample value v with Fraction(v) >= p. Requires Finalize().
  double Percentile(double p) const;

  // The underlying sorted values (post-Finalize) for tail analysis.
  const std::vector<std::pair<double, double>>& samples() const { return samples_; }

 private:
  struct Spill;

  void SpillChunk();
  void MergeSpilledRuns();

  std::vector<std::pair<double, double>> samples_;  // (value, weight).
  std::vector<double> cum_;                         // Cumulative weights, post-Finalize.
  std::unique_ptr<Spill> spill_;
  double total_weight_ = 0.0;
  uint64_t count_ = 0;
  size_t spill_chunk_ = kDefaultSpillChunk;
  bool finalized_ = false;
};

// Counts events into fixed-width time intervals; used for the figure-8
// arrival-rate views (1 s / 10 s / 100 s) and the table-2 activity intervals.
class IntervalSeries {
 public:
  explicit IntervalSeries(double interval_seconds);

  void AddEvent(double t_seconds, double weight = 1.0);

  // Number of intervals from 0 through the last event.
  size_t NumIntervals() const;
  double CountAt(size_t interval) const;
  double interval_seconds() const { return interval_seconds_; }

  // Per-interval counts as a dense vector (zero-filled gaps included).
  std::vector<double> Dense() const;

 private:
  double interval_seconds_;
  std::vector<double> counts_;
  size_t max_interval_ = 0;
  bool any_ = false;
};

// Pearson correlation of paired samples. Returns 0 when degenerate.
double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y);

// Simple least-squares fit y = a + b*x; returns {a, b}. Requires >= 2 points.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit LeastSquares(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace ntrace

#endif  // SRC_STATS_DESCRIPTIVE_H_
