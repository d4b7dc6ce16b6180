#include "src/stats/descriptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <queue>

namespace ntrace {

void StreamingStats::Add(double x) { Add(x, 1.0); }

void StreamingStats::Add(double x, double weight) {
  assert(weight >= 0.0);
  if (weight == 0.0) {
    return;
  }
  ++count_;
  total_weight_ += weight;
  sum_ += x * weight;
  const double delta = x - mean_;
  mean_ += delta * weight / total_weight_;
  m2_ += weight * delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double StreamingStats::variance() const {
  if (total_weight_ <= 0.0) {
    return 0.0;
  }
  return m2_ / total_weight_;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double w = total_weight_ + other.total_weight_;
  const double delta = other.mean_ - mean_;
  const double new_mean = mean_ + delta * other.total_weight_ / w;
  m2_ += other.m2_ + delta * delta * total_weight_ * other.total_weight_ / w;
  mean_ = new_mean;
  total_weight_ = w;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

// Order-preserving u64 key of an IEEE double: bit-invert negatives, flip the
// sign bit of non-negatives. Key order == operator< on NaN-free data, with
// -0.0 keyed just below +0.0.
inline uint64_t CdfKey(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits ^ ((bits >> 63) != 0 ? ~uint64_t{0} : (uint64_t{1} << 63));
}

// In-place coalesce of a value-sorted run: equal values (bitwise key
// equality) collapse to one entry whose weight is the group sum.
void CoalesceSorted(std::vector<std::pair<double, double>>* samples) {
  if (samples->size() < 2) {
    return;
  }
  auto& s = *samples;
  size_t out = 0;
  uint64_t out_key = CdfKey(s[0].first);
  for (size_t i = 1; i < s.size(); ++i) {
    const uint64_t k = CdfKey(s[i].first);
    if (k == out_key) {
      s[out].second += s[i].second;
    } else {
      ++out;
      s[out] = s[i];
      out_key = k;
    }
  }
  s.resize(out + 1);
}

}  // namespace

void SortSamplesByValue(std::vector<std::pair<double, double>>* samples) {
  auto& s = *samples;
  const size_t n = s.size();
  if (n < 2) {
    return;
  }
  // One pass builds all eight digit histograms; passes whose key byte is
  // uniform across the input are skipped (sorted ticks and narrow-range
  // sizes typically scatter in 2-4 of the 8 passes).
  size_t hist[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = CdfKey(s[i].first);
    for (int d = 0; d < 8; ++d) {
      ++hist[d][(k >> (8 * d)) & 0xFF];
    }
  }
  std::vector<std::pair<double, double>> scratch(n);
  auto* src = &s;
  auto* dst = &scratch;
  for (int d = 0; d < 8; ++d) {
    const size_t* h = hist[d];
    bool uniform = false;
    for (int b = 0; b < 256; ++b) {
      if (h[b] == n) {
        uniform = true;
        break;
      }
    }
    if (uniform) {
      continue;
    }
    size_t offs[256];
    size_t acc = 0;
    for (int b = 0; b < 256; ++b) {
      offs[b] = acc;
      acc += h[b];
    }
    const auto& in = *src;
    auto& out = *dst;
    for (size_t i = 0; i < n; ++i) {
      const size_t b = (CdfKey(in[i].first) >> (8 * d)) & 0xFF;
      out[offs[b]++] = in[i];
    }
    std::swap(src, dst);
  }
  if (src != &s) {
    s.swap(scratch);
  }
}

// Spilled-run bookkeeping: a temp file of raw (double, double) pairs, with
// run boundaries recorded only after a complete write (a short write marks
// the spill failed and accumulation falls back to staying resident).
struct WeightedCdf::Spill {
  std::string path;
  std::FILE* file = nullptr;
  std::vector<uint64_t> run_sizes;  // Pair counts per complete run, in order.
  bool failed = false;

  ~Spill() {
    if (file != nullptr) {
      std::fclose(file);
      std::remove(path.c_str());
    }
  }
};

WeightedCdf::WeightedCdf() = default;
WeightedCdf::~WeightedCdf() = default;
WeightedCdf::WeightedCdf(WeightedCdf&&) noexcept = default;
WeightedCdf& WeightedCdf::operator=(WeightedCdf&&) noexcept = default;

WeightedCdf::WeightedCdf(const WeightedCdf& other)
    : samples_(other.samples_),
      cum_(other.cum_),
      total_weight_(other.total_weight_),
      count_(other.count_),
      spill_chunk_(other.spill_chunk_),
      finalized_(other.finalized_) {
  assert(other.spill_ == nullptr || other.spill_->run_sizes.empty());
}

WeightedCdf& WeightedCdf::operator=(const WeightedCdf& other) {
  assert(other.spill_ == nullptr || other.spill_->run_sizes.empty());
  samples_ = other.samples_;
  cum_ = other.cum_;
  spill_.reset();
  total_weight_ = other.total_weight_;
  count_ = other.count_;
  spill_chunk_ = other.spill_chunk_;
  finalized_ = other.finalized_;
  return *this;
}

void WeightedCdf::SpillTo(std::string path, size_t chunk_samples) {
  spill_ = std::make_unique<Spill>();
  spill_->path = std::move(path);
  spill_chunk_ = std::max<size_t>(chunk_samples, 1024);
}

void WeightedCdf::SpillChunk() {
  Spill& sp = *spill_;
  if (sp.failed) {
    return;
  }
  if (sp.file == nullptr) {
    sp.file = std::fopen(sp.path.c_str(), "wb+");
    if (sp.file == nullptr) {
      sp.failed = true;  // Cannot spill: stay resident.
      return;
    }
  }
  SortSamplesByValue(&samples_);
  CoalesceSorted(&samples_);
  static_assert(sizeof(std::pair<double, double>) == 16, "raw pair I/O");
  const size_t wrote = std::fwrite(samples_.data(), sizeof(samples_[0]), samples_.size(), sp.file);
  if (wrote != samples_.size()) {
    sp.failed = true;  // Partial run on disk is never recorded; keep resident.
    return;
  }
  sp.run_sizes.push_back(samples_.size());
  samples_.clear();
}

void WeightedCdf::MergeSpilledRuns() {
  Spill& sp = *spill_;
  // The resident tail (still unsorted) becomes one more run, merged uniformly
  // with the file runs.
  std::vector<std::pair<double, double>> tail;
  tail.swap(samples_);
  SortSamplesByValue(&tail);
  CoalesceSorted(&tail);

  struct Run {
    uint64_t next = 0;   // Absolute pair index of the next unread pair.
    uint64_t end = 0;    // Absolute pair index one past the run.
    size_t buf_pos = 0;  // Cursor into buf.
    std::vector<std::pair<double, double>> buf;
  };
  constexpr size_t kBufPairs = 4096;  // 64 KiB per run cursor.
  const size_t nfile = sp.run_sizes.size();
  std::vector<Run> runs(nfile + 1);
  uint64_t off = 0;
  for (size_t r = 0; r < nfile; ++r) {
    runs[r].next = off;
    off += sp.run_sizes[r];
    runs[r].end = off;
  }
  runs[nfile].next = 0;
  runs[nfile].end = tail.size();
  runs[nfile].buf = std::move(tail);  // Preloaded; refill never touches it.

  auto refill = [&](size_t r) -> bool {
    Run& run = runs[r];
    if (run.buf_pos < run.buf.size()) {
      return true;
    }
    if (r == nfile || run.next >= run.end) {
      return false;
    }
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kBufPairs, run.end - run.next));
    run.buf.resize(want);
    if (std::fseek(sp.file, static_cast<long>(run.next * sizeof(run.buf[0])), SEEK_SET) != 0) {
      return false;
    }
    const size_t got = std::fread(run.buf.data(), sizeof(run.buf[0]), want, sp.file);
    run.buf.resize(got);
    run.buf_pos = 0;
    run.next += got;
    return got > 0;
  };

  // Min-heap of (key, run): pop the globally smallest value, coalescing into
  // the rebuilt samples_ on the fly. Keys repeat across runs but each run is
  // internally coalesced, so ties collapse across runs only.
  using HeapItem = std::pair<uint64_t, size_t>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<HeapItem>> heap;
  for (size_t r = 0; r < runs.size(); ++r) {
    if (refill(r)) {
      heap.emplace(CdfKey(runs[r].buf[runs[r].buf_pos].first), r);
    }
  }
  samples_.clear();
  while (!heap.empty()) {
    const auto [key, r] = heap.top();
    heap.pop();
    Run& run = runs[r];
    const auto& p = run.buf[run.buf_pos++];
    if (!samples_.empty() && CdfKey(samples_.back().first) == key) {
      samples_.back().second += p.second;
    } else {
      samples_.push_back(p);
    }
    if (refill(r)) {
      heap.emplace(CdfKey(run.buf[run.buf_pos].first), r);
    }
  }
  spill_.reset();  // Closes and removes the temp file.
}

void WeightedCdf::Finalize() {
  if (spill_ != nullptr && !spill_->run_sizes.empty()) {
    MergeSpilledRuns();
  } else {
    spill_.reset();
    SortSamplesByValue(&samples_);
    CoalesceSorted(&samples_);
  }
  cum_.resize(samples_.size());
  double acc = 0.0;
  for (size_t i = 0; i < samples_.size(); ++i) {
    acc += samples_[i].second;
    cum_[i] = acc;
  }
  finalized_ = true;
}

double WeightedCdf::Fraction(double x) const {
  assert(finalized_);
  if (samples_.empty() || total_weight_ <= 0.0) {
    return 0.0;
  }
  // Find last sample with value <= x.
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x,
                                   [](double v, const auto& s) { return v < s.first; });
  if (it == samples_.begin()) {
    return 0.0;
  }
  const size_t idx = static_cast<size_t>(std::distance(samples_.begin(), it)) - 1;
  return cum_[idx] / total_weight_;
}

double WeightedCdf::Percentile(double p) const {
  assert(finalized_);
  assert(p >= 0.0 && p <= 1.0);
  if (samples_.empty()) {
    return 0.0;
  }
  const double target = p * total_weight_;
  const auto it = std::lower_bound(cum_.begin(), cum_.end(), target);
  const size_t idx = it == cum_.end() ? cum_.size() - 1
                                      : static_cast<size_t>(std::distance(cum_.begin(), it));
  return samples_[idx].first;
}

IntervalSeries::IntervalSeries(double interval_seconds) : interval_seconds_(interval_seconds) {
  assert(interval_seconds > 0.0);
}

void IntervalSeries::AddEvent(double t_seconds, double weight) {
  if (t_seconds < 0.0) {
    t_seconds = 0.0;
  }
  const size_t i = static_cast<size_t>(t_seconds / interval_seconds_);
  if (i >= counts_.size()) {
    counts_.resize(i + 1, 0.0);
  }
  counts_[i] += weight;
  max_interval_ = std::max(max_interval_, i);
  any_ = true;
}

size_t IntervalSeries::NumIntervals() const { return any_ ? max_interval_ + 1 : 0; }

double IntervalSeries::CountAt(size_t interval) const {
  return interval < counts_.size() ? counts_[interval] : 0.0;
}

std::vector<double> IntervalSeries::Dense() const {
  std::vector<double> out(NumIntervals(), 0.0);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i];
  }
  return out;
}

double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y) {
  assert(x.size() == y.size());
  const size_t n = x.size();
  if (n < 2) {
    return 0.0;
  }
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

LinearFit LeastSquares(const std::vector<double>& x, const std::vector<double>& y) {
  assert(x.size() == y.size() && x.size() >= 2);
  const size_t n = x.size();
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  LinearFit fit;
  if (sxx <= 0.0) {
    fit.intercept = my;
    return fit;
  }
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = syy <= 0.0 ? 1.0 : (sxy * sxy) / (sxx * syy);
  return fit;
}

}  // namespace ntrace
