// Console reporting helpers for the reproduction driver: paper-vs-measured
// rows with their bands and verdicts, CDF series tables, and figure-style
// point dumps.

#ifndef SRC_ANALYSIS_REPORT_H_
#define SRC_ANALYSIS_REPORT_H_

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/stats/tails.h"
#include "src/trace/integrity.h"

namespace ntrace {

struct TraceScan;

// The interval a measured value must fall in to match the paper. Bands come
// from the paper, never from a measured value, by one rule: the paper's
// stated range or bound when it gives one (Range, AtMost, AtLeast; Above and
// Below for "exceeds", "present", "lower"); otherwise +-10 points for a
// percentage of 10 % or more, and a factor of 2 for a magnitude or a smaller
// percentage (Percent, Magnitude); a ratio >= 3 for "much greater" and one in
// [0.5, 2] for "comparable". Ends are inclusive unless `open`.
struct Band {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = -kInf;
  double hi = kInf;
  bool open = false;

  static Band Range(double lo, double hi) { return {lo, hi, false}; }
  static Band AtMost(double hi) { return {-kInf, hi, false}; }
  static Band AtLeast(double lo) { return {lo, kInf, false}; }
  static Band Above(double lo) { return {lo, kInf, true}; }
  static Band Below(double hi) { return {-kInf, hi, true}; }
  static Band Percent(double paper_pct) {
    return paper_pct >= 10 ? Range(paper_pct - 10, paper_pct + 10) : Magnitude(paper_pct);
  }
  static Band Magnitude(double paper) { return Range(paper / 2, paper * 2); }
  static Band MuchGreater() { return AtLeast(3); }
  static Band Comparable() { return Range(0.5, 2); }

  bool Contains(double value) const;
  // "50..70", "<= 10", "> 0", ">= 3".
  std::string ToString() const;
};

// A row's stated shape predicate: the paper's qualitative claim, and
// whether the measured data satisfy it.
struct Shape {
  std::string claim;
  bool holds = false;
};

// The one verdict rule: "✓" inside the band, "shape" when only the stated
// shape predicate holds, "†" otherwise. kInfo rows carry no band (the paper
// gives no figure to compare against) and print "".
enum class Verdict { kInfo, kMatch, kShape, kDeviation };
const char* VerdictSymbol(Verdict verdict);

struct ComparisonRow {
  std::string metric;
  std::string paper;
  std::string measured_text;
  double measured = std::numeric_limits<double>::quiet_NaN();  // NaN: no number.
  std::optional<Band> band;
  std::optional<Shape> shape;
  std::string note;
  Verdict verdict = Verdict::kInfo;
};

// One row as a JSON object: section, metric, paper, measured, text, band
// ({lo, hi, open, text}, null for an unbounded end), shape, verdict, note.
std::string ComparisonRowJson(const std::string& section, const ComparisonRow& row);

// Accumulates paper-vs-measured rows and renders them.
class ComparisonReport {
 public:
  explicit ComparisonReport(std::string title);

  // Informational row without a number: no band, no verdict.
  void AddRow(const std::string& metric, const std::string& paper_value,
              const std::string& measured_value, const std::string& note = "");
  // `measured` is the number the band applies to, rounded to 6 significant
  // digits; `measured_text` is what the table prints. No band: informational.
  void AddRow(const std::string& metric, const std::string& paper_value,
              const std::string& measured_text, double measured,
              const std::optional<Band>& band, const std::string& note = "",
              const std::optional<Shape>& shape = std::nullopt);
  // Percentage row banded by Band::Percent(paper_pct), or by the paper's
  // stated range when `stated` is given. A NaN fraction (nothing to
  // measure) reads "n/a" and no band contains it.
  void AddPercent(const std::string& metric, double paper_pct, double measured_fraction,
                  const std::string& note = "", const std::optional<Band>& stated = std::nullopt,
                  const std::optional<Shape>& shape = std::nullopt);
  // Informational value row.
  void AddValue(const std::string& metric, const std::string& paper_value, double measured,
                const std::string& note = "");

  // Confidence annotation for salvaged inputs (DESIGN.md §16): printed
  // under the title, e.g. "coverage: shares computed over 98.6% of emitted
  // records (1,234 known lost)". A complete input prints nothing.
  void SetCoverage(const TraceScan& scan);
  // The same annotation in the caller's words, for inputs a scan does not
  // meter (e.g. systems without a snapshot series).
  void SetCoverageNote(std::string note) { coverage_note_ = std::move(note); }

  // Renders the report to stdout.
  void Print() const;

  const std::string& title() const { return title_; }
  const std::vector<ComparisonRow>& rows() const { return rows_; }

 private:
  std::string title_;
  std::string coverage_note_;
  std::vector<ComparisonRow> rows_;
};

// The coverage sentence itself ("shares computed over 98.6% of emitted
// records; 1,234 records known lost"); empty when the scan covered every
// known record.
std::string CoverageNote(const TraceScan& scan);

// Prints a CDF as "value  cumulative%" rows at log-spaced probe points.
void PrintCdfSeries(const std::string& title, const WeightedCdf& cdf,
                    const std::vector<double>& probe_points, const std::string& unit);

// Probe points: log-spaced from lo to hi inclusive, points per decade.
std::vector<double> LogProbePoints(double lo, double hi, int per_decade = 2);

// Prints an LLCD series (figure-10 style) plus the fitted slope.
void PrintLlcd(const std::string& title, const LlcdSeries& series, size_t max_rows = 20);

// Prints side-by-side per-interval counts (figure-8 style), decimated.
void PrintArrivalComparison(const std::string& title, const std::vector<double>& trace_counts,
                            const std::vector<double>& poisson_counts, size_t max_rows = 16);

// Prints the per-system collection-pipeline accounting plus a totals row;
// the final column flags any system whose records are not fully accounted.
// `failed_system_ids` (systems the fleet gave up, which have no row) are
// listed under the table, so a run that lost whole systems says so.
void PrintIntegrityReport(const IntegrityReport& report,
                          const std::vector<uint32_t>& failed_system_ids);

}  // namespace ntrace

#endif  // SRC_ANALYSIS_REPORT_H_
