#include "src/analysis/report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/analysis/trace_scan.h"
#include "src/base/format.h"

namespace ntrace {

bool Band::Contains(double value) const {
  return open ? value > lo && value < hi : value >= lo && value <= hi;
}

std::string Band::ToString() const {
  char lo_text[32];
  char hi_text[32];
  std::snprintf(lo_text, sizeof(lo_text), "%.15g", lo);
  std::snprintf(hi_text, sizeof(hi_text), "%.15g", hi);
  if (std::isfinite(lo) && std::isfinite(hi)) {
    return std::string(lo_text) + ".." + hi_text + (open ? " (open)" : "");
  }
  const bool upper = std::isfinite(hi);
  return std::string(upper ? "<" : ">") + (open ? " " : "= ") + (upper ? hi_text : lo_text);
}

const char* VerdictSymbol(Verdict verdict) {
  static const char* const kSymbols[] = {"", "✓", "shape", "†"};
  return kSymbols[static_cast<int>(verdict)];
}

namespace {

Verdict Judge(double measured, const std::optional<Band>& band,
              const std::optional<Shape>& shape) {
  if (!band.has_value()) {
    return Verdict::kInfo;
  }
  if (band->Contains(measured)) {
    return Verdict::kMatch;
  }
  return shape.has_value() && shape->holds ? Verdict::kShape : Verdict::kDeviation;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out + "\"";
}

// Shortest round-trip form; null for an infinite or NaN value.
std::string JsonNumber(double v) {
  char buf[32] = "null";
  if (std::isfinite(v)) {
    *std::to_chars(buf, buf + sizeof(buf) - 1, v).ptr = '\0';
  }
  return buf;
}

}  // namespace

std::string ComparisonRowJson(const std::string& section, const ComparisonRow& row) {
  std::string band = "null";
  if (row.band.has_value()) {
    band = "{\"lo\": " + JsonNumber(row.band->lo) + ", \"hi\": " + JsonNumber(row.band->hi) +
           ", \"open\": " + (row.band->open ? "true" : "false") +
           ", \"text\": " + JsonString(row.band->ToString()) + "}";
  }
  std::string shape = "null";
  if (row.shape.has_value()) {
    shape = "{\"claim\": " + JsonString(row.shape->claim) + ", \"holds\": " +
            (row.shape->holds ? "true}" : "false}");
  }
  const std::string verdict =
      row.verdict == Verdict::kInfo ? "null" : JsonString(VerdictSymbol(row.verdict));
  return "{\"section\": " + JsonString(section) + ", \"metric\": " + JsonString(row.metric) +
         ", \"paper\": " + JsonString(row.paper) + ", \"measured\": " + JsonNumber(row.measured) +
         ", \"text\": " + JsonString(row.measured_text) + ", \"band\": " + band + ", \"shape\": " +
         shape + ", \"verdict\": " + verdict + ", \"note\": " + JsonString(row.note) + "}";
}

ComparisonReport::ComparisonReport(std::string title) : title_(std::move(title)) {}

std::string CoverageNote(const TraceScan& scan) {
  if (scan.records_lost_known == 0) {
    return "";
  }
  return "shares computed over " + FormatPct(scan.KnownCoverage()) + " of emitted records (" +
         std::to_string(scan.records_lost_known) + " known lost of " +
         std::to_string(scan.records_scanned + scan.records_lost_known) + ")";
}

void ComparisonReport::SetCoverage(const TraceScan& scan) { coverage_note_ = CoverageNote(scan); }

void ComparisonReport::AddRow(const std::string& metric, const std::string& paper_value,
                              const std::string& measured_value, const std::string& note) {
  AddRow(metric, paper_value, measured_value, std::nan(""), std::nullopt, note);
}

void ComparisonReport::AddRow(const std::string& metric, const std::string& paper_value,
                              const std::string& measured_text, double measured,
                              const std::optional<Band>& band, const std::string& note,
                              const std::optional<Shape>& shape) {
  // Six significant digits, as the JSON carries them: a reader of the JSON
  // recomputes exactly this verdict, and every build type agrees on it.
  char rounded[32];
  std::snprintf(rounded, sizeof(rounded), "%.6g", measured);
  measured = std::isfinite(measured) ? std::strtod(rounded, nullptr) : measured;
  rows_.push_back({metric, paper_value, measured_text, measured, band, shape, note,
                   Judge(measured, band, shape)});
}

void ComparisonReport::AddPercent(const std::string& metric, double paper_pct,
                                  double measured_fraction, const std::string& note,
                                  const std::optional<Band>& stated,
                                  const std::optional<Shape>& shape) {
  AddRow(metric, FormatF(paper_pct, 0) + "%",
         std::isnan(measured_fraction) ? "n/a" : FormatPct(measured_fraction),
         100.0 * measured_fraction, stated.value_or(Band::Percent(paper_pct)), note, shape);
}

void ComparisonReport::AddValue(const std::string& metric, const std::string& paper_value,
                                double measured, const std::string& note) {
  AddRow(metric, paper_value, FormatF(measured), note);
}

void ComparisonReport::Print() const {
  std::printf("\n=== %s ===\n", title_.c_str());
  if (!coverage_note_.empty()) {
    std::printf("  coverage: %s\n", coverage_note_.c_str());
  }
  // The verdict goes last: RenderTable pads by bytes, and "✓" is three.
  std::vector<std::vector<std::string>> cells;
  for (const ComparisonRow& row : rows_) {
    char value[32] = "";
    if (std::isfinite(row.measured)) {
      std::snprintf(value, sizeof(value), "%.6g", row.measured);
    }
    cells.push_back({row.metric, row.paper, row.measured_text, value,
                     row.band.has_value() ? row.band->ToString() : "", row.note,
                     VerdictSymbol(row.verdict)});
  }
  std::printf("%s", RenderTable({"metric", "paper", "measured", "value", "band", "note", "verdict"},
                                cells)
                        .c_str());
}

std::vector<double> LogProbePoints(double lo, double hi, int per_decade) {
  std::vector<double> points;
  const double step = 1.0 / per_decade;
  for (double lg = std::log10(lo); lg <= std::log10(hi) + 1e-9; lg += step) {
    points.push_back(std::pow(10.0, lg));
  }
  return points;
}

void PrintCdfSeries(const std::string& title, const WeightedCdf& cdf,
                    const std::vector<double>& probe_points, const std::string& unit) {
  std::printf("\n--- %s (n=%zu) ---\n", title.c_str(), static_cast<size_t>(cdf.count()));
  if (cdf.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  for (double p : probe_points) {
    std::printf("  <= %12.4g %-8s : %6.2f%%\n", p, unit.c_str(), 100.0 * cdf.Fraction(p));
  }
}

void PrintLlcd(const std::string& title, const LlcdSeries& series, size_t max_rows) {
  std::printf("\n--- %s (LLCD, alpha_hat=%.2f, r2=%.3f) ---\n", title.c_str(),
              series.alpha_hat, series.fit_r2);
  if (series.log_x.empty()) {
    std::printf("  (no tail)\n");
    return;
  }
  const size_t stride = std::max<size_t>(1, series.log_x.size() / max_rows);
  std::printf("  %-14s %-14s\n", "log10(x)", "log10 P[X>x]");
  for (size_t i = 0; i < series.log_x.size(); i += stride) {
    std::printf("  %-14.3f %-14.3f\n", series.log_x[i], series.log_ccdf[i]);
  }
}

void PrintArrivalComparison(const std::string& title, const std::vector<double>& trace_counts,
                            const std::vector<double>& poisson_counts, size_t max_rows) {
  std::printf("\n--- %s ---\n", title.c_str());
  const size_t n = std::max(trace_counts.size(), poisson_counts.size());
  if (n == 0) {
    std::printf("  (no data)\n");
    return;
  }
  const size_t stride = std::max<size_t>(1, n / max_rows);
  std::printf("  %-10s %-12s %-12s\n", "interval", "trace", "poisson");
  for (size_t i = 0; i < n; i += stride) {
    const double t = i < trace_counts.size() ? trace_counts[i] : 0;
    const double p = i < poisson_counts.size() ? poisson_counts[i] : 0;
    std::printf("  %-10zu %-12.0f %-12.0f\n", i, t, p);
  }
}

namespace {

// The per-system rows plus a totals row.
void PrintIntegrityTable(const IntegrityReport& report) {
  auto row_of = [](const std::string& label, const SystemIntegrity& s) {
    return std::vector<std::string>{
        label,
        std::to_string(s.records_emitted),
        std::to_string(s.records_collected),
        std::to_string(s.records_overflow_dropped),
        std::to_string(s.records_shed),
        std::to_string(s.records_lost),
        std::to_string(s.records_unresolved),
        std::to_string(s.duplicate_records_discarded),
        std::to_string(s.sequence_gaps),
        std::to_string(s.shipment_attempts),
        std::to_string(s.shipments_abandoned),
        std::to_string(s.records_salvaged),
        std::to_string(s.records_lost_to_corruption),
        FormatPct(s.CollectedFraction()),
        s.Accounted() ? "yes" : "NO",
    };
  };
  std::vector<std::vector<std::string>> rows;
  for (const SystemIntegrity& s : report.systems) {
    rows.push_back(row_of("sys " + std::to_string(s.system_id), s));
  }
  const SystemIntegrity totals = report.Totals();
  rows.push_back(row_of("total", totals));
  std::printf("%s", RenderTable({"system", "emitted", "collected", "dropped", "shed", "lost",
                                 "unresolved", "dup-discard", "gaps", "attempts", "abandoned",
                                 "salvaged", "corrupt-lost", "coll%", "accounted"},
                                rows)
                        .c_str());
}

}  // namespace

void PrintIntegrityReport(const IntegrityReport& report,
                          const std::vector<uint32_t>& failed_system_ids) {
  std::printf("\n=== Collection pipeline integrity ===\n");
  if (report.systems.empty()) {
    std::printf("  (no streams)\n");
  } else {
    PrintIntegrityTable(report);
  }
  if (!failed_system_ids.empty()) {
    std::string ids;
    for (const uint32_t id : failed_system_ids) {
      ids += " " + std::to_string(id);
    }
    std::printf("LOST %zu system(s), given up by the fleet (no row above, no records):%s\n",
                failed_system_ids.size(), ids.c_str());
  }
}

}  // namespace ntrace
