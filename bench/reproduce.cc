// The reproduction driver: every table, figure and paper-vs-measured row of
// the paper from one run, each row with its band and verdict also written to
// REPRODUCE.json (NTRACE_BENCH_JSON overrides the path), from which
// bench/check_reproduction.py checks EXPERIMENTS.md. It builds each of seven
// study configurations once, all sized by StandardConfig(): the standard
// 45-system fleet; four 3-system fleets for the section 9 and 10 ablations
// (baseline, no-read-ahead, lazy-4s, no-fastio); busy, 4 systems at 8x
// activity for Figures 11-12; content, 5 systems over 2 days for section 5.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/analysis/burstiness.h"
#include "src/analysis/report.h"
#include "src/base/format.h"
#include "src/metrics/metrics.h"
#include "src/tracedb/dimensions.h"

namespace ntrace {
namespace {

constexpr double kKB = 1024.0;

// Every printed report, in print order: the rows REPRODUCE.json carries.
std::vector<ComparisonReport> g_reports;
// Systems the study fleets gave up, over every study: a run that lost any
// is incomplete, and the driver exits non-zero.
size_t g_failed_systems = 0;

void Emit(const ComparisonReport& report) {
  report.Print();
  g_reports.push_back(report);
}

void WriteJson(const std::string& path) {
  std::ofstream out(path);
  const char* separator = "{\"rows\": [\n";
  for (const ComparisonReport& report : g_reports) {
    for (const ComparisonRow& row : report.rows()) {
      out << separator << "  " << ComparisonRowJson(report.title(), row);
      separator = ",\n";
    }
  }
  out << "\n]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

// StandardConfig() with these per-category system counts.
StudyConfig Fleet(int walk_up, int pool, int personal, int administrative, int scientific) {
  StudyConfig config = StandardConfig();
  config.fleet.walk_up = walk_up;
  config.fleet.pool = pool;
  config.fleet.personal = personal;
  config.fleet.administrative = administrative;
  config.fleet.scientific = scientific;
  return config;
}

// The 3-system fleet the ablations run on.
StudyConfig SmallConfig() {
  return Fleet(1, 1, 1, 0, 0);
}

// Runs one study configuration, reporting its scale on stdout. A durable
// run spools each study into its own subdirectory, <spool dir>/<name>:
// segments and the manifest are trusted only under their own study's
// fleet fingerprint, so studies sharing one directory would overwrite each
// other's and a rerun could resume only what the last writer left.
std::unique_ptr<Study> RunStudy(const char* name, StudyConfig config) {
  if (config.fleet.durability.enabled()) {
    config.fleet.durability.spool_dir += std::string("/") + name;
  }
  std::printf("ntrace %s study: %d systems, %d day(s), activity x%.2f, seed %llu\n", name,
              config.fleet.TotalSystems(), config.fleet.days, config.fleet.activity_scale,
              static_cast<unsigned long long>(config.fleet.seed));
  auto study = std::make_unique<Study>(config);
  study->Run();
  std::printf("collected %zu trace records, %zu name records across %zu systems\n",
              study->trace().records.size(), study->trace().names.size(),
              study->systems().size());
  const size_t failed = study->failed_system_ids().size();
  if (failed > 0) {
    std::printf("LOST %zu of %d systems in the %s study\n", failed, config.fleet.TotalSystems(),
                name);
    g_failed_systems += failed;
  }
  return study;
}

// A yes/no row: the text says whether `value` lies in `band`.
void AddCheck(ComparisonReport& report, const std::string& metric, const std::string& paper,
              double value, const Band& band, const std::string& note = "") {
  report.AddRow(metric, paper, band.Contains(value) ? "yes" : "no", value, band, note);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

double FractionAt(const WeightedCdf& cdf, double x) {
  return cdf.empty() ? 0 : cdf.Fraction(x);
}

// NaN marks a figure with nothing to measure (an empty CDF).
std::string Unit(double value, int precision, const char* unit) {
  return std::isnan(value) ? "n/a" : FormatF(value, precision) + unit;
}

// A banded row whose text is `value` at `precision`, then `unit`, or "n/a"
// for NaN, which no band contains.
void AddNumber(ComparisonReport& report, const std::string& metric, const std::string& paper,
               double value, int precision, const char* unit, const Band& band,
               const std::string& note = "", const std::optional<Shape>& shape = std::nullopt) {
  report.AddRow(metric, paper, Unit(value, precision, unit), value, band, note, shape);
}

void Table1(Study& study) {
  ComparisonReport report("Table 1: summary of observations");
  AddNumber(report, "per-user throughput (10-min)", "24 KB/s (3x Sprite's 8)",
            study.UserActivity().ten_minutes.avg_user_throughput_kbs, 1, " KB/s",
            Band::Magnitude(24));
  AddNumber(report, "75% of data opens shorter than", "10ms", study.Sessions().data_open_p75_ms, 2,
            "ms", Band::AtMost(10), "Sprite: 250ms");
  const FileSizeResult& sizes = study.FileSizes();
  report.AddRow("80% of accessed files smaller than", "26KB",
                FormatBytes(sizes.p80_size_by_opens), sizes.p80_size_by_opens,
                Band::AtMost(26 * kKB));
  const AccessPatternTable& patterns = study.AccessPatterns();
  report.AddPercent("read-only accesses sequential (whole+partial)", 88,
                    (patterns.cells[0][0].accesses_pct + patterns.cells[0][1].accesses_pct) /
                        100.0,
                    "60%+ sequential overall");
  report.AddRow("top 20% of files larger than", "4MB", FormatBytes(sizes.top20_size),
                sizes.top20_size, Band::AtLeast(4 * kKB * kKB), "an order above Sprite");
  report.AddPercent("new files overwritten (4ms) or deleted (5s)", 81,
                    study.Lifetimes().died_within_4s_fraction);
  report.AddPercent("opens for control/directory work", 74,
                    study.Operations().control_only_open_fraction);
  const CacheAnalysisResult& cache = study.Cache();
  report.AddPercent("read requests served from the file cache", 60, cache.cached_read_fraction);
  report.AddPercent("open-for-read cases: one prefetch sufficed", 92,
                    cache.single_prefetch_fraction);
  report.AddPercent("reads via FastIO", 59, study.FastIo().fastio_read_share);
  report.AddPercent("writes via FastIO", 96, study.FastIo().fastio_write_share);
  int heavy = 0;
  int measured = 0;
  for (const TailDiagnostics& d : study.TailSweep()) {
    const double alpha = d.llcd.alpha_hat > 0 ? d.llcd.alpha_hat : d.hill_alpha;
    measured += alpha > 0;
    heavy += alpha > 0 && alpha < 2.0;
  }
  report.AddRow("traced quantities with alpha < 2 (infinite variance)", "all",
                std::to_string(heavy) + "/" + std::to_string(measured), Ratio(heavy, measured),
                Band::AtLeast(1), "Hill estimator sweep");
  Emit(report);
  // The collection-pipeline accounting of the run behind the table.
  PrintIntegrityReport(study.integrity(), study.failed_system_ids());
}

void PrintActivityRow(const char* label, const UserActivityRow& row) {
  std::printf("\n-- %s intervals --\n", label);
  std::printf("  max active users:              %d\n", row.max_active_users);
  std::printf("  avg active users:              %.1f (sd %.1f)\n", row.avg_active_users,
              row.avg_active_users_sd);
  std::printf("  avg user throughput:           %.1f KB/s (sd %.1f)\n",
              row.avg_user_throughput_kbs, row.avg_user_throughput_sd);
  std::printf("  peak user throughput:          %.0f KB/s\n", row.peak_user_throughput_kbs);
  std::printf("  peak system-wide throughput:   %.0f KB/s\n", row.peak_system_wide_kbs);
}

void Table2(Study& study) {
  const UserActivityRow& minutes = study.UserActivity().ten_minutes;
  const UserActivityRow& seconds = study.UserActivity().ten_seconds;
  std::printf("\n=== Table 2: user activity ===\n");
  std::printf("paper (NT / Sprite / BSD), 10-minute: avg throughput 24.4 / 8.0 / 0.40 KB/s;"
              " peak user 814 / 458 / n.a.\n");
  std::printf("paper (NT / Sprite), 10-second: avg throughput 42.5 / 47.0 KB/s;"
              " peak user 8910 / 9871\n");
  PrintActivityRow("10-minute", minutes);
  PrintActivityRow("10-second", seconds);
  ComparisonReport report("Table 2 shape checks");
  AddNumber(report, "10-min avg user throughput", "24.4 KB/s", minutes.avg_user_throughput_kbs, 1,
            " KB/s", Band::Magnitude(24.4), "same order of magnitude expected");
  AddNumber(report, "10-sec avg user throughput", "42.5 KB/s", seconds.avg_user_throughput_kbs, 1,
            " KB/s", Band::Magnitude(42.5));
  const double avg_ratio =
      Ratio(seconds.avg_user_throughput_kbs, minutes.avg_user_throughput_kbs);
  AddCheck(report, "10-sec avg exceeds 10-min avg", "42.5 > 24.4", avg_ratio, Band::Above(1),
           "bursts concentrate in short intervals; ratio " + FormatF(avg_ratio));
  AddNumber(report, "10-min peak user throughput", "814 KB/s", minutes.peak_user_throughput_kbs, 0,
            " KB/s", Band::Magnitude(814));
  AddNumber(report, "10-sec peak user throughput", "8910 KB/s", seconds.peak_user_throughput_kbs,
            0, " KB/s", Band::Magnitude(8910));
  const double peak_ratio =
      Ratio(seconds.peak_user_throughput_kbs, minutes.peak_user_throughput_kbs);
  AddCheck(report, "10-sec peak >> 10-min peak", "8910 >> 814", peak_ratio, Band::MuchGreater(),
           "ratio " + FormatF(peak_ratio, 1));
  Emit(report);
}

void Table3(Study& study) {
  constexpr const char* kUsageNames[3] = {"Read-only", "Write-only", "Read/Write"};
  constexpr const char* kPatternNames[3] = {"Whole file", "Other sequential", "Random"};
  // Paper table 3 (W columns): [usage][pattern] -> {accesses%, bytes%}.
  constexpr double kPaperAccesses[3][3] = {{68, 20, 12}, {78, 7, 15}, {22, 3, 74}};
  constexpr double kPaperBytes[3][3] = {{58, 11, 31}, {70, 3, 27}, {5, 0, 94}};
  constexpr double kPaperUsageAccesses[3] = {79, 18, 3};
  constexpr double kPaperUsageBytes[3] = {59, 26, 15};
  const AccessPatternTable& table = study.AccessPatterns();
  std::printf("\n=== Table 3: access patterns (%llu data sessions) ===\n",
              static_cast<unsigned long long>(table.data_sessions));
  std::vector<std::vector<std::string>> rows;
  for (int u = 0; u < 3; ++u) {
    rows.push_back({std::string(kUsageNames[u]) + " (usage share)",
                    FormatF(kPaperUsageAccesses[u], 0),
                    FormatF(table.usage_totals[u].accesses_pct, 1), FormatF(kPaperUsageBytes[u], 0),
                    FormatF(table.usage_totals[u].bytes_pct, 1), ""});
    for (int p = 0; p < 3; ++p) {
      const PatternCell& cell = table.cells[u][p];
      char range[64];
      std::snprintf(range, sizeof(range), "[%.0f..%.0f]", cell.accesses_min, cell.accesses_max);
      rows.push_back({std::string("  ") + kPatternNames[p], FormatF(kPaperAccesses[u][p], 0),
                      FormatF(cell.accesses_pct, 1), FormatF(kPaperBytes[u][p], 0),
                      FormatF(cell.bytes_pct, 1), range});
    }
  }
  std::printf("%s", RenderTable({"row", "paper acc%", "meas acc%", "paper byte%", "meas byte%",
                                 "acc range"},
                                rows)
                        .c_str());
  ComparisonReport report("Table 3 shape checks");
  const double ro_whole = table.cells[0][0].accesses_pct;
  AddCheck(report, "most read-only accesses whole-file sequential", ">50%", ro_whole,
           Band::Above(50), FormatPct(ro_whole / 100));
  const double rw_random = table.cells[2][2].accesses_pct;
  AddCheck(report, "read-write access dominated by random", ">50%", rw_random, Band::Above(50),
           FormatPct(rw_random / 100));
  const double ro = table.usage_totals[0].accesses_pct;
  AddNumber(report, "read-only dominates accesses", "79%", ro, 1, "%", Band::Percent(79), "",
            Shape{"largest usage class", ro > table.usage_totals[1].accesses_pct &&
                                         ro > table.usage_totals[2].accesses_pct});
  const double ro_random_bytes = table.cells[0][2].bytes_pct;
  AddNumber(report, "random bytes share (RO) above Sprite's 7%", "31%", ro_random_bytes, 1, "%",
            Band::Percent(31), "shift toward random access vs Sprite",
            Shape{"above Sprite's 7%", ro_random_bytes > 7});
  Emit(report);
}

// Paper: the 80% mark of read runs sits near 11 KB (Sprite's was under
// 10 KB), and most bytes move in the longer runs.
void Figures1And2(Study& study) {
  const RunLengthResult& runs = study.RunLengths();
  const TraceScan& scan = study.Scan();
  const std::vector<double> points = LogProbePoints(10, 1 << 20, 1);
  auto cdf = [&points](const char* title, const WeightedCdf& c) {
    PrintCdfSeries(title, c, points, "bytes");
  };
  cdf("Figure 1: read runs by count", runs.read_runs_by_count);
  cdf("Figure 1: write runs by count", runs.write_runs_by_count);
  cdf("Figure 2: read runs by bytes", runs.read_runs_by_bytes);
  cdf("Figure 2: write runs by bytes", runs.write_runs_by_bytes);
  // Cross-check: the single-pass scan's streaming run extraction (DESIGN.md
  // §9) computes the same runs per file object in one record sweep.
  cdf("Figure 1 cross-check: read runs by count (streaming scan)", scan.read_runs_by_count);
  cdf("Figure 2 cross-check: read runs by bytes (streaming scan)", scan.read_runs_by_bytes);
  ComparisonReport report("Figures 1-2 shape checks");
  report.AddRow("read-run 80th percentile", "~11KB", FormatBytes(runs.read_p80_bytes),
                runs.read_p80_bytes, Band::Magnitude(11 * kKB));
  const double streaming_p80 =
      scan.read_runs_by_count.empty() ? 0 : scan.read_runs_by_count.Percentile(0.80);
  report.AddRow("read-run 80th percentile (streaming scan)", "~11KB", FormatBytes(streaming_p80),
                streaming_p80, Band::Magnitude(11 * kKB), "single-pass cross-check");
  const double by_count = FractionAt(runs.read_runs_by_count, 10 * kKB);
  const double by_bytes = FractionAt(runs.read_runs_by_bytes, 10 * kKB);
  // The lag in percentage points at 10 KB.
  AddCheck(report, "runs are short but bytes ride long runs", "byte-CDF lags count-CDF",
           100 * (by_count - by_bytes), Band::Above(0),
           "at 10KB: count " + FormatPct(by_count) + ", bytes " + FormatPct(by_bytes));
  Emit(report);
}

// Paper: 80% of opened files are smaller than ~26 KB; the top 20% are larger
// than 4 MB and carry the majority of transferred bytes.
void Figures3And4(Study& study) {
  const FileSizeResult& sizes = study.FileSizes();
  constexpr const char* kModes[3] = {"read-only", "write-only", "read-write"};
  const std::vector<double> points = LogProbePoints(1, 1e9, 1);
  for (int i = 0; i < 6; ++i) {
    PrintCdfSeries(std::string(i < 3 ? "Figure 3: size by opens, " : "Figure 4: size by bytes, ") +
                       kModes[i % 3],
                   (i < 3 ? sizes.size_by_opens : sizes.size_by_bytes)[i % 3], points, "bytes");
  }
  ComparisonReport report("Figures 3-4 shape checks");
  report.AddRow("80% of opened files smaller than", "~26KB",
                FormatBytes(sizes.p80_size_by_opens), sizes.p80_size_by_opens,
                Band::AtMost(26 * kKB));
  const double by_opens = FractionAt(sizes.all_by_opens, 26 * kKB);
  const double by_bytes = FractionAt(sizes.all_by_bytes, 26 * kKB);
  AddCheck(report, "large files carry the bytes", "byte-CDF lags open-CDF",
           100 * (by_opens - by_bytes), Band::Above(0),
           "at 26KB: opens " + FormatPct(by_opens) + ", bytes " + FormatPct(by_bytes));
  const double mb4_by_bytes =
      sizes.all_by_bytes.empty() ? 0 : 1.0 - sizes.all_by_bytes.Fraction(4 * kKB * kKB);
  report.AddRow("bytes moved to/from files >= 4MB", "majority", FormatPct(mb4_by_bytes),
                100 * mb4_by_bytes, Band::Above(50), "top-20%-size class");
  Emit(report);
}

// Paper: ~75% of files stay open less than 10 ms (a quarter second in
// Sprite), and local vs network times show no significant difference.
void Figure5(Study& study) {
  const SessionResult& s = study.Sessions();
  const std::vector<double> points = LogProbePoints(0.1, 1e7, 1);  // 0.1ms .. ~3h.
  PrintCdfSeries("Figure 5: open time, all files", s.open_time_all_ms, points, "ms");
  PrintCdfSeries("Figure 5: open time, local file system", s.open_time_local_ms, points, "ms");
  PrintCdfSeries("Figure 5: open time, network file server", s.open_time_network_ms, points,
                 "ms");
  ComparisonReport report("Figure 5 shape checks");
  AddNumber(report, "75th percentile open time (data opens)", "<10ms", s.data_open_p75_ms, 2, "ms",
            Band::Below(10), "Sprite: 250ms, BSD: 500ms");
  if (!s.open_time_local_ms.empty() && !s.open_time_network_ms.empty()) {
    const double local_med = s.open_time_local_ms.Percentile(0.5);
    const double remote_med = s.open_time_network_ms.Percentile(0.5);
    const double ratio = Ratio(remote_med, local_med);
    report.AddRow("local vs network medians comparable", "no significant difference",
                  Unit(local_med, 2, "ms vs ") + Unit(remote_med, 2, "ms"), ratio,
                  Band::Comparable(), "ratio " + FormatF(ratio, 1));
  }
  Emit(report);
}

void Figures6And7(Study& study) {
  const LifetimeResult& l = study.Lifetimes();
  const std::vector<double> points = LogProbePoints(0.1, 1e7, 1);
  PrintCdfSeries("Figure 6: lifetime, overwrite/truncate deaths", l.overwrite_lifetime_ms,
                 points, "ms");
  PrintCdfSeries("Figure 6: lifetime, explicit deletes", l.delete_lifetime_ms, points, "ms");
  // Figure 7: a decimated scatter sample.
  std::printf("\n--- Figure 7: size at death vs lifetime (sample) ---\n");
  std::printf("  %-14s %-14s %s\n", "size(bytes)", "lifetime(ms)", "method");
  const size_t stride = std::max<size_t>(1, l.deaths.size() / 24);
  for (size_t i = 0; i < l.deaths.size(); i += stride) {
    const NewFileDeath& d = l.deaths[i];
    std::printf("  %-14llu %-14.2f %s\n", static_cast<unsigned long long>(d.size_at_death),
                d.lifetime_ms,
                d.method == DeletionMethod::kOverwrite        ? "overwrite"
                : d.method == DeletionMethod::kExplicitDelete ? "delete"
                                                              : "temporary");
  }
  ComparisonReport report("Section 6.3 / figures 6-7");
  report.AddPercent("new files dead within 4s", 80, l.died_within_4s_fraction,
                    "Sprite: 65-80% within 30s");
  report.AddPercent("new files dead within 30s", 80, l.died_within_30s_fraction);
  report.AddPercent("deaths by overwrite/truncate", 37, l.overwrite_share);
  report.AddPercent("deaths by explicit delete", 62, l.explicit_share);
  report.AddPercent("deaths via temporary attribute", 1, l.temporary_share);
  report.AddPercent("overwrites within 4ms of creation", 75, l.overwritten_within_4ms_fraction);
  report.AddPercent("explicit deletes within 4s", 72, l.deleted_within_4s_fraction);
  AddNumber(report, "close-to-overwrite gap p75", "0.7ms", l.overwrite_close_gap_p75_ms, 2, "ms",
            Band::Magnitude(0.7));
  report.AddPercent("overwriter is the creator", 94, l.overwrite_same_process_fraction);
  report.AddPercent("deleter is the creator", 36, l.delete_same_process_fraction);
  report.AddPercent("deleted files opened in between", 18, l.delete_opened_between_fraction);
  // "None" gives no figure to band.
  report.AddRow("size-lifetime correlation", "none (figure 7)",
                FormatF(l.size_lifetime_correlation, 3), l.size_lifetime_correlation,
                std::nullopt, "|r| near 0 expected");
  report.AddPercent("overwrites catching unwritten cached data", 23,
                    l.overwrite_with_dirty_fraction);
  Emit(report);
}

// Open arrivals at 1 s / 10 s / 100 s against a Poisson synthesis with the
// trace's rate: the Poisson sample smooths with scale, the trace stays bursty.
void Figure8(Study& study) {
  const ArrivalViews v = study.Burstiness();
  PrintArrivalComparison("Figure 8: arrivals per 1s interval", v.trace_1s, v.poisson_1s);
  PrintArrivalComparison("Figure 8: arrivals per 10s interval", v.trace_10s, v.poisson_10s);
  PrintArrivalComparison("Figure 8: arrivals per 100s interval", v.trace_100s, v.poisson_100s);
  std::printf("\ncoefficient of variation (trace vs poisson):\n");
  const char* scales[3] = {"1s", "10s", "100s"};
  for (int i = 0; i < 3; ++i) {
    std::printf("  %-5s trace %.2f   poisson %.2f\n", scales[i], v.trace_cv[i], v.poisson_cv[i]);
  }
  ComparisonReport report("Figure 8 shape checks");
  // sqrt(10) per decade over two decades: a factor of 10 from 1 s to 100 s.
  AddCheck(report, "poisson smooths with coarser scale", "CV drops ~sqrt(10)/step",
           Ratio(v.poisson_cv[0], v.poisson_cv[2]), Band::Magnitude(10),
           FormatF(v.poisson_cv[0], 2) + " -> " + FormatF(v.poisson_cv[2], 2));
  AddCheck(report, "trace stays bursty at 100s", "variance persists",
           Ratio(v.trace_cv[2], v.poisson_cv[2]), Band::MuchGreater(),
           "trace CV " + FormatF(v.trace_cv[2], 2) + " vs poisson " + FormatF(v.poisson_cv[2], 2));
  Emit(report);
}

void PrintQq(const char* title, const QqSeries& qq) {
  std::printf("\n--- %s (normalized deviation from identity: %.4f) ---\n", title, qq.deviation);
  const size_t n = qq.sample_q.size();
  const size_t stride = n > 12 ? n / 12 : 1;
  std::printf("  %-16s %-16s\n", "observed", "theoretical");
  for (size_t i = 0; i < n; i += stride) {
    std::printf("  %-16.4g %-16.4g\n", qq.sample_q[i], qq.theoretical_q[i]);
  }
}

// Paper: the open inter-arrival tail's LLCD alpha is ~1.2, and the Hill
// estimator puts every traced quantity at 1.2-1.7: infinite variance.
void Figures9And10(Study& study) {
  const TailDiagnostics diag = BurstinessAnalyzer::Diagnose(
      "open inter-arrival (ms)",
      BurstinessAnalyzer::OpenInterarrivalsMs(study.trace(), study.system_index()));
  PrintQq("Figure 9: QQ against Normal", diag.qq_normal);
  PrintQq("Figure 9: QQ against Pareto", diag.qq_pareto);
  PrintLlcd("Figure 10: open inter-arrival upper tail", diag.llcd);
  ComparisonReport report("Figures 9-10 / section 7");
  AddCheck(report, "Pareto QQ fits better than Normal QQ", "near-perfect vs poor",
           Ratio(diag.qq_normal.deviation, diag.qq_pareto.deviation), Band::MuchGreater(),
           FormatF(diag.qq_pareto.deviation, 4) + " vs " + FormatF(diag.qq_normal.deviation, 4));
  report.AddRow("LLCD alpha (inter-arrival tail)", "~1.2", FormatF(diag.llcd.alpha_hat, 2),
                diag.llcd.alpha_hat, Band::Magnitude(1.2), "r2 " + FormatF(diag.llcd.fit_r2, 3));
  // "Power law" gives no figure to band.
  report.AddRow("LLCD tail looks linear", "power law", diag.llcd.fit_r2 > 0.9 ? "yes" : "weak",
                diag.llcd.fit_r2, std::nullopt, "r2 " + FormatF(diag.llcd.fit_r2, 3));
  std::printf("\n--- Hill-estimator sweep (paper: 1.2-1.7 across quantities) ---\n");
  for (const TailDiagnostics& d : study.TailSweep()) {
    std::printf("  %-38s n=%-9zu hill alpha=%.2f  llcd alpha=%.2f\n", d.quantity.c_str(),
                d.samples, d.hill_alpha, d.llcd.alpha_hat);
    const double alpha = d.llcd.alpha_hat > 0 ? d.llcd.alpha_hat : d.hill_alpha;
    // An unestimated alpha (0) is no measurement: NaN fails the band.
    AddCheck(report, "alpha<2 (infinite variance): " + d.quantity, "yes",
             alpha > 0 ? alpha : std::nan(""), Band::Below(2),
             "llcd " + FormatF(d.llcd.alpha_hat, 2) + ", hill " + FormatF(d.hill_alpha, 2));
  }
  Emit(report);
}

// Per-mechanism latency and request size, the FastIO shares, and the ablation
// whose filter driver lacks FastIO passthrough, forcing every request to IRPs.
void Figures13And14(Study& study) {
  const FastIoResultAnalysis& f = study.FastIo();
  auto cdf = [](const char* title, const WeightedCdf& c, double hi, const char* unit) {
    PrintCdfSeries(title, c, LogProbePoints(1, hi, 1), unit);
  };
  cdf("Figure 13: FastIO read latency", f.fastio_read_latency_us, 1e5, "us");
  cdf("Figure 13: FastIO write latency", f.fastio_write_latency_us, 1e5, "us");
  cdf("Figure 13: IRP read latency", f.irp_read_latency_us, 1e5, "us");
  cdf("Figure 13: IRP write latency", f.irp_write_latency_us, 1e5, "us");
  cdf("Figure 14: FastIO read sizes", f.fastio_read_size, 1 << 20, "bytes");
  cdf("Figure 14: FastIO write sizes", f.fastio_write_size, 1 << 20, "bytes");
  cdf("Figure 14: IRP read sizes", f.irp_read_size, 1 << 20, "bytes");
  cdf("Figure 14: IRP write sizes", f.irp_write_size, 1 << 20, "bytes");
  ComparisonReport report("Figures 13-14 / section 10");
  // Salvaged or lossy inputs annotate the figure shares with the fraction
  // of emitted records they actually cover (DESIGN.md §16).
  report.SetCoverage(study.Scan());
  report.AddPercent("reads via the FastIO path", 59, f.fastio_read_share);
  report.AddPercent("writes via the FastIO path", 96, f.fastio_write_share);
  if (!f.fastio_read_latency_us.empty() && !f.irp_read_latency_us.empty()) {
    const double fast_med = f.fastio_read_latency_us.Percentile(0.5);
    const double irp_med = f.irp_read_latency_us.Percentile(0.5);
    report.AddRow("FastIO read median latency well below IRP", "order(s) of magnitude",
                  Unit(fast_med, 1, "us vs ") + Unit(irp_med, 1, "us"), Ratio(irp_med, fast_med),
                  Band::MuchGreater(), "ratio " + FormatF(Ratio(irp_med, fast_med)));
  }
  StudyConfig handicapped = SmallConfig();
  handicapped.fleet.filter_options.passthrough_fastio = false;
  const std::unique_ptr<Study> ablation = RunStudy("no-fastio", handicapped);
  const FastIoResultAnalysis& g = ablation->FastIo();
  report.AddRow("[ablation] FastIO read share without passthrough", "0%",
                FormatPct(g.fastio_read_share), 100 * g.fastio_read_share, Band::AtMost(0),
                "filter without FastIO table handicaps the system");
  if (!g.irp_read_latency_us.empty() && !f.irp_read_latency_us.empty()) {
    const double fastio_reads = static_cast<double>(g.fastio_read_latency_us.count());
    report.AddRow("[ablation] all reads forced through IRP", "yes",
                  g.fastio_read_share == 0 ? "yes" : "no", fastio_reads, Band::AtMost(0),
                  "FastIO reads " + FormatF(fastio_reads, 0));
  }
  Emit(report);
}

// Request-size modes, follow-up burst gaps, control-operation dominance, the
// error mix, and the section 7 process attribution.
void Section8(Study& study) {
  const OperationResult& ops = study.Operations();
  const std::vector<double> size_points = LogProbePoints(1, 1 << 20, 1);
  const std::vector<double> gap_points = LogProbePoints(1, 1e7, 1);
  PrintCdfSeries("Section 8.2: read request sizes", ops.read_sizes, size_points, "bytes");
  PrintCdfSeries("Section 8.2: write request sizes", ops.write_sizes, size_points, "bytes");
  PrintCdfSeries("Section 8.2: read follow-up gaps", ops.read_gap_us, gap_points, "us");
  PrintCdfSeries("Section 8.2: write follow-up gaps", ops.write_gap_us, gap_points, "us");
  ComparisonReport report("Section 8: operational characteristics");
  report.AddPercent("reads of exactly 512 or 4096 bytes", 59, ops.reads_512_or_4096_fraction);
  report.AddRow("very small (2-8B) and very large (>=48KB) read tails", "present",
                FormatPct(ops.reads_small_fraction) + " / " +
                    FormatPct(ops.reads_48k_plus_fraction),
                100 * std::min(ops.reads_small_fraction, ops.reads_48k_plus_fraction),
                Band::Above(0));
  AddNumber(report, "80% of follow-up reads within", "90us", ops.read_gap_p80_us, 0, "us",
            Band::AtMost(90));
  AddNumber(report, "80% of follow-up writes within", "30us", ops.write_gap_p80_us, 0, "us",
            Band::AtMost(30), "writes arrive pre-batched",
            Shape{"tighter than reads", ops.write_gap_p80_us < ops.read_gap_p80_us});
  report.AddPercent("data opens transferring in one batch", 70, ops.batch_session_fraction, "",
                    std::nullopt, Shape{"majority", ops.batch_session_fraction > 0.5});
  report.AddPercent("opens for control/directory work only", 74, ops.control_only_open_fraction);
  AddNumber(report, "volume-mounted checks per active second", "up to 40/s",
            ops.volume_checks_per_active_second, 2, "/s", Band::AtMost(40));
  report.AddPercent("open requests failing", 12, ops.open_failure_fraction);
  const double notfound = ops.open_notfound_share;
  const double collision = ops.open_collision_share;
  report.AddPercent("open failures: name not found", 52, notfound, "", std::nullopt,
                    Shape{"largest failure class",
                          notfound >= collision && notfound >= 1 - notfound - collision});
  report.AddPercent("open failures: name collision", 31, collision, "", std::nullopt,
                    Shape{"present", collision > 0});
  report.AddPercent("control operations failing", 8, ops.control_failure_fraction);
  report.AddRow("read failures", "0.2%", FormatPct(ops.read_failure_fraction, 2),
                100 * ops.read_failure_fraction, Band::Magnitude(0.2), "end-of-file reads");
  report.AddRow("write failures", "none", std::to_string(ops.write_failures),
                static_cast<double>(ops.write_failures), Band::AtMost(0));
  // Section 7: "more than 92% of the file accesses".
  report.AddPercent("accesses from non-interactive processes", 92,
                    ops.non_interactive_access_fraction, "section 7", Band::Above(92));
  // Dying scratch files that could have used the attribute to skip disk writes.
  report.AddPercent("deleted new files lacking the temporary attribute", 30,
                    study.Cache().temporary_benefit_fraction, "paper: 25-35% could benefit",
                    Band::Range(25, 35));
  Emit(report);
}

// Hit rates, read-ahead sufficiency, option usage and write-behind, then the
// read-ahead and lazy-writer ablations (DESIGN.md §14) on the small fleet.
void Section9(Study& study) {
  const CacheAnalysisResult& cache = study.Cache();
  ComparisonReport report("Section 9: the cache manager");
  report.AddPercent("read requests satisfied from the cache", 60, cache.cached_read_fraction);
  report.AddPercent("read sessions using a single I/O", 31, cache.single_io_session_fraction);
  report.AddPercent("open-for-read cases where one prefetch sufficed", 92,
                    cache.single_prefetch_fraction);
  report.AddPercent("sequential opens passing the sequential-only hint", 5,
                    cache.sequential_hint_open_fraction, "underutilized");
  report.AddRow("data opens disabling read caching", "0.2%",
                FormatPct(cache.read_cache_disabled_fraction, 2),
                100 * cache.read_cache_disabled_fraction, Band::Magnitude(0.2));
  report.AddRow("writing opens using write-through", "1.4%",
                FormatPct(cache.write_through_fraction, 2), 100 * cache.write_through_fraction,
                Band::Magnitude(1.4));
  report.AddPercent("writing opens issuing explicit flushes", 4, cache.flush_user_fraction);
  report.AddRow("mean lazy-write run", "pages up to 64KB",
                FormatBytes(cache.lazy_write_mean_run_bytes), cache.lazy_write_mean_run_bytes,
                Band::AtMost(64 * kKB));
  // A count alone cannot show "always".
  report.AddRow("SetEndOfFile issued before dirty closes", "always",
                std::to_string(cache.seteof_on_close), static_cast<double>(cache.seteof_on_close),
                std::nullopt, "count");
  const uint64_t throttles = study.total_cache_stats().write_throttles;
  report.AddRow("write throttles under dirty pressure", "(CcCanIWrite)",
                std::to_string(throttles), static_cast<double>(throttles), std::nullopt);
  // The IRP traffic the cache and VM managers generate (DESIGN.md §9 scan).
  const TraceScan& scan = study.Scan();
  const double paging = static_cast<double>(scan.paging_reads + scan.paging_writes);
  report.AddRow("paging transfers (Cc/Mm-issued IRPs)", "-", FormatF(paging, 0), paging,
                std::nullopt,
                "read-ahead " + std::to_string(scan.readahead_records) + ", lazy-write " +
                    std::to_string(scan.lazywrite_records));
  if (scan.paging_writes > 0) {
    report.AddPercent("paging writes issued by the lazy writer", 100,
                      static_cast<double>(scan.lazywrite_records) / scan.paging_writes,
                      "rest: flush/teardown");
  }
  Emit(report);

  const std::unique_ptr<Study> baseline = RunStudy("baseline", SmallConfig());
  StudyConfig no_ra = SmallConfig();
  no_ra.fleet.cache_config.read_ahead_enabled = false;
  const std::unique_ptr<Study> ablation_ra = RunStudy("no-read-ahead", no_ra);
  const CacheStats base = baseline->total_cache_stats();
  const double base_hits = baseline->Cache().cached_read_fraction;
  const double no_ra_hits = ablation_ra->Cache().cached_read_fraction;
  const double base_paging = static_cast<double>(base.fault_irps + base.readahead_irps);
  const double no_ra_faults = static_cast<double>(ablation_ra->total_cache_stats().fault_irps);
  ComparisonReport read_ahead("Ablation: read-ahead policy (small fleet)");
  read_ahead.AddRow("cached-read fraction, default read-ahead", "-", FormatPct(base_hits),
                    100 * base_hits, std::nullopt);
  read_ahead.AddRow("cached-read fraction, read-ahead disabled", "lower", FormatPct(no_ra_hits),
                    Ratio(no_ra_hits, base_hits), Band::Below(1),
                    "ratio " + FormatF(Ratio(no_ra_hits, base_hits)));
  read_ahead.AddRow("paging read IRPs, default", "-", FormatF(base_paging, 0), base_paging,
                    std::nullopt);
  read_ahead.AddRow("paging read IRPs, disabled", "more demand faults", FormatF(no_ra_faults, 0),
                    Ratio(no_ra_faults, base_paging), Band::Above(1),
                    "ratio " + FormatF(Ratio(no_ra_faults, base_paging)));
  Emit(read_ahead);

  StudyConfig slow_lw = SmallConfig();
  slow_lw.fleet.cache_config.lazy_write_period = SimDuration::Seconds(4);
  const CacheStats slow = RunStudy("lazy-4s", slow_lw)->total_cache_stats();
  // Both sides of every figure, so an ablation that changes nothing shows.
  ComparisonReport lazy("Ablation: lazy-writer cadence (small fleet)");
  auto info = [&lazy](const std::string& metric, uint64_t value) {
    lazy.AddRow(metric, "-", std::to_string(value), static_cast<double>(value), std::nullopt);
  };
  auto mean_run = [](const CacheStats& s) {
    return Ratio(static_cast<double>(s.lazy_write_bytes), static_cast<double>(s.lazy_write_irps));
  };
  info("lazy-write IRPs, 1s scans", base.lazy_write_irps);
  lazy.AddRow("lazy-write IRPs, 4s scans", "fewer, larger runs",
              std::to_string(slow.lazy_write_irps),
              Ratio(static_cast<double>(slow.lazy_write_irps), base.lazy_write_irps),
              Band::Below(1), "mean run " + FormatBytes(mean_run(slow)));
  info("lazy-write bytes, 1s scans", base.lazy_write_bytes);
  info("lazy-write bytes, 4s scans", slow.lazy_write_bytes);
  lazy.AddRow("mean lazy-write run, 1s scans", "-", FormatBytes(mean_run(base)), mean_run(base),
              std::nullopt);
  const double run_ratio = Ratio(mean_run(slow), mean_run(base));
  lazy.AddRow("mean lazy-write run, 4s scans", "larger", FormatBytes(mean_run(slow)), run_ratio,
              Band::Above(1), "ratio " + FormatF(run_ratio));
  info("lazy scans, 1s scans", base.lazy_scans);
  info("lazy scans, 4s scans", slow.lazy_scans);
  Emit(lazy);
}

// Section 12's next analyses: per-process and per-file-type profiles, plus
// the sharing and locking error classes.
void Section12Profiles(Study& study) {
  std::printf("\n=== Per-process access profiles (section 12 / 8.1) ===\n");
  std::vector<std::vector<std::string>> rows;
  double quick_p90 = 0;   // notepad: the section 8.1 quick-session app.
  double holder_max = 0;  // services: the session-long holder.
  for (const ProcessProfile& p : study.ProcessProfiles()) {
    quick_p90 = p.image_name == "notepad.exe" ? p.session_p90_ms : quick_p90;
    holder_max = p.image_name == "services.exe" ? p.session_length_ms.max() : holder_max;
    if (p.opens >= 50) {
      rows.push_back({p.image_name, std::to_string(p.opens), FormatPct(p.control_only_fraction),
                      FormatBytes(static_cast<double>(p.bytes_read + p.bytes_written)),
                      std::to_string(p.distinct_files), Unit(p.session_length_ms.mean(), 2, "ms"),
                      Unit(p.session_p90_ms, 1, "ms")});
    }
  }
  std::printf("%s", RenderTable({"process", "opens", "ctl-only", "bytes", "files",
                                 "mean session", "p90 session"},
                                rows)
                        .c_str());
  ComparisonReport report("Process-profile shape checks");
  AddNumber(report, "editors never hold files long", "milliseconds (FrontPage)", quick_p90, 1,
            "ms p90 (notepad)", Band::Below(1000));
  AddNumber(report, "services hold files for the session", "hours (loadwc)",
            holder_max / 3600000.0, 2, "h max (services)", Band::AtLeast(1),
            holder_max > 1000 * quick_p90 ? "contrast holds" : "check");

  std::printf("\n=== Per-file-type profiles ===\n");
  rows.clear();
  for (const FileTypeProfile& t : study.FileTypeProfiles()) {
    rows.push_back({std::string(FileCategoryName(t.category)), std::to_string(t.opens),
                    FormatBytes(static_cast<double>(t.bytes)), FormatBytes(t.file_size.mean()),
                    Unit(t.session_length_ms.mean(), 2, "ms")});
  }
  std::printf("%s", RenderTable({"category", "opens", "bytes", "mean size", "mean session"},
                                rows)
                        .c_str());
  uint64_t sharing_violations = 0;
  uint64_t lock_ops = 0;
  uint64_t lock_refusals = 0;
  for (const TraceRecord& r : study.trace().records) {
    const bool lock = r.Event() == TraceEvent::kIrpLockControl;
    sharing_violations +=
        r.Event() == TraceEvent::kIrpCreate && r.Status() == NtStatus::kSharingViolation;
    lock_ops += lock;
    lock_refusals += lock && r.Status() == NtStatus::kLockNotGranted;
  }
  report.AddRow("sharing violations observed", "part of the 17% 'other' open errors",
                std::to_string(sharing_violations), static_cast<double>(sharing_violations),
                Band::Above(0),
                "burst-synchronous workload rarely overlaps opens; semantics "
                "covered by sharing_locking_test");
  report.AddRow("byte-range lock operations", "(outside the paper's scope)",
                std::to_string(lock_ops), static_cast<double>(lock_ops), std::nullopt,
                std::to_string(lock_refusals) + " refused");
  Emit(report);
}

// Open-request inter-arrivals by purpose, session lifetimes by usage type,
// the two-stage cleanup/close gaps, and file re-open behavior.
void Figures11And12(Study& study) {
  const SessionResult& s = study.Sessions();
  const std::vector<double> ms = LogProbePoints(0.1, 1e5, 1);
  const std::vector<double> us = LogProbePoints(1, 1e7, 1);
  PrintCdfSeries("Figure 11: open inter-arrival, open-for-I/O", s.open_interarrival_io_ms, ms,
                 "ms");
  PrintCdfSeries("Figure 11: open inter-arrival, open-for-control",
                 s.open_interarrival_control_ms, ms, "ms");
  PrintCdfSeries("Figure 12: session lifetime, all types", s.session_all_ms, ms, "ms");
  PrintCdfSeries("Figure 12: session lifetime, control opens", s.session_control_ms, ms, "ms");
  PrintCdfSeries("Figure 12: session lifetime, data opens", s.session_data_ms, ms, "ms");
  PrintCdfSeries("Section 8.1: cleanup->close gap, read-cached", s.close_gap_read_us, us, "us");
  PrintCdfSeries("Section 8.1: cleanup->close gap, write-cached", s.close_gap_write_us, us, "us");
  ComparisonReport report("Figures 11-12 / section 8.1");
  AddNumber(report, "40% of opens arrive within", "1ms", s.interarrival_p40_ms, 2, "ms",
            Band::AtMost(1), "40th percentile inter-arrival");
  AddNumber(report, "90% of opens arrive within", "30ms", s.interarrival_p90_ms, 1, "ms",
            Band::AtMost(30));
  AddNumber(report, "40% of sessions close within", "1ms", s.session_p40_ms, 2, "ms",
            Band::AtMost(1));
  AddNumber(report, "90% of sessions close within", "1s (1000ms)", s.session_p90_ms, 1, "ms",
            Band::AtMost(1000));
  if (!s.session_control_ms.empty()) {
    report.AddPercent("control sessions closed within 10ms", 90,
                      s.session_control_ms.Fraction(10.0));
  }
  AddNumber(report, "1-second intervals containing opens", "<=24%",
            100 * s.seconds_with_opens_fraction, 1, "%", Band::AtMost(24), "burstiness");
  if (!s.close_gap_read_us.empty() && !s.close_gap_write_us.empty()) {
    // Section 8.1: a write-cached file's close waits for the lazy writer.
    const double read_us = s.close_gap_read_us.Percentile(0.5);
    const double write_us = s.close_gap_write_us.Percentile(0.5);
    const Shape contrast{"read-cached gap below write-cached gap", read_us < write_us};
    AddNumber(report, "read-cached close gap", "4-50us", read_us, 1, "us median",
              Band::Range(4, 50), "", contrast);
    AddNumber(report, "write-cached close gap", "1-4s", write_us / 1e6, 2, "s median",
              Band::Range(1, 4), "", contrast);
  }
  report.AddPercent("read-only files opened multiple times", 32, s.readonly_reopen_fraction,
                    "paper range 24-40%", Band::Range(24, 40));
  report.AddPercent("write-only files later re-opened for reading", 44,
                    s.writeonly_reopened_for_read_fraction, "paper range 36-52%",
                    Band::Range(36, 52));
  Emit(report);
}

// The mean of `stats`, or NaN over no sample: a row computed over no
// snapshot reads n/a, never 0.
double MeanOrNone(const StreamingStats& stats) {
  return stats.count() > 0 ? stats.mean() : std::nan("");
}

// Counts, fullness, the size distribution, profile-tree and WWW-cache churn,
// and timestamp unreliability, from the daily snapshots.
void Section5(Study& study, const StudyConfig& config) {
  StreamingStats files;
  StreamingStats fullness;
  StreamingStats anomaly;
  std::vector<double> category_bytes(kNumFileCategories);  // Share sums over volumes.
  const std::vector<ContentSummary> contents = study.ContentSummaries();
  for (const ContentSummary& c : contents) {
    files.Add(static_cast<double>(c.files));
    fullness.Add(c.fullness);
    anomaly.Add(c.creation_after_access_fraction);
    for (int k = 0; k < kNumFileCategories; ++k) {
      category_bytes[k] += c.bytes_share[k];
    }
    std::printf("  volume: %llu files, %llu dirs, %.0f%% full, web cache %llu files (%s)\n",
                static_cast<unsigned long long>(c.files),
                static_cast<unsigned long long>(c.directories), 100.0 * c.fullness,
                static_cast<unsigned long long>(c.web_cache_files),
                FormatBytes(static_cast<double>(c.web_cache_bytes)).c_str());
  }
  ComparisonReport report("Section 5: file system content");
  // A system restored from a spool segment has no snapshot series.
  const auto has_snapshot = [](const SnapshotSeries& series) { return !series.snapshots.empty(); };
  size_t unsnapped = 0;
  for (const SystemRunStats& s : study.systems()) {
    unsnapped += std::none_of(s.snapshots.begin(), s.snapshots.end(), has_snapshot);
  }
  if (unsnapped > 0) {
    report.SetCoverageNote(std::to_string(unsnapped) + " of " +
                           std::to_string(study.systems().size()) +
                           " systems have no snapshot series; rows over no snapshot read n/a");
  }
  // The paper's counts are for full-size volumes: scale them by the knob.
  const double content = config.fleet.content_scale;
  AddNumber(report, "local file count", "24k-45k (scaled by NTRACE_CONTENT)", MeanOrNone(files), 0,
            "", Band::Range(24000 * content, 45000 * content),
            "content scale " + FormatF(content, 2));
  AddNumber(report, "file system fullness", "54-87%", 100 * MeanOrNone(fullness), 1, "%",
            Band::Range(54, 87));
  // "Dominant": the executable+font block outweighs every other category.
  const size_t exe = static_cast<size_t>(FileCategory::kExecutable);
  const size_t font = static_cast<size_t>(FileCategory::kFont);
  const double exec_fonts = category_bytes[exe] + category_bytes[font];
  category_bytes[exe] = category_bytes[font] = 0;
  double dominance = std::nan("");
  std::string share = "n/a";
  std::string note = "size distribution driver";
  if (!contents.empty()) {
    dominance = Ratio(exec_fonts, *std::max_element(category_bytes.begin(), category_bytes.end()));
    share = FormatPct(Ratio(exec_fonts, static_cast<double>(contents.size())));
    note += "; " + FormatF(dominance) + "x the next category";
  }
  report.AddRow("executables+fonts share of bytes", "dominant", share, dominance, Band::AtLeast(1),
                note);
  AddNumber(report, "creation-after-access anomalies", "2-4%", 100 * MeanOrNone(anomaly), 1, "%",
            Band::Range(2, 4), "timestamps are unreliable");
  StreamingStats changed;
  StreamingStats profile_churn;
  StreamingStats cache_churn;
  for (const ChurnSummary& c : study.ChurnSummaries()) {
    changed.Merge(c.files_changed_per_day);
    profile_churn.Add(c.profile_change_share);
    cache_churn.Add(c.web_cache_change_share);
  }
  const double per_day = MeanOrNone(changed);
  AddNumber(report, "files changed/added per day", "300-500 (peaks 2.5-3k)", per_day, 0, "",
            Band::Range(300, 500), std::isnan(per_day) ? "" : "max " + FormatF(changed.max(), 0));
  const double in_profile = MeanOrNone(profile_churn);
  report.AddPercent("changes inside the user profile", 94, in_profile, "", std::nullopt,
                    Shape{"majority", in_profile > 0.5});
  report.AddPercent("profile changes inside the WWW cache", 90, MeanOrNone(cache_churn),
                    "paper: up to 90%", Band::AtMost(90));
  Emit(report);
}

// Returns the process exit status: 1 when a study fleet lost a system.
int Run() {
  std::unique_ptr<Study> standard = RunStudy("standard", StandardConfig());
  for (auto section : {Table1, Table2, Table3, Figures1And2, Figures3And4, Figure5, Figures6And7,
                       Figure8, Figures9And10, Figures13And14, Section8, Section9,
                       Section12Profiles}) {
    section(*standard);
  }
  standard.reset();
  // Figure 11's inter-arrivals depend on the per-system event rate; the
  // paper's busy systems logged up to 1.4M events per day.
  StudyConfig busy = Fleet(1, 1, 1, 1, 0);
  busy.fleet.activity_scale *= 8.0;
  Figures11And12(*RunStudy("busy", busy));
  StudyConfig content = Fleet(1, 1, 1, 1, 1);
  content.fleet.days = 2;
  // Section 5 reads every system's snapshot series, which spool segments do
  // not carry (a resumed system reports none), so this study re-simulates
  // on a rerun instead of resuming.
  content.fleet.durability.resume = false;
  Section5(*RunStudy("content", content), content);
  const char* json_env = std::getenv("NTRACE_BENCH_JSON");
  const std::string path =
      json_env != nullptr && *json_env != '\0' ? json_env : "REPRODUCE.json";
  WriteJson(path);
  std::printf("\nwrote %s; fleet runs: %llu\n", path.c_str(),
              static_cast<unsigned long long>(
                  MetricsRegistry::Global().Snapshot().CounterValue("ntrace_fleet_runs_total")));
  if (g_failed_systems > 0) {
    std::fprintf(stderr, "reproduce: %zu system(s) lost; the tables above are incomplete\n",
                 g_failed_systems);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ntrace

int main() {
  return ntrace::Run();
}
