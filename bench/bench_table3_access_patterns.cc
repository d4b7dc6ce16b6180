// Table 3 reproduction: access-pattern mix (read-only / write-only /
// read-write x whole-file / other-sequential / random), in percent of
// accesses and of bytes, with per-system min/max ranges.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/analysis/report.h"
#include "src/base/format.h"

namespace ntrace {
namespace {

constexpr const char* kUsageNames[3] = {"Read-only", "Write-only", "Read/Write"};
constexpr const char* kPatternNames[3] = {"Whole file", "Other sequential", "Random"};

// Paper table 3 (W columns): [usage][pattern] -> {accesses%, bytes%}.
constexpr double kPaperAccesses[3][3] = {{68, 20, 12}, {78, 7, 15}, {22, 3, 74}};
constexpr double kPaperBytes[3][3] = {{58, 11, 31}, {70, 3, 27}, {5, 0, 94}};
constexpr double kPaperUsageAccesses[3] = {79, 18, 3};
constexpr double kPaperUsageBytes[3] = {59, 26, 15};

void Run() {
  Study& study = RunStandardStudy();
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
      rows.push_back({std::string("  ") + kPatternNames[p], FormatF(kPaperAccesses[u][p], 0),
                      FormatF(cell.accesses_pct, 1), FormatF(kPaperBytes[u][p], 0),
                      FormatF(cell.bytes_pct, 1),
                      std::string("[")
                          .append(FormatF(cell.accesses_min, 0))
                          .append("..")
                          .append(FormatF(cell.accesses_max, 0))
                          .append("]")});
    }
  }
  std::printf("%s", RenderTable({"row", "paper acc%", "meas acc%", "paper byte%", "meas byte%",
                                 "acc range"},
                                rows)
                        .c_str());

  ComparisonReport report("Table 3 shape checks");
  report.AddRow("most read-only accesses whole-file sequential", ">50%",
                table.cells[0][0].accesses_pct > 50 ? "yes" : "no", "");
  report.AddRow("read-write access dominated by random", ">50%",
                table.cells[2][2].accesses_pct > 50 ? "yes" : "no", "");
  report.AddRow("read-only dominates accesses", "79%",
                FormatF(table.usage_totals[0].accesses_pct, 1) + "%", "");
  report.AddRow("random bytes share (RO) above Sprite's 7%", "31%",
                FormatF(table.cells[0][2].bytes_pct, 1) + "%",
                "shift toward random access vs Sprite");
  report.Print();
}

}  // namespace
}  // namespace ntrace

int main() {
  ntrace::Run();
  return 0;
}
