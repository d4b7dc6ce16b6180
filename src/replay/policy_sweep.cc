#include "src/replay/policy_sweep.h"

#include <utility>

#include "src/analysis/fastio.h"

namespace ntrace {

namespace {

constexpr uint64_t kStockCachePages = 8192;  // 32 MB, the NT 4.0 default.
constexpr uint64_t kMinSweepPages = 64;      // Below this the model thrashes meaninglessly.

WhatIfRow MakeRow(std::string knob, std::string value, const FleetReplayResult& result) {
  WhatIfRow row;
  row.knob = std::move(knob);
  row.value = std::move(value);
  row.cache_hit_ratio = result.cache.copy_reads == 0
                            ? 0.0
                            : static_cast<double>(result.cache.copy_read_hits) /
                                  static_cast<double>(result.cache.copy_reads);
  // MakeRow runs on a replay worker, beside the sweep's other runs: its
  // scan takes one worker rather than spawning a pool of its own per run.
  const FastIoResultAnalysis fastio = FastIoAnalyzer::Analyze(TraceScan::Run(result.trace, 1));
  row.fastio_read_share = fastio.fastio_read_share;
  row.fastio_write_share = fastio.fastio_write_share;
  row.read_fallbacks = fastio.read_fallbacks;
  row.write_fallbacks = fastio.write_fallbacks;
  row.fault_irps = result.cache.fault_irps;
  row.readahead_irps = result.cache.readahead_irps;
  row.lazy_write_irps = result.cache.lazy_write_irps;
  row.lazy_scans = result.cache.lazy_scans;
  row.evictions_visible = result.cache.write_throttles;
  row.records = result.trace.records.size();
  row.divergence = result.divergence.total();
  row.fingerprint = TraceFingerprint(result.trace);
  return row;
}

}  // namespace

std::vector<PolicyPoint> DefaultPolicyGrid(const PolicyConfig& base) {
  std::vector<PolicyPoint> grid;

  const uint64_t base_pages =
      base.cache.capacity_pages != 0 ? base.cache.capacity_pages : kStockCachePages;
  const uint64_t small = base_pages / 4 < kMinSweepPages ? kMinSweepPages : base_pages / 4;
  for (uint64_t pages : {small, base_pages, base_pages * 4}) {
    PolicyPoint p{"cache_pages", std::to_string(pages), base};
    p.policy.cache.capacity_pages = pages;
    grid.push_back(std::move(p));
  }

  {
    PolicyPoint p{"read_ahead", "off", base};
    p.policy.cache.read_ahead_enabled = false;
    grid.push_back(std::move(p));
  }
  grid.push_back(PolicyPoint{"read_ahead", "stock", base});
  {
    PolicyPoint p{"read_ahead", "2x-window", base};
    p.policy.cache.read_ahead_granularity = base.cache.read_ahead_granularity * 2;
    p.policy.cache.boosted_granularity = base.cache.boosted_granularity * 2;
    grid.push_back(std::move(p));
  }

  for (auto [label, period] :
       {std::pair{"0.25s", SimDuration::Millis(250)}, std::pair{"1s", SimDuration::Seconds(1)},
        std::pair{"4s", SimDuration::Seconds(4)}}) {
    PolicyPoint p{"lazy_write_period", label, base};
    p.policy.cache.lazy_write_period = period;
    grid.push_back(std::move(p));
  }

  {
    PolicyPoint p{"fastio", "off", base};
    p.policy.fastio.enabled = false;
    grid.push_back(std::move(p));
  }
  {
    PolicyPoint p{"fastio", "cap-4k", base};
    p.policy.fastio.max_read_bytes = 4096;
    p.policy.fastio.max_write_bytes = 4096;
    grid.push_back(std::move(p));
  }
  grid.push_back(PolicyPoint{"fastio", "stock", base});

  return grid;
}

PolicySweep::PolicySweep(const FleetConfig& config) : config_(config), replayer_(config) {}

WhatIfReport PolicySweep::Run(const TraceSet& recorded, const PolicySweepOptions& options) const {
  WhatIfReport report;
  report.recorded_fingerprint = TraceFingerprint(recorded);

  PolicyConfig base;
  base.cache = config_.cache_config;
  const std::vector<PolicyPoint> grid =
      options.grid.empty() ? DefaultPolicyGrid(base) : options.grid;
  // One job set: run 0 is the baseline, the recording configuration
  // replayed as recorded; run i > 0 is grid point i - 1.
  std::vector<ReplayOptions> runs(grid.size() + 1);
  for (size_t i = 0; i < grid.size(); ++i) {
    runs[i + 1].apply_policy = true;
    runs[i + 1].policy = grid[i].policy;
  }
  report.rows.resize(grid.size());
  replayer_.ReplayEach(recorded, runs, options.threads, [&](size_t run, FleetReplayResult result) {
    if (run > 0) {
      report.rows[run - 1] = MakeRow(grid[run - 1].knob, grid[run - 1].value, result);
      return;
    }
    // Anything short of byte-exactness here disqualifies the what-if rows.
    report.baseline = MakeRow("baseline", "recorded", result);
    report.baseline.baseline = true;
    const FidelityReport fidelity = CheckFidelity(recorded, result.trace);
    report.baseline_fidelity_exact = fidelity.exact() && result.divergence.total() == 0;
    report.baseline_fidelity_detail = fidelity.detail;
  });
  return report;
}

}  // namespace ntrace
