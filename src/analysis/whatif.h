// What-if report: one row per replayed policy point, comparing the paper's
// section 9 cache metrics and figure 13 FastIO shares across machines the
// study never ran. The rows are produced by the policy sweep
// (src/replay/policy_sweep.h); this header is analysis-layer only so report
// consumers need no replay dependency.

#ifndef SRC_ANALYSIS_WHATIF_H_
#define SRC_ANALYSIS_WHATIF_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ntrace {

struct WhatIfRow {
  std::string knob;   // "cache_pages", "read_ahead", "lazy_write_period", "fastio".
  std::string value;  // Human-readable setting, e.g. "2048" or "off".
  bool baseline = false;

  // Section 9: copy-read hit ratio of the replay-side cache manager.
  double cache_hit_ratio = 0;
  // Figure 13 / section 10 shares, computed from the regenerated trace.
  double fastio_read_share = 0;
  double fastio_write_share = 0;
  uint64_t read_fallbacks = 0;
  uint64_t write_fallbacks = 0;

  // Cache-manager activity the policy change induces or removes.
  uint64_t fault_irps = 0;
  uint64_t readahead_irps = 0;
  uint64_t lazy_write_irps = 0;
  uint64_t lazy_scans = 0;
  uint64_t evictions_visible = 0;  // write throttles (dirty-pressure stalls).

  uint64_t records = 0;     // Regenerated trace records under this policy.
  uint64_t divergence = 0;  // ReplayDivergence::total() of the run.
  uint32_t fingerprint = 0; // TraceFingerprint of the regenerated trace.
};

struct WhatIfReport {
  // The recording configuration replayed as-is. The sweep requires this row
  // to reproduce the recorded collection exactly before any what-if row is
  // worth reading.
  WhatIfRow baseline;
  bool baseline_fidelity_exact = false;
  std::string baseline_fidelity_detail;  // Empty when exact.
  uint32_t recorded_fingerprint = 0;

  std::vector<WhatIfRow> rows;  // Grid points, in sweep order.

  const WhatIfRow* FindRow(const std::string& knob, const std::string& value) const;

  // Fixed-width table with per-row deltas against the baseline.
  std::string FormatTable() const;
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_WHATIF_H_
