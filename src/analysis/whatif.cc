#include "src/analysis/whatif.h"

#include <cstdio>
#include <cstring>

namespace ntrace {

const WhatIfRow* WhatIfReport::FindRow(const std::string& knob, const std::string& value) const {
  for (const WhatIfRow& row : rows) {
    if (row.knob == knob && row.value == value) {
      return &row;
    }
  }
  return nullptr;
}

std::string WhatIfReport::FormatTable() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-18s %-12s %9s %9s %9s %10s %10s %10s %8s\n", "knob",
                "value", "hit%", "fio-rd%", "fio-wr%", "faults", "readahead", "lazy-wr",
                "diverge");
  out += line;
  auto emit = [&](const WhatIfRow& r) {
    std::snprintf(line, sizeof(line),
                  "%-18s %-12s %8.2f%% %8.2f%% %8.2f%% %10llu %10llu %10llu %8llu%s\n",
                  r.knob.c_str(), r.value.c_str(), r.cache_hit_ratio * 100.0,
                  r.fastio_read_share * 100.0, r.fastio_write_share * 100.0,
                  static_cast<unsigned long long>(r.fault_irps),
                  static_cast<unsigned long long>(r.readahead_irps),
                  static_cast<unsigned long long>(r.lazy_write_irps),
                  static_cast<unsigned long long>(r.divergence), r.baseline ? "  (baseline)" : "");
    out += line;
  };
  emit(baseline);
  for (const WhatIfRow& r : rows) {
    emit(r);
    std::snprintf(line, sizeof(line), "%-18s %-12s %+8.2f%% %+8.2f%% %+8.2f%%\n", "", "  delta",
                  (r.cache_hit_ratio - baseline.cache_hit_ratio) * 100.0,
                  (r.fastio_read_share - baseline.fastio_read_share) * 100.0,
                  (r.fastio_write_share - baseline.fastio_write_share) * 100.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "baseline fidelity: %s (fingerprint %08x)\n",
                baseline_fidelity_exact ? "exact" : "DIVERGED", recorded_fingerprint);
  out += line;
  return out;
}

}  // namespace ntrace
