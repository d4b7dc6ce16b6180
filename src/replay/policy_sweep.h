// What-if policy sweeps over a recorded trace (DESIGN.md §13).
//
// A PolicySweep re-runs one recorded collection across a grid of policy
// points -- cache capacity, read-ahead window and fuzziness, lazy-writer
// cadence, FastIO gating -- and reports how the paper's section 9 cache
// metrics and figure 13 FastIO shares respond. The baseline row replays the
// recording configuration unmodified and must reproduce the collection
// byte-for-byte (WhatIfReport::baseline_fidelity_exact); a sweep whose
// baseline diverges is answering questions about the wrong machine.

#ifndef SRC_REPLAY_POLICY_SWEEP_H_
#define SRC_REPLAY_POLICY_SWEEP_H_

#include <string>
#include <vector>

#include "src/analysis/whatif.h"
#include "src/replay/trace_replayer.h"

namespace ntrace {

// One cell of the sweep grid: a named knob setting and the full policy it
// induces on top of the recording configuration.
struct PolicyPoint {
  std::string knob;
  std::string value;
  PolicyConfig policy;
};

// The standard 4-knob x 3-value grid around `base` (the recording policies):
//   cache_pages:       capacity / 4 (floor 64), capacity, capacity * 4
//   read_ahead:        off, as recorded, double granularity
//   lazy_write_period: 0.25 s, 1 s, 4 s
//   fastio:            off, 4 KB cap, unrestricted
// Points equal to the base policy still replay (they are the per-knob
// controls and should land on the baseline metrics).
std::vector<PolicyPoint> DefaultPolicyGrid(const PolicyConfig& base);

struct PolicySweepOptions {
  std::vector<PolicyPoint> grid;  // Empty selects DefaultPolicyGrid.
  int threads = 1;                // Workers for the whole sweep (<= 0: all cores).
};

class PolicySweep {
 public:
  // `config` is the recording configuration (see TraceReplayer).
  explicit PolicySweep(const FleetConfig& config);

  WhatIfReport Run(const TraceSet& recorded, const PolicySweepOptions& options = {}) const;

 private:
  FleetConfig config_;
  TraceReplayer replayer_;
};

}  // namespace ntrace

#endif  // SRC_REPLAY_POLICY_SWEEP_H_
