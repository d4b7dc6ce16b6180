// Figures 6-7 and section 6.3: lifetimes of newly created files, by
// deletion method.
//
// Three deletion paths exist in NT (section 6.3): (1) truncate-on-open of
// an existing file (the overwrite class, 37% of cases), (2) an explicit
// SetInformation(Disposition) delete (62%), and (3) the temporary-file
// attribute / delete-on-close (1%). The analyzer reconstructs per-file
// creation and death events from the instance table, a file being a path on
// one system, and classifies each new file's end.

#ifndef SRC_ANALYSIS_LIFETIMES_H_
#define SRC_ANALYSIS_LIFETIMES_H_

#include <cstdint>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/tracedb/instance_table.h"

namespace ntrace {

enum class DeletionMethod : uint8_t {
  kOverwrite,      // Truncate-on-open or supersede of an existing file.
  kExplicitDelete, // Delete disposition control operation.
  kTemporary,      // Delete-on-close / temporary attribute.
};

struct NewFileDeath {
  DeletionMethod method = DeletionMethod::kOverwrite;
  double lifetime_ms = 0;          // Creation -> death.
  double close_to_death_ms = 0;    // Close of the creating handle -> death.
  uint64_t size_at_death = 0;
  bool same_process = false;       // Death caused by the creating process.
  uint32_t opens_between = 0;      // Extra opens between creation and death.
};

struct LifetimeResult {
  std::vector<NewFileDeath> deaths;

  WeightedCdf overwrite_lifetime_ms;  // Figure 6, truncate/overwrite curve.
  WeightedCdf delete_lifetime_ms;     // Figure 6, explicit-delete curve.

  uint64_t new_files = 0;  // Files created during the trace.
  // Shares of deletion methods among observed deaths.
  double overwrite_share = 0;
  double explicit_share = 0;
  double temporary_share = 0;

  // Headline fractions.
  double died_within_4s_fraction = 0;        // Paper: ~80% within 4 s.
  double died_within_30s_fraction = 0;       // Sprite: 65-80% within 30 s.
  double overwritten_within_4ms_fraction = 0;   // Paper: ~75% of overwrites.
  double deleted_within_4s_fraction = 0;     // Paper: 72% of explicit deletes.
  double overwrite_close_gap_p75_ms = 0;     // Paper: 0.7 ms.
  double overwrite_same_process_fraction = 0;  // Paper: 94%.
  double delete_same_process_fraction = 0;     // Paper: 36%.
  double delete_opened_between_fraction = 0;   // Paper: 18%.

  // Figure 7: size-vs-lifetime correlation (paper: no correlation).
  double size_lifetime_correlation = 0;

  // Section 6.3 cache interaction, from cache stats: fraction of overwrite
  // purges that still held dirty pages (paper: 23%).
  double overwrite_with_dirty_fraction = 0;
};

class LifetimeAnalyzer {
 public:
  // A per-system fold (DESIGN.md §7): each system's rows give its files'
  // deaths, in path order, at WorkerCount(workers, systems); the deaths
  // concatenate in system-id order and every figure is taken over them.
  static LifetimeResult Analyze(const InstanceTable& instances, int workers = 1);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_LIFETIMES_H_
