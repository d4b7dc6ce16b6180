// Per-process and per-file-type access profiles.
//
// Section 12 lists "per process and per file type access characteristics"
// as the next analyses the trace collection supports; section 8.1 sketches
// what they look like (FrontPage never holds files beyond a few
// milliseconds; development environments and database engines keep 40-50%
// of their files open for their whole lifetime; loadwc holds files for the
// entire user session). This analyzer materializes those profiles from the
// instance table.

#ifndef SRC_ANALYSIS_PROCESS_PROFILE_H_
#define SRC_ANALYSIS_PROCESS_PROFILE_H_

#include <map>
#include <string>
#include <vector>

#include "src/stats/descriptive.h"
#include "src/trace/trace_set.h"
#include "src/tracedb/instance_table.h"

namespace ntrace {

struct ProcessProfile {
  std::string image_name;
  uint64_t opens = 0;
  uint64_t failed_opens = 0;
  uint64_t data_sessions = 0;
  uint64_t control_only_sessions = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t distinct_files = 0;
  StreamingStats session_length_ms;
  double control_only_fraction = 0;
  // Session-length 90th percentile (ms); the FrontPage-vs-loadwc contrast.
  double session_p90_ms = 0;
};

struct FileTypeProfile {
  FileCategory category = FileCategory::kOther;
  uint64_t opens = 0;
  uint64_t bytes = 0;
  StreamingStats file_size;
  StreamingStats session_length_ms;
};

class ProcessProfileAnalyzer {
 public:
  // One profile per process image, sorted by opens descending. A per-system
  // fold (DESIGN.md §7) at WorkerCount(workers, systems): each system's
  // rows give per-image counts and session-length samples, combined in
  // system-id order, so the moments equal one pass over rows().
  static std::vector<ProcessProfile> ByProcess(const TraceSet& trace,
                                               const InstanceTable& instances, int workers = 1);

  // One profile per file-type category (drill-down level 2 of the paper's
  // file-type dimension).
  static std::vector<FileTypeProfile> ByFileType(const InstanceTable& instances);
};

}  // namespace ntrace

#endif  // SRC_ANALYSIS_PROCESS_PROFILE_H_
