// One simulated machine of the study fleet.
//
// Wires the full per-system stack the way section 2-3 of the paper
// describes a traced machine: a local volume behind an NTFS-like driver, a
// network-redirector volume for the user's home share, cache and VM
// managers, the trace agent with its filter driver on top of both volumes,
// and the application models of the machine's usage category driven by a
// daily login/logout session with heavy-tailed lengths.

#ifndef SRC_WORKLOAD_SIMULATED_SYSTEM_H_
#define SRC_WORKLOAD_SIMULATED_SYSTEM_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/fault.h"
#include "src/fs/fs_driver.h"
#include "src/fs/redirector.h"
#include "src/mm/cache_manager.h"
#include "src/mm/vm_manager.h"
#include "src/ntio/io_manager.h"
#include "src/sim/engine.h"
#include "src/trace/trace_agent.h"
#include "src/win32/win32_api.h"
#include "src/workload/apps.h"
#include "src/workload/fs_image.h"

namespace ntrace {

// The five usage categories of section 2.
enum class UsageCategory : uint8_t {
  kWalkUp,
  kPool,
  kPersonal,
  kAdministrative,
  kScientific,
};
constexpr int kNumUsageCategories = 5;

std::string_view UsageCategoryName(UsageCategory c);

struct SystemOptions {
  uint32_t system_id = 1;
  UsageCategory category = UsageCategory::kPersonal;
  uint64_t seed = 1;
  int days = 1;
  // Scales burst frequency (1.0 approximates the paper's 80k-1.4M events
  // per day) and initial content counts (1.0 = 24k-45k local files).
  double activity_scale = 1.0;
  double content_scale = 1.0;
  CacheConfig cache_config;  // capacity_pages of 0 selects per-category default.
  FsOptions fs_options;
  TraceFilterOptions filter_options;
  // Fault schedule (strictly opt-in; a disabled config is byte-identical to
  // no fault layer at all) and the shipment link's retry/shedding policy.
  FaultConfig fault_config;
  ShipmentPolicy shipment_policy;
};

// Post-run statistics harvested before the system is destroyed.
struct SystemRunStats {
  uint32_t system_id = 0;
  UsageCategory category = UsageCategory::kPersonal;
  CacheStats cache;
  VmStats vm;
  FsStats local_fs;
  FsStats remote_fs;
  uint64_t fastio_read_attempts = 0;
  uint64_t fastio_read_hits = 0;
  uint64_t fastio_write_attempts = 0;
  uint64_t fastio_write_hits = 0;
  uint64_t irp_count = 0;
  uint64_t trace_records = 0;
  uint64_t trace_drops = 0;
  uint64_t sessions_run = 0;
  std::vector<SnapshotSeries> snapshots;

  // Pipeline-resilience counters (all zero in fault-free runs).
  uint64_t trace_emitted = 0;
  uint64_t trace_shed = 0;
  uint64_t trace_lost = 0;
  uint64_t trace_unresolved = 0;
  uint64_t shipments_sent = 0;
  uint64_t shipment_attempts = 0;
  uint64_t shipment_failures = 0;
  uint64_t shipments_abandoned = 0;
  uint64_t peak_retry_backlog = 0;
  // Abandoned (sequence, record_count) pairs for server-side reconciliation.
  std::vector<std::pair<uint64_t, uint64_t>> abandoned_shipments;
  uint64_t disk_read_errors = 0;
  uint64_t disk_write_errors = 0;
  uint64_t paging_retries = 0;
};

class SimulatedSystem {
 public:
  SimulatedSystem(const SystemOptions& options, TraceSink& sink);
  ~SimulatedSystem();

  SimulatedSystem(const SimulatedSystem&) = delete;
  SimulatedSystem& operator=(const SimulatedSystem&) = delete;

  // Runs the configured number of simulated days and returns the harvested
  // statistics. The trace stream goes to the sink passed at construction.
  SystemRunStats Run();

  // Component access for tests.
  Engine& engine() { return engine_; }
  IoManager& io() { return *io_; }
  CacheManager& cache() { return *cache_; }
  Win32Api& win32() { return *win32_; }
  ImageCatalog& catalog() { return catalog_; }
  ProcessTable& processes() { return processes_; }
  FileSystemDriver& local_fs() { return *local_fs_; }
  TraceAgent& agent() { return *agent_; }
  const SystemOptions& options() const { return options_; }

 private:
  void BuildStacks();
  void BuildModels();
  void StartSession();
  void EndSession();

  SystemOptions options_;
  TraceSink& sink_;
  Rng rng_;
  Engine engine_;
  ProcessTable processes_;
  std::unique_ptr<IoManager> io_;
  std::unique_ptr<CacheManager> cache_;
  std::unique_ptr<VmManager> vm_;
  std::unique_ptr<Win32Api> win32_;
  std::unique_ptr<FileSystemDriver> local_fs_;
  std::unique_ptr<RedirectorDriver> remote_fs_;
  std::vector<std::unique_ptr<DeviceObject>> devices_;
  std::unique_ptr<FaultInjector> fault_injector_;  // Null when faults are off.
  std::unique_ptr<TraceAgent> agent_;
  ImageCatalog catalog_;
  SystemContext ctx_;

  std::vector<std::unique_ptr<AppModel>> user_models_;
  std::unique_ptr<WinlogonModel> winlogon_;
  std::unique_ptr<ServicesModel> services_;
  std::unique_ptr<MonitorModel> monitor_;
  std::vector<double> model_launch_probability_;
  uint64_t sessions_run_ = 0;
  bool session_active_ = false;
};

}  // namespace ntrace

#endif  // SRC_WORKLOAD_SIMULATED_SYSTEM_H_
