// The virtual memory manager model (Mm).
//
// Windows NT loads executables and dynamic libraries through memory-mapped
// image sections, and applications map data files directly; both generate
// paging read IRPs against the file system rather than read system calls
// (paper, section 3.3). The paper's tracer deliberately recorded all paging
// requests to account for executable I/O, and noted that image pages often
// remain resident after the process exits, giving fast restarts.
//
// This model exposes section objects and demand faulting; residency is
// shared with the cache manager's page store, so image pages naturally stay
// cached after process exit until the LRU reclaims them.

#ifndef SRC_MM_VM_MANAGER_H_
#define SRC_MM_VM_MANAGER_H_

#include <cstdint>
#include <memory>

#include "src/base/flat_map.h"
#include "src/mm/cache_manager.h"
#include "src/ntio/io_manager.h"
#include "src/sim/engine.h"

namespace ntrace {

struct VmStats {
  uint64_t sections_created = 0;
  uint64_t image_sections = 0;
  uint64_t fault_irps = 0;
  uint64_t fault_bytes = 0;
  uint64_t pages_faulted = 0;
  uint64_t soft_faults = 0;  // Page was already resident (e.g. warm image restart).
  // Device-error handling on paging transfers (fault injection): NT retries
  // an in-page I/O a bounded number of times before raising the error.
  uint64_t paging_retries = 0;
  uint64_t paging_read_failures = 0;   // Retries exhausted on a paging read.
  uint64_t paging_write_failures = 0;  // Retries exhausted on a section flush.
};

class VmManager {
 public:
  // In-page device errors are retried this many times (one initial attempt
  // plus kPagingIoRetries re-issues), with a short delay between attempts.
  static constexpr int kPagingIoRetries = 3;
  static constexpr SimDuration kPagingRetryDelay = SimDuration::Millis(2);

  VmManager(Engine& engine, IoManager& io, CacheManager& cache);

  VmManager(const VmManager&) = delete;
  VmManager& operator=(const VmManager&) = delete;

  // A section maps the open file into (simulated) memory. The file object is
  // referenced for the lifetime of the section, so a process can close its
  // handle while the mapping stays valid.
  struct Section {
    uint64_t id = 0;
    FileObject* file = nullptr;
    const void* node = nullptr;
    uint64_t size = 0;
    bool image = false;
    // Pages are faulted in clusters of this many (NT's default read cluster).
    uint32_t cluster_pages = 8;
  };

  // Creates a section over `file` (file must remain open until DeleteSection
  // for data sections; image sections keep their own reference).
  uint64_t CreateSection(FileObject& file, uint64_t size, bool image);

  // Demand-faults the byte range; issues paging reads for non-resident pages
  // in cluster_pages runs. Returns the number of hard-faulted pages.
  uint64_t FaultRange(uint64_t section_id, uint64_t offset, uint64_t length);

  // Dirties mapped pages (a store through a writable view). The pages reach
  // disk via the cache manager's lazy writer / flush machinery when a cache
  // map exists; otherwise at section deletion.
  void DirtyRange(uint64_t section_id, uint64_t offset, uint64_t length);

  // Drops the section. Image-backed resident pages stay in the page store
  // (the paper's fast-restart observation); the file object reference is
  // released.
  void DeleteSection(uint64_t section_id);

  const VmStats& stats() const { return stats_; }

 private:
  void IssuePagingRead(Section& s, uint64_t offset, uint64_t length);
  // Dispatches `irp`, re-issuing on device errors up to kPagingIoRetries
  // times. Returns the final status.
  NtStatus CallWithPagingRetry(FileObject& file, Irp& irp);

  Engine& engine_;
  IoManager& io_;
  CacheManager& cache_;
  VmStats stats_;
  FlatMap<uint64_t, Section> sections_;  // Probed on every mapped fault.
  uint64_t next_id_ = 1;
};

}  // namespace ntrace

#endif  // SRC_MM_VM_MANAGER_H_
