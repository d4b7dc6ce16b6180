// The cache manager (Cc) model.
//
// NT's cache manager never asks a file system to read or write directly; it
// maps files into memory and lets page faults pull data in, and lazy-writer
// threads push dirty pages out (paper, section 9). This model reproduces the
// externally visible mechanisms the paper measures:
//
//   * Caching is initialized per file on the first read/write that reaches
//     the file system (not at open), so the first operation travels the IRP
//     path and later ones can use FastIO (section 10).
//   * Read-ahead: standard granularity 4096 bytes, commonly boosted to 64 KB
//     by FAT/NTFS; doubled when the open specified sequential-only access;
//     triggered on the third sequential request, where "sequential" is fuzzy
//     (the low 7 bits of offsets are masked out) (section 9.1).
//   * Write-behind: lazy-writer scans run every second and write out a
//     portion (1/8) of the dirty pages in bursty runs of up to 64 KB;
//     SetEndOfFile is issued before the close of any file that had cached
//     writes (sections 8.3, 9.2).
//   * Two-stage close: cleanup drops the handle; the cache's reference keeps
//     the file object alive. For read-cached files close follows within
//     4-50 us; for write-cached files only after the dirty pages reach disk,
//     typically 1-4 s later (section 8.1).
//   * Temporary files: the lazy writer skips pages of files opened with the
//     temporary attribute, so short-lived files can die in memory without
//     any disk traffic (section 6.3).
//
// Cache/VM-originated requests are real IRPs sent to the top of the driver
// stack with the PagingIo header bit set, so a trace filter observes them
// exactly as the paper's driver did (section 3.3).

#ifndef SRC_MM_CACHE_MANAGER_H_
#define SRC_MM_CACHE_MANAGER_H_

#include <cstdint>
#include <memory>

#include "src/base/flat_map.h"
#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/mm/page_store.h"
#include "src/ntio/io_manager.h"
#include "src/sim/engine.h"

namespace ntrace {

struct CacheConfig {
  uint64_t capacity_pages = 8192;  // 32 MB of 4 KB pages.
  // Read-ahead.
  uint32_t read_ahead_granularity = 4096;
  uint32_t boosted_granularity = 65536;  // FAT/NTFS boost for larger files.
  uint64_t boost_threshold = 65536;      // Files at least this large get the boost.
  int sequential_detect_count = 3;       // Read-ahead on the 3rd sequential request.
  uint32_t fuzzy_mask = 0x7F;            // Low bits ignored in sequential matching.
  bool read_ahead_enabled = true;        // Ablation knob.
  // Write-behind.
  SimDuration lazy_write_period = SimDuration::Seconds(1);
  double lazy_write_fraction = 1.0 / 8.0;  // Portion of a node's dirty pages per scan.
  uint32_t max_write_run_bytes = 65536;    // Coalescing limit per lazy-write IRP.
  // Close latency after cleanup for read-cached files.
  SimDuration read_close_delay_min = SimDuration::Micros(4);
  SimDuration read_close_delay_max = SimDuration::Micros(50);
  // Copy costs (cache hit service time): fixed + per byte (~200 MB/s).
  SimDuration copy_fixed = SimDuration::Micros(1);
  double copy_ns_per_byte = 5.0;
};

struct CacheStats {
  uint64_t copy_reads = 0;
  uint64_t copy_read_hits = 0;  // All pages already resident.
  uint64_t copy_read_bytes = 0;
  uint64_t fault_irps = 0;  // Synchronous paging reads on behalf of CopyRead.
  uint64_t fault_bytes = 0;
  uint64_t readahead_irps = 0;
  uint64_t readahead_bytes = 0;
  uint64_t copy_writes = 0;
  uint64_t copy_write_bytes = 0;
  uint64_t rmw_faults = 0;  // Partial-page write faults (read-modify-write).
  uint64_t lazy_write_irps = 0;
  uint64_t lazy_write_bytes = 0;
  uint64_t lazy_scans = 0;
  uint64_t write_throttles = 0;  // CcCanIWrite-style stalls under dirty pressure.
  uint64_t flush_ops = 0;
  uint64_t flush_bytes = 0;
  uint64_t seteof_on_close = 0;
  uint64_t maps_created = 0;
  uint64_t maps_resurrected = 0;  // Re-open raced a pending teardown.
  uint64_t teardowns = 0;
  uint64_t purge_calls = 0;
  uint64_t purges_with_dirty = 0;           // Section 6.3: overwrite/delete caught dirty data.
  uint64_t dirty_pages_discarded = 0;
  uint64_t temporary_pages_skipped = 0;  // Lazy-write work avoided by the temporary attribute.
  // Device-error handling (fault injection): paging transfers the cache
  // manager re-issued, and those that stayed failed after bounded retries.
  uint64_t paging_retries = 0;
  uint64_t paging_read_failures = 0;
  uint64_t paging_write_failures = 0;  // The affected pages are discarded, counted, never silent.

  // Field-wise sum, for fleet and replay totals across systems.
  void Accumulate(const CacheStats& s);
};

// Per-node shared caching state (NT: SharedCacheMap). Owned by CacheManager.
class SharedCacheMap {
 public:
  const void* node = nullptr;
  DeviceObject* device = nullptr;
  FileObject* holder = nullptr;  // Referenced file object used for paging I/O.
  uint64_t file_size = 0;
  uint32_t granularity = 4096;
  bool sequential_hint = false;
  bool temporary = false;
  bool wrote_data = false;
  int open_count = 0;
  bool teardown_pending = false;
  uint64_t generation = 0;  // Guards scheduled work against teardown races.
  uint64_t creation_order = 0;  // Deterministic iteration key (heap addresses are not).
  uint32_t readahead_ops = 0;
  bool initial_readahead_done = false;  // First-access prefetch decision made.
};

class CacheManager {
 public:
  // Bounded in-page retry of device-errored paging transfers (mirrors the
  // VM manager's policy).
  static constexpr int kPagingIoRetries = 3;
  static constexpr SimDuration kPagingRetryDelay = SimDuration::Millis(2);

  CacheManager(Engine& engine, IoManager& io, CacheConfig config, uint64_t rng_seed = 0xCC);

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  // Starts the periodic lazy-writer scan. Call once after construction.
  void Start();

  // --- Cc interface used by file-system drivers ------------------------------

  // Initializes caching for `file` over the file identified by `node`.
  // Subsequent reads/writes through any file object of the node share pages.
  void InitializeCacheMap(FileObject& file, const void* node, uint64_t file_size);

  SharedCacheMap* FindMap(const void* node);

  struct CopyResult {
    bool hit = false;      // All pages were resident.
    uint64_t bytes = 0;
  };

  // Blocking copy-read: missing pages are faulted in synchronously with
  // paging read IRPs; the caller's clock advances by fault + copy time.
  // `length` must already be clamped to the file size by the caller.
  CopyResult CopyRead(FileObject& file, uint64_t offset, uint32_t length);

  // Non-blocking copy-read for the FastIO path: fails (returns false)
  // when any page is missing, in which case the I/O manager falls back to
  // the IRP path.
  bool CopyReadNoWait(FileObject& file, uint64_t offset, uint32_t length, uint64_t* bytes_out);

  // Cached write: dirties pages (read-modify-write faults for partial pages
  // inside the old file size), extends the cached size.
  uint64_t CopyWrite(FileObject& file, uint64_t offset, uint32_t length);

  // Synchronously writes dirty pages of the byte range [offset, offset+len)
  // (len 0 = whole file) to disk using paging write IRPs.
  void FlushRange(FileObject& file, uint64_t offset, uint64_t length);

  // Truncation/extension from SetInformation(EndOfFile).
  void SetFileSize(const void* node, uint64_t new_size);

  // Drops every page of the node (file deletion, overwrite, supersede).
  // Returns the number of dirty pages discarded unwritten.
  uint64_t PurgeNode(const void* node);

  // The file system deleted the node: purge all pages and discard any cache
  // map immediately (no flush, no SetEndOfFile -- the data is gone). The
  // map's holder reference is released, letting the close IRP proceed.
  void NodeDeleted(const void* node);

  // Called by the file system on IRP_MJ_CLEANUP for a file object that had
  // caching initialized. Drives the two-stage close protocol.
  void CleanupCacheMap(FileObject& file);

  // --- Introspection ---------------------------------------------------------

  const CacheStats& stats() const { return stats_; }
  PageStore& pages() { return pages_; }
  const CacheConfig& config() const { return config_; }
  size_t active_maps() const { return maps_.size(); }
  size_t pending_teardowns() const { return pending_teardowns_; }

 private:
  // Per-file-object read-ahead tracking (NT: PrivateCacheMap).
  struct PrivateCacheMap {
    uint64_t last_end_masked = UINT64_MAX;
    int sequential_count = 0;
    uint64_t high_water = 0;  // Highest prefetched/loaded offset.
  };

  SimDuration CopyCost(uint32_t bytes) const;
  // Dispatches `irp`, re-issuing on device errors up to kPagingIoRetries
  // times. Returns the final status.
  NtStatus CallWithPagingRetry(SharedCacheMap& map, Irp& irp);
  // Issues one paging read IRP for [offset, offset+length) and marks pages
  // resident. `extra_flags` adds kIrpReadAhead for speculative loads.
  void IssuePagingRead(SharedCacheMap& map, uint64_t offset, uint64_t length,
                       uint32_t extra_flags);
  void IssuePagingWrite(SharedCacheMap& map, uint64_t offset, uint64_t length,
                        uint32_t extra_flags);
  // Faults in the non-resident pages covering [offset, offset+length),
  // coalescing misses into contiguous runs. Returns faulted page count.
  uint64_t FaultMissingPages(SharedCacheMap& map, uint64_t offset, uint64_t length,
                             uint32_t extra_flags);
  void TrackReadAhead(SharedCacheMap& map, FileObject& file, uint64_t offset, uint32_t length);
  void LazyWriterScan();
  // Writes up to `max_pages` dirty pages of the node in coalesced runs.
  // Returns pages written.
  uint64_t WriteDirtyRuns(SharedCacheMap& map, uint64_t max_pages);
  void FinishTeardown(SharedCacheMap& map);

  Engine& engine_;
  IoManager& io_;
  CacheConfig config_;
  Rng rng_;
  PageStore pages_;
  CacheStats stats_;
  // Flat maps (DESIGN.md §9): FindMap runs on every cached transfer. The
  // lazy-writer scan sorts by creation_order before acting, so the
  // unspecified iteration order never reaches the trace.
  FlatMap<const void*, std::unique_ptr<SharedCacheMap>> maps_;
  FlatMap<uint64_t, PrivateCacheMap> private_maps_;  // Keyed by file-object id.
  // Maps whose final close happened but whose teardown has not completed.
  // Lets the once-per-simulated-second scan skip entirely when there are no
  // dirty pages and no teardowns to finish (the common idle case). It must
  // count exactly the maps in maps_ with teardown_pending set, so every
  // path that clears the flag or erases such a map (FinishTeardown,
  // resurrection in InitializeCacheMap, NodeDeleted) decrements it.
  uint64_t pending_teardowns_ = 0;
  // Scan scratch (reused: the scan runs once per simulated second and must
  // not allocate in the idle steady state).
  std::vector<std::pair<uint64_t, const void*>> scan_scratch_;
  bool started_ = false;
};

}  // namespace ntrace

#endif  // SRC_MM_CACHE_MANAGER_H_
