#include "src/mm/cache_manager.h"

#include <algorithm>
#include <cassert>

#include "src/metrics/metrics.h"

namespace ntrace {

namespace {

// Process-wide cache-manager counters (DESIGN.md §8); per-system CacheStats
// stay the per-run source of truth, these expose the same activity live.
struct CcMetrics {
  Counter& copy_reads;
  Counter& copy_read_hits;
  Counter& copy_writes;
  Counter& fault_irps;
  Counter& fault_bytes;
  Counter& readahead_irps;
  Counter& readahead_bytes;
  Counter& lazy_scans;
  Counter& lazy_write_irps;
  Counter& lazy_write_bytes;
  Counter& flush_ops;
  Counter& flush_bytes;
  Counter& write_throttles;
  Counter& paging_retries;
  Counter& paging_read_errors;
  Counter& paging_write_errors;

  static CcMetrics& Get() {
    static CcMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return CcMetrics{
          r.GetCounter("ntrace_mm_copy_read_total", "Cache copy-reads (blocking and no-wait)"),
          r.GetCounter("ntrace_mm_copy_read_hit_total",
                       "Copy-reads served entirely from resident pages (section 9 hit ratio)"),
          r.GetCounter("ntrace_mm_copy_write_total", "Cached writes (dirtying copies)"),
          r.GetCounter("ntrace_mm_cache_fault_irp_total",
                       "Synchronous paging-read IRPs issued on behalf of copy interfaces"),
          r.GetCounter("ntrace_mm_cache_fault_bytes_total",
                       "Bytes faulted in synchronously for copy interfaces"),
          r.GetCounter("ntrace_mm_readahead_irp_total",
                       "Speculative read-ahead paging IRPs (section 9.1)"),
          r.GetCounter("ntrace_mm_readahead_bytes_total", "Bytes loaded by read-ahead"),
          r.GetCounter("ntrace_mm_lazy_scan_total", "Lazy-writer scan passes (section 9.2)"),
          r.GetCounter("ntrace_mm_lazy_write_irp_total",
                       "Write-behind paging IRPs (lazy writer and explicit flushes)"),
          r.GetCounter("ntrace_mm_lazy_write_bytes_total", "Bytes written behind"),
          r.GetCounter("ntrace_mm_flush_op_total",
                       "Explicit flush requests (FlushBuffers, write-through)"),
          r.GetCounter("ntrace_mm_flush_bytes_total", "Bytes written by explicit flushes"),
          r.GetCounter("ntrace_mm_write_throttle_total",
                       "CcCanIWrite-style stalls under dirty-page pressure"),
          r.GetCounter("ntrace_mm_paging_retry_total",
                       "Paging transfers re-issued after injected device errors"),
          r.GetCounter("ntrace_mm_paging_read_error_total",
                       "Paging reads failed after bounded retries"),
          r.GetCounter("ntrace_mm_paging_write_error_total",
                       "Paging writes failed after bounded retries (pages discarded)"),
      };
    }();
    return m;
  }
};

}  // namespace

void CacheStats::Accumulate(const CacheStats& s) {
  copy_reads += s.copy_reads;
  copy_read_hits += s.copy_read_hits;
  copy_read_bytes += s.copy_read_bytes;
  fault_irps += s.fault_irps;
  fault_bytes += s.fault_bytes;
  readahead_irps += s.readahead_irps;
  readahead_bytes += s.readahead_bytes;
  copy_writes += s.copy_writes;
  copy_write_bytes += s.copy_write_bytes;
  rmw_faults += s.rmw_faults;
  lazy_write_irps += s.lazy_write_irps;
  lazy_write_bytes += s.lazy_write_bytes;
  lazy_scans += s.lazy_scans;
  write_throttles += s.write_throttles;
  flush_ops += s.flush_ops;
  flush_bytes += s.flush_bytes;
  seteof_on_close += s.seteof_on_close;
  maps_created += s.maps_created;
  maps_resurrected += s.maps_resurrected;
  teardowns += s.teardowns;
  purge_calls += s.purge_calls;
  purges_with_dirty += s.purges_with_dirty;
  dirty_pages_discarded += s.dirty_pages_discarded;
  temporary_pages_skipped += s.temporary_pages_skipped;
  paging_retries += s.paging_retries;
  paging_read_failures += s.paging_read_failures;
  paging_write_failures += s.paging_write_failures;
}

CacheManager::CacheManager(Engine& engine, IoManager& io, CacheConfig config, uint64_t rng_seed)
    : engine_(engine), io_(io), config_(config), rng_(rng_seed),
      pages_(config.capacity_pages) {}

void CacheManager::Start() {
  assert(!started_);
  started_ = true;
  engine_.SchedulePeriodic(config_.lazy_write_period, config_.lazy_write_period,
                           [this] { LazyWriterScan(); });
}

SimDuration CacheManager::CopyCost(uint32_t bytes) const {
  return config_.copy_fixed +
         SimDuration::Ticks(static_cast<int64_t>(bytes * config_.copy_ns_per_byte / 100.0));
}

void CacheManager::InitializeCacheMap(FileObject& file, const void* node, uint64_t file_size) {
  auto it = maps_.find(node);
  SharedCacheMap* map = nullptr;
  if (it != maps_.end()) {
    map = it->second.get();
    if (map->teardown_pending) {
      // A new open raced the pending teardown: resurrect the map. The old
      // holder stays referenced until the (re-armed) final teardown.
      map->teardown_pending = false;
      assert(pending_teardowns_ > 0);
      --pending_teardowns_;
      ++map->generation;
      ++stats_.maps_resurrected;
    }
    ++map->open_count;
  } else {
    auto owned = std::make_unique<SharedCacheMap>();
    map = owned.get();
    map->node = node;
    map->device = file.device();
    map->holder = &file;
    map->file_size = file_size;
    map->granularity = file_size >= config_.boost_threshold ? config_.boosted_granularity
                                                            : config_.read_ahead_granularity;
    map->open_count = 1;
    io_.ReferenceFileObject(file);
    maps_.emplace(node, std::move(owned));
    ++stats_.maps_created;
    map->creation_order = stats_.maps_created;
  }
  map->sequential_hint = map->sequential_hint || file.sequential_only;
  map->temporary = map->temporary || file.temporary;
  file.shared_cache_map = map;
  file.caching_initialized = true;
  private_maps_.emplace(file.id(), PrivateCacheMap{});
}

SharedCacheMap* CacheManager::FindMap(const void* node) {
  auto it = maps_.find(node);
  return it == maps_.end() ? nullptr : it->second.get();
}

NtStatus CacheManager::CallWithPagingRetry(SharedCacheMap& map, Irp& irp) {
  // Mirrors the VM manager's bounded in-page retry: device errors are
  // re-issued a few times before the transfer is declared failed.
  NtStatus status = io_.CallDriver(map.device, irp);
  for (int retry = 0; NtDeviceError(status) && retry < kPagingIoRetries; ++retry) {
    ++stats_.paging_retries;
    CcMetrics::Get().paging_retries.Inc();
    engine_.AdvanceBy(kPagingRetryDelay);
    status = io_.CallDriver(map.device, irp);
  }
  return status;
}

void CacheManager::IssuePagingRead(SharedCacheMap& map, uint64_t offset, uint64_t length,
                                   uint32_t extra_flags) {
  PooledIrp irp(io_.irp_pool());
  irp->major = IrpMajor::kRead;
  irp->flags = kIrpPagingIo | kIrpCacheFault | extra_flags;
  irp->file_object = map.holder;
  irp->process_id = map.holder->process_id();
  irp->params.offset = offset;
  irp->params.length = static_cast<uint32_t>(length);
  if (NtDeviceError(CallWithPagingRetry(map, *irp))) {
    // The copy interface would raise to its caller; the failure is counted
    // and the pages are treated as filled so cache state stays consistent.
    ++stats_.paging_read_failures;
    CcMetrics::Get().paging_read_errors.Inc();
  }
  const uint64_t first = PageIndex(offset);
  const uint64_t span = PageSpan(offset, length);
  for (uint64_t p = first; p < first + span; ++p) {
    pages_.Insert(map.node, p);
  }
}

void CacheManager::IssuePagingWrite(SharedCacheMap& map, uint64_t offset, uint64_t length,
                                    uint32_t extra_flags) {
  PooledIrp irp(io_.irp_pool());
  irp->major = IrpMajor::kWrite;
  irp->flags = kIrpPagingIo | kIrpCacheFault | extra_flags;
  irp->file_object = map.holder;
  irp->process_id = map.holder->process_id();
  irp->params.offset = offset;
  irp->params.length = static_cast<uint32_t>(length);
  if (NtDeviceError(CallWithPagingRetry(map, *irp))) {
    // Retries exhausted: the dirty data cannot reach the media. Discard and
    // account for it (pages stay clean so teardown cannot loop forever on a
    // dead device); dirty_pages_discarded already tracks purge-path loss.
    ++stats_.paging_write_failures;
    CcMetrics::Get().paging_write_errors.Inc();
    stats_.dirty_pages_discarded += PageSpan(offset, length);
  }
  const uint64_t first = PageIndex(offset);
  const uint64_t span = PageSpan(offset, length);
  for (uint64_t p = first; p < first + span; ++p) {
    pages_.MarkClean(map.node, p);
  }
}

uint64_t CacheManager::FaultMissingPages(SharedCacheMap& map, uint64_t offset, uint64_t length,
                                         uint32_t extra_flags) {
  if (length == 0) {
    return 0;
  }
  const uint64_t first = PageIndex(offset);
  const uint64_t span = PageSpan(offset, length);
  uint64_t faulted = 0;
  uint64_t run_start = 0;
  uint64_t run_len = 0;  // In pages.
  auto flush_run = [&] {
    if (run_len == 0) {
      return;
    }
    const uint64_t byte_off = run_start * kPageSize;
    const uint64_t byte_len = run_len * kPageSize;
    const bool read_ahead = (extra_flags & kIrpReadAhead) != 0;
    ++(read_ahead ? stats_.readahead_irps : stats_.fault_irps);
    (read_ahead ? stats_.readahead_bytes : stats_.fault_bytes) += byte_len;
    CcMetrics& metrics = CcMetrics::Get();
    (read_ahead ? metrics.readahead_irps : metrics.fault_irps).Inc();
    (read_ahead ? metrics.readahead_bytes : metrics.fault_bytes).Inc(byte_len);
    IssuePagingRead(map, byte_off, byte_len, extra_flags);
    faulted += run_len;
    run_len = 0;
  };
  for (uint64_t p = first; p < first + span; ++p) {
    if (pages_.IsResident(map.node, p)) {
      pages_.Touch(map.node, p);
      flush_run();
      continue;
    }
    if (run_len == 0) {
      run_start = p;
    } else if (run_start + run_len != p) {
      flush_run();
      run_start = p;
    }
    ++run_len;
  }
  flush_run();
  return faulted;
}

// Read-ahead runs on a cache-manager worker thread. The hop onto that thread
// is far below the granularity of a workload callback, and a deferred event
// cannot run until the callback returns -- after the session's own close has
// invalidated the map -- so the prefetch issues inline, ahead of the next
// copy read.
void CacheManager::TrackReadAhead(SharedCacheMap& map, FileObject& file, uint64_t offset,
                                  uint32_t length) {
  if (!config_.read_ahead_enabled) {
    return;
  }
  auto pit = private_maps_.find(file.id());
  if (pit == private_maps_.end()) {
    return;
  }
  PrivateCacheMap& priv = pit->second;
  const uint64_t mask = ~static_cast<uint64_t>(config_.fuzzy_mask);
  const uint64_t end = offset + length;
  const bool sequential =
      priv.last_end_masked != UINT64_MAX && (offset & mask) == priv.last_end_masked;
  priv.sequential_count = sequential ? priv.sequential_count + 1 : 1;
  priv.last_end_masked = end & mask;

  const uint64_t gran =
      static_cast<uint64_t>(map.granularity) * (map.sequential_hint ? 2 : 1);

  // First access after cache initialization: one speculative load covering
  // the read-ahead granularity from the start of the request (this is the
  // "single prefetch" that section 9.1 finds sufficient in 92% of
  // open-for-read cases). The decision is made exactly once per map -- a
  // request already spanning the granularity leaves nothing to prefetch,
  // but must not pin the map in this branch or the sequential-extension
  // path below would never become reachable.
  if (!map.initial_readahead_done) {
    map.initial_readahead_done = true;
    const uint64_t ra_start = end;
    const uint64_t ra_goal = std::min<uint64_t>(map.file_size, offset + gran);
    priv.high_water = std::max(priv.high_water, end);
    if (ra_goal > ra_start) {
      ++map.readahead_ops;
      FaultMissingPages(map, ra_start, ra_goal - ra_start, kIrpReadAhead);
      priv.high_water = std::max(priv.high_water, ra_goal);
    }
    return;
  }

  priv.high_water = std::max(priv.high_water, end);

  // Subsequent read-ahead on the Nth sequential request, extending beyond
  // the private high-water mark.
  if (priv.sequential_count >= config_.sequential_detect_count) {
    const uint64_t ra_start = priv.high_water;
    const uint64_t ra_goal = std::min<uint64_t>(map.file_size, ra_start + gran);
    if (ra_goal > ra_start) {
      ++map.readahead_ops;
      FaultMissingPages(map, ra_start, ra_goal - ra_start, kIrpReadAhead);
      priv.high_water = ra_goal;
    }
  }
}

CacheManager::CopyResult CacheManager::CopyRead(FileObject& file, uint64_t offset,
                                                uint32_t length) {
  SharedCacheMap* map = file.shared_cache_map;
  assert(map != nullptr && "CopyRead without initialized caching");
  ++stats_.copy_reads;
  stats_.copy_read_bytes += length;
  CcMetrics& metrics = CcMetrics::Get();
  metrics.copy_reads.Inc();
  const uint64_t faulted = FaultMissingPages(*map, offset, length, 0);
  if (faulted == 0) {
    ++stats_.copy_read_hits;
    metrics.copy_read_hits.Inc();
  }
  engine_.AdvanceBy(CopyCost(length));
  TrackReadAhead(*map, file, offset, length);
  return {faulted == 0, length};
}

bool CacheManager::CopyReadNoWait(FileObject& file, uint64_t offset, uint32_t length,
                                  uint64_t* bytes_out) {
  SharedCacheMap* map = file.shared_cache_map;
  if (map == nullptr) {
    return false;
  }
  const uint64_t first = PageIndex(offset);
  const uint64_t span = PageSpan(offset, length);
  for (uint64_t p = first; p < first + span; ++p) {
    if (!pages_.IsResident(map->node, p)) {
      return false;  // Caller retries via the IRP path (blocking fault).
    }
  }
  for (uint64_t p = first; p < first + span; ++p) {
    pages_.Touch(map->node, p);
  }
  ++stats_.copy_reads;
  ++stats_.copy_read_hits;
  stats_.copy_read_bytes += length;
  CcMetrics& metrics = CcMetrics::Get();
  metrics.copy_reads.Inc();
  metrics.copy_read_hits.Inc();
  engine_.AdvanceBy(CopyCost(length));
  TrackReadAhead(*map, file, offset, length);
  *bytes_out = length;
  return true;
}

uint64_t CacheManager::CopyWrite(FileObject& file, uint64_t offset, uint32_t length) {
  SharedCacheMap* map = file.shared_cache_map;
  assert(map != nullptr && "CopyWrite without initialized caching");
  // Write throttling (NT: CcCanIWrite): when dirty pages crowd the cache,
  // the writer stalls while this file's backlog is pushed to disk.
  if (config_.capacity_pages > 0 &&
      pages_.dirty_pages() > config_.capacity_pages * 3 / 4) {
    ++stats_.write_throttles;
    CcMetrics::Get().write_throttles.Inc();
    WriteDirtyRuns(*map, pages_.DirtyCountOf(map->node));
  }
  ++stats_.copy_writes;
  stats_.copy_write_bytes += length;
  CcMetrics::Get().copy_writes.Inc();
  map->wrote_data = true;

  const uint64_t old_size = map->file_size;
  const uint64_t end = offset + length;
  map->file_size = std::max(map->file_size, end);

  const uint64_t first = PageIndex(offset);
  const uint64_t span = PageSpan(offset, length);
  for (uint64_t p = first; p < first + span; ++p) {
    const uint64_t page_start = p * kPageSize;
    const uint64_t page_end = page_start + kPageSize;
    const bool fully_covered = offset <= page_start && end >= page_end;
    const bool within_old_data = page_start < old_size;
    if (!fully_covered && within_old_data && !pages_.IsResident(map->node, p)) {
      // Partial write into existing data: read-modify-write fault.
      ++stats_.rmw_faults;
      ++stats_.fault_irps;
      stats_.fault_bytes += kPageSize;
      CcMetrics::Get().fault_irps.Inc();
      CcMetrics::Get().fault_bytes.Inc(kPageSize);
      IssuePagingRead(*map, page_start, kPageSize, 0);
    }
    pages_.MarkDirty(map->node, p);
  }
  engine_.AdvanceBy(CopyCost(length));
  return length;
}

void CacheManager::FlushRange(FileObject& file, uint64_t offset, uint64_t length) {
  SharedCacheMap* map = file.shared_cache_map;
  if (map == nullptr) {
    map = FindMap(file.fs_context);
    if (map == nullptr) {
      return;
    }
  }
  ++stats_.flush_ops;
  CcMetrics::Get().flush_ops.Inc();
  const uint64_t flush_end = length == 0 ? UINT64_MAX : offset + length;
  const std::vector<uint64_t> dirty = pages_.DirtyPagesOf(map->node);
  uint64_t run_start = 0;
  uint64_t run_len = 0;
  auto flush_run = [&] {
    if (run_len == 0) {
      return;
    }
    const uint64_t bytes = run_len * kPageSize;
    ++stats_.lazy_write_irps;  // Counted as write-behind traffic either way.
    stats_.flush_bytes += bytes;
    CcMetrics::Get().lazy_write_irps.Inc();
    CcMetrics::Get().flush_bytes.Inc(bytes);
    IssuePagingWrite(*map, run_start * kPageSize, bytes, 0);
    run_len = 0;
  };
  for (uint64_t p : dirty) {
    const uint64_t page_start = p * kPageSize;
    if (page_start + kPageSize <= offset || page_start >= flush_end) {
      continue;
    }
    if (run_len == 0) {
      run_start = p;
    } else if (run_start + run_len != p ||
               run_len * kPageSize >= config_.max_write_run_bytes) {
      flush_run();
      run_start = p;
    }
    ++run_len;
  }
  flush_run();
}

void CacheManager::SetFileSize(const void* node, uint64_t new_size) {
  SharedCacheMap* map = FindMap(node);
  if (map != nullptr) {
    map->file_size = new_size;
  }
  // Drop pages fully beyond the new end of file.
  const uint64_t first_dropped = (new_size + kPageSize - 1) / kPageSize;
  pages_.TruncateNode(node, first_dropped);
}

uint64_t CacheManager::PurgeNode(const void* node) {
  ++stats_.purge_calls;
  const uint64_t discarded = pages_.PurgeNode(node);
  if (discarded > 0) {
    ++stats_.purges_with_dirty;
    stats_.dirty_pages_discarded += discarded;
  }
  return discarded;
}

void CacheManager::NodeDeleted(const void* node) {
  PurgeNode(node);
  SharedCacheMap* map = FindMap(node);
  if (map == nullptr) {
    return;
  }
  ++map->generation;  // Invalidate any scheduled teardown work.
  if (map->teardown_pending) {
    // The count must drop with the map, or the lazy writer's idle path
    // never holds again for this system.
    assert(pending_teardowns_ > 0);
    --pending_teardowns_;
  }
  FileObject* holder = map->holder;
  maps_.erase(node);
  ++stats_.teardowns;
  io_.DereferenceFileObject(*holder);
}

void CacheManager::CleanupCacheMap(FileObject& file) {
  SharedCacheMap* map = file.shared_cache_map;
  if (map == nullptr) {
    return;
  }
  private_maps_.erase(file.id());
  file.shared_cache_map = nullptr;
  file.caching_initialized = false;
  assert(map->open_count > 0);
  if (--map->open_count > 0) {
    return;
  }
  map->teardown_pending = true;
  ++pending_teardowns_;
  ++map->generation;
  const void* node = map->node;
  const uint64_t gen = map->generation;
  if (pages_.DirtyCountOf(node) == 0) {
    // Read-cached file: close follows cleanup within tens of microseconds.
    const int64_t lo = config_.read_close_delay_min.ticks();
    const int64_t hi = config_.read_close_delay_max.ticks();
    const SimDuration delay = SimDuration::Ticks(rng_.UniformInt(lo, hi));
    engine_.Schedule(delay, [this, node, gen] {
      SharedCacheMap* m = FindMap(node);
      if (m == nullptr || m->generation != gen || !m->teardown_pending) {
        return;
      }
      FinishTeardown(*m);
    });
  }
  // Otherwise the lazy writer completes the teardown once the node is clean
  // (typically 1-4 seconds later).
}

void CacheManager::LazyWriterScan() {
  ++stats_.lazy_scans;
  CcMetrics::Get().lazy_scans.Inc();
  // Idle fast path: with no dirty pages anywhere and no teardown waiting to
  // complete, the per-node walk below is a no-op -- and on the paper's
  // workload most simulated seconds are exactly this case. The scan runs
  // once per simulated second per system, so this branch is the difference
  // between an O(1) tick and an O(maps) sort + probe storm.
  if (pages_.dirty_pages() == 0 && pending_teardowns_ == 0) {
    return;
  }
  // Collect node keys first (teardown mutates maps_), in creation order:
  // hash-map order follows heap addresses and would break run determinism.
  std::vector<std::pair<uint64_t, const void*>>& ordered = scan_scratch_;
  ordered.clear();
  ordered.reserve(maps_.size());
  for (const auto& [node, map] : maps_) {
    ordered.emplace_back(map->creation_order, node);
  }
  std::sort(ordered.begin(), ordered.end());
  for (const auto& [_, node] : ordered) {
    SharedCacheMap* map = FindMap(node);
    if (map == nullptr) {
      continue;
    }
    const uint64_t dirty = pages_.DirtyCountOf(node);
    if (dirty == 0) {
      if (map->teardown_pending) {
        FinishTeardown(*map);
      }
      continue;
    }
    if (map->temporary && !map->teardown_pending) {
      // The temporary attribute keeps the lazy writer away from these pages.
      stats_.temporary_pages_skipped += dirty;
      continue;
    }
    uint64_t quota;
    if (map->teardown_pending) {
      // Drain over a few scans: the paper observes write-cached closes
      // landing 1-4 seconds after cleanup.
      quota = std::max<uint64_t>(dirty / 3, 16);
    } else {
      quota = std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(dirty) * config_.lazy_write_fraction));
    }
    WriteDirtyRuns(*map, quota);
    if (map->teardown_pending && pages_.DirtyCountOf(node) == 0) {
      FinishTeardown(*map);
    }
  }
}

uint64_t CacheManager::WriteDirtyRuns(SharedCacheMap& map, uint64_t max_pages) {
  const std::vector<uint64_t> dirty = pages_.DirtyPagesOf(map.node);
  uint64_t written = 0;
  uint64_t run_start = 0;
  uint64_t run_len = 0;
  auto flush_run = [&] {
    if (run_len == 0) {
      return;
    }
    const uint64_t byte_off = run_start * kPageSize;
    // The final page of a file is written whole even when the file ends
    // mid-page; SetEndOfFile at close trims the excess (section 8.3).
    const uint64_t byte_len = run_len * kPageSize;
    ++stats_.lazy_write_irps;
    stats_.lazy_write_bytes += byte_len;
    CcMetrics::Get().lazy_write_irps.Inc();
    CcMetrics::Get().lazy_write_bytes.Inc(byte_len);
    IssuePagingWrite(map, byte_off, byte_len, kIrpLazyWrite);
    written += run_len;
    run_len = 0;
  };
  for (uint64_t p : dirty) {
    if (written + run_len >= max_pages) {
      break;
    }
    if (run_len == 0) {
      run_start = p;
    } else if (run_start + run_len != p ||
               run_len * kPageSize >= config_.max_write_run_bytes) {
      flush_run();
      run_start = p;
    }
    ++run_len;
  }
  flush_run();
  return written;
}

void CacheManager::FinishTeardown(SharedCacheMap& map) {
  assert(map.teardown_pending);
  assert(pending_teardowns_ > 0);
  --pending_teardowns_;
  FileObject* holder = map.holder;
  const void* node = map.node;
  if (map.wrote_data) {
    // Delayed VM writes are page-granular; move the end-of-file mark back to
    // the true size before the close (section 8.3).
    ++stats_.seteof_on_close;
    PooledIrp irp(io_.irp_pool());
    irp->major = IrpMajor::kSetInformation;
    // Issued by the cache manager, not the app.
    irp->flags = kIrpPagingIo | kIrpCacheFault;
    irp->file_object = holder;
    irp->process_id = kSystemProcessId;
    irp->params.info_class = FileInfoClass::kEndOfFile;
    irp->params.new_size = map.file_size;
    io_.CallDriver(map.device, *irp);
  }
  ++stats_.teardowns;
  maps_.erase(node);  // `map` is dangling after this line.
  io_.DereferenceFileObject(*holder);
}

}  // namespace ntrace
