#include "src/mm/vm_manager.h"

#include <algorithm>
#include <cassert>

namespace ntrace {

VmManager::VmManager(Engine& engine, IoManager& io, CacheManager& cache)
    : engine_(engine), io_(io), cache_(cache) {}

uint64_t VmManager::CreateSection(FileObject& file, uint64_t size, bool image) {
  Section s;
  s.id = next_id_++;
  s.file = &file;
  s.node = file.fs_context;
  s.size = size;
  s.image = image;
  io_.ReferenceFileObject(file);
  ++stats_.sections_created;
  if (image) {
    ++stats_.image_sections;
  }
  const uint64_t id = s.id;
  sections_.emplace(id, s);
  return id;
}

NtStatus VmManager::CallWithPagingRetry(FileObject& file, Irp& irp) {
  NtStatus status = io_.CallDriver(file.device(), irp);
  for (int retry = 0; NtDeviceError(status) && retry < kPagingIoRetries; ++retry) {
    ++stats_.paging_retries;
    engine_.AdvanceBy(kPagingRetryDelay);
    status = io_.CallDriver(file.device(), irp);
  }
  return status;
}

void VmManager::IssuePagingRead(Section& s, uint64_t offset, uint64_t length) {
  PooledIrp irp(io_.irp_pool());
  irp->major = IrpMajor::kRead;
  irp->flags = kIrpPagingIo;
  irp->file_object = s.file;
  irp->process_id = s.file->process_id();
  irp->params.offset = offset;
  irp->params.length = static_cast<uint32_t>(length);
  if (NtDeviceError(CallWithPagingRetry(*s.file, *irp))) {
    // Retries exhausted: NT would raise an in-page error in the faulting
    // thread. The failure is counted, never silent; the pages are still
    // mapped in so the workload can proceed (analyses see the errored IRPs
    // in the trace).
    ++stats_.paging_read_failures;
  }
  ++stats_.fault_irps;
  stats_.fault_bytes += length;
}

uint64_t VmManager::FaultRange(uint64_t section_id, uint64_t offset, uint64_t length) {
  auto it = sections_.find(section_id);
  assert(it != sections_.end());
  Section& s = it->second;
  length = std::min(length, s.size > offset ? s.size - offset : 0);
  if (length == 0) {
    return 0;
  }
  PageStore& pages = cache_.pages();
  const uint64_t first = PageIndex(offset);
  const uint64_t span = PageSpan(offset, length);
  uint64_t hard_faults = 0;
  uint64_t p = first;
  while (p < first + span) {
    if (pages.IsResident(s.node, p)) {
      pages.Touch(s.node, p);
      ++stats_.soft_faults;
      ++p;
      continue;
    }
    // Hard fault: read a cluster of pages starting here (bounded by the
    // remaining request and the section size).
    const uint64_t section_pages = (s.size + kPageSize - 1) / kPageSize;
    const uint64_t cluster_end =
        std::min<uint64_t>({p + s.cluster_pages, first + span, section_pages});
    const uint64_t run = std::max<uint64_t>(1, cluster_end - p);
    IssuePagingRead(s, p * kPageSize, run * kPageSize);
    for (uint64_t q = p; q < p + run; ++q) {
      pages.Insert(s.node, q);
    }
    hard_faults += run;
    stats_.pages_faulted += run;
    p += run;
  }
  return hard_faults;
}

void VmManager::DirtyRange(uint64_t section_id, uint64_t offset, uint64_t length) {
  auto it = sections_.find(section_id);
  assert(it != sections_.end());
  Section& s = it->second;
  length = std::min(length, s.size > offset ? s.size - offset : 0);
  PageStore& pages = cache_.pages();
  const uint64_t first = PageIndex(offset);
  const uint64_t span = PageSpan(offset, length);
  for (uint64_t p = first; p < first + span; ++p) {
    pages.MarkDirty(s.node, p);
  }
}

void VmManager::DeleteSection(uint64_t section_id) {
  auto it = sections_.find(section_id);
  if (it == sections_.end()) {
    return;
  }
  // Flush mapped-writer dirty pages synchronously if no cache map exists to
  // lazy-write them (rare: data sections over uncached files).
  Section& s = it->second;
  if (cache_.FindMap(s.node) == nullptr && cache_.pages().DirtyCountOf(s.node) > 0) {
    const std::vector<uint64_t> dirty = cache_.pages().DirtyPagesOf(s.node);
    for (uint64_t p : dirty) {
      PooledIrp irp(io_.irp_pool());
      irp->major = IrpMajor::kWrite;
      irp->flags = kIrpPagingIo;
      irp->file_object = s.file;
      irp->process_id = s.file->process_id();
      irp->params.offset = p * kPageSize;
      irp->params.length = static_cast<uint32_t>(kPageSize);
      if (NtDeviceError(CallWithPagingRetry(*s.file, *irp))) {
        ++stats_.paging_write_failures;
      }
      cache_.pages().MarkClean(s.node, p);
    }
  }
  FileObject* file = s.file;
  sections_.erase(it);
  io_.DereferenceFileObject(*file);
}

}  // namespace ntrace
