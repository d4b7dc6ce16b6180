#include "src/fs/fs_driver.h"

#include <algorithm>
#include <cassert>

#include "src/base/format.h"

namespace ntrace {

FileSystemDriver::FileSystemDriver(Engine& engine, CacheManager& cache,
                                   std::unique_ptr<Volume> volume, std::string prefix,
                                   DiskProfile disk_profile, FsOptions options)
    : engine_(engine),
      cache_(cache),
      volume_(std::move(volume)),
      prefix_(std::move(prefix)),
      disk_(disk_profile),
      options_(options) {}

std::string_view FileSystemDriver::RelativePath(std::string_view absolute) const {
  if (absolute.size() <= prefix_.size()) {
    return {};
  }
  std::string_view rel = absolute.substr(prefix_.size());
  const size_t start = rel.find_first_not_of('\\');
  return start == std::string_view::npos ? std::string_view() : rel.substr(start);
}

NtStatus FileSystemDriver::Complete(Irp& irp, NtStatus status, uint64_t information) {
  irp.result.status = status;
  irp.result.information = information;
  const size_t idx = static_cast<size_t>(irp.major);
  ++stats_.irps_by_major[idx];
  if (NtError(status)) {
    ++stats_.errors_by_major[idx];
  }
  return status;
}

SimDuration FileSystemDriver::MediaAccess(FileNode* node, uint64_t offset, uint64_t bytes,
                                          bool write) {
  return disk_.Access(node->disk_position + offset, bytes, write);
}

bool FileSystemDriver::InjectMediaFault(bool write) {
  if (fault_injector_ == nullptr) {
    return false;
  }
  const FaultSite site = write ? FaultSite::kDiskWrite : FaultSite::kDiskRead;
  if (!fault_injector_->ShouldFail(site, engine_.Now())) {
    return false;
  }
  engine_.AdvanceBy(disk_.FailedAccess());
  if (write) {
    ++stats_.injected_write_errors;
  } else {
    ++stats_.injected_read_errors;
  }
  return true;
}

SimDuration FileSystemDriver::MetadataAccess(size_t path_components) {
  return options_.metadata_cost_per_component * static_cast<int64_t>(std::max<size_t>(
             path_components, 1));
}

NtStatus FileSystemDriver::DispatchIrp(DeviceObject* device, Irp& irp) {
  (void)device;
  switch (irp.major) {
    case IrpMajor::kCreate:
      return HandleCreate(irp);
    case IrpMajor::kRead:
      return HandleRead(irp);
    case IrpMajor::kWrite:
      return HandleWrite(irp);
    case IrpMajor::kQueryInformation:
      return HandleQueryInformation(irp);
    case IrpMajor::kSetInformation:
      return HandleSetInformation(irp);
    case IrpMajor::kDirectoryControl:
      return HandleDirectoryControl(irp);
    case IrpMajor::kFileSystemControl:
    case IrpMajor::kDeviceControl:
      return HandleFsControl(irp);
    case IrpMajor::kFlushBuffers:
      return HandleFlush(irp);
    case IrpMajor::kCleanup:
      return HandleCleanup(irp);
    case IrpMajor::kClose:
      return HandleClose(irp);
    case IrpMajor::kQueryVolumeInformation:
      return HandleQueryVolumeInformation(irp);
    case IrpMajor::kLockControl:
      return HandleLockControl(irp);
    case IrpMajor::kQueryEa:
    case IrpMajor::kSetEa:
    case IrpMajor::kQuerySecurity:
    case IrpMajor::kSetSecurity:
    case IrpMajor::kShutdown:
      engine_.AdvanceBy(options_.control_op_cost);
      return Complete(irp, NtStatus::kSuccess);
  }
  return Complete(irp, NtStatus::kInvalidDeviceRequest);
}

NtStatus FileSystemDriver::HandleCreate(Irp& irp) {
  FileObject& fo = *irp.file_object;
  const std::string_view rel = RelativePath(irp.path);
  const size_t components = CountPathComponents(rel);
  engine_.AdvanceBy(MetadataAccess(components));

  const SimTime now = engine_.Now();
  const IrpParameters& p = irp.params;
  const bool wants_dir = (p.create_options & kOptDirectoryFile) != 0;
  const bool wants_file = (p.create_options & kOptNonDirectoryFile) != 0;

  FileNode* node = nullptr;
  if (components == 0) {
    node = volume_->root();  // Volume-root open.
  } else {
    std::string_view leaf;
    FileNode* parent = volume_->LookupParent(rel, &leaf);
    if (parent == nullptr) {
      return Complete(irp, NtStatus::kObjectPathNotFound);
    }
    node = parent->FindChild(leaf);
    if (node != nullptr && !node->directory() &&
        !ShareAccessPermits(*node, p.desired_access, p.share_access)) {
      return Complete(irp, NtStatus::kSharingViolation);
    }

    CreateAction action = CreateAction::kOpened;
    switch (p.disposition) {
      case CreateDisposition::kOpen:
        if (node == nullptr) {
          return Complete(irp, NtStatus::kObjectNameNotFound);
        }
        break;
      case CreateDisposition::kCreate:
        if (node != nullptr) {
          return Complete(irp, NtStatus::kObjectNameCollision);
        }
        node = volume_->CreateNode(parent, leaf, wants_dir, p.file_attributes, now);
        action = CreateAction::kCreated;
        break;
      case CreateDisposition::kOpenIf:
        if (node == nullptr) {
          node = volume_->CreateNode(parent, leaf, wants_dir, p.file_attributes, now);
          action = CreateAction::kCreated;
        }
        break;
      case CreateDisposition::kOverwrite:
      case CreateDisposition::kOverwriteIf:
        if (node == nullptr) {
          if (p.disposition == CreateDisposition::kOverwrite) {
            return Complete(irp, NtStatus::kObjectNameNotFound);
          }
          node = volume_->CreateNode(parent, leaf, /*directory=*/false, p.file_attributes, now);
          action = CreateAction::kCreated;
        } else {
          if (node->directory()) {
            return Complete(irp, NtStatus::kFileIsADirectory);
          }
          if (node->delete_pending) {
            return Complete(irp, NtStatus::kDeletePending);
          }
          // Truncate-on-open: discard cached pages (possibly dirty, section
          // 6.3) and reset the size; the creation time is preserved.
          cache_.PurgeNode(node);
          volume_->NodeResized(node, 0);
          cache_.SetFileSize(node, 0);
          node->attributes = p.file_attributes | (node->attributes & kAttrDirectory);
          node->last_write_time = now;
          action = CreateAction::kOverwritten;
        }
        break;
      case CreateDisposition::kSupersede: {
        const bool existed = node != nullptr;
        if (existed) {
          if (node->directory()) {
            return Complete(irp, NtStatus::kFileIsADirectory);
          }
          if (node->open_count > 0) {
            return Complete(irp, NtStatus::kSharingViolation);
          }
          cache_.NodeDeleted(node);
          volume_->RemoveNode(node);
          ++stats_.deletes;
        }
        node = volume_->CreateNode(parent, leaf, /*directory=*/false, p.file_attributes, now);
        action = existed ? CreateAction::kSuperseded : CreateAction::kCreated;
        break;
      }
    }
    irp.result.create_action = action;
    if (action == CreateAction::kCreated) {
      ++stats_.creates_created;
    } else if (action == CreateAction::kOverwritten) {
      ++stats_.creates_overwritten;
    } else if (action == CreateAction::kSuperseded) {
      ++stats_.creates_superseded;
    } else {
      ++stats_.creates_opened;
    }
  }

  if (node->delete_pending) {
    return Complete(irp, NtStatus::kDeletePending);
  }
  if (node->directory() && wants_file) {
    return Complete(irp, NtStatus::kFileIsADirectory);
  }
  if (!node->directory() && wants_dir) {
    return Complete(irp, NtStatus::kNotADirectory);
  }
  // The read-only attribute gates *subsequent* opens for writing; the
  // creating open itself may write (NT lets you create a read-only file).
  if (irp.result.create_action == CreateAction::kOpened &&
      (node->attributes & kAttrReadOnly) != 0 &&
      (p.desired_access & (kAccessWriteData | kAccessAppendData | kAccessDelete)) != 0) {
    return Complete(irp, NtStatus::kAccessDenied);
  }

  fo.fs_context = node;
  fo.fcb = node;
  fo.is_directory = node->directory();
  ++node->open_count;
  if (!node->directory()) {
    GrantShareAccess(node, fo.desired_access, fo.share_access);
  }
  if (volume_->maintain_access_times()) {
    node->last_access_time = engine_.Now();
  }
  return Complete(irp, NtStatus::kSuccess);
}

NtStatus FileSystemDriver::HandleRead(Irp& irp) {
  FileObject& fo = *irp.file_object;
  FileNode* node = NodeOf(fo);
  if (node == nullptr || node->directory()) {
    return Complete(irp, NtStatus::kInvalidDeviceRequest);
  }
  const uint64_t offset = irp.params.offset;
  uint64_t length = irp.params.length;

  if (irp.IsPagingIo()) {
    // VM-originated: straight to the media. Paging reads are page-granular
    // and may extend to the end of the allocation.
    const uint64_t limit = std::max(node->allocation, node->size);
    if (offset >= limit) {
      return Complete(irp, NtStatus::kEndOfFile);
    }
    length = std::min(length, limit - offset);
    if (InjectMediaFault(/*write=*/false)) {
      return Complete(irp, NtStatus::kDeviceDataError);
    }
    engine_.AdvanceBy(MediaAccess(node, offset, length, /*write=*/false));
    ++stats_.paging_reads;
    stats_.media_read_bytes += length;
    return Complete(irp, NtStatus::kSuccess, length);
  }

  if (offset >= node->size) {
    return Complete(irp, NtStatus::kEndOfFile);
  }
  length = std::min(length, node->size - offset);

  if (fo.no_intermediate_buffering) {
    if (InjectMediaFault(/*write=*/false)) {
      return Complete(irp, NtStatus::kDeviceDataError);
    }
    engine_.AdvanceBy(MediaAccess(node, offset, length, /*write=*/false));
    stats_.media_read_bytes += length;
  } else {
    if (!fo.caching_initialized) {
      cache_.InitializeCacheMap(fo, node, node->size);
      ++stats_.cache_initializations;
    }
    cache_.CopyRead(fo, offset, static_cast<uint32_t>(length));
  }
  if (volume_->maintain_access_times()) {
    node->last_access_time = engine_.Now();
  }
  return Complete(irp, NtStatus::kSuccess, length);
}

NtStatus FileSystemDriver::HandleWrite(Irp& irp) {
  FileObject& fo = *irp.file_object;
  FileNode* node = NodeOf(fo);
  if (node == nullptr || node->directory()) {
    return Complete(irp, NtStatus::kInvalidDeviceRequest);
  }
  const uint64_t offset = irp.params.offset;
  const uint64_t length = irp.params.length;
  if (length == 0) {
    return Complete(irp, NtStatus::kSuccess, 0);
  }

  if (irp.IsPagingIo()) {
    // Lazy writer / flush / mapped writer: straight to the media. The file
    // size was already settled by the cached write path.
    if (InjectMediaFault(/*write=*/true)) {
      return Complete(irp, NtStatus::kDeviceDataError);
    }
    engine_.AdvanceBy(MediaAccess(node, offset, length, /*write=*/true));
    ++stats_.paging_writes;
    stats_.media_write_bytes += length;
    return Complete(irp, NtStatus::kSuccess, length);
  }

  if (fo.no_intermediate_buffering) {
    if (InjectMediaFault(/*write=*/true)) {
      return Complete(irp, NtStatus::kDeviceDataError);
    }
    engine_.AdvanceBy(MediaAccess(node, offset, length, /*write=*/true));
    stats_.media_write_bytes += length;
    if (offset + length > node->size) {
      volume_->NodeResized(node, offset + length);
    }
  } else {
    if (!fo.caching_initialized) {
      cache_.InitializeCacheMap(fo, node, node->size);
      ++stats_.cache_initializations;
    }
    cache_.CopyWrite(fo, offset, static_cast<uint32_t>(length));
    if (offset + length > node->size) {
      volume_->NodeResized(node, offset + length);
    }
    if (fo.write_through) {
      cache_.FlushRange(fo, offset, length);
    }
  }
  node->last_write_time = engine_.Now();
  node->attributes |= kAttrArchive;
  return Complete(irp, NtStatus::kSuccess, length);
}

namespace {

constexpr uint32_t kReadClass = kAccessReadData | kAccessExecute;
constexpr uint32_t kWriteClass = kAccessWriteData | kAccessAppendData;

}  // namespace

bool FileSystemDriver::ShareAccessPermits(const FileNode& node, uint32_t desired_access,
                                          uint32_t share_access) const {
  const FileNode::ShareState& sh = node.share;
  if (sh.holders == 0) {
    return true;
  }
  // Every current holder must permit what we ask for...
  if ((desired_access & kReadClass) != 0 && sh.share_read < sh.holders) {
    return false;
  }
  if ((desired_access & kWriteClass) != 0 && sh.share_write < sh.holders) {
    return false;
  }
  if ((desired_access & kAccessDelete) != 0 && sh.share_delete < sh.holders) {
    return false;
  }
  // ... and we must permit what current holders already do.
  if (sh.readers > 0 && (share_access & kShareRead) == 0) {
    return false;
  }
  if (sh.writers > 0 && (share_access & kShareWrite) == 0) {
    return false;
  }
  if (sh.deleters > 0 && (share_access & kShareDelete) == 0) {
    return false;
  }
  return true;
}

void FileSystemDriver::GrantShareAccess(FileNode* node, uint32_t desired_access,
                                        uint32_t share_access) {
  FileNode::ShareState& sh = node->share;
  ++sh.holders;
  sh.readers += (desired_access & kReadClass) != 0 ? 1 : 0;
  sh.writers += (desired_access & kWriteClass) != 0 ? 1 : 0;
  sh.deleters += (desired_access & kAccessDelete) != 0 ? 1 : 0;
  sh.share_read += (share_access & kShareRead) != 0 ? 1 : 0;
  sh.share_write += (share_access & kShareWrite) != 0 ? 1 : 0;
  sh.share_delete += (share_access & kShareDelete) != 0 ? 1 : 0;
}

void FileSystemDriver::ReleaseShareAccess(FileNode* node, uint32_t desired_access,
                                          uint32_t share_access) {
  FileNode::ShareState& sh = node->share;
  if (sh.holders == 0) {
    return;
  }
  --sh.holders;
  sh.readers -= (desired_access & kReadClass) != 0 ? 1 : 0;
  sh.writers -= (desired_access & kWriteClass) != 0 ? 1 : 0;
  sh.deleters -= (desired_access & kAccessDelete) != 0 ? 1 : 0;
  sh.share_read -= (share_access & kShareRead) != 0 ? 1 : 0;
  sh.share_write -= (share_access & kShareWrite) != 0 ? 1 : 0;
  sh.share_delete -= (share_access & kShareDelete) != 0 ? 1 : 0;
}

NtStatus FileSystemDriver::HandleLockControl(Irp& irp) {
  FileObject& fo = *irp.file_object;
  FileNode* node = NodeOf(fo);
  if (node == nullptr || node->directory()) {
    return Complete(irp, NtStatus::kInvalidDeviceRequest);
  }
  engine_.AdvanceBy(options_.control_op_cost);
  const uint64_t offset = irp.params.offset;
  const uint64_t length = irp.params.length;
  if (irp.params.lock_release) {
    for (auto it = node->locks.begin(); it != node->locks.end(); ++it) {
      if (it->owner == fo.id() && it->offset == offset && it->length == length) {
        node->locks.erase(it);
        return Complete(irp, NtStatus::kSuccess);
      }
    }
    return Complete(irp, NtStatus::kSuccess);  // Unlock of nothing: benign.
  }
  for (const FileNode::ByteRangeLock& lock : node->locks) {
    const bool overlap = offset < lock.offset + lock.length && lock.offset < offset + length;
    if (overlap && lock.owner != fo.id()) {
      return Complete(irp, NtStatus::kLockNotGranted);
    }
  }
  node->locks.push_back(FileNode::ByteRangeLock{offset, length, fo.id()});
  return Complete(irp, NtStatus::kSuccess);
}

void FileSystemDriver::FillBasicInfo(const FileNode& node, FileBasicInfo* out) const {
  out->creation_time = node.creation_time;
  out->last_access_time = node.last_access_time;
  out->last_write_time = node.last_write_time;
  out->attributes = node.attributes;
}

void FileSystemDriver::FillStandardInfo(const FileNode& node, FileStandardInfo* out) const {
  out->allocation_size = node.allocation;
  out->end_of_file = node.size;
  out->number_of_links = 1;
  out->delete_pending = node.delete_pending;
  out->directory = node.directory();
}

NtStatus FileSystemDriver::HandleQueryInformation(Irp& irp) {
  FileNode* node = NodeOf(*irp.file_object);
  if (node == nullptr) {
    return Complete(irp, NtStatus::kInvalidDeviceRequest);
  }
  engine_.AdvanceBy(options_.control_op_cost);
  switch (irp.params.info_class) {
    case FileInfoClass::kBasic:
      if (irp.params.basic_out != nullptr) {
        FillBasicInfo(*node, irp.params.basic_out);
      }
      return Complete(irp, NtStatus::kSuccess, sizeof(FileBasicInfo));
    case FileInfoClass::kStandard:
      if (irp.params.standard_out != nullptr) {
        FillStandardInfo(*node, irp.params.standard_out);
      }
      return Complete(irp, NtStatus::kSuccess, sizeof(FileStandardInfo));
    case FileInfoClass::kName:
    case FileInfoClass::kPosition:
      return Complete(irp, NtStatus::kSuccess);
    default:
      return Complete(irp, NtStatus::kInvalidParameter);
  }
}

NtStatus FileSystemDriver::HandleSetInformation(Irp& irp) {
  FileObject& fo = *irp.file_object;
  FileNode* node = NodeOf(fo);
  if (node == nullptr) {
    return Complete(irp, NtStatus::kInvalidDeviceRequest);
  }
  engine_.AdvanceBy(options_.control_op_cost);
  switch (irp.params.info_class) {
    case FileInfoClass::kDisposition: {
      if (irp.params.delete_disposition && (node->attributes & kAttrReadOnly) != 0) {
        return Complete(irp, NtStatus::kCannotDelete);
      }
      if (irp.params.delete_disposition && node->directory() && !node->children().empty()) {
        return Complete(irp, NtStatus::kDirectoryNotEmpty);
      }
      node->delete_pending = irp.params.delete_disposition;
      return Complete(irp, NtStatus::kSuccess);
    }
    case FileInfoClass::kEndOfFile: {
      if (node->directory()) {
        return Complete(irp, NtStatus::kInvalidParameter);
      }
      volume_->NodeResized(node, irp.params.new_size);
      cache_.SetFileSize(node, irp.params.new_size);
      if (!irp.IsPagingIo()) {
        node->last_write_time = engine_.Now();
      }
      return Complete(irp, NtStatus::kSuccess);
    }
    case FileInfoClass::kAllocation: {
      node->allocation = irp.params.new_size;
      return Complete(irp, NtStatus::kSuccess);
    }
    case FileInfoClass::kBasic: {
      // Applications may set any time to any value -- this is the mechanism
      // behind the paper's "file time attributes are unreliable" finding.
      const FileBasicInfo& in = irp.params.basic_in;
      if (in.creation_time.ticks() != 0) {
        node->creation_time = in.creation_time;
      }
      if (in.last_access_time.ticks() != 0) {
        node->last_access_time = in.last_access_time;
      }
      if (in.last_write_time.ticks() != 0) {
        node->last_write_time = in.last_write_time;
      }
      if (in.attributes != 0) {
        node->attributes = in.attributes | (node->directory() ? uint32_t{kAttrDirectory} : 0u);
      }
      return Complete(irp, NtStatus::kSuccess);
    }
    case FileInfoClass::kRename: {
      const std::string_view target_rel = RelativePath(irp.params.rename_target);
      std::string_view leaf;
      FileNode* new_parent = volume_->LookupParent(target_rel, &leaf);
      if (new_parent == nullptr) {
        return Complete(irp, NtStatus::kObjectPathNotFound);
      }
      if (new_parent->FindChild(leaf) != nullptr) {
        return Complete(irp, NtStatus::kObjectNameCollision);
      }
      FileNode* old_parent = node->parent();
      if (old_parent == nullptr) {
        return Complete(irp, NtStatus::kInvalidParameter);
      }
      std::unique_ptr<FileNode> detached = old_parent->DetachChild(node->name());
      assert(detached != nullptr);
      detached->set_name(std::string(leaf));
      new_parent->AddChild(std::move(detached));
      fo.set_path(prefix_ + "\\" + std::string(target_rel));
      return Complete(irp, NtStatus::kSuccess);
    }
    default:
      return Complete(irp, NtStatus::kInvalidParameter);
  }
}

NtStatus FileSystemDriver::HandleDirectoryControl(Irp& irp) {
  FileObject& fo = *irp.file_object;
  FileNode* node = NodeOf(fo);
  if (node == nullptr || !node->directory()) {
    return Complete(irp, NtStatus::kInvalidDeviceRequest);
  }
  engine_.AdvanceBy(options_.control_op_cost);
  if (irp.params.restart_scan) {
    fo.directory_cursor = 0;
  }
  const std::string& pattern = irp.params.search_pattern;
  // Pattern support: "" or "*" match everything; "name" exact; "prefix*".
  const bool match_all = pattern.empty() || pattern == "*";
  const bool prefix_match = !match_all && pattern.back() == '*';
  const std::string_view prefix_pat =
      prefix_match ? std::string_view(pattern).substr(0, pattern.size() - 1) : "";

  size_t index = 0;
  size_t returned = 0;
  for (const auto& [name, child] : node->children()) {
    if (index++ < fo.directory_cursor) {
      continue;
    }
    bool matches = match_all;
    if (!matches && prefix_match) {
      matches = name.size() >= prefix_pat.size() &&
                EqualsIgnoreCase(std::string_view(name).substr(0, prefix_pat.size()), prefix_pat);
    }
    if (!matches) {
      matches = EqualsIgnoreCase(name, pattern);
    }
    fo.directory_cursor = index;
    if (!matches) {
      continue;
    }
    if (irp.params.dir_out != nullptr) {
      irp.params.dir_out->push_back(DirEntry{name, child->attributes, child->size});
    }
    if (++returned >= options_.directory_chunk) {
      break;
    }
  }
  if (returned == 0) {
    return Complete(irp, NtStatus::kNoMoreFiles);
  }
  if (volume_->maintain_access_times()) {
    node->last_access_time = engine_.Now();
  }
  return Complete(irp, NtStatus::kSuccess, returned);
}

NtStatus FileSystemDriver::HandleFsControl(Irp& irp) {
  engine_.AdvanceBy(options_.control_op_cost);
  switch (irp.params.fsctl) {
    case FsctlCode::kIsVolumeMounted:
    case FsctlCode::kIsPathnameValid:
    case FsctlCode::kFilesystemGetStatistics:
    case FsctlCode::kGetRetrievalPointers:
    case FsctlCode::kGetVolumeBitmap:
    case FsctlCode::kMarkVolumeDirty:
      return Complete(irp, NtStatus::kSuccess);
    case FsctlCode::kSetCompression:
      // Not supported by this volume (like FAT): a failing control
      // operation applications run into when probing compression state.
      return Complete(irp, NtStatus::kInvalidDeviceRequest);
    case FsctlCode::kLockVolume:
    case FsctlCode::kUnlockVolume:
    case FsctlCode::kDismountVolume:
      // Volume-state changes would disturb the trace; refuse like a volume
      // with open handles does.
      return Complete(irp, NtStatus::kAccessDenied);
  }
  return Complete(irp, NtStatus::kInvalidParameter);
}

NtStatus FileSystemDriver::HandleFlush(Irp& irp) {
  FileObject& fo = *irp.file_object;
  if (fo.caching_initialized) {
    cache_.FlushRange(fo, 0, 0);
  }
  return Complete(irp, NtStatus::kSuccess);
}

NtStatus FileSystemDriver::HandleCleanup(Irp& irp) {
  FileObject& fo = *irp.file_object;
  FileNode* node = NodeOf(fo);
  if (node == nullptr) {
    return Complete(irp, NtStatus::kSuccess);
  }
  engine_.AdvanceBy(options_.control_op_cost);
  assert(node->open_count > 0);
  --node->open_count;
  if (!node->directory()) {
    ReleaseShareAccess(node, fo.desired_access, fo.share_access);
  }
  // Byte-range locks die with the handle.
  std::erase_if(node->locks,
                [&fo](const FileNode::ByteRangeLock& l) { return l.owner == fo.id(); });
  if (fo.delete_on_close) {
    node->delete_pending = true;
  }
  if (fo.caching_initialized) {
    cache_.CleanupCacheMap(fo);
  }
  if (node->delete_pending && node->open_count == 0 && node->parent() != nullptr) {
    cache_.NodeDeleted(node);
    volume_->RemoveNode(node);
    ++stats_.deletes;
  }
  return Complete(irp, NtStatus::kSuccess);
}

NtStatus FileSystemDriver::HandleClose(Irp& irp) {
  // All per-open state is torn down at cleanup; close releases the last
  // kernel references and carries no work here.
  return Complete(irp, NtStatus::kSuccess);
}

NtStatus FileSystemDriver::HandleQueryVolumeInformation(Irp& irp) {
  engine_.AdvanceBy(options_.control_op_cost);
  const uint64_t free_bytes =
      volume_->capacity_bytes() > volume_->used_bytes()
          ? volume_->capacity_bytes() - volume_->used_bytes()
          : 0;
  return Complete(irp, NtStatus::kSuccess, free_bytes);
}

FastIoResult FileSystemDriver::FastIoRead(DeviceObject* device, FileObject& file,
                                          uint64_t offset, uint32_t length) {
  (void)device;
  if (!file.caching_initialized || file.no_intermediate_buffering) {
    return {};
  }
  FileNode* node = NodeOf(file);
  if (node == nullptr || node->directory() || !node->locks.empty()) {
    return {};
  }
  if (offset >= node->size) {
    return {true, NtStatus::kEndOfFile, 0};
  }
  const uint64_t clamped = std::min<uint64_t>(length, node->size - offset);
  uint64_t bytes = 0;
  if (!cache_.CopyReadNoWait(file, offset, static_cast<uint32_t>(clamped), &bytes)) {
    return {};  // Pages missing: the I/O manager retries via the IRP path.
  }
  if (volume_->maintain_access_times()) {
    node->last_access_time = engine_.Now();
  }
  return {true, NtStatus::kSuccess, static_cast<uint32_t>(bytes)};
}

FastIoResult FileSystemDriver::FastIoWrite(DeviceObject* device, FileObject& file,
                                           uint64_t offset, uint32_t length) {
  (void)device;
  if (!file.caching_initialized || file.no_intermediate_buffering || file.write_through) {
    return {};
  }
  FileNode* node = NodeOf(file);
  if (node == nullptr || node->directory() || !node->locks.empty()) {
    return {};
  }
  cache_.CopyWrite(file, offset, length);
  if (offset + length > node->size) {
    volume_->NodeResized(node, offset + length);
  }
  node->last_write_time = engine_.Now();
  node->attributes |= kAttrArchive;
  return {true, NtStatus::kSuccess, length};
}

bool FileSystemDriver::FastIoQueryBasicInfo(DeviceObject* device, FileObject& file,
                                            FileBasicInfo* out) {
  (void)device;
  if (!file.caching_initialized) {
    return false;
  }
  FileNode* node = NodeOf(file);
  if (node == nullptr) {
    return false;
  }
  FillBasicInfo(*node, out);
  return true;
}

bool FileSystemDriver::FastIoQueryStandardInfo(DeviceObject* device, FileObject& file,
                                               FileStandardInfo* out) {
  (void)device;
  if (!file.caching_initialized) {
    return false;
  }
  FileNode* node = NodeOf(file);
  if (node == nullptr) {
    return false;
  }
  FillStandardInfo(*node, out);
  return true;
}

}  // namespace ntrace
