// The file system driver (an NTFS/FAT-like local file system).
//
// Implements the IRP dispatch and FastIO semantics the paper's measurements
// depend on:
//   * create dispositions including truncate-on-open (overwrite) and
//     supersede -- the paper's section 6.3 "delete through truncation",
//   * delete-on-close and explicit SetInformation(Disposition) deletion,
//   * caching initialized on the first read/write (so the first data
//     operation arrives by IRP and later ones via FastIO, section 10),
//   * paging I/O served straight from the media model (the VM manager is
//     the only originator of PagingIo requests),
//   * SetEndOfFile handling (the cache manager issues one before the close
//     of any written file, section 8.3),
//   * the "is volume mounted" FSCTL fast path (section 8.3),
//   * temporary-attribute plumbing into the cache manager (section 6.3).

#ifndef SRC_FS_FS_DRIVER_H_
#define SRC_FS_FS_DRIVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "src/fault/fault.h"
#include "src/fs/disk.h"
#include "src/fs/file_node.h"
#include "src/mm/cache_manager.h"
#include "src/ntio/driver.h"
#include "src/ntio/io_manager.h"
#include "src/sim/engine.h"

namespace ntrace {

// The driver enforces NT share-access semantics (IoCheckShareAccess):
// concurrent opens must be mutually compatible or fail with a sharing
// violation.
struct FsOptions {
  // CPU cost of resolving one path component / touching metadata.
  SimDuration metadata_cost_per_component = SimDuration::Micros(4);
  SimDuration control_op_cost = SimDuration::Micros(6);
  // Directory entries returned per QueryDirectory IRP ("one buffer full").
  size_t directory_chunk = 64;
};

struct FsStats {
  std::array<uint64_t, kNumIrpMajor> irps_by_major{};
  std::array<uint64_t, kNumIrpMajor> errors_by_major{};
  uint64_t cache_initializations = 0;
  uint64_t paging_reads = 0;
  uint64_t paging_writes = 0;
  uint64_t media_read_bytes = 0;
  uint64_t media_write_bytes = 0;
  uint64_t creates_opened = 0;
  uint64_t creates_created = 0;
  uint64_t creates_overwritten = 0;
  uint64_t creates_superseded = 0;
  uint64_t deletes = 0;
  // Fault injection: media transfers failed with a device error.
  uint64_t injected_read_errors = 0;
  uint64_t injected_write_errors = 0;
};

class FileSystemDriver : public Driver {
 public:
  // `prefix` is the volume's device prefix ("C:" or "\\\\server\\share").
  FileSystemDriver(Engine& engine, CacheManager& cache, std::unique_ptr<Volume> volume,
                   std::string prefix, DiskProfile disk_profile, FsOptions options = {});

  NtStatus DispatchIrp(DeviceObject* device, Irp& irp) override;

  FastIoResult FastIoRead(DeviceObject* device, FileObject& file, uint64_t offset,
                          uint32_t length) override;
  FastIoResult FastIoWrite(DeviceObject* device, FileObject& file, uint64_t offset,
                           uint32_t length) override;
  bool FastIoQueryBasicInfo(DeviceObject* device, FileObject& file, FileBasicInfo* out) override;
  bool FastIoQueryStandardInfo(DeviceObject* device, FileObject& file,
                               FileStandardInfo* out) override;

  Volume& volume() { return *volume_; }
  const Volume& volume() const { return *volume_; }
  const std::string& prefix() const { return prefix_; }
  const FsStats& stats() const { return stats_; }
  Disk& disk() { return disk_; }

  // Attaches a fault injector (borrowed; may be null). Media transfers --
  // paging I/O and non-cached reads/writes -- then fail with device errors
  // per the injector's kDiskRead/kDiskWrite plans.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }

 protected:
  // Media access time for `bytes` at file `node` offset `offset`. The
  // network redirector overrides this to model the server round trip.
  virtual SimDuration MediaAccess(FileNode* node, uint64_t offset, uint64_t bytes, bool write);
  // Extra cost of metadata operations (remote: one round trip).
  virtual SimDuration MetadataAccess(size_t path_components);

  Engine& engine_;
  CacheManager& cache_;

 private:
  NtStatus HandleCreate(Irp& irp);
  NtStatus HandleRead(Irp& irp);
  NtStatus HandleWrite(Irp& irp);
  NtStatus HandleQueryInformation(Irp& irp);
  NtStatus HandleSetInformation(Irp& irp);
  NtStatus HandleDirectoryControl(Irp& irp);
  NtStatus HandleFsControl(Irp& irp);
  NtStatus HandleFlush(Irp& irp);
  NtStatus HandleLockControl(Irp& irp);
  NtStatus HandleCleanup(Irp& irp);
  NtStatus HandleClose(Irp& irp);
  NtStatus HandleQueryVolumeInformation(Irp& irp);

  // Strips the volume prefix from an absolute path; returns the relative
  // part ("" for the volume root), a view into `absolute`.
  std::string_view RelativePath(std::string_view absolute) const;
  FileNode* NodeOf(FileObject& file) const {
    return static_cast<FileNode*>(file.fs_context);
  }
  // True when the injector fails this media transfer; charges the failed
  // device handshake and counts the error.
  bool InjectMediaFault(bool write);
  // IoCheckShareAccess: may this open coexist with the current holders?
  bool ShareAccessPermits(const FileNode& node, uint32_t desired_access,
                          uint32_t share_access) const;
  static void GrantShareAccess(FileNode* node, uint32_t desired_access,
                               uint32_t share_access);
  static void ReleaseShareAccess(FileNode* node, uint32_t desired_access,
                                 uint32_t share_access);
  void FillBasicInfo(const FileNode& node, FileBasicInfo* out) const;
  void FillStandardInfo(const FileNode& node, FileStandardInfo* out) const;
  NtStatus Complete(Irp& irp, NtStatus status, uint64_t information = 0);

  std::unique_ptr<Volume> volume_;
  std::string prefix_;
  Disk disk_;
  FsOptions options_;
  FsStats stats_;
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace ntrace

#endif  // SRC_FS_FS_DRIVER_H_
