// A Win32-like API layer over the native I/O manager.
//
// The paper stresses that applications rarely issue control operations
// themselves -- "in general the application developer never requests these
// operations explicitly, but they are triggered by the Win32 runtime
// libraries" (section 8.3): name validation issues "is volume mounted"
// FSCTLs, existence probes are implemented as opens that fail (52% of open
// errors are name-not-found, section 8.4), DeleteFile is an open +
// SetInformation(Disposition) + close sequence, and attribute queries are
// full open/query/close sessions. This layer reproduces those amplification
// patterns so that synthetic applications produce the paper's operation mix
// (74% of opens performing only control/directory work).

#ifndef SRC_WIN32_WIN32_API_H_
#define SRC_WIN32_WIN32_API_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/ntio/io_manager.h"

namespace ntrace {

// Win32 CreateFile dispositions.
enum class Win32Disposition {
  kCreateNew,         // Fail if exists.
  kCreateAlways,      // Truncate or create.
  kOpenExisting,      // Fail if missing.
  kOpenAlways,        // Open or create.
  kTruncateExisting,  // Truncate; fail if missing.
};

// Win32 CreateFile flags (subset).
enum Win32Flags : uint32_t {
  kW32FlagSequentialScan = 1u << 0,
  kW32FlagWriteThrough = 1u << 1,
  kW32FlagNoBuffering = 1u << 2,
  kW32FlagDeleteOnClose = 1u << 3,
  kW32AttrTemporary = 1u << 4,
  kW32FlagRandomAccess = 1u << 5,
};

struct Win32Options {
  // Issue an "is volume mounted" FSCTL during name validation of opens and
  // directory enumerations, as the NT runtime does.
  bool volume_check_on_open = true;
};

struct FindData {
  std::string name;
  uint32_t attributes = 0;
  uint64_t size = 0;
};

class Win32Api {
 public:
  explicit Win32Api(IoManager& io, Win32Options options = {});

  // CreateFile. Returns nullptr on failure; `status_out` (optional) receives
  // the NT status either way.
  FileObject* CreateFile(const std::string& path, uint32_t desired_access,
                         Win32Disposition disposition, uint32_t win32_flags, uint32_t process_id,
                         NtStatus* status_out = nullptr);

  // Convenience wrappers mirroring kernel32 semantics.
  bool ReadFile(FileObject& file, uint32_t length, uint64_t* bytes_read);
  bool WriteFile(FileObject& file, uint32_t length, uint64_t* bytes_written);
  void SetFilePointer(FileObject& file, uint64_t offset);
  bool SetEndOfFile(FileObject& file);
  bool FlushFileBuffers(FileObject& file);
  void CloseHandle(FileObject& file);

  // DeleteFile: open-with-delete-access + SetInformation(Disposition) +
  // close. Returns false (with status) when the open or the set fails.
  bool DeleteFile(const std::string& path, uint32_t process_id, NtStatus* status_out = nullptr);

  // MoveFile: open + SetInformation(Rename) + close.
  bool MoveFile(const std::string& from, const std::string& to, uint32_t process_id,
                NtStatus* status_out = nullptr);

  // GetFileAttributes: a full open/query/close session that transfers no
  // data -- one of the paper's "control-only" open sessions.
  std::optional<FileBasicInfo> GetFileAttributes(const std::string& path, uint32_t process_id);

  std::optional<uint64_t> GetFileSize(const std::string& path, uint32_t process_id);

  // CreateDirectory / RemoveDirectory.
  bool CreateDirectory(const std::string& path, uint32_t process_id,
                       NtStatus* status_out = nullptr);
  bool RemoveDirectory(const std::string& path, uint32_t process_id);

  // CopyFile: open source, create/truncate destination, 64 KB read/write
  // loop, propagate times. Returns bytes copied, or nullopt on failure.
  std::optional<uint64_t> CopyFile(const std::string& from, const std::string& to,
                                   uint32_t process_id);

  // Directory enumeration: FindFirst opens the directory and returns the
  // first chunk; FindNext continues; FindClose closes. `handle_out` is the
  // directory file object.
  bool FindFirstFile(const std::string& directory, const std::string& pattern,
                     uint32_t process_id, FileObject** handle_out, std::vector<FindData>* out);
  bool FindNextFile(FileObject& handle, std::vector<FindData>* out);
  void FindClose(FileObject& handle);

  // The existence-probe-then-create idiom (section 8.4: a failed open
  // immediately followed by a successful create).
  FileObject* OpenOrCreate(const std::string& path, uint32_t desired_access,
                           uint32_t win32_flags, uint32_t process_id, bool* created);

  // GetDiskFreeSpace: volume-root open + query volume information + close.
  std::optional<uint64_t> GetDiskFreeSpace(const std::string& volume_prefix,
                                           uint32_t process_id);

  IoManager& io() { return io_; }

 private:
  void MaybeVolumeCheck(const std::string& path, uint32_t process_id);

  IoManager& io_;
  Win32Options options_;
};

}  // namespace ntrace

#endif  // SRC_WIN32_WIN32_API_H_
