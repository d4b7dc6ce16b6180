#include "src/win32/win32_api.h"

#include <algorithm>

namespace ntrace {
namespace {

CreateDisposition MapDisposition(Win32Disposition d) {
  switch (d) {
    case Win32Disposition::kCreateNew:
      return CreateDisposition::kCreate;
    case Win32Disposition::kCreateAlways:
      return CreateDisposition::kOverwriteIf;
    case Win32Disposition::kOpenExisting:
      return CreateDisposition::kOpen;
    case Win32Disposition::kOpenAlways:
      return CreateDisposition::kOpenIf;
    case Win32Disposition::kTruncateExisting:
      return CreateDisposition::kOverwrite;
  }
  return CreateDisposition::kOpen;
}

uint32_t MapOptions(uint32_t win32_flags) {
  uint32_t opts = kOptNonDirectoryFile | kOptSynchronousIo;
  if ((win32_flags & kW32FlagSequentialScan) != 0) {
    opts |= kOptSequentialOnly;
  }
  if ((win32_flags & kW32FlagWriteThrough) != 0) {
    opts |= kOptWriteThrough;
  }
  if ((win32_flags & kW32FlagNoBuffering) != 0) {
    opts |= kOptNoIntermediateBuffering;
  }
  if ((win32_flags & kW32FlagDeleteOnClose) != 0) {
    opts |= kOptDeleteOnClose;
  }
  if ((win32_flags & kW32FlagRandomAccess) != 0) {
    opts |= kOptRandomAccess;
  }
  return opts;
}

uint32_t MapAttributes(uint32_t win32_flags) {
  uint32_t attrs = kAttrNormal;
  if ((win32_flags & kW32AttrTemporary) != 0) {
    attrs |= kAttrTemporary;
  }
  return attrs;
}

std::string VolumePrefixOf(const std::string& path) {
  // "C:\..." -> "C:"; "\\\\server\\share\\..." -> "\\\\server\\share".
  if (path.size() >= 2 && path[1] == ':') {
    return path.substr(0, 2);
  }
  if (path.size() > 2 && path[0] == '\\' && path[1] == '\\') {
    size_t third = path.find('\\', 2);
    if (third != std::string::npos) {
      size_t fourth = path.find('\\', third + 1);
      return path.substr(0, fourth == std::string::npos ? path.size() : fourth);
    }
  }
  return "";
}

}  // namespace

Win32Api::Win32Api(IoManager& io, Win32Options options) : io_(io), options_(options) {}

void Win32Api::MaybeVolumeCheck(const std::string& path, uint32_t process_id) {
  if (!options_.volume_check_on_open) {
    return;
  }
  const std::string prefix = VolumePrefixOf(path);
  if (!prefix.empty()) {
    io_.FsctlVolume(prefix, FsctlCode::kIsVolumeMounted, process_id);
  }
}

FileObject* Win32Api::CreateFile(const std::string& path, uint32_t desired_access,
                                 Win32Disposition disposition, uint32_t win32_flags,
                                 uint32_t process_id, NtStatus* status_out) {
  MaybeVolumeCheck(path, process_id);
  CreateRequest req;
  req.path = path;
  req.disposition = MapDisposition(disposition);
  req.desired_access = desired_access;
  req.create_options = MapOptions(win32_flags);
  req.file_attributes = MapAttributes(win32_flags);
  req.process_id = process_id;
  CreateResult r = io_.Create(req);
  if (status_out != nullptr) {
    *status_out = r.status;
  }
  return r.file;
}

bool Win32Api::ReadFile(FileObject& file, uint32_t length, uint64_t* bytes_read) {
  const IoResult r = io_.ReadNext(file, length);
  if (bytes_read != nullptr) {
    *bytes_read = r.bytes;
  }
  return NtSuccess(r.status) && r.status != NtStatus::kEndOfFile;
}

bool Win32Api::WriteFile(FileObject& file, uint32_t length, uint64_t* bytes_written) {
  const IoResult r = io_.WriteNext(file, length);
  if (bytes_written != nullptr) {
    *bytes_written = r.bytes;
  }
  return NtSuccess(r.status);
}

void Win32Api::SetFilePointer(FileObject& file, uint64_t offset) {
  file.current_byte_offset = offset;
}

bool Win32Api::SetEndOfFile(FileObject& file) {
  return NtSuccess(io_.SetEndOfFile(file, file.current_byte_offset));
}

bool Win32Api::FlushFileBuffers(FileObject& file) { return NtSuccess(io_.Flush(file)); }

void Win32Api::CloseHandle(FileObject& file) { io_.CloseHandle(file); }

bool Win32Api::DeleteFile(const std::string& path, uint32_t process_id, NtStatus* status_out) {
  MaybeVolumeCheck(path, process_id);
  CreateRequest req;
  req.path = path;
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessDelete;
  req.create_options = kOptNonDirectoryFile;
  req.process_id = process_id;
  CreateResult open = io_.Create(req);
  if (status_out != nullptr) {
    *status_out = open.status;
  }
  if (open.file == nullptr) {
    return false;
  }
  const NtStatus set = io_.SetDispositionDelete(*open.file, true);
  if (status_out != nullptr) {
    *status_out = set;
  }
  io_.CloseHandle(*open.file);
  return NtSuccess(set);
}

bool Win32Api::MoveFile(const std::string& from, const std::string& to, uint32_t process_id,
                        NtStatus* status_out) {
  MaybeVolumeCheck(from, process_id);
  CreateRequest req;
  req.path = from;
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessDelete | kAccessWriteAttributes;
  req.process_id = process_id;
  CreateResult open = io_.Create(req);
  if (status_out != nullptr) {
    *status_out = open.status;
  }
  if (open.file == nullptr) {
    return false;
  }
  const NtStatus status = io_.Rename(*open.file, to);
  if (status_out != nullptr) {
    *status_out = status;
  }
  io_.CloseHandle(*open.file);
  return NtSuccess(status);
}

std::optional<FileBasicInfo> Win32Api::GetFileAttributes(const std::string& path,
                                                         uint32_t process_id) {
  MaybeVolumeCheck(path, process_id);
  CreateRequest req;
  req.path = path;
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessReadAttributes;
  req.process_id = process_id;
  CreateResult open = io_.Create(req);
  if (open.file == nullptr) {
    return std::nullopt;
  }
  FileBasicInfo info;
  const NtStatus status = io_.QueryBasicInfo(*open.file, &info);
  io_.CloseHandle(*open.file);
  if (NtError(status)) {
    return std::nullopt;
  }
  return info;
}

std::optional<uint64_t> Win32Api::GetFileSize(const std::string& path, uint32_t process_id) {
  CreateRequest req;
  req.path = path;
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessReadAttributes;
  req.process_id = process_id;
  CreateResult open = io_.Create(req);
  if (open.file == nullptr) {
    return std::nullopt;
  }
  FileStandardInfo info;
  const NtStatus status = io_.QueryStandardInfo(*open.file, &info);
  io_.CloseHandle(*open.file);
  if (NtError(status)) {
    return std::nullopt;
  }
  return info.end_of_file;
}

bool Win32Api::CreateDirectory(const std::string& path, uint32_t process_id,
                               NtStatus* status_out) {
  MaybeVolumeCheck(path, process_id);
  CreateRequest req;
  req.path = path;
  req.disposition = CreateDisposition::kCreate;
  req.desired_access = kAccessListDirectory;
  req.create_options = kOptDirectoryFile;
  req.process_id = process_id;
  CreateResult open = io_.Create(req);
  if (status_out != nullptr) {
    *status_out = open.status;
  }
  if (open.file == nullptr) {
    return false;
  }
  io_.CloseHandle(*open.file);
  return true;
}

bool Win32Api::RemoveDirectory(const std::string& path, uint32_t process_id) {
  CreateRequest req;
  req.path = path;
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessDelete;
  req.create_options = kOptDirectoryFile;
  req.process_id = process_id;
  CreateResult open = io_.Create(req);
  if (open.file == nullptr) {
    return false;
  }
  const NtStatus status = io_.SetDispositionDelete(*open.file, true);
  io_.CloseHandle(*open.file);
  return NtSuccess(status);
}

std::optional<uint64_t> Win32Api::CopyFile(const std::string& from, const std::string& to,
                                           uint32_t process_id) {
  FileObject* src =
      CreateFile(from, kAccessReadData | kAccessReadAttributes, Win32Disposition::kOpenExisting,
                 kW32FlagSequentialScan, process_id);
  if (src == nullptr) {
    return std::nullopt;
  }
  FileStandardInfo std_info;
  io_.QueryStandardInfo(*src, &std_info);
  FileBasicInfo basic;
  io_.QueryBasicInfo(*src, &basic);
  FileObject* dst = CreateFile(to, kAccessWriteData | kAccessWriteAttributes,
                               Win32Disposition::kCreateAlways, 0, process_id);
  if (dst == nullptr) {
    io_.CloseHandle(*src);
    return std::nullopt;
  }
  uint64_t remaining = std_info.end_of_file;
  uint64_t copied = 0;
  while (remaining > 0) {
    const uint32_t chunk = static_cast<uint32_t>(std::min<uint64_t>(remaining, 65536));
    uint64_t got = 0;
    if (!ReadFile(*src, chunk, &got) || got == 0) {
      break;
    }
    uint64_t put = 0;
    WriteFile(*dst, static_cast<uint32_t>(got), &put);
    copied += put;
    remaining -= got;
  }
  // CopyFile preserves the source times on the destination.
  io_.SetBasicInfo(*dst, basic);
  io_.CloseHandle(*dst);
  io_.CloseHandle(*src);
  return copied;
}

bool Win32Api::FindFirstFile(const std::string& directory, const std::string& pattern,
                             uint32_t process_id, FileObject** handle_out,
                             std::vector<FindData>* out) {
  MaybeVolumeCheck(directory, process_id);
  CreateRequest req;
  req.path = directory;
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessListDirectory;
  req.create_options = kOptDirectoryFile;
  req.process_id = process_id;
  CreateResult open = io_.Create(req);
  if (open.file == nullptr) {
    *handle_out = nullptr;
    return false;
  }
  *handle_out = open.file;
  std::vector<DirEntry> entries;
  const NtStatus status = io_.QueryDirectory(*open.file, /*restart_scan=*/true, pattern,
                                             &entries);
  if (status == NtStatus::kNoMoreFiles || entries.empty()) {
    return NtSuccess(status) && !entries.empty();
  }
  for (const DirEntry& e : entries) {
    out->push_back(FindData{e.name, e.attributes, e.size});
  }
  return true;
}

bool Win32Api::FindNextFile(FileObject& handle, std::vector<FindData>* out) {
  std::vector<DirEntry> entries;
  const NtStatus status = io_.QueryDirectory(handle, /*restart_scan=*/false, "", &entries);
  if (status == NtStatus::kNoMoreFiles || entries.empty()) {
    return false;
  }
  for (const DirEntry& e : entries) {
    out->push_back(FindData{e.name, e.attributes, e.size});
  }
  return true;
}

void Win32Api::FindClose(FileObject& handle) { io_.CloseHandle(handle); }

FileObject* Win32Api::OpenOrCreate(const std::string& path, uint32_t desired_access,
                                   uint32_t win32_flags, uint32_t process_id, bool* created) {
  // The probe-then-create idiom: a deliberate open that may fail with
  // name-not-found, followed by a create (section 8.4).
  NtStatus status = NtStatus::kSuccess;
  FileObject* fo =
      CreateFile(path, desired_access, Win32Disposition::kOpenExisting, win32_flags, process_id,
                 &status);
  if (fo != nullptr) {
    if (created != nullptr) {
      *created = false;
    }
    return fo;
  }
  fo = CreateFile(path, desired_access, Win32Disposition::kCreateNew, win32_flags, process_id,
                  &status);
  if (created != nullptr) {
    *created = fo != nullptr;
  }
  return fo;
}

std::optional<uint64_t> Win32Api::GetDiskFreeSpace(const std::string& volume_prefix,
                                                   uint32_t process_id) {
  CreateRequest req;
  req.path = volume_prefix + "\\";
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessReadAttributes;
  req.create_options = kOptDirectoryFile;
  req.process_id = process_id;
  CreateResult open = io_.Create(req);
  if (open.file == nullptr) {
    return std::nullopt;
  }
  uint64_t free_bytes = 0;
  const NtStatus status = io_.QueryVolumeInformation(*open.file, &free_bytes);
  io_.CloseHandle(*open.file);
  if (NtError(status)) {
    return std::nullopt;
  }
  return free_bytes;
}

}  // namespace ntrace
