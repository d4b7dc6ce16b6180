// Trace records.
//
// The paper's filter driver records "54 IRP and FastIO events ... in fixed
// size records", each carrying at least a file-object reference, IRP and
// file flags, the requesting process, the current byte offset and file size,
// and the result status, plus two 100 ns timestamps (start and completion)
// and per-operation extras (offset/length/returned bytes for data transfers,
// options/attributes for creates). An additional record maps each new file
// object id to a file name (section 3.2).
//
// This header defines the same record layout (one fixed-size POD per event)
// and the event-code space covering every IRP major plus the FastIO entry
// points this model implements.

#ifndef SRC_TRACE_TRACE_RECORD_H_
#define SRC_TRACE_TRACE_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/base/time.h"
#include "src/ntio/irp.h"
#include "src/ntio/status.h"

namespace ntrace {

// Event codes: IRP majors first (same numeric values as IrpMajor), then the
// FastIO entry points.
enum class TraceEvent : uint16_t {
  kIrpCreate = 0,
  kIrpRead,
  kIrpWrite,
  kIrpQueryInformation,
  kIrpSetInformation,
  kIrpQueryVolumeInformation,
  kIrpDirectoryControl,
  kIrpFileSystemControl,
  kIrpDeviceControl,
  kIrpFlushBuffers,
  kIrpLockControl,
  kIrpCleanup,
  kIrpClose,
  kIrpQueryEa,
  kIrpSetEa,
  kIrpQuerySecurity,
  kIrpSetSecurity,
  kIrpShutdown,
  kFastIoRead = 32,
  kFastIoWrite,
  kFastIoQueryBasicInfo,
  kFastIoQueryStandardInfo,
  kFastIoCheckIfPossible,   // Never emitted; keeps its code so later events keep theirs.
  kFastIoReadNotPossible,   // Attempted, fell back to the IRP path.
  kFastIoWriteNotPossible,
};

constexpr TraceEvent TraceEventForIrp(IrpMajor major) {
  return static_cast<TraceEvent>(static_cast<uint16_t>(major));
}

constexpr bool IsIrpEvent(TraceEvent e) { return static_cast<uint16_t>(e) < 32; }
constexpr bool IsFastIoEvent(TraceEvent e) { return static_cast<uint16_t>(e) >= 32; }

// True for the events that move file data.
constexpr bool IsDataTransfer(TraceEvent e) {
  return e == TraceEvent::kIrpRead || e == TraceEvent::kIrpWrite ||
         e == TraceEvent::kFastIoRead || e == TraceEvent::kFastIoWrite;
}

constexpr bool IsReadEvent(TraceEvent e) {
  return e == TraceEvent::kIrpRead || e == TraceEvent::kFastIoRead;
}

constexpr bool IsWriteEvent(TraceEvent e) {
  return e == TraceEvent::kIrpWrite || e == TraceEvent::kFastIoWrite;
}

std::string_view TraceEventName(TraceEvent e);

// The fixed-size per-event record. Kept POD so trace sets serialize as raw
// bytes, like the paper's collection format.
struct TraceRecord {
  uint64_t file_object = 0;  // File-object id ("instance" key).
  int64_t start_ticks = 0;   // 100 ns granularity.
  int64_t complete_ticks = 0;
  uint64_t offset = 0;     // Data transfers: byte offset.
  uint64_t file_size = 0;  // File size observed at the operation.
  uint32_t length = 0;     // Requested bytes.
  uint32_t returned = 0;   // Transferred bytes / entries returned.
  uint32_t process_id = 0;
  uint32_t irp_flags = 0;
  uint32_t create_options = 0;
  uint32_t file_attributes = 0;
  uint16_t event = 0;   // TraceEvent.
  uint16_t status = 0;  // NtStatus.
  uint8_t disposition = 0;  // Create: CreateDisposition.
  uint8_t create_action = 0;
  uint8_t info_class = 0;  // Query/SetInformation.
  uint8_t fsctl = 0;
  uint32_t system_id = 0;
  uint32_t reserved = 0;  // Pads to a multiple of 8 bytes.

  TraceEvent Event() const { return static_cast<TraceEvent>(event); }
  NtStatus Status() const { return static_cast<NtStatus>(status); }
  SimTime StartTime() const { return SimTime(start_ticks); }
  SimTime CompleteTime() const { return SimTime(complete_ticks); }
  SimDuration Latency() const { return SimDuration(complete_ticks - start_ticks); }
  bool IsPagingIo() const { return (irp_flags & kIrpPagingIo) != 0; }
  // Cache-manager-induced duplicate of an application request (filtered out
  // by most analyses, per paper section 3.3).
  bool IsCacheInduced() const {
    return (irp_flags & (kIrpCacheFault | kIrpReadAhead | kIrpLazyWrite)) != 0;
  }
};

static_assert(sizeof(TraceRecord) % 8 == 0, "TraceRecord must pack to 8-byte multiple");

// Maps a new file object to its path (emitted once per create, successful or
// not -- failed opens are part of the section 8.4 error analysis).
struct NameRecord {
  uint64_t file_object = 0;
  uint32_t system_id = 0;
  std::string path;
};

}  // namespace ntrace

#endif  // SRC_TRACE_TRACE_RECORD_H_
