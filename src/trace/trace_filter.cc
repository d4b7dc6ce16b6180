#include "src/trace/trace_filter.h"

namespace ntrace {

TraceFilterDriver::TraceFilterDriver(Engine& engine, TraceBuffer& buffer, uint32_t system_id,
                                     TraceFilterOptions options)
    : engine_(engine),
      buffer_(buffer),
      system_id_(system_id),
      options_(options) {}

TraceRecord TraceFilterDriver::BaseRecord(const FileObject& file) const {
  TraceRecord r;
  r.file_object = file.id();
  r.process_id = file.process_id();
  r.system_id = system_id_;
  r.file_size = file.fcb != nullptr ? file.fcb->size : 0;
  return r;
}

void TraceFilterDriver::Emit(TraceRecord record) {
  // Burst anchor (src/replay): distance from the completion back to the due
  // time of the engine callback this operation ran under. Records sharing a
  // callback reconstruct to the same due, which is how the replayer regroups
  // a session burst and paces the operations inside it. Saturated, not
  // truncated -- a callback never legitimately advances the clock by 7
  // simulated minutes, so saturation only marks a record unreplayable
  // instead of silently aliasing it onto a wrong burst.
  const int64_t delta = record.complete_ticks - engine_.current_dispatch_due().ticks();
  record.reserved =
      delta < 0 ? 0 : (delta > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(delta));
  engine_.AdvanceBy(options_.record_cost);
  buffer_.Append(record);
}

NtStatus TraceFilterDriver::DispatchIrp(DeviceObject* device, Irp& irp) {
  const SimTime start = engine_.Now();
  const NtStatus status = ForwardIrp(device, irp);
  const SimTime done = engine_.Now();

  FileObject& fo = *irp.file_object;
  TraceRecord r = BaseRecord(fo);
  r.event = static_cast<uint16_t>(TraceEventForIrp(irp.major));
  r.start_ticks = start.ticks();
  r.complete_ticks = done.ticks();
  r.irp_flags = irp.flags;
  r.status = static_cast<uint16_t>(status);
  r.returned = static_cast<uint32_t>(irp.result.information);
  switch (irp.major) {
    case IrpMajor::kCreate:
      r.disposition = static_cast<uint8_t>(irp.params.disposition);
      r.create_action = static_cast<uint8_t>(irp.result.create_action);
      r.create_options = irp.params.create_options;
      r.file_attributes = irp.params.file_attributes;
      // The offset field is meaningless for a create; carry the access and
      // share masks there so a replay reproduces the sharing-violation
      // outcomes the paper's error analysis counts (section 8.2).
      r.offset = static_cast<uint64_t>(irp.params.desired_access) |
                 (static_cast<uint64_t>(irp.params.share_access) << 32);
      // New file object: emit the id -> name mapping record (also for failed
      // opens; the error analysis needs them).
      buffer_.AppendName(NameRecord{fo.id(), system_id_, irp.path});
      break;
    case IrpMajor::kRead:
    case IrpMajor::kWrite:
      r.offset = irp.params.offset;
      r.length = irp.params.length;
      break;
    case IrpMajor::kQueryInformation:
    case IrpMajor::kSetInformation:
      r.info_class = static_cast<uint8_t>(irp.params.info_class);
      // Overload the offset field per info class: the new size for
      // kEndOfFile/kAllocation, the delete flag for kDisposition.
      r.offset = irp.params.info_class == FileInfoClass::kDisposition
                     ? (irp.params.delete_disposition ? 1 : 0)
                     : irp.params.new_size;
      // SetInformation(kBasic) carries the applied attribute mask (the
      // read-only bit gates later creates and deletes, so a replay needs
      // it); the snapshot-only time fields are not captured.
      if (irp.major == IrpMajor::kSetInformation &&
          irp.params.info_class == FileInfoClass::kBasic) {
        r.file_attributes = irp.params.basic_in.attributes;
      }
      // A successful rename changes what the file object's id means from
      // here on; emit the id -> new-path mapping just like a create does,
      // so per-id name sequences list the create path then each target.
      if (irp.major == IrpMajor::kSetInformation &&
          irp.params.info_class == FileInfoClass::kRename && !NtError(status)) {
        buffer_.AppendName(NameRecord{fo.id(), system_id_, irp.params.rename_target});
      }
      break;
    case IrpMajor::kFileSystemControl:
    case IrpMajor::kDeviceControl:
      r.fsctl = static_cast<uint8_t>(irp.params.fsctl);
      break;
    case IrpMajor::kLockControl:
      r.offset = irp.params.offset;
      r.length = irp.params.length;
      r.info_class = irp.params.lock_release ? 1 : 0;
      break;
    case IrpMajor::kDirectoryControl:
      r.disposition = irp.params.restart_scan ? 1 : 0;
      // Pattern class: 0 = match-all (empty), 1 = "*" (also match-all, but
      // a distinct wire form), 2 = anything else (prefix/exact; the pattern
      // string itself is not captured, mirroring the paper's fixed-size
      // records -- replay counts class 2 as a divergence).
      r.create_action = irp.params.search_pattern.empty()
                            ? 0
                            : (irp.params.search_pattern == "*" ? 1 : 2);
      break;
    default:
      break;
  }
  ++irp_events_;
  Emit(r);
  return status;
}

FastIoResult TraceFilterDriver::FastIoRead(DeviceObject* device, FileObject& file,
                                           uint64_t offset, uint32_t length) {
  if (!options_.passthrough_fastio) {
    return {};
  }
  const SimTime start = engine_.Now();
  const FastIoResult result = ForwardFastIoRead(device, file, offset, length);
  TraceRecord r = BaseRecord(file);
  r.event = static_cast<uint16_t>(result.possible ? TraceEvent::kFastIoRead
                                                  : TraceEvent::kFastIoReadNotPossible);
  r.start_ticks = start.ticks();
  r.complete_ticks = engine_.Now().ticks();
  r.status = static_cast<uint16_t>(result.status);
  r.offset = offset;
  r.length = length;
  r.returned = result.bytes;
  ++fastio_events_;
  Emit(r);
  return result;
}

FastIoResult TraceFilterDriver::FastIoWrite(DeviceObject* device, FileObject& file,
                                            uint64_t offset, uint32_t length) {
  if (!options_.passthrough_fastio) {
    return {};
  }
  const SimTime start = engine_.Now();
  const FastIoResult result = ForwardFastIoWrite(device, file, offset, length);
  TraceRecord r = BaseRecord(file);
  r.event = static_cast<uint16_t>(result.possible ? TraceEvent::kFastIoWrite
                                                  : TraceEvent::kFastIoWriteNotPossible);
  r.start_ticks = start.ticks();
  r.complete_ticks = engine_.Now().ticks();
  r.status = static_cast<uint16_t>(result.status);
  r.offset = offset;
  r.length = length;
  r.returned = result.bytes;
  ++fastio_events_;
  Emit(r);
  return result;
}

bool TraceFilterDriver::FastIoQueryBasicInfo(DeviceObject* device, FileObject& file,
                                             FileBasicInfo* out) {
  if (!options_.passthrough_fastio) {
    return false;
  }
  const SimTime start = engine_.Now();
  const bool ok = ForwardFastIoQueryBasicInfo(device, file, out);
  if (ok) {
    TraceRecord r = BaseRecord(file);
    r.event = static_cast<uint16_t>(TraceEvent::kFastIoQueryBasicInfo);
    r.start_ticks = start.ticks();
    r.complete_ticks = engine_.Now().ticks();
    ++fastio_events_;
    Emit(r);
  }
  return ok;
}

bool TraceFilterDriver::FastIoQueryStandardInfo(DeviceObject* device, FileObject& file,
                                                FileStandardInfo* out) {
  if (!options_.passthrough_fastio) {
    return false;
  }
  const SimTime start = engine_.Now();
  const bool ok = ForwardFastIoQueryStandardInfo(device, file, out);
  if (ok) {
    TraceRecord r = BaseRecord(file);
    r.event = static_cast<uint16_t>(TraceEvent::kFastIoQueryStandardInfo);
    r.start_ticks = start.ticks();
    r.complete_ticks = engine_.Now().ticks();
    ++fastio_events_;
    Emit(r);
  }
  return ok;
}

}  // namespace ntrace
