// The trace filter driver: the paper's measurement instrument.
//
// "Our trace mechanism exploits the Windows NT support for transparent
// layering of device drivers, by introducing a filter driver that records
// all requests sent to the drivers that implement file systems" (section
// 3.2). The filter attaches on top of each local file system driver
// instance and the network redirector; every IRP -- including VM-originated
// paging I/O -- and every FastIO invocation passing through is recorded with
// start and completion timestamps at 100 ns granularity.
//
// Crucially, the filter implements the full FastIO interface as passthrough:
// the paper notes that a filter lacking FastIO routines "severely handicaps
// the system by blocking the access of the I/O manager to ... the cache
// manager" (section 10). A `passthrough_fastio=false` mode exists purely to
// reproduce that handicap in the ablation benches.

#ifndef SRC_TRACE_TRACE_FILTER_H_
#define SRC_TRACE_TRACE_FILTER_H_

#include <cstdint>

#include "src/ntio/driver.h"
#include "src/sim/engine.h"
#include "src/trace/trace_buffer.h"
#include "src/trace/trace_record.h"

namespace ntrace {

// FastIO attempts that return "not possible" are recorded as their own
// events.
struct TraceFilterOptions {
  // When false, the filter has no FastIO dispatch table: every FastIO call
  // reports not-possible without reaching the file system (the section-10
  // handicap; ablation only).
  bool passthrough_fastio = true;
  // CPU cost of writing one trace record (the paper measured the tracing
  // overhead at <= 0.5% of a 200 MHz P6 under heavy IRP load).
  SimDuration record_cost = SimDuration::Ticks(3);  // 300 ns.
};

class TraceFilterDriver final : public Driver {
 public:
  TraceFilterDriver(Engine& engine, TraceBuffer& buffer, uint32_t system_id,
                    TraceFilterOptions options = {});


  NtStatus DispatchIrp(DeviceObject* device, Irp& irp) override;
  FastIoResult FastIoRead(DeviceObject* device, FileObject& file, uint64_t offset,
                          uint32_t length) override;
  FastIoResult FastIoWrite(DeviceObject* device, FileObject& file, uint64_t offset,
                           uint32_t length) override;
  bool FastIoQueryBasicInfo(DeviceObject* device, FileObject& file, FileBasicInfo* out) override;
  bool FastIoQueryStandardInfo(DeviceObject* device, FileObject& file,
                               FileStandardInfo* out) override;

  uint64_t irp_events() const { return irp_events_; }
  uint64_t fastio_events() const { return fastio_events_; }

 private:
  TraceRecord BaseRecord(const FileObject& file) const;
  void Emit(TraceRecord record);

  Engine& engine_;
  TraceBuffer& buffer_;
  uint32_t system_id_;
  TraceFilterOptions options_;
  uint64_t irp_events_ = 0;
  uint64_t fastio_events_ = 0;
};

}  // namespace ntrace

#endif  // SRC_TRACE_TRACE_FILTER_H_
