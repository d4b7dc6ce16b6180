// Drivers and device stacks.
//
// NT file systems are implemented as layered device drivers: the I/O manager
// hands a request to the topmost device of a volume's stack and each driver
// either completes it or passes it to the device below. Filter drivers (like
// the paper's trace driver, section 3.2) attach on top of a file-system
// device and see every request.
//
// Two access mechanisms exist (section 3.2):
//   * the packet path: DispatchIrp(), walked down the chain, and
//   * the FastIO path: direct method invocation, where each layer calls the
//     same method on the device below. A driver that does not implement a
//     FastIO routine returns false ("not possible"), forcing the I/O manager
//     to fall back to an IRP -- which is exactly the handicap the paper
//     describes for filter drivers lacking passthrough FastIO tables.

#ifndef SRC_NTIO_DRIVER_H_
#define SRC_NTIO_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/ntio/file_object.h"
#include "src/ntio/irp.h"
#include "src/ntio/status.h"

namespace ntrace {

class DeviceObject;

// Result of a FastIO data transfer attempt.
struct FastIoResult {
  bool possible = false;  // False: caller must retry via the IRP path.
  NtStatus status = NtStatus::kSuccess;
  uint32_t bytes = 0;
};

class Driver {
 public:
  virtual ~Driver() = default;

  // The packet path. The driver must fill irp.result before returning. The
  // returned status duplicates irp.result.status for caller convenience.
  virtual NtStatus DispatchIrp(DeviceObject* device, Irp& irp) = 0;

  // The FastIO path. Defaults return not-possible, which models a driver
  // without a FastIO dispatch table.
  virtual FastIoResult FastIoRead(DeviceObject* device, FileObject& file, uint64_t offset,
                                  uint32_t length);
  virtual FastIoResult FastIoWrite(DeviceObject* device, FileObject& file, uint64_t offset,
                                   uint32_t length);
  virtual bool FastIoQueryBasicInfo(DeviceObject* device, FileObject& file, FileBasicInfo* out);
  virtual bool FastIoQueryStandardInfo(DeviceObject* device, FileObject& file,
                                       FileStandardInfo* out);
};

// A device object: one layer in a volume's driver stack.
class DeviceObject {
 public:
  DeviceObject(std::string name, Driver* driver) : name_(std::move(name)), driver_(driver) {}

  const std::string& name() const { return name_; }
  Driver* driver() const { return driver_; }

  // The device below this one (nullptr for the bottom of the stack).
  DeviceObject* lower() const { return lower_; }
  void set_lower(DeviceObject* lower) { lower_ = lower; }

 private:
  std::string name_;
  Driver* driver_;
  DeviceObject* lower_ = nullptr;
};

// Convenience helpers to forward a request to the next-lower device. Used by
// filter drivers for passthrough.
NtStatus ForwardIrp(DeviceObject* device, Irp& irp);
FastIoResult ForwardFastIoRead(DeviceObject* device, FileObject& file, uint64_t offset,
                               uint32_t length);
FastIoResult ForwardFastIoWrite(DeviceObject* device, FileObject& file, uint64_t offset,
                                uint32_t length);
bool ForwardFastIoQueryBasicInfo(DeviceObject* device, FileObject& file, FileBasicInfo* out);
bool ForwardFastIoQueryStandardInfo(DeviceObject* device, FileObject& file,
                                    FileStandardInfo* out);

}  // namespace ntrace

#endif  // SRC_NTIO_DRIVER_H_
