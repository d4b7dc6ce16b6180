#include "src/ntio/driver.h"

namespace ntrace {

FastIoResult Driver::FastIoRead(DeviceObject*, FileObject&, uint64_t, uint32_t) { return {}; }

FastIoResult Driver::FastIoWrite(DeviceObject*, FileObject&, uint64_t, uint32_t) { return {}; }

bool Driver::FastIoQueryBasicInfo(DeviceObject*, FileObject&, FileBasicInfo*) { return false; }

bool Driver::FastIoQueryStandardInfo(DeviceObject*, FileObject&, FileStandardInfo*) {
  return false;
}

NtStatus ForwardIrp(DeviceObject* device, Irp& irp) {
  DeviceObject* lower = device->lower();
  if (lower == nullptr) {
    irp.result.status = NtStatus::kInvalidDeviceRequest;
    return irp.result.status;
  }
  return lower->driver()->DispatchIrp(lower, irp);
}

FastIoResult ForwardFastIoRead(DeviceObject* device, FileObject& file, uint64_t offset,
                               uint32_t length) {
  DeviceObject* lower = device->lower();
  if (lower == nullptr) {
    return {};
  }
  return lower->driver()->FastIoRead(lower, file, offset, length);
}

FastIoResult ForwardFastIoWrite(DeviceObject* device, FileObject& file, uint64_t offset,
                                uint32_t length) {
  DeviceObject* lower = device->lower();
  if (lower == nullptr) {
    return {};
  }
  return lower->driver()->FastIoWrite(lower, file, offset, length);
}

bool ForwardFastIoQueryBasicInfo(DeviceObject* device, FileObject& file, FileBasicInfo* out) {
  DeviceObject* lower = device->lower();
  if (lower == nullptr) {
    return false;
  }
  return lower->driver()->FastIoQueryBasicInfo(lower, file, out);
}

bool ForwardFastIoQueryStandardInfo(DeviceObject* device, FileObject& file,
                                    FileStandardInfo* out) {
  DeviceObject* lower = device->lower();
  if (lower == nullptr) {
    return false;
  }
  return lower->driver()->FastIoQueryStandardInfo(lower, file, out);
}

}  // namespace ntrace
