#include "src/trace/frame_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "src/base/crc32c.h"
#include "src/metrics/metrics.h"

namespace ntrace {
namespace {

void Store32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t Load32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void SpoolFillFrameHeader(uint8_t* header, uint16_t type, uint32_t payload_size,
                          uint32_t payload_crc) {
  Store32(header, kSpoolFrameMagic);
  header[4] = static_cast<uint8_t>(type);
  header[5] = static_cast<uint8_t>(type >> 8);
  header[6] = header[7] = 0;  // Reserved.
  Store32(header + 8, payload_size);
  Store32(header + 12, payload_crc);
  Store32(header + 16, Crc32c(header, kSpoolFrameHeaderSize - 4));
}

void SpoolAppendFrame(std::vector<uint8_t>* out, uint16_t type, const void* head,
                      size_t head_size, const void* tail, size_t tail_size) {
  const size_t at = out->size();
  out->resize(at + kSpoolFrameHeaderSize);
  SpoolFillFrameHeader(out->data() + at, type, static_cast<uint32_t>(head_size + tail_size),
                       Crc32cExtend(Crc32cExtend(0, head, head_size), tail, tail_size));
  PutBytes(out, head, head_size);
  PutBytes(out, tail, tail_size);
}

SpoolFrameStatus SpoolParseFrame(const uint8_t* data, size_t size, SpoolFrameView* view,
                                 size_t* consumed) {
  *view = SpoolFrameView{};
  *consumed = 0;
  if (size < kSpoolFrameHeaderSize) {
    return SpoolFrameStatus::kTruncatedHeader;
  }
  const uint32_t magic = Load32(data);
  const uint16_t type = static_cast<uint16_t>(data[4] | (data[5] << 8));
  const uint32_t payload_size = Load32(data + 8);
  const uint32_t payload_crc = Load32(data + 12);
  const uint32_t header_crc = Load32(data + 16);
  if (magic != kSpoolFrameMagic || Crc32c(data, kSpoolFrameHeaderSize - 4) != header_crc ||
      payload_size > kSpoolMaxPayload) {
    return SpoolFrameStatus::kBadHeader;
  }
  view->type = type;
  view->payload_size = payload_size;
  view->payload = data + kSpoolFrameHeaderSize;
  view->payload_available =
      size - kSpoolFrameHeaderSize < payload_size ? size - kSpoolFrameHeaderSize : payload_size;
  if (size - kSpoolFrameHeaderSize < payload_size) {
    return SpoolFrameStatus::kTruncatedPayload;
  }
  if (Crc32c(view->payload, payload_size) != payload_crc) {
    return SpoolFrameStatus::kBadPayload;
  }
  *consumed = kSpoolFrameHeaderSize + payload_size;
  return SpoolFrameStatus::kOk;
}

bool FrameFileWriter::OpenFd(const std::string& path, int flags, Counter* bytes_counter) {
  Close();
  bytes_written_ = 0;
  buf_.clear();
  bytes_counter_ = bytes_counter;
  fd_ = ::open(path.c_str(), flags | O_WRONLY | O_CLOEXEC, 0666);
  failed_ = fd_ < 0;
  return !failed_;
}

bool FrameFileWriter::Open(const std::string& path, const FrameFileHeader& header,
                           Counter* bytes_counter) {
  if (!OpenFd(path, O_CREAT | O_TRUNC, bytes_counter)) {
    return false;
  }
  PutScalar<uint64_t>(&buf_, header.magic);
  PutScalar<uint32_t>(&buf_, header.version);
  PutScalar<uint32_t>(&buf_, header.param);
  PutScalar<uint64_t>(&buf_, header.config_fingerprint);
  bytes_written_ = buf_.size();
  bytes_counter_->Inc(buf_.size());
  // The header goes out at once: an opened file is a valid empty prefix.
  failed_ = !Flush();
  return !failed_;
}

bool FrameFileWriter::OpenAppend(const std::string& path, const FrameFileHeader& header,
                                 Counter* bytes_counter) {
  FrameFileReader scan;
  if (!scan.Open(path, header.magic, header.version) || scan.header().param != header.param ||
      scan.header().config_fingerprint != header.config_fingerprint) {
    return Open(path, header, bytes_counter);
  }
  SpoolFrameView view;
  while (scan.Next(&view)) {
  }
  failed_ = !OpenFd(path, O_APPEND, bytes_counter) ||
            ::ftruncate(fd_, static_cast<off_t>(scan.valid_end())) != 0;
  return !failed_;
}

bool FrameFileWriter::Flush(const void* tail, size_t tail_size) {
  iovec iov[2] = {{buf_.data(), buf_.size()}, {const_cast<void*>(tail), tail_size}};
  int idx = 0;
  bool written = true;
  while (idx < 2) {
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    const ssize_t n = ::writev(fd_, &iov[idx], 2 - idx);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      written = false;
      break;
    }
    size_t left = static_cast<size_t>(n);
    while (idx < 2 && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < 2) {
      iov[idx].iov_base = static_cast<uint8_t*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
  }
  buf_.clear();
  return written;
}

bool FrameFileWriter::Append(uint16_t type, const void* head, size_t head_size,
                             const void* tail, size_t tail_size, bool checkpoint) {
  const size_t size = head_size + tail_size;
  if (!ok() || size > kSpoolMaxPayload) {
    failed_ = true;
    return false;
  }
  const size_t frame_at = buf_.size();
  buf_.resize(frame_at + kSpoolFrameHeaderSize);
  SpoolFillFrameHeader(buf_.data() + frame_at, type, static_cast<uint32_t>(size),
                       Crc32cExtend(Crc32cExtend(0, head, head_size), tail, tail_size));
  PutBytes(&buf_, head, head_size);
  bool written = true;
  if (tail_size >= kFrameDirectTailBytes) {
    written = Flush(tail, tail_size);  // The tail never passes through buf_.
  } else {
    PutBytes(&buf_, tail, tail_size);
    if (checkpoint || buf_.size() > flush_threshold_) {
      written = Flush();
    }
  }
  if (!written) {
    failed_ = true;
    return false;
  }
  bytes_written_ += kSpoolFrameHeaderSize + size;
  bytes_counter_->Inc(kSpoolFrameHeaderSize + size);
  return true;
}

void FrameFileWriter::Close() {
  if (fd_ >= 0) {
    if (!Flush()) {
      failed_ = true;
    }
    ::close(fd_);
    fd_ = -1;
  }
}

void FrameFileWriter::Abandon() {
  buf_.clear();  // Unflushed frames die with the "process", as in a crash.
  Close();
  failed_ = true;
}

bool FrameFileReader::Open(const std::string& path, uint64_t magic, uint32_t version,
                           FrameLostKnownFn lost_known) {
  lost_known_ = lost_known;
  file_.reset(std::fopen(path.c_str(), "rb"));
  if (file_ == nullptr) {
    return false;
  }
  salvage_.file_opened = true;
  // Read front to back exactly once, often hundreds at a time by the k-way
  // merge: readahead sized for sequential access beats per-fd heuristics.
  posix_fadvise(fileno(file_.get()), 0, 0, POSIX_FADV_SEQUENTIAL);
  struct stat st;
  file_size_ = fstat(fileno(file_.get()), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;

  uint8_t bytes[kFrameFileHeaderSize];
  FrameFileHeader h;
  if (std::fread(bytes, 1, sizeof(bytes), file_.get()) == sizeof(bytes)) {
    size_t pos = 0;
    GetScalar(bytes, sizeof(bytes), &pos, &h.magic);
    GetScalar(bytes, sizeof(bytes), &pos, &h.version);
    GetScalar(bytes, sizeof(bytes), &pos, &h.param);
    GetScalar(bytes, sizeof(bytes), &pos, &h.config_fingerprint);
  }
  if (h.magic != magic || h.version != version) {
    salvage_.bytes_discarded = file_size_;
    return false;
  }
  header_ = h;
  salvage_.header_valid = true;
  salvage_.version = h.version;
  salvage_.config_fingerprint = h.config_fingerprint;
  frame_start_ = valid_end_ = kFrameFileHeaderSize;
  done_ = false;
  return true;
}

bool FrameFileReader::Damaged(uint64_t records_lost_known) {
  salvage_.frames_damaged = 1;
  salvage_.records_lost_known = records_lost_known;
  salvage_.bytes_discarded = file_size_ - valid_end_;
  done_ = true;
  return false;
}

bool FrameFileReader::Next(SpoolFrameView* view) {
  if (done_) {
    return false;
  }
  frame_.resize(kSpoolFrameHeaderSize);
  const size_t got = std::fread(frame_.data(), 1, kSpoolFrameHeaderSize, file_.get());
  if (got == 0) {
    done_ = true;  // Clean EOF.
    return false;
  }
  size_t consumed = 0;
  SpoolFrameStatus status = SpoolParseFrame(frame_.data(), got, view, &consumed);
  if (status == SpoolFrameStatus::kTruncatedHeader || status == SpoolFrameStatus::kBadHeader) {
    return Damaged(0);  // The length field cannot be trusted: stop here.
  }
  // Header intact: read the payload (no more than the file holds) and
  // validate the frame end to end.
  const size_t want = static_cast<size_t>(
      std::min<uint64_t>(view->payload_size, file_size_ - valid_end_ - kSpoolFrameHeaderSize));
  frame_.resize(kSpoolFrameHeaderSize + want);
  const size_t body = std::fread(frame_.data() + kSpoolFrameHeaderSize, 1, want, file_.get());
  status = SpoolParseFrame(frame_.data(), kSpoolFrameHeaderSize + body, view, &consumed);
  if (status != SpoolFrameStatus::kOk) {
    // Cut short or failing its CRC in place, the payload still carries a
    // trustworthy head at the front of whatever bytes survive.
    return Damaged(lost_known_ != nullptr ? lost_known_(*view) : 0);
  }
  frame_start_ = valid_end_;
  valid_end_ += consumed;
  ++salvage_.frames_valid;
  return true;
}

void FrameFileReader::Reject() {
  // Both CRCs passed, so the writer was broken; damage all the same.
  --salvage_.frames_valid;
  valid_end_ = frame_start_;
  Damaged(0);
}

void FrameFileReader::Seal() {
  salvage_.sealed = true;
  salvage_.bytes_discarded = file_size_ - valid_end_;
  done_ = true;
}

}  // namespace ntrace
