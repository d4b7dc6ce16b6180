#include "src/net/net_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

namespace ntrace {

namespace {

void SleepMs(double ms) {
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

void SetIoTimeouts(int fd, double ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(static_cast<int64_t>(ms * 1000.0) % 1000000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

NetAgentClient::NetAgentClient(const NetCollectionConfig& config, uint16_t port,
                               uint32_t agent_id, uint64_t config_fingerprint)
    : config_(config),
      port_(port),
      agent_id_(agent_id),
      fingerprint_(config_fingerprint),
      faults_(config.transport_faults, config.fault_seed, agent_id),
      backoff_rng_(kNetRetrySeed + 0x9E3779B97F4A7C15ULL * (agent_id + 1)) {}

NetAgentClient::~NetAgentClient() { Disconnect(); }

double NetAgentClient::BackoffMs(int attempt) {
  const ShipmentPolicy& r = config_.retry;
  double ms = r.initial_backoff.ToMillisF() * std::pow(r.backoff_multiplier, attempt);
  ms = std::min(ms, r.max_backoff.ToMillisF());
  const double scale = 1.0 - r.jitter + 2.0 * r.jitter * backoff_rng_.NextDouble();
  return ms * scale;
}

void NetAgentClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  assembler_.Reset();
  has_reorder_pocket_ = false;
}

bool NetAgentClient::WriteAll(const uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = send(fd_, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    return false;  // Timeout, reset, or the server evicted us.
  }
  return true;
}

void NetAgentClient::FreeAcked() {
  while (!queue_.empty() && queue_.front().seq < durable_seq_) {
    queue_.pop_front();
  }
  next_to_send_ = std::max(next_to_send_, durable_seq_);
}

bool NetAgentClient::EnsureConnected() {
  if (failed_) {
    return false;
  }
  if (fd_ >= 0) {
    return true;
  }
  for (int attempt = 0;; ++attempt) {
    if (attempt >= config_.retry.max_attempts) {
      failed_ = true;
      return false;
    }
    if (attempt > 0 || connected_once_) {
      SleepMs(BackoffMs(attempt));
    }
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      continue;
    }
    // Connect with a deadline: non-blocking connect, poll for writability.
    const int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);
    int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd p{fd, POLLOUT, 0};
      rc = poll(&p, 1, static_cast<int>(kNetConnectTimeoutMs)) == 1 ? 0 : -1;
      if (rc == 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        rc = err == 0 ? 0 : -1;
      }
    }
    if (rc != 0) {
      close(fd);
      continue;
    }
    fcntl(fd, F_SETFL, flags);  // Back to blocking; timeouts bound the waits.
    SetIoTimeouts(fd, kNetIoTimeoutMs);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    fd_ = fd;
    assembler_.Reset();
    NetHello hello;
    hello.agent_id = agent_id_;
    hello.config_fingerprint = fingerprint_;
    std::vector<uint8_t> frame;
    EncodeHelloFrame(&frame, hello);
    if (!WriteAll(frame.data(), frame.size())) {
      Disconnect();
      continue;
    }
    NetHelloAck ack;
    bool got = false, bad = false;
    while (!got && !bad) {
      SpoolFrameView view;
      bool corrupt = false;
      if (assembler_.Next(&view, &corrupt)) {
        got = view.type == static_cast<uint16_t>(NetFrameType::kHelloAck) &&
              DecodeHelloAck(view.payload, view.payload_size, &ack);
        bad = !got;
        continue;
      }
      if (corrupt) {
        bad = true;
        continue;
      }
      uint8_t buf[512];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        bad = true;
        continue;
      }
      assembler_.Append(buf, static_cast<size_t>(n));
    }
    if (!got) {
      Disconnect();
      continue;
    }

    // Rewind to the server's resume point.
    const uint64_t resume = ack.resume_seq;
    const uint64_t retained_floor = queue_.empty() ? next_seq_ : queue_.front().seq;
    if (resume < retained_floor && resume < next_seq_) {
      // The server wants frames below what we still hold: its durable state
      // regressed past ours (a crash without a spool). Unrecoverable.
      Disconnect();
      failed_ = true;
      return false;
    }
    if (resume >= next_seq_) {
      // The server is ahead of this run (an earlier invocation's segment):
      // everything up to `resume` is already collected, skip sending it.
      resume_floor_ = std::max(resume_floor_, resume);
      queue_.clear();
      next_to_send_ = next_seq_;
    } else {
      while (!queue_.empty() && queue_.front().seq < resume) {
        queue_.pop_front();
      }
      next_to_send_ = resume;
    }
    ack_seq_ = std::max(ack_seq_, std::min(resume, next_seq_));
    durable_seq_ = std::max(durable_seq_, std::min(resume, next_seq_));
    busy_pending_ = false;
    if (connected_once_) {
      ++reconnects_;
    }
    connected_once_ = true;
    return true;
  }
}

bool NetAgentClient::TransmitPending() {
  if (queue_.empty()) {
    return true;
  }
  const uint64_t front = queue_.front().seq;
  next_to_send_ = std::max(next_to_send_, front);
  while (next_to_send_ < front + queue_.size()) {
    Pending& p = queue_[static_cast<size_t>(next_to_send_ - front)];
    if (busy_pending_) {
      // Explicit backpressure from the server: one jittered backoff step
      // before pushing more.
      busy_pending_ = false;
      ++busy_pauses_;
      SleepMs(BackoffMs(0));
    }
    switch (faults_.Draw()) {
      case TransportFaultKind::kReset:
        Disconnect();
        return false;
      case TransportFaultKind::kPartialWrite: {
        // A prefix reaches the wire, then the connection dies: the server's
        // assembler holds a torn frame until the close discards it.
        const size_t half = std::max<size_t>(1, p.frame.size() / 2);
        (void)!WriteAll(p.frame.data(), half);
        Disconnect();
        return false;
      }
      case TransportFaultKind::kStall:
        // Silence long enough to trip the peer's deadline, then proceed; if
        // the server evicted us meanwhile, the write or the next read fails
        // and the reconnect path takes over.
        SleepMs(config_.transport_faults.stall_ms);
        break;
      case TransportFaultKind::kDelay:
        SleepMs(config_.transport_faults.delay_ms);
        break;
      case TransportFaultKind::kDuplicate:
        if (!WriteAll(p.frame.data(), p.frame.size())) {
          Disconnect();
          return false;
        }
        break;  // Falls through to the normal write: two copies on the wire.
      case TransportFaultKind::kReorder:
        if (!has_reorder_pocket_) {
          // Hold this frame back; it goes out right after its successor.
          has_reorder_pocket_ = true;
          reorder_pocket_ = p.seq;
          ++next_to_send_;
          continue;
        }
        break;
      case TransportFaultKind::kNone:
        break;
    }
    if (!WriteAll(p.frame.data(), p.frame.size())) {
      Disconnect();
      return false;
    }
    ++next_to_send_;
    if (has_reorder_pocket_ && reorder_pocket_ < p.seq) {
      const Pending& held = queue_[static_cast<size_t>(reorder_pocket_ - front)];
      has_reorder_pocket_ = false;
      if (!WriteAll(held.frame.data(), held.frame.size())) {
        Disconnect();
        return false;
      }
    }
  }
  return true;
}

bool NetAgentClient::PumpAcks(bool block) {
  const uint64_t ack_before = ack_seq_;
  for (;;) {
    SpoolFrameView view;
    bool corrupt = false;
    while (assembler_.Next(&view, &corrupt)) {
      switch (static_cast<NetFrameType>(view.type)) {
        case NetFrameType::kAck: {
          NetAck ack;
          if (DecodeAck(view.payload, view.payload_size, &ack)) {
            ack_seq_ = std::max(ack_seq_, ack.ack_seq);
            durable_seq_ = std::max(durable_seq_, ack.durable_seq);
            FreeAcked();
            if (ack.status == static_cast<uint8_t>(NetStatus::kBusy)) {
              busy_pending_ = true;
            } else if (ack.status == static_cast<uint8_t>(NetStatus::kShed)) {
              busy_pending_ = true;
              ++shed_signals_;
            }
          }
          break;
        }
        case NetFrameType::kByeAck: {
          NetByeAck ack;
          if (DecodeByeAck(view.payload, view.payload_size, &ack)) {
            got_byeack_ = true;
            byeack_records_ = ack.records_collected;
          }
          break;
        }
        default:
          break;  // Stray hello-ack or unknown control frame.
      }
    }
    if (corrupt) {
      Disconnect();
      return false;
    }
    if (ack_seq_ > ack_before || got_byeack_) {
      consecutive_failures_ = 0;
    }
    uint8_t buf[4096];
    const ssize_t n = recv(fd_, buf, sizeof(buf), block ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      assembler_.Append(buf, static_cast<size_t>(n));
      block = false;  // Drain what arrived, then return.
      continue;
    }
    if (n == 0) {
      Disconnect();
      return false;  // Server closed: eviction, crash, or drain.
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!block) {
        return true;
      }
      Disconnect();  // Blocking wait timed out: treat as a dead peer.
      return false;
    }
    Disconnect();
    return false;
  }
}

bool NetAgentClient::SendName(const NameRecord& name) {
  if (failed_) {
    return false;
  }
  names_.Add(name);
  return !names_.full() || SendNames();
}

bool NetAgentClient::SendNames() {
  if (names_.count == 0) {
    return true;
  }
  names_.count = 0;  // The nested SendInner sees none staged.
  const bool ok = SendInner(static_cast<uint16_t>(SpoolFrameType::kNames), names_.payload.data(),
                            names_.payload.size());
  names_.payload.clear();
  return ok;
}

bool NetAgentClient::SendInner(uint16_t inner_type, const void* inner, size_t inner_size) {
  if (failed_ || !SendNames()) {
    return false;
  }
  if (!EnsureConnected()) {
    return false;
  }
  const uint64_t seq = next_seq_++;
  if (seq < resume_floor_) {
    return true;  // Already durable server-side (resumed stream).
  }
  Pending p;
  p.seq = seq;
  NetDataHead head;
  head.net_seq = seq;
  head.agent_id = agent_id_;
  head.inner_type = inner_type;
  EncodeDataFrame(&p.frame, head, inner, inner_size);
  queue_.push_back(std::move(p));

  for (;;) {
    if (fd_ < 0 && !EnsureConnected()) {
      return false;
    }
    if (!TransmitPending()) {
      if (++consecutive_failures_ > config_.retry.max_attempts * 8) {
        failed_ = true;
        return false;
      }
      continue;
    }
    if (!PumpAcks(/*block=*/false)) {
      continue;
    }
    if (next_seq_ - ack_seq_ <= static_cast<uint64_t>(config_.window)) {
      return true;
    }
    // Window full: anything held back must go out before we block on acks.
    if (has_reorder_pocket_) {
      const uint64_t front = queue_.front().seq;
      const Pending& held = queue_[static_cast<size_t>(reorder_pocket_ - front)];
      has_reorder_pocket_ = false;
      if (!WriteAll(held.frame.data(), held.frame.size())) {
        Disconnect();
        continue;
      }
    }
    if (!PumpAcks(/*block=*/true)) {
      if (++consecutive_failures_ > config_.retry.max_attempts * 8) {
        failed_ = true;
        return false;
      }
      continue;
    }
  }
}

bool NetAgentClient::FinishStream(uint64_t* records_collected) {
  if (failed_ || !SendNames()) {
    return false;
  }
  if (!EnsureConnected()) {
    return false;
  }
  for (;;) {
    if (fd_ < 0 && !EnsureConnected()) {
      return false;
    }
    if (!TransmitPending()) {
      if (++consecutive_failures_ > config_.retry.max_attempts * 8) {
        failed_ = true;
        return false;
      }
      continue;
    }
    if (has_reorder_pocket_ && !queue_.empty()) {
      const uint64_t front = queue_.front().seq;
      const Pending& held = queue_[static_cast<size_t>(reorder_pocket_ - front)];
      has_reorder_pocket_ = false;
      if (!WriteAll(held.frame.data(), held.frame.size())) {
        Disconnect();
        continue;
      }
    }
    if (ack_seq_ < next_seq_) {
      if (!PumpAcks(/*block=*/true)) {
        if (++consecutive_failures_ > config_.retry.max_attempts * 8) {
          failed_ = true;
          return false;
        }
      }
      continue;
    }
    // Fully acked: ask for the seal.
    NetBye bye;
    bye.frames_sent = next_seq_;
    std::vector<uint8_t> frame;
    EncodeByeFrame(&frame, bye);
    if (!WriteAll(frame.data(), frame.size())) {
      Disconnect();
      continue;
    }
    while (!got_byeack_) {
      if (!PumpAcks(/*block=*/true)) {
        break;
      }
    }
    if (got_byeack_) {
      if (records_collected != nullptr) {
        *records_collected = byeack_records_;
      }
      Disconnect();
      return true;
    }
    if (++consecutive_failures_ > config_.retry.max_attempts * 8) {
      failed_ = true;
      return false;
    }
  }
}

void NetSink::DeliverShipment(const ShipmentHeader& header, std::vector<TraceRecord> records) {
  staging_.clear();
  SpoolEncodeShipmentHead(&staging_, header);
  if (!records.empty()) {
    const size_t at = staging_.size();
    staging_.resize(at + records.size() * sizeof(TraceRecord));
    std::memcpy(staging_.data() + at, records.data(), records.size() * sizeof(TraceRecord));
  }
  client_->SendInner(static_cast<uint16_t>(SpoolFrameType::kShipment), staging_.data(),
                     staging_.size());
}

void NetSink::DeliverName(NameRecord name) { client_->SendName(name); }

bool NetSink::SendCompletion(const void* blob, size_t size) {
  return client_->SendInner(static_cast<uint16_t>(SpoolFrameType::kCompletion), blob, size);
}

}  // namespace ntrace
