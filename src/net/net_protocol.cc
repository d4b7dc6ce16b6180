#include "src/net/net_protocol.h"

#include <cstring>

namespace ntrace {

void EncodeHelloFrame(std::vector<uint8_t>* out, const NetHello& hello) {
  std::vector<uint8_t> p;
  PutScalar(&p, hello.protocol_version);
  PutScalar(&p, hello.agent_id);
  PutScalar(&p, hello.config_fingerprint);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kHello), p.data(), p.size(), nullptr,
                   0);
}

void EncodeHelloAckFrame(std::vector<uint8_t>* out, const NetHelloAck& ack) {
  std::vector<uint8_t> p;
  PutScalar(&p, ack.resume_seq);
  PutScalar(&p, ack.credit);
  PutScalar(&p, ack.status);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kHelloAck), p.data(), p.size(),
                   nullptr, 0);
}

void EncodeDataFrame(std::vector<uint8_t>* out, const NetDataHead& head, const void* inner,
                     size_t inner_size) {
  uint8_t h[kNetDataHeadSize];
  std::memcpy(h, &head.net_seq, 8);
  std::memcpy(h + 8, &head.agent_id, 4);
  std::memcpy(h + 12, &head.inner_type, 2);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kData), h, sizeof(h), inner,
                   inner_size);
}

void EncodeAckFrame(std::vector<uint8_t>* out, const NetAck& ack) {
  std::vector<uint8_t> p;
  PutScalar(&p, ack.agent_id);
  PutScalar(&p, ack.ack_seq);
  PutScalar(&p, ack.durable_seq);
  PutScalar(&p, ack.credit);
  PutScalar(&p, ack.status);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kAck), p.data(), p.size(), nullptr,
                   0);
}

void EncodeByeFrame(std::vector<uint8_t>* out, const NetBye& bye) {
  std::vector<uint8_t> p;
  PutScalar(&p, bye.frames_sent);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kBye), p.data(), p.size(), nullptr,
                   0);
}

void EncodeByeAckFrame(std::vector<uint8_t>* out, const NetByeAck& ack) {
  std::vector<uint8_t> p;
  PutScalar(&p, ack.records_collected);
  SpoolAppendFrame(out, static_cast<uint16_t>(NetFrameType::kByeAck), p.data(), p.size(), nullptr,
                   0);
}

bool DecodeHello(const uint8_t* payload, size_t size, NetHello* hello) {
  size_t pos = 0;
  return GetScalar(payload, size, &pos, &hello->protocol_version) &&
         hello->protocol_version == kNetProtocolVersion &&
         GetScalar(payload, size, &pos, &hello->agent_id) &&
         GetScalar(payload, size, &pos, &hello->config_fingerprint);
}

bool DecodeHelloAck(const uint8_t* payload, size_t size, NetHelloAck* ack) {
  size_t pos = 0;
  return GetScalar(payload, size, &pos, &ack->resume_seq) &&
         GetScalar(payload, size, &pos, &ack->credit) &&
         GetScalar(payload, size, &pos, &ack->status);
}

bool DecodeDataHead(const uint8_t* payload, size_t size, NetDataHead* head,
                    const uint8_t** inner, size_t* inner_size) {
  if (size < kNetDataHeadSize) {
    return false;
  }
  std::memcpy(&head->net_seq, payload, 8);
  std::memcpy(&head->agent_id, payload + 8, 4);
  std::memcpy(&head->inner_type, payload + 12, 2);
  *inner = payload + kNetDataHeadSize;
  *inner_size = size - kNetDataHeadSize;
  return true;
}

bool DecodeAck(const uint8_t* payload, size_t size, NetAck* ack) {
  size_t pos = 0;
  return GetScalar(payload, size, &pos, &ack->agent_id) &&
         GetScalar(payload, size, &pos, &ack->ack_seq) &&
         GetScalar(payload, size, &pos, &ack->durable_seq) &&
         GetScalar(payload, size, &pos, &ack->credit) &&
         GetScalar(payload, size, &pos, &ack->status);
}

bool DecodeBye(const uint8_t* payload, size_t size, NetBye* bye) {
  size_t pos = 0;
  return GetScalar(payload, size, &pos, &bye->frames_sent);
}

bool DecodeByeAck(const uint8_t* payload, size_t size, NetByeAck* ack) {
  size_t pos = 0;
  return GetScalar(payload, size, &pos, &ack->records_collected);
}

void NetFrameAssembler::Append(const uint8_t* data, size_t size) {
  // Compact before growing: everything before pos_ is consumed.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= (64u << 10))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + size);
}

bool NetFrameAssembler::Next(SpoolFrameView* view, bool* corrupt) {
  if (corrupt != nullptr) {
    *corrupt = false;
  }
  if (corrupt_ || pos_ >= buf_.size()) {
    return false;
  }
  size_t consumed = 0;
  switch (SpoolParseFrame(buf_.data() + pos_, buf_.size() - pos_, view, &consumed)) {
    case SpoolFrameStatus::kOk:
      pos_ += consumed;
      return true;
    case SpoolFrameStatus::kTruncatedHeader:
    case SpoolFrameStatus::kTruncatedPayload:
      return false;  // Wait for more bytes.
    case SpoolFrameStatus::kBadHeader:
    case SpoolFrameStatus::kBadPayload:
      corrupt_ = true;
      if (corrupt != nullptr) {
        *corrupt = true;
      }
      return false;
  }
  return false;
}

std::vector<uint8_t> NetFrameAssembler::TakeBuffered() {
  std::vector<uint8_t> tail(buf_.begin() + static_cast<ptrdiff_t>(pos_), buf_.end());
  buf_.clear();
  pos_ = 0;
  return tail;
}

void NetFrameAssembler::Reset() {
  buf_.clear();
  pos_ = 0;
  corrupt_ = false;
}

}  // namespace ntrace
