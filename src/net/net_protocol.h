// Wire protocol of the networked collection tier (DESIGN.md §11).
//
// The wire speaks the v1 frame format of the trace-file container
// (src/trace/frame_file.h): every message is one frame (20-byte header --
// magic, type, payload size, payload CRC-32C, header CRC-32C -- then
// payload), so a frame captured off the wire is bit-compatible with a frame
// read from a spool segment, and the server persists delivered payloads by
// writing them straight back out as spool frames. Net-specific frame types
// live above the on-disk range (>= 16).
//
// Session layer: every data frame an agent sends carries a dense per-agent
// sequence number (net_seq, 0-based). The server delivers frames to its
// CollectionServer strictly in net_seq order -- out-of-order frames wait in
// a bounded reorder buffer, duplicates are discarded -- and acknowledges
// with a cumulative ack (next expected seq) plus a durable watermark (seqs
// below it are flushed to the spool and survive a server crash). The agent
// retains every sent frame until it is durable, so a reconnect -- after a
// transport fault or a server crash/restart -- can resend exactly the
// suffix the hello-ack's resume_seq asks for. Exactly-once, in-order
// delivery is what makes the net path bit-identical to the in-process one.

#ifndef SRC_NET_NET_PROTOCOL_H_
#define SRC_NET_NET_PROTOCOL_H_

#include <cstdint>
#include <vector>

#include "src/trace/spool.h"

namespace ntrace {

inline constexpr uint32_t kNetProtocolVersion = 2;

// Session-layer limits. Out-of-order frames parked per session beyond
// kNetReorderLimit are dropped (the cumulative ack makes the client resend
// them): bounded memory under arbitrary reordering. Timeouts are wall-clock
// milliseconds: connect (and the service's wait for a hello), then each
// blocking agent send or receive. kNetRetrySeed seeds reconnect jitter.
inline constexpr size_t kNetReorderLimit = 64;
inline constexpr double kNetConnectTimeoutMs = 1000.0;
inline constexpr double kNetIoTimeoutMs = 1000.0;
inline constexpr uint64_t kNetRetrySeed = 0x4E455452;  // "NETR".

// Frame types below 16 are the on-disk spool types (SpoolFrameType); the
// net session types start at 16 so the ranges can never collide.
enum class NetFrameType : uint16_t {
  kHello = 16,     // Agent -> server: open/resume a session.
  kHelloAck = 17,  // Server -> agent: session accepted, resume point.
  kData = 18,      // Agent -> server: one sequenced payload.
  kAck = 19,       // Server -> agent: cumulative ack + flow control.
  kBye = 20,       // Agent -> server: stream complete, please seal.
  kByeAck = 21,    // Server -> agent: sealed, totals confirmed.
};

// Flow-control status carried by hello-ack and ack frames.
enum class NetStatus : uint8_t {
  kOk = 0,
  kBusy = 1,  // Backpressure: pause before sending more.
  kShed = 2,  // Reorder buffer overflowed; a frame was dropped and must be
              // resent (the cumulative ack already says which).
};

struct NetHello {
  uint32_t protocol_version = kNetProtocolVersion;
  uint32_t agent_id = 0;
  uint64_t config_fingerprint = 0;
};

struct NetHelloAck {
  uint64_t resume_seq = 0;  // Next net_seq the server wants.
  uint32_t credit = 0;      // Frames the agent may have in flight.
  uint8_t status = 0;       // NetStatus.
};

// Head of a kData payload; the inner payload bytes follow immediately and
// are encoded exactly as the spool payload of `inner_type` (kShipment,
// kNames or kCompletion).
struct NetDataHead {
  uint64_t net_seq = 0;
  uint32_t agent_id = 0;
  uint16_t inner_type = 0;
};
inline constexpr size_t kNetDataHeadSize = 14;

struct NetAck {
  uint32_t agent_id = 0;
  uint64_t ack_seq = 0;      // Cumulative: all seqs < ack_seq delivered.
  uint64_t durable_seq = 0;  // All seqs < durable_seq flushed to the spool.
  uint32_t credit = 0;
  uint8_t status = 0;  // NetStatus.
};

struct NetBye {
  uint64_t frames_sent = 0;  // Total data frames in the stream.
};

struct NetByeAck {
  uint64_t records_collected = 0;
};

// Encoders append one complete wire frame (header + payload) to `out`.
// EncodeDataFrame takes the inner payload as a span so a shipment's record
// array is CRC'd and copied once, straight from the caller's buffer.
void EncodeHelloFrame(std::vector<uint8_t>* out, const NetHello& hello);
void EncodeHelloAckFrame(std::vector<uint8_t>* out, const NetHelloAck& ack);
void EncodeDataFrame(std::vector<uint8_t>* out, const NetDataHead& head, const void* inner,
                     size_t inner_size);
void EncodeAckFrame(std::vector<uint8_t>* out, const NetAck& ack);
void EncodeByeFrame(std::vector<uint8_t>* out, const NetBye& bye);
void EncodeByeAckFrame(std::vector<uint8_t>* out, const NetByeAck& ack);

// Decoders read one frame payload; false on a structurally short payload
// or version mismatch. DecodeDataHead leaves *inner pointing into the
// payload (borrowed, valid while the payload buffer lives).
bool DecodeHello(const uint8_t* payload, size_t size, NetHello* hello);
bool DecodeHelloAck(const uint8_t* payload, size_t size, NetHelloAck* ack);
bool DecodeDataHead(const uint8_t* payload, size_t size, NetDataHead* head,
                    const uint8_t** inner, size_t* inner_size);
bool DecodeAck(const uint8_t* payload, size_t size, NetAck* ack);
bool DecodeBye(const uint8_t* payload, size_t size, NetBye* bye);
bool DecodeByeAck(const uint8_t* payload, size_t size, NetByeAck* ack);

// Reassembles spool frames from a TCP byte stream. Feed raw reads in with
// Append; Next yields complete, CRC-verified frames one at a time (the
// view borrows the assembler's buffer and is valid until the next call).
// A partial frame at the tail simply waits for more bytes; a corrupt
// header or payload is a protocol error that poisons the stream (TCP does
// not corrupt silently -- a bad CRC here means a torn connection or a
// buggy peer, and the session recovers by reconnecting, not by resyncing).
class NetFrameAssembler {
 public:
  void Append(const uint8_t* data, size_t size);

  // True if a complete valid frame was produced. Sets *corrupt (when
  // non-null) if the stream is poisoned instead.
  bool Next(SpoolFrameView* view, bool* corrupt);

  bool corrupt() const { return corrupt_; }
  size_t buffered() const { return buf_.size() - pos_; }
  // Moves the unconsumed tail out (bytes of frames not yet complete). Used
  // when a connection changes hands mid-stream: whoever reads next seeds
  // their own assembler with these.
  std::vector<uint8_t> TakeBuffered();
  void Reset();

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  bool corrupt_ = false;
};

}  // namespace ntrace

#endif  // SRC_NET_NET_PROTOCOL_H_
