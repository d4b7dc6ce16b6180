// Agent side of the networked collection tier (DESIGN.md §11).
//
// A NetAgentClient owns one agent's stream to the CollectionService: it
// connects (with timeout, capped exponential backoff and jitter -- the
// shipment retry-plan shape applied to the transport), performs the
// hello/hello-ack handshake, and sends sequenced data frames under a
// sliding window. Every sent frame is retained until the server's acks mark
// it durable, so any failure -- transport fault, eviction, server crash --
// is survived the same way: reconnect, learn the resume point from the
// hello-ack, resend the suffix. The transport fault injector sits directly
// on the frame-write path, tearing exactly the things a real network tears.
//
// NetSink adapts the client to the TraceSink interface, so a simulated
// system streams to the service with no workload-layer changes: inner
// payloads are encoded with the spool codecs, making the bytes on the wire
// identical to the bytes the in-process durable path spools to disk.

#ifndef SRC_NET_NET_CLIENT_H_
#define SRC_NET_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/base/rng.h"
#include "src/fault/fault.h"
#include "src/net/net_config.h"
#include "src/net/net_protocol.h"
#include "src/trace/spool.h"
#include "src/trace/trace_buffer.h"

namespace ntrace {

class NetAgentClient {
 public:
  NetAgentClient(const NetCollectionConfig& config, uint16_t port, uint32_t agent_id,
                 uint64_t config_fingerprint);
  ~NetAgentClient();
  NetAgentClient(const NetAgentClient&) = delete;
  NetAgentClient& operator=(const NetAgentClient&) = delete;

  // Sends any staged names, then one sequenced data frame whose payload is
  // `inner` encoded as the spool payload of `inner_type`. Blocks while the
  // window is full. False once the client has failed permanently.
  bool SendInner(uint16_t inner_type, const void* inner, size_t inner_size);
  // Stages `name` for the next kNames frame, which goes out ahead of the
  // next SendInner, at FinishStream, or once the batch is full.
  bool SendName(const NameRecord& name);

  // Sends the staged names, drains the window, sends the bye and waits for
  // the bye-ack confirming the stream is sealed server-side.
  // `records_collected` (optional) receives the server's total.
  bool FinishStream(uint64_t* records_collected);

  bool failed() const { return failed_; }
  uint64_t frames_sent() const { return next_seq_; }
  uint64_t reconnects() const { return reconnects_; }
  uint64_t busy_pauses() const { return busy_pauses_; }
  uint64_t shed_signals() const { return shed_signals_; }
  const TransportFaultInjector& faults() const { return faults_; }

 private:
  struct Pending {
    uint64_t seq = 0;
    std::vector<uint8_t> frame;  // Complete wire frame, ready to resend.
  };

  bool SendNames();
  bool EnsureConnected();
  void Disconnect();
  // Writes queued frames from next_to_send_ up, applying transport faults.
  // False on a connection failure (caller reconnects).
  bool TransmitPending();
  // Reads acks. With `block`, waits up to the I/O timeout for at least one
  // frame. False on a connection failure.
  bool PumpAcks(bool block);
  bool WriteAll(const uint8_t* data, size_t size);
  double BackoffMs(int attempt);
  void FreeAcked();

  NetCollectionConfig config_;
  uint16_t port_ = 0;
  uint32_t agent_id_ = 0;
  uint64_t fingerprint_ = 0;

  int fd_ = -1;
  NetFrameAssembler assembler_;
  TransportFaultInjector faults_;
  Rng backoff_rng_;

  SpoolNameBatch names_;
  std::deque<Pending> queue_;  // Retained frames, ascending seq.
  uint64_t next_seq_ = 0;      // Seq the next new frame gets.
  uint64_t next_to_send_ = 0;  // First seq not yet written on this connection.
  uint64_t ack_seq_ = 0;       // Server's cumulative ack.
  uint64_t durable_seq_ = 0;   // Server's durable watermark (frames freed below).
  uint64_t resume_floor_ = 0;  // Frames below this were never ours to send.
  bool has_reorder_pocket_ = false;
  uint64_t reorder_pocket_ = 0;  // Seq held back by an injected reorder.
  bool got_byeack_ = false;
  uint64_t byeack_records_ = 0;
  bool busy_pending_ = false;  // Server said BUSY/SHED: pause before sending.

  bool connected_once_ = false;
  bool failed_ = false;
  int consecutive_failures_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t busy_pauses_ = 0;
  uint64_t shed_signals_ = 0;
};

// TraceSink over a NetAgentClient. The staging buffer is reused across
// deliveries; encoding matches the spool payload codecs byte for byte. A
// DeliverRecords call travels as a shipment with sequence 0 (unsequenced).
class NetSink final : public TraceSink {
 public:
  explicit NetSink(NetAgentClient* client) : client_(client) {}

  void DeliverShipment(const ShipmentHeader& header, std::vector<TraceRecord> records) override;
  void DeliverName(NameRecord name) override;

  // Ships the run-summary blob as a kCompletion data frame (persisted
  // server-side so the sealed segment is resumable).
  bool SendCompletion(const void* blob, size_t size);

 private:
  NetAgentClient* client_;
  std::vector<uint8_t> staging_;
};

}  // namespace ntrace

#endif  // SRC_NET_NET_CLIENT_H_
