// Networked collection tier, unit level (DESIGN.md §11): wire-protocol
// round trips, the TCP frame assembler, and the service's session layer
// driven both by a raw socket (out-of-order, duplicate and torn frames,
// exactly as a hostile transport would produce them) and by the real
// NetAgentClient (clean stream, eviction + reconnect, backpressure, and a
// mid-stream server kill/restart resumed from the durable spool).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/net/collection_service.h"
#include "src/net/net_client.h"
#include "src/net/net_protocol.h"
#include "src/trace/collection_server.h"
#include "src/trace/integrity.h"
#include "src/trace/trace_buffer.h"
#include "src/trace/trace_record.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

TraceRecord MakeRecord(uint32_t system_id, uint64_t i) {
  TraceRecord r;
  r.file_object = 0x2000 + i;
  r.start_ticks = static_cast<int64_t>(50 * i);
  r.complete_ticks = static_cast<int64_t>(50 * i + 3);
  r.length = 4096;
  r.returned = 4096;
  r.process_id = 7;
  r.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
  r.system_id = system_id;
  return r;
}

std::vector<TraceRecord> MakeRecords(uint32_t system_id, uint64_t base, size_t n) {
  std::vector<TraceRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    records.push_back(MakeRecord(system_id, base + i));
  }
  return records;
}

std::vector<uint8_t> ShipmentInner(const ShipmentHeader& header,
                                   const std::vector<TraceRecord>& records) {
  std::vector<uint8_t> inner;
  SpoolEncodeShipmentHead(&inner, header);
  const size_t at = inner.size();
  inner.resize(at + records.size() * sizeof(TraceRecord));
  std::memcpy(inner.data() + at, records.data(), records.size() * sizeof(TraceRecord));
  return inner;
}

NetCollectionConfig FastRetryConfig() {
  NetCollectionConfig config;
  config.enabled = true;
  config.retry.max_attempts = 10;
  config.retry.initial_backoff = SimDuration::FromMillisF(1.0);
  config.retry.max_backoff = SimDuration::FromMillisF(20.0);
  return config;
}

TEST(NetProtocol, ControlFrameRoundTrips) {
  NetHello hello;
  hello.agent_id = 42;
  hello.config_fingerprint = 0xABCDEF0123456789ULL;
  std::vector<uint8_t> wire;
  EncodeHelloFrame(&wire, hello);

  SpoolFrameView view;
  size_t consumed = 0;
  ASSERT_EQ(SpoolParseFrame(wire.data(), wire.size(), &view, &consumed), SpoolFrameStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  ASSERT_EQ(view.type, static_cast<uint16_t>(NetFrameType::kHello));
  NetHello back;
  ASSERT_TRUE(DecodeHello(view.payload, view.payload_size, &back));
  EXPECT_EQ(back.agent_id, 42u);
  EXPECT_EQ(back.config_fingerprint, hello.config_fingerprint);

  NetAck ack;
  ack.agent_id = 42;
  ack.ack_seq = 17;
  ack.durable_seq = 12;
  ack.credit = 9;
  ack.status = static_cast<uint8_t>(NetStatus::kBusy);
  wire.clear();
  EncodeAckFrame(&wire, ack);
  ASSERT_EQ(SpoolParseFrame(wire.data(), wire.size(), &view, &consumed), SpoolFrameStatus::kOk);
  NetAck aback;
  ASSERT_TRUE(DecodeAck(view.payload, view.payload_size, &aback));
  EXPECT_EQ(aback.ack_seq, 17u);
  EXPECT_EQ(aback.durable_seq, 12u);
  EXPECT_EQ(aback.credit, 9u);
  EXPECT_EQ(aback.status, static_cast<uint8_t>(NetStatus::kBusy));
}

TEST(NetProtocol, DataFrameCarriesInnerPayloadVerbatim) {
  const ShipmentHeader header{3, 5, 1, 4};
  const std::vector<uint8_t> inner = ShipmentInner(header, MakeRecords(3, 0, 4));
  NetDataHead head;
  head.net_seq = 99;
  head.agent_id = 3;
  head.inner_type = static_cast<uint16_t>(SpoolFrameType::kShipment);
  std::vector<uint8_t> wire;
  EncodeDataFrame(&wire, head, inner.data(), inner.size());

  SpoolFrameView view;
  size_t consumed = 0;
  ASSERT_EQ(SpoolParseFrame(wire.data(), wire.size(), &view, &consumed), SpoolFrameStatus::kOk);
  NetDataHead hback;
  const uint8_t* iback = nullptr;
  size_t isize = 0;
  ASSERT_TRUE(DecodeDataHead(view.payload, view.payload_size, &hback, &iback, &isize));
  EXPECT_EQ(hback.net_seq, 99u);
  EXPECT_EQ(hback.agent_id, 3u);
  ASSERT_EQ(isize, inner.size());
  EXPECT_EQ(std::memcmp(iback, inner.data(), isize), 0);

  // The inner bytes are a spool payload: the one delivery decoder reads
  // them back into a server.
  CollectionServer server;
  uint64_t records = 0;
  ASSERT_TRUE(SpoolDeliverFrame(hback.inner_type, iback, isize, &server, &records));
  EXPECT_EQ(records, 4u);
  ASSERT_NE(server.StreamOf(3), nullptr);
  EXPECT_TRUE(server.StreamOf(3)->Received(5));
  EXPECT_EQ(server.StreamOf(3)->max_sequence, 5u);
  EXPECT_EQ(server.set().records.size(), 4u);
}

TEST(NetProtocol, AssemblerReassemblesByteAtATime) {
  std::vector<uint8_t> wire;
  EncodeByeFrame(&wire, NetBye{123});
  EncodeByeAckFrame(&wire, NetByeAck{456});

  NetFrameAssembler assembler;
  std::vector<uint16_t> types;
  for (uint8_t b : wire) {
    assembler.Append(&b, 1);
    SpoolFrameView view;
    bool corrupt = false;
    while (assembler.Next(&view, &corrupt)) {
      types.push_back(view.type);
    }
    EXPECT_FALSE(corrupt);
  }
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], static_cast<uint16_t>(NetFrameType::kBye));
  EXPECT_EQ(types[1], static_cast<uint16_t>(NetFrameType::kByeAck));
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(NetProtocol, AssemblerPoisonsOnCorruptFrame) {
  std::vector<uint8_t> wire;
  EncodeByeFrame(&wire, NetBye{1});
  wire[wire.size() - 1] ^= 0xFF;  // Corrupt the payload.
  NetFrameAssembler assembler;
  assembler.Append(wire.data(), wire.size());
  SpoolFrameView view;
  bool corrupt = false;
  EXPECT_FALSE(assembler.Next(&view, &corrupt));
  EXPECT_TRUE(corrupt);
  EXPECT_TRUE(assembler.corrupt());
  // Poisoned streams stay poisoned until Reset.
  EXPECT_FALSE(assembler.Next(&view, nullptr));
  assembler.Reset();
  EXPECT_FALSE(assembler.corrupt());
}

TEST(NetProtocol, TakeBufferedHandsOffUnconsumedTail) {
  std::vector<uint8_t> wire;
  EncodeByeFrame(&wire, NetBye{7});
  const size_t first = wire.size();
  EncodeByeAckFrame(&wire, NetByeAck{8});

  NetFrameAssembler assembler;
  // Feed the first frame plus half of the second.
  assembler.Append(wire.data(), first + 5);
  SpoolFrameView view;
  ASSERT_TRUE(assembler.Next(&view, nullptr));
  EXPECT_EQ(view.type, static_cast<uint16_t>(NetFrameType::kBye));

  std::vector<uint8_t> tail = assembler.TakeBuffered();
  EXPECT_EQ(tail.size(), 5u);
  EXPECT_EQ(assembler.buffered(), 0u);

  // A second assembler seeded with the tail finishes the frame.
  NetFrameAssembler next;
  next.Append(tail.data(), tail.size());
  next.Append(wire.data() + first + 5, wire.size() - first - 5);
  ASSERT_TRUE(next.Next(&view, nullptr));
  EXPECT_EQ(view.type, static_cast<uint16_t>(NetFrameType::kByeAck));
}

// Raw-socket driver: speaks the wire protocol directly so the test controls
// exactly what the server sees (gaps, duplicates, interleavings no healthy
// client would send).
class RawAgent {
 public:
  RawAgent(uint16_t port, uint32_t agent_id, uint64_t fingerprint) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    NetHello hello;
    hello.agent_id = agent_id;
    hello.config_fingerprint = fingerprint;
    std::vector<uint8_t> wire;
    EncodeHelloFrame(&wire, hello);
    Send(wire);
  }
  ~RawAgent() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  void Send(const std::vector<uint8_t>& bytes) {
    ASSERT_EQ(send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  void SendData(uint64_t seq, uint32_t agent_id, const std::vector<uint8_t>& inner) {
    NetDataHead head;
    head.net_seq = seq;
    head.agent_id = agent_id;
    head.inner_type = static_cast<uint16_t>(SpoolFrameType::kShipment);
    std::vector<uint8_t> wire;
    EncodeDataFrame(&wire, head, inner.data(), inner.size());
    Send(wire);
  }

  // Blocks until a frame of `want` arrives, collecting acks on the way.
  bool WaitFor(uint16_t want, SpoolFrameView* out) {
    for (int spins = 0; spins < 10000; ++spins) {
      SpoolFrameView view;
      bool corrupt = false;
      while (assembler_.Next(&view, &corrupt)) {
        if (view.type == static_cast<uint16_t>(NetFrameType::kAck)) {
          NetAck ack;
          if (DecodeAck(view.payload, view.payload_size, &ack)) {
            last_ack_ = ack;
            ++acks_seen_;
          }
        }
        if (view.type == want) {
          *out = view;
          return true;
        }
      }
      if (corrupt) {
        return false;
      }
      uint8_t buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        return false;
      }
      assembler_.Append(buf, static_cast<size_t>(n));
    }
    return false;
  }

  bool WaitForAck(uint64_t at_least) {
    while (last_ack_.ack_seq < at_least) {
      SpoolFrameView view;
      if (!WaitFor(static_cast<uint16_t>(NetFrameType::kAck), &view)) {
        return false;
      }
    }
    return true;
  }

  const NetAck& last_ack() const { return last_ack_; }
  int acks_seen() const { return acks_seen_; }

 private:
  int fd_ = -1;
  NetFrameAssembler assembler_;
  NetAck last_ack_;
  int acks_seen_ = 0;
};

TEST(CollectionServiceRaw, ReordersDuplicatesAndAcksCumulatively) {
  CollectionService::Options options;
  options.config = FastRetryConfig();
  options.config.shards = 1;
  options.config_fingerprint = 0x77;
  CollectionService service(std::move(options));
  ASSERT_TRUE(service.Start());

  {
    RawAgent agent(service.port(), 5, 0x77);
    SpoolFrameView view;
    ASSERT_TRUE(agent.WaitFor(static_cast<uint16_t>(NetFrameType::kHelloAck), &view));
    NetHelloAck hello_ack;
    ASSERT_TRUE(DecodeHelloAck(view.payload, view.payload_size, &hello_ack));
    EXPECT_EQ(hello_ack.resume_seq, 0u);

    const std::vector<uint8_t> f0 = ShipmentInner({5, 1, 1, 3}, MakeRecords(5, 0, 3));
    const std::vector<uint8_t> f1 = ShipmentInner({5, 2, 1, 2}, MakeRecords(5, 3, 2));
    const std::vector<uint8_t> f2 = ShipmentInner({5, 3, 1, 1}, MakeRecords(5, 5, 1));

    // Out of order: 1 parks, 0 releases both, a duplicate of 1 is absorbed,
    // then 2 lands in order.
    agent.SendData(1, 5, f1);
    agent.SendData(0, 5, f0);
    ASSERT_TRUE(agent.WaitForAck(2));
    agent.SendData(1, 5, f1);
    agent.SendData(2, 5, f2);
    ASSERT_TRUE(agent.WaitForAck(3));
    EXPECT_EQ(agent.last_ack().durable_seq, 3u);  // No spool: acked == durable.

    std::vector<uint8_t> wire;
    EncodeByeFrame(&wire, NetBye{3});
    agent.Send(wire);
    ASSERT_TRUE(agent.WaitFor(static_cast<uint16_t>(NetFrameType::kByeAck), &view));
    NetByeAck bye_ack;
    ASSERT_TRUE(DecodeByeAck(view.payload, view.payload_size, &bye_ack));
    EXPECT_EQ(bye_ack.records_collected, 6u);
  }

  service.Stop();
  NetSessionResult session;
  ASSERT_TRUE(service.TakeSession(5, &session));
  EXPECT_TRUE(session.sealed);
  EXPECT_EQ(session.frames_delivered, 3u);
  EXPECT_EQ(session.records_delivered, 6u);
  EXPECT_EQ(session.net_duplicate_frames, 1u);
  EXPECT_EQ(session.net_out_of_order_frames, 1u);
  EXPECT_EQ(session.server.set().records.size(), 6u);

  const NetServiceStats stats = service.stats();
  EXPECT_EQ(stats.frames_delivered, 3u);
  EXPECT_EQ(stats.duplicate_frames, 1u);
  EXPECT_EQ(stats.out_of_order_frames, 1u);
  EXPECT_EQ(stats.connections_accepted, 1u);
}

TEST(CollectionServiceRaw, WrongFingerprintIsRefused) {
  CollectionService::Options options;
  options.config = FastRetryConfig();
  options.config_fingerprint = 0xAA;
  CollectionService service(std::move(options));
  ASSERT_TRUE(service.Start());

  RawAgent agent(service.port(), 9, 0xBB);  // Mismatched fingerprint.
  SpoolFrameView view;
  EXPECT_FALSE(agent.WaitFor(static_cast<uint16_t>(NetFrameType::kHelloAck), &view));
  service.Stop();
}

TEST(NetClient, CleanStreamDeliversEverythingOnce) {
  CollectionService::Options options;
  options.config = FastRetryConfig();
  options.config.shards = 2;
  options.config_fingerprint = 0x55;
  CollectionService service(std::move(options));
  ASSERT_TRUE(service.Start());

  NetAgentClient client(FastRetryConfig(), service.port(), 11, 0x55);
  NetSink sink(&client);
  for (uint64_t s = 1; s <= 20; ++s) {
    sink.DeliverShipment({11, s, 1, 10}, MakeRecords(11, (s - 1) * 10, 10));
  }
  NameRecord name;
  name.file_object = 0x2000;
  name.system_id = 11;
  name.path = "C:/temp/net_test.dat";
  sink.DeliverName(name);
  uint64_t collected = 0;
  ASSERT_TRUE(client.FinishStream(&collected));
  EXPECT_EQ(collected, 200u);
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(client.frames_sent(), 21u);

  service.Stop();
  NetSessionResult session;
  ASSERT_TRUE(service.TakeSession(11, &session));
  EXPECT_TRUE(session.sealed);
  EXPECT_EQ(session.server.set().records.size(), 200u);
  ASSERT_EQ(session.server.set().names.size(), 1u);
  EXPECT_EQ(session.server.set().names[0].path, "C:/temp/net_test.dat");
  EXPECT_EQ(session.net_duplicate_frames, 0u);
}

// Names travel batched: each shipment's data frame follows at most one
// kNames frame holding every name delivered since the previous frame, and
// FinishStream sends the names staged after the last shipment.
TEST(NetClient, NamesTravelAsOneFramePerShipment) {
  CollectionService::Options options;
  options.config = FastRetryConfig();
  options.config.shards = 1;
  options.config_fingerprint = 0x5A;
  CollectionService service(std::move(options));
  ASSERT_TRUE(service.Start());

  NetAgentClient client(FastRetryConfig(), service.port(), 12, 0x5A);
  NetSink sink(&client);
  std::vector<NameRecord> names;
  for (uint32_t i = 0; i < 250; ++i) {
    NameRecord name;
    name.file_object = 0x3000 + i;
    name.system_id = 12;
    name.path = "C:/temp/name" + std::to_string(i) + ".dat";
    names.push_back(name);
  }
  // 100 names, shipment 1, 100 names, shipment 2, shipment 3, 50 names.
  size_t next_name = 0;
  auto deliver_names = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      sink.DeliverName(names[next_name++]);
    }
  };
  deliver_names(100);
  sink.DeliverShipment({12, 1, 1, 10}, MakeRecords(12, 0, 10));
  deliver_names(100);
  sink.DeliverShipment({12, 2, 1, 10}, MakeRecords(12, 10, 10));
  sink.DeliverShipment({12, 3, 1, 10}, MakeRecords(12, 20, 10));
  deliver_names(50);
  uint64_t collected = 0;
  ASSERT_TRUE(client.FinishStream(&collected));
  EXPECT_EQ(collected, 30u);
  EXPECT_LE(client.frames_sent(), 6u);

  service.Stop();
  NetSessionResult session;
  ASSERT_TRUE(service.TakeSession(12, &session));
  EXPECT_TRUE(session.sealed);
  EXPECT_EQ(session.frames_delivered, client.frames_sent());
  EXPECT_EQ(session.server.set().records.size(), 30u);
  const std::vector<NameRecord>& got = session.server.set().names;
  ASSERT_EQ(got.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(got[i].file_object, names[i].file_object) << i;
    EXPECT_EQ(got[i].path, names[i].path) << i;
  }
}

TEST(NetClient, StallTripsEvictionAndReconnectResumes) {
  CollectionService::Options options;
  options.config = FastRetryConfig();
  options.config.shards = 1;
  options.config.evict_idle_ms = 30.0;
  options.config_fingerprint = 0x66;
  CollectionService service(std::move(options));
  ASSERT_TRUE(service.Start());

  NetCollectionConfig agent_config = FastRetryConfig();
  agent_config.evict_idle_ms = 30.0;
  agent_config.transport_faults.stall_probability = 1.0;
  agent_config.transport_faults.stall_ms = 120.0;
  agent_config.transport_faults.max_per_kind = 2;  // Two stalls, then clean.
  NetAgentClient client(agent_config, service.port(), 4, 0x66);
  NetSink sink(&client);
  for (uint64_t s = 1; s <= 12; ++s) {
    sink.DeliverShipment({4, s, 1, 5}, MakeRecords(4, (s - 1) * 5, 5));
  }
  uint64_t collected = 0;
  ASSERT_TRUE(client.FinishStream(&collected));
  EXPECT_EQ(collected, 60u);

  service.Stop();
  NetSessionResult session;
  ASSERT_TRUE(service.TakeSession(4, &session));
  EXPECT_EQ(session.server.set().records.size(), 60u);
  // The stalled socket sat silent past the deadline at least once; the
  // session layer absorbed the eviction.
  EXPECT_GE(service.stats().evictions + client.reconnects(), 1u);
}

TEST(NetClient, ReorderEveryFrameTriggersBackpressureYetDeliversInOrder) {
  CollectionService::Options options;
  options.config = FastRetryConfig();
  options.config.shards = 1;
  options.config.busy_watermark = 1;  // Any parked frame raises BUSY.
  options.config_fingerprint = 0x88;
  CollectionService service(std::move(options));
  ASSERT_TRUE(service.Start());

  NetCollectionConfig agent_config = FastRetryConfig();
  agent_config.transport_faults.reorder_probability = 1.0;
  NetAgentClient client(agent_config, service.port(), 2, 0x88);
  NetSink sink(&client);
  for (uint64_t s = 1; s <= 30; ++s) {
    sink.DeliverShipment({2, s, 1, 4}, MakeRecords(2, (s - 1) * 4, 4));
  }
  uint64_t collected = 0;
  ASSERT_TRUE(client.FinishStream(&collected));
  EXPECT_EQ(collected, 120u);

  service.Stop();
  NetSessionResult session;
  ASSERT_TRUE(service.TakeSession(2, &session));
  EXPECT_EQ(session.server.set().records.size(), 120u);
  EXPECT_GE(session.net_out_of_order_frames, 1u);
  // Sequence bookkeeping below the session layer never saw the shuffle.
  SystemIntegrity row;
  row.system_id = 2;
  session.server.FillIntegrity(&row);
  EXPECT_EQ(row.out_of_order_shipments, 0u);
  EXPECT_EQ(row.duplicate_shipments, 0u);
}

TEST(NetClient, ServerKillAndRestartResumesFromDurableSpool) {
  const std::string dir = ScratchPath("net_restart_spool");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  CollectionService::Options options;
  options.config = FastRetryConfig();
  options.config.shards = 1;
  options.spool_dir = dir;
  options.config_fingerprint = 0x99;
  CollectionService service(std::move(options));
  ASSERT_TRUE(service.Start());
  const uint16_t port = service.port();

  NetCollectionConfig agent_config = FastRetryConfig();
  NetAgentClient client(agent_config, port, 6, 0x99);
  NetSink sink(&client);
  for (uint64_t s = 1; s <= 8; ++s) {
    sink.DeliverShipment({6, s, 1, 5}, MakeRecords(6, (s - 1) * 5, 5));
  }

  // Wait until all 8 frames are delivered (and, as session segments flush
  // every frame, durable) before pulling the plug -- the point here is the restore
  // path, not the kill/transmit race (the fault sweep covers that).
  for (int spins = 0; spins < 4000 && service.frames_delivered_total() < 8; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(service.frames_delivered_total(), 8u);

  // The server dies mid-stream and comes back on the same port; the next
  // send fails over, re-hellos, and the hello-ack's resume point (from the
  // salvaged segment) picks the stream up without resending what survived.
  service.Kill();
  ASSERT_TRUE(service.Restart());
  EXPECT_EQ(service.port(), port);

  for (uint64_t s = 9; s <= 16; ++s) {
    sink.DeliverShipment({6, s, 1, 5}, MakeRecords(6, (s - 1) * 5, 5));
  }
  uint64_t collected = 0;
  ASSERT_TRUE(client.FinishStream(&collected));
  EXPECT_EQ(collected, 80u);
  EXPECT_GE(client.reconnects(), 1u);

  service.Stop();
  NetSessionResult session;
  ASSERT_TRUE(service.TakeSession(6, &session));
  EXPECT_TRUE(session.restored);
  EXPECT_TRUE(session.sealed);
  EXPECT_EQ(session.server.set().records.size(), 80u);
  // Exactly once: every record id 0..79 present, none twice.
  SystemIntegrity row;
  row.system_id = 6;
  session.server.FillIntegrity(&row);
  EXPECT_EQ(row.records_collected, 80u);
  EXPECT_EQ(row.duplicate_records_discarded, 0u);
  EXPECT_EQ(row.sequence_gaps, 0u);
  EXPECT_GE(service.stats().sessions_restored, 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ntrace
