// The networked collection service (DESIGN.md §11).
//
// The paper's three collection servers were real machines taking event
// streams off the network; this is their loopback-TCP counterpart. A
// CollectionService listens on 127.0.0.1, partitions agent connections
// across N ingest shards (one poll loop per shard, no state shared between
// them), and feeds each agent's exactly-once, in-order frame stream into a
// per-agent CollectionServer -- so the collected state is bit-identical to
// the in-process path, whatever the transport does in between.
//
// Robustness surface:
//  - Sequenced delivery with a bounded reorder buffer and cumulative acks;
//    duplicate and out-of-order frames are absorbed at the session layer and
//    never reach the CollectionServer.
//  - Explicit backpressure: acks carry a credit and a BUSY/SHED status once
//    the reorder buffer deepens or drops a frame.
//  - Slow-client eviction: a connection with no readable bytes for the
//    configured deadline is closed by its shard.
//  - Crash injection and recovery: the service can kill itself after a
//    configured number of delivered frames (sockets die, spool tails are
//    abandoned unflushed); a restart rebinds the same port and rebuilds
//    sessions from their durable spool segments, answering each returning
//    agent's hello with the resume point the salvage supports.

#ifndef SRC_NET_COLLECTION_SERVICE_H_
#define SRC_NET_COLLECTION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/net_config.h"
#include "src/net/net_protocol.h"
#include "src/trace/collection_server.h"
#include "src/trace/spool.h"

namespace ntrace {

// What one agent's session holds when the service is done with it.
struct NetSessionResult {
  CollectionServer server;
  uint64_t frames_delivered = 0;   // In-order deliveries (replay excluded).
  uint64_t records_delivered = 0;
  uint64_t net_duplicate_frames = 0;
  uint64_t net_out_of_order_frames = 0;
  uint64_t net_frames_dropped = 0;  // Reorder-buffer overflow (resent later).
  bool restored = false;            // Session rebuilt from a spool segment.
  bool sealed = false;              // Bye received and segment sealed.
};

// Service-wide transport counters (also mirrored into the metrics registry).
struct NetServiceStats {
  uint64_t frames_delivered = 0;
  uint64_t records_delivered = 0;
  uint64_t duplicate_frames = 0;
  uint64_t out_of_order_frames = 0;
  uint64_t frames_dropped = 0;
  uint64_t busy_signals = 0;
  uint64_t shed_signals = 0;
  uint64_t evictions = 0;
  uint64_t connections_accepted = 0;
  uint64_t sessions_restored = 0;
  uint64_t crashes = 0;
};

class CollectionService {
 public:
  struct Options {
    NetCollectionConfig config;
    // Segment directory for server-side durable spooling; empty disables
    // it (and with it, crash recovery). Segment files are named by
    // SpoolSegmentName, like the fleet's in-process durable path, so a
    // sealed net segment is resumable by either layer.
    std::string spool_dir;
    uint64_t config_fingerprint = 0;
  };

  explicit CollectionService(Options options);
  ~CollectionService();
  CollectionService(const CollectionService&) = delete;
  CollectionService& operator=(const CollectionService&) = delete;

  // Binds 127.0.0.1 (ephemeral port on first call, the same port again on
  // restarts) and spawns the accept thread plus one thread per shard.
  bool Start();
  // Graceful drain: stop accepting, let shards flush pending acks, join.
  // Session state survives for TakeSession.
  void Stop();
  // Abrupt stop: sockets close, spool tails are dropped unflushed, session
  // state is discarded -- exactly what the injected crash does, callable
  // from tests/supervisors directly.
  void Kill();
  // After Kill (or a self-inflicted crash): bind the saved port again and
  // come back up with empty sessions; agents re-hello and are resumed from
  // their spool segments.
  bool Restart();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // True once an injected crash has taken the service down (cleared by
  // Restart).
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  // Moves one agent's session result out. Call after Stop().
  bool TakeSession(uint32_t agent_id, NetSessionResult* out);
  NetServiceStats stats() const;
  // Live in-order delivery count across shards (replay excluded, survives
  // Restart). Cheap to poll while the service runs; stats() folds
  // per-shard counters only when their threads exit.
  uint64_t frames_delivered_total() const {
    return frames_delivered_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Session;
  struct Connection;
  struct Shard;

  void AcceptLoop();
  void ShardLoop(Shard* shard);
  void HandleFrame(Shard* shard, Connection* conn, const SpoolFrameView& view);
  void DeliverInOrder(Shard* shard, Session* session, uint16_t inner_type, const uint8_t* inner,
                      size_t inner_size);
  Session* FindOrCreateSession(Shard* shard, uint32_t agent_id);
  void QueueAck(Shard* shard, Connection* conn, Session* session);
  void TearDown(bool abandon_spools);

  Options options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> dying_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> frames_delivered_total_{0};
  uint64_t next_crash_at_ = 0;
  std::atomic<int> crashes_fired_{0};

  std::thread accept_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex stats_mu_;
  NetServiceStats stats_;
};

}  // namespace ntrace

#endif  // SRC_NET_COLLECTION_SERVICE_H_
