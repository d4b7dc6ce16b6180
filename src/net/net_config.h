// Configuration of the networked collection tier (DESIGN.md §11).
//
// Off by default: a fleet with `enabled == false` never opens a socket and
// behaves exactly as before src/net existed. When enabled, agents deliver
// their shipment streams to a loopback CollectionService over real TCP
// connections, and the merged output is required to stay bit-identical to
// the in-process path (tests/net_integrity_test.cc holds the line). The
// session layer's fixed limits are constants in net_protocol.h.

#ifndef SRC_NET_NET_CONFIG_H_
#define SRC_NET_NET_CONFIG_H_

#include <cstdint>

#include "src/fault/fault.h"
#include "src/trace/trace_buffer.h"

namespace ntrace {

struct NetCollectionConfig {
  bool enabled = false;

  // Ingest shards: connections are partitioned by agent id, each shard runs
  // its own poll loop on its own thread, so two shards never contend.
  int shards = 2;

  // Client-side sliding window: at most this many data frames may be
  // unacknowledged before the sender blocks on acks. Also the credit the
  // server advertises to a fresh session.
  int window = 64;

  // Reorder-buffer depth at which acks start carrying a BUSY status, the
  // explicit backpressure signal (clients pause before sending more).
  int busy_watermark = 32;

  // The server's slow-client eviction deadline, wall-clock milliseconds: a
  // connection that shows no readable bytes for this long is closed by its
  // shard; the client notices on its next I/O and reconnects.
  double evict_idle_ms = 2000.0;

  // Reconnect/backoff plan, reusing the shipment retry-policy shape (PR 1):
  // max_attempts consecutive failed connection attempts abandon the agent,
  // initial_backoff/backoff_multiplier/max_backoff/jitter shape the capped
  // exponential backoff between attempts. SimDurations are interpreted as
  // wall-clock here (the transport lives outside simulated time).
  ShipmentPolicy retry;

  // Transport fault plan applied to every agent connection, each agent
  // drawing from its own deterministic stream (seed, stream = agent id).
  TransportFaultPlan transport_faults;
  uint64_t fault_seed = 0xFA57;

  // Server crash injection: the service kills itself (abandoning spool
  // tails, closing every socket) after delivering this many data frames
  // across all sessions (0 = never), at most max_crashes times. Recovery
  // needs the durable spool: the fleet supervisor restarts the service on
  // the same port and sessions are rebuilt from their segments.
  uint64_t crash_after_frames = 0;
  int max_crashes = 1;
};

}  // namespace ntrace

#endif  // SRC_NET_NET_CONFIG_H_
