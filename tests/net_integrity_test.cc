// End-to-end contract of the networked collection tier (DESIGN.md §11):
// a fleet collected over the loopback service is bit-identical to the same
// fleet collected in-process -- serialized trace bytes and the full
// integrity report -- for every transport fault kind, every thread count,
// and across a mid-stream server crash recovered from the durable spool.
// Transport chaos is allowed to show up only in FleetResult::net.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/workload/fleet.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

// Small fleet: three systems is enough to exercise shard routing
// (shards=2) and parallel agents while keeping the slowest sweep cheap.
FleetConfig BaseConfig() {
  FleetConfig config;
  config.walk_up = 1;
  config.pool = 1;
  config.personal = 1;
  config.administrative = 0;
  config.scientific = 0;
  config.days = 1;
  config.seed = 11;
  config.activity_scale = 0.2;
  config.content_scale = 0.05;
  return config;
}

// Fast wall-clock retry plan: the session layer survives the same number
// of failures, just without test-hostile sleeps.
NetCollectionConfig FastNet() {
  NetCollectionConfig net;
  net.enabled = true;
  net.shards = 2;
  net.window = 32;
  net.retry.max_attempts = 10;
  net.retry.initial_backoff = SimDuration::FromMillisF(1.0);
  net.retry.max_backoff = SimDuration::FromMillisF(20.0);
  net.retry.jitter = 0.25;
  return net;
}

void ExpectSameIntegrity(const IntegrityReport& a, const IntegrityReport& b) {
  ASSERT_EQ(a.systems.size(), b.systems.size());
  for (size_t i = 0; i < a.systems.size(); ++i) {
    const SystemIntegrity& x = a.systems[i];
    const SystemIntegrity& y = b.systems[i];
    EXPECT_EQ(x.system_id, y.system_id);
    EXPECT_EQ(x.records_emitted, y.records_emitted);
    EXPECT_EQ(x.records_overflow_dropped, y.records_overflow_dropped);
    EXPECT_EQ(x.records_shed, y.records_shed);
    EXPECT_EQ(x.records_lost, y.records_lost);
    EXPECT_EQ(x.records_unresolved, y.records_unresolved);
    EXPECT_EQ(x.shipments_sent, y.shipments_sent);
    EXPECT_EQ(x.shipment_attempts, y.shipment_attempts);
    EXPECT_EQ(x.shipment_failures, y.shipment_failures);
    EXPECT_EQ(x.shipments_abandoned, y.shipments_abandoned);
    EXPECT_EQ(x.peak_retry_backlog, y.peak_retry_backlog);
    EXPECT_EQ(x.shipments_received, y.shipments_received);
    EXPECT_EQ(x.duplicate_shipments, y.duplicate_shipments);
    EXPECT_EQ(x.out_of_order_shipments, y.out_of_order_shipments);
    EXPECT_EQ(x.sequence_gaps, y.sequence_gaps);
    EXPECT_EQ(x.records_collected, y.records_collected);
    EXPECT_EQ(x.duplicate_records_discarded, y.duplicate_records_discarded);
    EXPECT_EQ(x.records_salvaged, y.records_salvaged);
    EXPECT_EQ(x.records_lost_to_corruption, y.records_lost_to_corruption);
    EXPECT_TRUE(y.Accounted()) << "system " << y.system_id;
  }
}

// The in-process run every net variant must reproduce byte for byte.
// Computed once: the reference is identical for every fault kind because
// transport is excluded from the config fingerprint by construction.
struct Reference {
  FleetResult result;
  std::vector<uint8_t> bytes;
};

const Reference& InProcessReference() {
  static const Reference* reference = [] {
    auto* r = new Reference();
    FleetConfig config = BaseConfig();
    config.threads = 1;
    r->result = RunFleet(config);
    r->bytes = SerializedBytes(r->result.trace, "reference");
    return r;
  }();
  return *reference;
}

// Runs the net-collected fleet at each thread count and asserts the output
// is the reference, bit for bit. `last` (optional) receives the final
// run's net stats so a caller can assert the chaos it injected actually
// happened. (void because gtest ASSERT_* requires it.)
void ExpectNetMatchesReference(const NetCollectionConfig& net, const std::string& tag,
                               FleetNetStats* last = nullptr,
                               std::initializer_list<int> thread_counts = {1, 2, 8}) {
  const Reference& reference = InProcessReference();
  ASSERT_FALSE(reference.bytes.empty());
  for (int threads : thread_counts) {
    FleetConfig config = BaseConfig();
    config.net = net;
    config.threads = threads;
    const FleetResult result = RunFleet(config);
    ASSERT_TRUE(result.net.used) << tag << " threads=" << threads
                                 << ": fell back to in-process collection";
    EXPECT_EQ(result.net.agent_failures, 0u) << tag << " threads=" << threads;
    const std::vector<uint8_t> bytes =
        SerializedBytes(result.trace, tag + "_t" + std::to_string(threads));
    EXPECT_TRUE(bytes == reference.bytes)
        << tag << ": serialized trace differs from in-process run at threads=" << threads;
    ExpectSameIntegrity(result.integrity, reference.result.integrity);
    if (last != nullptr) {
      *last = result.net;
    }
  }
}

TEST(NetIntegrity, CleanTransportMatchesInProcess) {
  FleetNetStats stats;
  ExpectNetMatchesReference(FastNet(), "clean", &stats);
  EXPECT_GT(stats.frames_delivered, 0u);
  EXPECT_EQ(stats.duplicate_frames, 0u);
  EXPECT_EQ(stats.agent_faults_injected, 0u);
}

TEST(NetIntegrity, ConnectionResetsMatchInProcess) {
  NetCollectionConfig net = FastNet();
  net.transport_faults.reset_probability = 0.02;
  FleetNetStats stats;
  ExpectNetMatchesReference(net, "reset", &stats);
  EXPECT_GT(stats.agent_faults_injected, 0u);
  EXPECT_GT(stats.agent_reconnects, 0u);
}

TEST(NetIntegrity, PartialWritesMatchInProcess) {
  NetCollectionConfig net = FastNet();
  net.transport_faults.partial_write_probability = 0.02;
  FleetNetStats stats;
  ExpectNetMatchesReference(net, "partial", &stats);
  EXPECT_GT(stats.agent_faults_injected, 0u);
}

TEST(NetIntegrity, DelayedFramesMatchInProcess) {
  NetCollectionConfig net = FastNet();
  net.transport_faults.delay_probability = 0.05;
  net.transport_faults.delay_ms = 1.0;
  net.transport_faults.max_per_kind = 50;
  FleetNetStats stats;
  ExpectNetMatchesReference(net, "delay", &stats);
  EXPECT_GT(stats.agent_faults_injected, 0u);
}

TEST(NetIntegrity, DuplicatedFramesMatchInProcess) {
  NetCollectionConfig net = FastNet();
  net.transport_faults.duplicate_probability = 0.10;
  FleetNetStats stats;
  ExpectNetMatchesReference(net, "duplicate", &stats);
  EXPECT_GT(stats.agent_faults_injected, 0u);
  EXPECT_GT(stats.duplicate_frames, 0u);
}

TEST(NetIntegrity, ReorderedFramesMatchInProcess) {
  NetCollectionConfig net = FastNet();
  net.transport_faults.reorder_probability = 0.10;
  FleetNetStats stats;
  ExpectNetMatchesReference(net, "reorder", &stats);
  EXPECT_GT(stats.agent_faults_injected, 0u);
  EXPECT_GT(stats.out_of_order_frames, 0u);
}

TEST(NetIntegrity, StalledSocketsMatchInProcess) {
  NetCollectionConfig net = FastNet();
  // The stall must outlive the eviction deadline to be observable; cap the
  // count so the sweep's wall clock stays bounded.
  net.evict_idle_ms = 40.0;
  net.transport_faults.stall_probability = 0.02;
  net.transport_faults.stall_ms = 120.0;
  net.transport_faults.max_per_kind = 2;
  FleetNetStats stats;
  ExpectNetMatchesReference(net, "stall", &stats);
  EXPECT_GT(stats.agent_faults_injected, 0u);
}

TEST(NetIntegrity, AllFaultKindsTogetherMatchInProcess) {
  NetCollectionConfig net = FastNet();
  net.evict_idle_ms = 40.0;
  net.transport_faults.reset_probability = 0.01;
  net.transport_faults.partial_write_probability = 0.01;
  net.transport_faults.delay_probability = 0.02;
  net.transport_faults.delay_ms = 1.0;
  net.transport_faults.duplicate_probability = 0.05;
  net.transport_faults.reorder_probability = 0.05;
  net.transport_faults.stall_probability = 0.01;
  net.transport_faults.stall_ms = 120.0;
  net.transport_faults.max_per_kind = 4;
  FleetNetStats stats;
  ExpectNetMatchesReference(net, "mixed", &stats);
  EXPECT_GT(stats.agent_faults_injected, 0u);
}

TEST(NetIntegrity, BackpressureUnderTinyWindowMatchesInProcess) {
  NetCollectionConfig net = FastNet();
  net.window = 4;
  net.busy_watermark = 1;
  net.transport_faults.reorder_probability = 0.25;
  FleetNetStats stats;
  ExpectNetMatchesReference(net, "backpressure", &stats);
  EXPECT_GT(stats.out_of_order_frames, 0u);
}

TEST(NetIntegrity, MidStreamServerCrashRecoversExactly) {
  const std::string dir = ScratchPath("net_crash_spool");
  const Reference& reference = InProcessReference();
  ASSERT_FALSE(reference.bytes.empty());

  for (int threads : {1, 4}) {
    std::filesystem::remove_all(dir);
    FleetConfig config = BaseConfig();
    config.threads = threads;
    config.durability.spool_dir = dir;
    config.durability.resume = false;  // Simulate live; the spool is the
                                       // server's crash-recovery log.
    config.net = FastNet();
    config.net.crash_after_frames = 40;
    config.net.max_crashes = 2;

    const FleetResult result = RunFleet(config);
    ASSERT_TRUE(result.net.used) << "threads=" << threads;
    EXPECT_GE(result.net.server_crashes, 1u) << "threads=" << threads;
    EXPECT_GE(result.net.server_restarts, 1u) << "threads=" << threads;
    EXPECT_GE(result.net.sessions_restored, 1u) << "threads=" << threads;
    EXPECT_EQ(result.net.agent_failures, 0u) << "threads=" << threads;

    const std::vector<uint8_t> bytes =
        SerializedBytes(result.trace, "crash_t" + std::to_string(threads));
    EXPECT_TRUE(bytes == reference.bytes)
        << "mid-stream crash changed the merged trace at threads=" << threads;
    ExpectSameIntegrity(result.integrity, reference.result.integrity);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ntrace
