// Determinism contract of the parallel fleet: RunFleet's output is
// bit-identical for every thread count -- serialized trace bytes (records,
// names, process map, in file order) and the merged integrity report --
// for clean and fault-injected runs alike. This is what lets benches and
// analyses default to parallel execution without changing a single
// reported number.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/workload/fleet.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

FleetConfig SmallConfig() {
  FleetConfig config;
  config.walk_up = 1;
  config.pool = 1;
  config.personal = 1;
  config.administrative = 1;
  config.scientific = 1;
  config.days = 1;
  config.seed = 7;
  config.activity_scale = 0.3;
  config.content_scale = 0.05;
  return config;
}

FleetConfig FaultyConfig() {
  FleetConfig config = SmallConfig();
  config.fault_config.shipment.probability = 0.10;
  config.fault_config.shipment.ack_loss_fraction = 0.25;
  config.fault_config.disk_read.probability = 0.02;
  config.fault_config.disk_write.probability = 0.02;
  return config;
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
  }
}

void ExpectBitIdenticalAcrossThreadCounts(const FleetConfig& base, const std::string& tag) {
  FleetConfig sequential = base;
  sequential.threads = 1;
  const FleetResult reference = RunFleet(sequential);
  const std::vector<uint8_t> reference_bytes =
      SerializedBytes(reference.trace, tag + "_t1");
  ASSERT_FALSE(reference_bytes.empty());

  for (int threads : {2, 8}) {
    FleetConfig parallel = base;
    parallel.threads = threads;
    const FleetResult result = RunFleet(parallel);

    ASSERT_EQ(result.trace.records.size(), reference.trace.records.size())
        << tag << " threads=" << threads;
    const std::vector<uint8_t> bytes =
        SerializedBytes(result.trace, tag + "_t" + std::to_string(threads));
    EXPECT_TRUE(bytes == reference_bytes)
        << tag << ": serialized trace differs between threads=1 and threads=" << threads;
    ExpectSameIntegrity(result.integrity, reference.integrity);
  }
}

TEST(FleetDeterminism, CleanRunBitIdenticalAcrossThreadCounts) {
  ExpectBitIdenticalAcrossThreadCounts(SmallConfig(), "clean");
}

TEST(FleetDeterminism, FaultedRunBitIdenticalAcrossThreadCounts) {
  const FleetConfig config = FaultyConfig();
  ASSERT_TRUE(config.fault_config.enabled());
  ExpectBitIdenticalAcrossThreadCounts(config, "faulted");
}

TEST(FleetDeterminism, ConcurrentPathLookupsAreSafe) {
  // The lazy name-index build used to mutate under const with no guard;
  // hammer the first lookup from many threads on an unindexed set (copies
  // start unindexed) and check every lookup resolves.
  const FleetResult result = RunFleet(SmallConfig());
  const TraceSet copy = result.trace;
  ASSERT_FALSE(copy.names.empty());
  std::atomic<size_t> resolved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      size_t local = 0;
      for (const NameRecord& n : copy.names) {
        if (copy.PathOf(n.file_object) != nullptr) {
          ++local;
        }
      }
      resolved += local;
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Every thread resolves every name record (later duplicates of a reused
  // file-object id shadow earlier ones in the index, but all resolve).
  EXPECT_EQ(resolved.load(), copy.names.size() * 8);
}

TEST(FleetDeterminism, DurableRunBitIdenticalToNonDurable) {
  // Enabling the trace spool (DESIGN.md §10) must not perturb the output:
  // a durable run is byte-identical to a non-durable one, per thread count.
  FleetConfig reference_config = SmallConfig();
  reference_config.threads = 1;
  const FleetResult reference = RunFleet(reference_config);
  const std::vector<uint8_t> reference_bytes =
      SerializedBytes(reference.trace, "durable_ref");

  for (int threads : {1, 2}) {
    FleetConfig durable = SmallConfig();
    durable.threads = threads;
    durable.durability.spool_dir =
        ScratchPath("fleet_determinism_spool_t") + std::to_string(threads);
    std::filesystem::remove_all(durable.durability.spool_dir);
    const FleetResult result = RunFleet(durable);
    EXPECT_TRUE(SerializedBytes(result.trace, "durable_t" + std::to_string(threads)) ==
                reference_bytes)
        << "durable run differs from non-durable at threads=" << threads;
    ExpectSameIntegrity(result.integrity, reference.integrity);
    std::filesystem::remove_all(durable.durability.spool_dir);
  }
}

// Puts the metrics kill switch back however the test leaves, a failed
// ASSERT included.
class MetricsSwitchRestorer {
 public:
  MetricsSwitchRestorer() : saved_(MetricsEnabled()) {}
  ~MetricsSwitchRestorer() { SetMetricsEnabled(saved_); }
  MetricsSwitchRestorer(const MetricsSwitchRestorer&) = delete;
  MetricsSwitchRestorer& operator=(const MetricsSwitchRestorer&) = delete;

 private:
  bool saved_;
};

TEST(FleetDeterminism, MetricsKillSwitchLeavesOutputBitIdentical) {
  // The metrics layer (DESIGN.md §8) observes a run; it may not perturb
  // it. A run with every metric mutation short-circuited produces the same
  // records, names, process map and integrity report as an enabled run.
  MetricsRegistry::Global();  // Applies NTRACE_METRICS before the switch is saved.
  MetricsSwitchRestorer restorer;
  SetMetricsEnabled(true);
  const FleetResult enabled = RunFleet(SmallConfig());
  SetMetricsEnabled(false);
  const FleetResult disabled = RunFleet(SmallConfig());

  // The switch took: the disabled run's registry delta counted nothing.
  EXPECT_GT(enabled.metrics.CounterValue("ntrace_trace_records_emitted_total"), 0u);
  EXPECT_EQ(disabled.metrics.CounterValue("ntrace_trace_records_emitted_total"), 0u);
  EXPECT_TRUE(SerializedBytes(disabled.trace, "metrics_off") ==
              SerializedBytes(enabled.trace, "metrics_on"));
  ExpectSameIntegrity(disabled.integrity, enabled.integrity);
}

TEST(FleetDeterminism, HardwareConcurrencyDefaultMatchesSequential) {
  FleetConfig auto_threads = SmallConfig();
  auto_threads.threads = 0;  // Hardware concurrency.
  const FleetResult parallel = RunFleet(auto_threads);

  FleetConfig sequential = SmallConfig();
  sequential.threads = 1;
  const FleetResult reference = RunFleet(sequential);

  EXPECT_TRUE(SerializedBytes(parallel.trace, "auto") ==
              SerializedBytes(reference.trace, "auto_ref"));
  ExpectSameIntegrity(parallel.integrity, reference.integrity);
}

}  // namespace
}  // namespace ntrace
