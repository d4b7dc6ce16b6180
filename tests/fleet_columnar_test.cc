// The columnar fleet store over the whole ingest path (DESIGN.md §12): the
// loopback service, the durable spool and the columnar spill at once.
// merged.ntx is system-major -- each system's time-sorted stream, in
// system-id order -- so its rows are the row-mode run's records stably
// partitioned by system id, with the same names and process map, at every
// worker count. The worker counts also run the net drain's completion pool
// (labels net and columnar put this suite in CI's TSan leg).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/workload/fleet.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

// Three systems: enough for the service's two shards and interleaved
// system streams, cheap enough for a TSan build.
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

FleetConfig NetConfig() {
  FleetConfig config = BaseConfig();
  config.net.enabled = true;
  return config;
}

TEST(FleetColumnar, NetDurableStoreIsTheRowRunPartitionedBySystem) {
  const FleetResult row_run = RunFleet(BaseConfig());
  std::vector<TraceRecord> expected = row_run.trace.records;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     return a.system_id < b.system_id;
                   });
  // The systems interleave in time, so the partition is not the identity.
  ASSERT_FALSE(expected.empty());
  ASSERT_NE(std::memcmp(expected.data(), row_run.trace.records.data(),
                        expected.size() * sizeof(TraceRecord)),
            0);

  for (const int threads : {1, 2, 8}) {
    const std::string dir = ScratchPath("fleet_columnar_t" + std::to_string(threads));
    std::filesystem::remove_all(dir);
    FleetConfig config = NetConfig();
    config.threads = threads;
    config.durability.spool_dir = dir + "/spool";
    config.columnar_dir = dir + "/col";
    const FleetResult result = RunFleet(config);
    ASSERT_TRUE(result.net.used) << "threads=" << threads;
    ASSERT_TRUE(result.columnar_mode) << "threads=" << threads;
    EXPECT_EQ(result.recovery.systems_failed, 0u) << "threads=" << threads;
    EXPECT_EQ(result.columnar.read_stats().extent_capacity, 4096u);

    const TraceSet rows = result.columnar.ToRows();
    ASSERT_EQ(rows.records.size(), expected.size()) << "threads=" << threads;
    EXPECT_EQ(std::memcmp(rows.records.data(), expected.data(),
                          expected.size() * sizeof(TraceRecord)),
              0)
        << "threads=" << threads;
    ASSERT_EQ(rows.names.size(), row_run.trace.names.size()) << "threads=" << threads;
    for (size_t i = 0; i < rows.names.size(); ++i) {
      const NameRecord& a = rows.names[i];
      const NameRecord& b = row_run.trace.names[i];
      ASSERT_TRUE(a.file_object == b.file_object && a.system_id == b.system_id &&
                  a.path == b.path)
          << "threads=" << threads << " name " << i;
    }
    EXPECT_EQ(rows.process_names, row_run.trace.process_names) << "threads=" << threads;
    std::filesystem::remove_all(dir);
  }
}

// A run fills exactly one trace form. A columnar run's is the store on
// disk: FleetResult::trace stays empty, the store's tables are the row
// run's, and FleetResult::columnar equals what a reader of merged.ntx gets,
// read stats field for field.
TEST(FleetColumnar, ColumnarRunHoldsOnlyTheStoreItWrote) {
  const FleetResult row_run = RunFleet(BaseConfig());
  const std::string dir = ScratchPath("fleet_columnar_one_form");
  std::filesystem::remove_all(dir);
  FleetConfig config = BaseConfig();
  config.threads = 2;
  config.columnar_dir = dir;
  const FleetResult result = RunFleet(config);
  ASSERT_TRUE(result.columnar_mode);
  EXPECT_TRUE(result.trace.records.empty());
  EXPECT_TRUE(result.trace.names.empty());
  EXPECT_TRUE(result.trace.process_names.empty());
  EXPECT_EQ(result.records_on_disk, row_run.trace.records.size());

  const std::vector<NameRecord>& names = result.columnar.names;
  ASSERT_EQ(names.size(), row_run.trace.names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    const NameRecord& b = row_run.trace.names[i];
    ASSERT_TRUE(names[i].file_object == b.file_object && names[i].system_id == b.system_id &&
                names[i].path == b.path)
        << "name " << i;
  }
  const std::vector<std::pair<uint32_t, std::string>>& procs = result.columnar.process_names;
  const std::unordered_map<uint32_t, std::string> proc_map(procs.begin(), procs.end());
  EXPECT_EQ(proc_map.size(), procs.size());  // One entry per pid.
  EXPECT_EQ(proc_map, row_run.trace.process_names);

  ExpectSameStore(result.columnar, ColumnarTraceSet::FromFile(dir + "/merged.ntx"));
  std::filesystem::remove_all(dir);
}

TEST(FleetColumnar, NetRunReportsItsDrainWall) {
  const FleetResult result = RunFleet(NetConfig());
  ASSERT_TRUE(result.net.used);
  EXPECT_GT(result.metrics.CounterValue("ntrace_fleet_drain_wall_us_total"), 0u);
  EXPECT_GT(result.metrics.CounterValue("ntrace_fleet_merge_wall_us_total"), 0u);
}

}  // namespace
}  // namespace ntrace
