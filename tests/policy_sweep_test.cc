// Policy sweep contract (DESIGN.md §13): the what-if engine replays one
// recorded collection across a grid of cache / read-ahead / lazy-writer /
// FastIO policies, its baseline row reproduces the recording exactly, its
// rows are the same at every worker count, and the section 9 cache hit
// ratio responds monotonically to cache size.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/parallel.h"
#include "src/replay/policy_sweep.h"
#include "src/workload/fleet.h"

namespace ntrace {
namespace {

// Small fleet with a deliberately small recorded cache (1 MB) so the sweep's
// low-capacity point lives under real eviction pressure -- a cache that
// never fills answers every what-if with "no change".
FleetConfig SweepConfig() {
  FleetConfig config;
  config.walk_up = 1;
  config.personal = 1;
  config.scientific = 1;
  config.pool = 0;
  config.administrative = 0;
  config.days = 1;
  config.seed = 13;
  config.activity_scale = 0.3;
  config.content_scale = 0.05;
  config.cache_config.capacity_pages = 256;
  return config;
}

// Every WhatIfRow field, compared exactly: the sweep is bit-identical at
// every worker count.
void ExpectSameRow(const WhatIfRow& a, const WhatIfRow& b, const std::string& where) {
  EXPECT_EQ(a.knob, b.knob) << where;
  EXPECT_EQ(a.value, b.value) << where;
  EXPECT_EQ(a.baseline, b.baseline) << where;
  EXPECT_EQ(a.cache_hit_ratio, b.cache_hit_ratio) << where;
  EXPECT_EQ(a.fastio_read_share, b.fastio_read_share) << where;
  EXPECT_EQ(a.fastio_write_share, b.fastio_write_share) << where;
  EXPECT_EQ(a.read_fallbacks, b.read_fallbacks) << where;
  EXPECT_EQ(a.write_fallbacks, b.write_fallbacks) << where;
  EXPECT_EQ(a.fault_irps, b.fault_irps) << where;
  EXPECT_EQ(a.readahead_irps, b.readahead_irps) << where;
  EXPECT_EQ(a.lazy_write_irps, b.lazy_write_irps) << where;
  EXPECT_EQ(a.lazy_scans, b.lazy_scans) << where;
  EXPECT_EQ(a.evictions_visible, b.evictions_visible) << where;
  EXPECT_EQ(a.records, b.records) << where;
  EXPECT_EQ(a.divergence, b.divergence) << where;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << where;
}

TEST(PolicySweep, DefaultGridCoversFourKnobsTimesThree) {
  PolicyConfig base;
  base.cache.capacity_pages = 256;
  const std::vector<PolicyPoint> grid = DefaultPolicyGrid(base);
  ASSERT_EQ(grid.size(), 12u);
  int cache = 0;
  int readahead = 0;
  int lazy = 0;
  int fastio = 0;
  for (const PolicyPoint& p : grid) {
    cache += p.knob == "cache_pages";
    readahead += p.knob == "read_ahead";
    lazy += p.knob == "lazy_write_period";
    fastio += p.knob == "fastio";
  }
  EXPECT_EQ(cache, 3);
  EXPECT_EQ(readahead, 3);
  EXPECT_EQ(lazy, 3);
  EXPECT_EQ(fastio, 3);
  // The capacity ladder around a 256-page recording: 64 / 256 / 1024.
  EXPECT_NE(nullptr, [&] {
    for (const PolicyPoint& p : grid) {
      if (p.knob == "cache_pages" && p.value == "64") {
        return &p;
      }
    }
    return static_cast<const PolicyPoint*>(nullptr);
  }());
}

TEST(PolicySweep, BaselineIsExactAndHitRatioMonotoneInCacheSize) {
  const FleetConfig config = SweepConfig();
  const FleetResult fleet = RunFleet(config);
  ASSERT_FALSE(fleet.trace.records.empty());

  PolicySweep sweep(config);
  PolicySweepOptions options;
  options.threads = 2;
  const WhatIfReport report = sweep.Run(fleet.trace, options);

  EXPECT_TRUE(report.baseline_fidelity_exact) << report.baseline_fidelity_detail;
  EXPECT_EQ(report.baseline.divergence, 0u);
  EXPECT_EQ(report.baseline.fingerprint, report.recorded_fingerprint);
  EXPECT_EQ(report.rows.size(), 12u);

  // Section 9 response: more cache, no fewer hits. The recording ran at 256
  // pages, so 64 pages must shed hits and 1024 must not lose any.
  const WhatIfRow* small = report.FindRow("cache_pages", "64");
  const WhatIfRow* stock = report.FindRow("cache_pages", "256");
  const WhatIfRow* large = report.FindRow("cache_pages", "1024");
  ASSERT_NE(small, nullptr);
  ASSERT_NE(stock, nullptr);
  ASSERT_NE(large, nullptr);
  EXPECT_LE(small->cache_hit_ratio, stock->cache_hit_ratio);
  EXPECT_LE(stock->cache_hit_ratio, large->cache_hit_ratio);
  EXPECT_LT(small->cache_hit_ratio, large->cache_hit_ratio)
      << "the sweep never saw eviction pressure; the grid is not answering anything";

  // The stock point replays the recording policy: same metrics as baseline.
  EXPECT_DOUBLE_EQ(stock->cache_hit_ratio, report.baseline.cache_hit_ratio);

  // FastIO knob: disabling the path must drive its share to zero, and the
  // recorded machine's share must be positive for that to mean anything.
  const WhatIfRow* no_fastio = report.FindRow("fastio", "off");
  ASSERT_NE(no_fastio, nullptr);
  EXPECT_GT(report.baseline.fastio_read_share, 0.0);
  EXPECT_EQ(no_fastio->fastio_read_share, 0.0);
  EXPECT_EQ(no_fastio->fastio_write_share, 0.0);

  // Read-ahead off: the prefetcher contributed nothing.
  const WhatIfRow* no_readahead = report.FindRow("read_ahead", "off");
  ASSERT_NE(no_readahead, nullptr);
  EXPECT_EQ(no_readahead->readahead_irps, 0u);
  EXPECT_GT(report.baseline.readahead_irps, 0u);

  // The report formats without tripping over itself.
  const std::string table = report.FormatTable();
  EXPECT_NE(table.find("cache_pages"), std::string::npos);
  EXPECT_NE(table.find("baseline fidelity: exact"), std::string::npos);
}

TEST(PolicySweep, RowsIdenticalAtEveryWorkerCount) {
  // The sweep runs as one job set of (point x system) units whose runs
  // finish, merge and report in any order; no row may depend on the worker
  // count or on that order. The recording's worker count only changes wall
  // time (RunFleet's output contract), so it records on one worker per
  // system.
  FleetConfig config = SweepConfig();
  config.threads = 3;
  const FleetResult fleet = RunFleet(config);
  PolicyConfig base;
  base.cache = config.cache_config;
  PolicySweepOptions options;
  options.grid = {PolicyPoint{"cache_pages", "64", base}, PolicyPoint{"read_ahead", "off", base},
                  PolicyPoint{"fastio", "off", base}};
  options.grid[0].policy.cache.capacity_pages = 64;
  options.grid[1].policy.cache.read_ahead_enabled = false;
  options.grid[2].policy.fastio.enabled = false;

  // The three sweeps, and below the three standalone replays, run side by
  // side to keep this test's wall time down; they share only the recording.
  const std::vector<int> thread_counts = {1, 2, 8};
  std::vector<WhatIfReport> reports(thread_counts.size());
  ParallelFor(static_cast<int>(reports.size()), static_cast<int>(reports.size()),
              [&](int k, int) {
                PolicySweepOptions sweep = options;
                sweep.threads = thread_counts[static_cast<size_t>(k)];
                reports[static_cast<size_t>(k)] = PolicySweep(config).Run(fleet.trace, sweep);
              });
  for (size_t k = 0; k < reports.size(); ++k) {
    const WhatIfReport& report = reports[k];
    const int threads = thread_counts[k];
    EXPECT_TRUE(report.baseline_fidelity_exact)
        << "threads=" << threads << ": " << report.baseline_fidelity_detail;
    ASSERT_EQ(report.rows.size(), options.grid.size()) << "threads=" << threads;
    for (size_t i = 0; i < options.grid.size(); ++i) {
      EXPECT_EQ(report.rows[i].knob, options.grid[i].knob) << "threads=" << threads;
      EXPECT_EQ(report.rows[i].value, options.grid[i].value) << "threads=" << threads;
    }
  }
  for (size_t k = 1; k < reports.size(); ++k) {
    const std::string threads = "threads=" + std::to_string(thread_counts[k]) + " ";
    ExpectSameRow(reports[k].baseline, reports[0].baseline, threads + "baseline");
    for (size_t i = 0; i < options.grid.size(); ++i) {
      ExpectSameRow(reports[k].rows[i], reports[0].rows[i],
                    threads + options.grid[i].knob + "=" + options.grid[i].value);
    }
  }

  // Every row is what a standalone replay of its point produces.
  const TraceReplayer replayer(config);
  std::vector<FleetReplayResult> standalone(options.grid.size());
  ParallelFor(static_cast<int>(standalone.size()), static_cast<int>(standalone.size()),
              [&](int i, int) {
                ReplayOptions point;
                point.apply_policy = true;
                point.policy = options.grid[static_cast<size_t>(i)].policy;
                standalone[static_cast<size_t>(i)] = replayer.Replay(fleet.trace, point, 3);
              });
  for (size_t i = 0; i < options.grid.size(); ++i) {
    EXPECT_EQ(TraceFingerprint(standalone[i].trace), reports[0].rows[i].fingerprint)
        << options.grid[i].knob << "=" << options.grid[i].value;
    EXPECT_EQ(standalone[i].trace.records.size(), reports[0].rows[i].records)
        << options.grid[i].knob << "=" << options.grid[i].value;
  }
}

TEST(PolicySweep, FleetWithoutSystemsStillReportsEveryPoint) {
  // No (point x system) units at all: every run must still be reported.
  FleetConfig config;
  config.walk_up = config.pool = config.personal = config.administrative = config.scientific = 0;
  const FleetResult fleet = RunFleet(config);
  ASSERT_TRUE(fleet.trace.records.empty());
  const WhatIfReport report = PolicySweep(config).Run(fleet.trace);
  EXPECT_TRUE(report.baseline_fidelity_exact) << report.baseline_fidelity_detail;
  ASSERT_EQ(report.rows.size(), 12u);
  EXPECT_EQ(report.rows.front().knob, "cache_pages");
  EXPECT_EQ(report.rows.back().knob, "fastio");
}

}  // namespace
}  // namespace ntrace
