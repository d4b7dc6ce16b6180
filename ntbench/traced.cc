// The traced per-layer run (--trace 1): a ledger of the whole pipeline.
//
// Spans are recorded from this file only, around calls into each layer's
// public entry points. The collect and ingest runs are recomposed here from
// SimulatedSystem, a timing TraceSink, CollectionServer, NetSink +
// CollectionService, ExtentStoreWriter, MergeExtentStreams and
// MergeSortedRuns, and must produce the same output as RunFleet, so the
// spans time the same work. The analyze run times each Study accessor; the
// what-if run replays the PolicySweep grid point by point. Every run ends in
// a record-conservation check across its spans.
//
// All four compositions run on every traced invocation, so every per-layer
// metric is measured each time; --workload selects which one the
// whole-workload rows (allocations, file bytes, tracing overhead, failures)
// describe.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "bench/bench_common.h"
#include "ntbench/common.h"
#include "src/analysis/fastio.h"
#include "src/analysis/trace_scan.h"
#include "src/net/collection_service.h"
#include "src/net/net_client.h"
#include "src/replay/policy_sweep.h"
#include "src/replay/trace_replayer.h"
#include "src/trace/extent_store.h"

namespace ntrace::ntbench {

namespace {

constexpr uint64_t kConfigFingerprint = 0x4E54424E43484D4BULL;  // "NTBNCHMK"

// Forwards to an inner sink, timing every call and counting what passes.
class TimingSink final : public TraceSink {
 public:
  explicit TimingSink(TraceSink& inner) : inner_(inner) {}

  void DeliverShipment(const ShipmentHeader& header, std::vector<TraceRecord> records) override {
    const double start = Now();
    records_ += records.size();
    ++shipments_;
    inner_.DeliverShipment(header, std::move(records));
    seconds_ += Now() - start;
  }
  void DeliverRecords(std::vector<TraceRecord> records) override {
    const double start = Now();
    records_ += records.size();
    inner_.DeliverRecords(std::move(records));
    seconds_ += Now() - start;
  }
  void DeliverName(NameRecord name) override {
    const double start = Now();
    inner_.DeliverName(std::move(name));
    seconds_ += Now() - start;
  }

  double seconds() const { return seconds_; }
  uint64_t records() const { return records_; }
  uint64_t shipments() const { return shipments_; }

 private:
  TraceSink& inner_;
  double seconds_ = 0;
  uint64_t records_ = 0;
  uint64_t shipments_ = 0;
};

// One system's share of a composed collection.
struct Shard {
  CollectionServer server;
  SystemRunStats stats;
  std::vector<std::pair<uint32_t, std::string>> process_names;
  double system_s = 0;  // SimulatedSystem construction + Run (sink calls included).
  double sink_s = 0;    // Time inside TraceSink calls.
  double finish_s = 0;  // Post-run finish step (sort, or drain the net stream).
  uint64_t delivered = 0;
  uint64_t shipments = 0;
  bool completed = true;
};

// Simulates one system into `inner`; `finish` runs while the system is
// still alive, as RunFleet's worker does.
void Simulate(const SystemOptions& options, TraceSink& inner, Shard* shard,
              const std::function<bool()>& finish) {
  TimingSink sink(inner);
  const double start = Now();
  SimulatedSystem system(options, sink);
  shard->stats = system.Run();
  shard->system_s = Now() - start;
  for (const auto& [pid, info] : system.processes().all()) {
    shard->process_names.emplace_back(pid, info.image_name);
  }
  const double finish_start = Now();
  shard->completed = finish();
  shard->finish_s = Now() - finish_start;
  shard->sink_s = sink.seconds();
  shard->delivered = sink.records();
  shard->shipments = sink.shipments();
}

// The merged collection minus its records, built the way RunFleet's merge
// builds it: shards in system-id order, first process-name insertion wins,
// agent counters reconciled against each server's sequence bookkeeping.
struct Merged {
  TraceSet trace;
  IntegrityReport integrity;
  std::vector<std::pair<uint32_t, std::string>> proc_insertions;
};

void FoldShard(Shard* shard, Merged* merged) {
  for (auto& [pid, name] : shard->process_names) {
    const auto [it, inserted] = merged->trace.process_names.emplace(pid, std::move(name));
    if (inserted) {
      merged->proc_insertions.emplace_back(pid, it->second);
    }
  }
  const SystemRunStats& s = shard->stats;
  SystemIntegrity row;
  row.system_id = s.system_id;
  row.records_emitted = s.trace_emitted;
  row.records_overflow_dropped = s.trace_drops;
  row.records_shed = s.trace_shed;
  row.records_lost = s.trace_lost;
  row.records_unresolved = s.trace_unresolved;
  row.shipments_sent = s.shipments_sent;
  row.shipment_attempts = s.shipment_attempts;
  row.shipment_failures = s.shipment_failures;
  row.shipments_abandoned = s.shipments_abandoned;
  row.peak_retry_backlog = s.peak_retry_backlog;
  shard->server.FillIntegrity(&row);
  if (const CollectionServer::StreamState* stream = shard->server.StreamOf(s.system_id)) {
    for (const auto& [sequence, count] : s.abandoned_shipments) {
      if (stream->Received(sequence)) {
        row.records_lost -= count;
      }
    }
  }
  merged->integrity.systems.push_back(row);
  TraceSet& collected = shard->server.Finish();
  merged->trace.names.insert(merged->trace.names.end(),
                             std::make_move_iterator(collected.names.begin()),
                             std::make_move_iterator(collected.names.end()));
}

// Records emitted by the agents that never reached a sink, by cause.
uint64_t AgentLosses(const IntegrityReport& integrity) {
  const SystemIntegrity t = integrity.Totals();
  return t.records_overflow_dropped + t.records_shed + t.records_lost + t.records_unresolved;
}

// One traced composition's whole-workload figures.
struct Composed {
  double wall = 0;           // Traced timed phase.
  double untraced_wall = 0;  // Same work through the library's own entry point.
  uint64_t records = 0;
  uint64_t ops = 0;  // Operations in the workload's own unit.
  uint64_t allocs = 0;
  uint64_t write_bytes = 0;  // File bytes written.
  uint64_t read_bytes = 0;   // File bytes read.
  // Reference outputs later compositions compare against.
  uint64_t scan_fingerprint = 0;
  uint64_t names = 0;
};

double Seconds(const std::vector<Shard>& shards, double Shard::*field) {
  double total = 0;
  for (const Shard& s : shards) {
    total += s.*field;
  }
  return total;
}

uint64_t Sum(const std::vector<Shard>& shards, uint64_t Shard::*field) {
  uint64_t total = 0;
  for (const Shard& s : shards) {
    total += s.*field;
  }
  return total;
}

// Agent-emitted = delivered = collected = merged = scanned, with the agent's
// own accounted losses and the server's discarded duplicates in between.
void CheckConservation(Outcome* out, const char* run, uint64_t emitted, uint64_t agent_losses,
                       uint64_t delivered, uint64_t duplicates, uint64_t collected,
                       uint64_t merged, uint64_t scanned) {
  const std::string prefix = std::string(run) + " ledger: ";
  out->Check(emitted == delivered + agent_losses, 1, prefix + "emitted != delivered + losses");
  out->Check(delivered == collected + duplicates, 1, prefix + "delivered != collected");
  out->Check(collected == merged, 1, prefix + "collected != merged");
  out->Check(merged == scanned, 1, prefix + "merged != scanned");
}

Composed TraceCollect(const Options& options, Outcome* out) {
  Composed c;
  const FleetConfig config = StudyFleet(options, /*fleet=*/0, /*threads=*/4);
  const std::vector<SystemOptions> systems = FleetSystemOptions(config);
  const int n = static_cast<int>(systems.size());

  // The untraced twin: RunFleet itself, whose output the composition must
  // reproduce.
  uint64_t reference = 0;
  {
    const double start = Now();
    const FleetResult r = RunFleet(config);
    c.untraced_wall = Now() - start;
    reference = FleetFingerprint(r.trace, r.integrity);
  }

  const size_t allocs = bench_alloc_count();
  const double start = Now();
  std::vector<Shard> shards(static_cast<size_t>(n));
  const double pool_wall = RunPool(n, 4, [&](int i) {
    Shard& shard = shards[static_cast<size_t>(i)];
    const SystemOptions& opt = systems[static_cast<size_t>(i)];
    // RunFleet's workload-derived ingest reserve.
    const double estimated = 70000.0 * std::max(opt.days, 1) * std::max(opt.activity_scale, 0.1);
    shard.server.ReserveRecords(std::min(static_cast<size_t>(estimated), size_t{1} << 20));
    Simulate(opt, shard.server, &shard, [&] {
      shard.server.Finish();
      return true;
    });
  });
  Merged merged;
  std::vector<std::vector<TraceRecord>> runs;
  for (Shard& shard : shards) {
    FoldShard(&shard, &merged);
    runs.push_back(std::move(shard.server.Finish().records));
  }
  const double merge_start = Now();
  merged.trace.MergeSortedRuns(std::move(runs));
  const double merge_s = Now() - merge_start;
  merged.trace.EnsureNameIndex();
  c.wall = Now() - start;
  c.allocs = bench_alloc_count() - allocs;
  c.records = merged.trace.records.size();
  c.ops = merged.integrity.Totals().records_emitted;
  c.names = merged.trace.names.size();

  const TraceScan scan = TraceScan::Run(merged.trace);
  c.scan_fingerprint = ScanFingerprint(scan);
  out->Check(FleetFingerprint(merged.trace, merged.integrity) == reference, c.records,
             "composed collect differs from RunFleet");
  const SystemIntegrity t = merged.integrity.Totals();
  CheckConservation(out, "collect", t.records_emitted, AgentLosses(merged.integrity),
                    Sum(shards, &Shard::delivered), t.duplicate_records_discarded,
                    t.records_collected, c.records, scan.records_scanned);

  std::vector<double> system_ms;
  for (const Shard& s : shards) {
    system_ms.push_back(s.system_s * 1e3);
  }
  const double sink_s = Seconds(shards, &Shard::sink_s);
  const uint64_t shipments = Sum(shards, &Shard::shipments);
  out->Add("workload.simulate_s", Seconds(shards, &Shard::system_s) - sink_s, "s");
  out->Add("workload.system_p50_ms", Quantile(system_ms, 0.5), "ms");
  out->Add("workload.system_p75_ms", Quantile(system_ms, 0.75), "ms");
  out->Add("workload.pool_busy_fraction",
           (Seconds(shards, &Shard::system_s) + Seconds(shards, &Shard::finish_s)) /
               (pool_wall * 4),
           "fraction");
  out->Add("workload.systems", n, "count");
  out->Add("trace.deliver_s", sink_s, "s");
  out->Add("trace.finish_s", Seconds(shards, &Shard::finish_s), "s");
  out->Add("trace.merge_s", merge_s, "s");
  out->Add("trace.shipments", static_cast<double>(shipments), "count");
  out->Add("trace.records_per_shipment",
           shipments > 0 ? static_cast<double>(Sum(shards, &Shard::delivered)) / shipments : 0,
           "records");
  return c;
}

Composed TraceIngest(const Options& options, const Composed& collect, Outcome* out) {
  Composed c;
  const std::string dir = options.work_dir + "/ledger-ingest";
  const FleetConfig config = IngestFleet(options, /*fleet=*/0, dir);
  const std::vector<SystemOptions> systems = FleetSystemOptions(config);
  const int n = static_cast<int>(systems.size());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(config.columnar_dir);
  std::filesystem::create_directories(config.durability.spool_dir);

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const size_t allocs = bench_alloc_count();
  const double start = Now();
  CollectionService::Options service_options;
  service_options.config = config.net;
  service_options.spool_dir = config.durability.spool_dir;
  service_options.config_fingerprint = kConfigFingerprint;
  CollectionService service(std::move(service_options));
  if (!out->Check(service.Start(), 1, "collection service cannot bind loopback")) {
    return c;
  }
  std::vector<Shard> shards(static_cast<size_t>(n));
  std::atomic<uint64_t> frames_sent{0};
  RunPool(n, config.threads, [&](int i) {
    Shard& shard = shards[static_cast<size_t>(i)];
    const SystemOptions& opt = systems[static_cast<size_t>(i)];
    NetAgentClient client(config.net, service.port(), opt.system_id, kConfigFingerprint);
    NetSink sink(&client);
    Simulate(opt, sink, &shard, [&] {
      uint64_t collected = 0;
      return !client.failed() && client.FinishStream(&collected);
    });
    frames_sent.fetch_add(client.frames_sent(), std::memory_order_relaxed);
  });
  const double stop_start = Now();
  service.Stop();
  const double stop_s = Now() - stop_start;
  const NetServiceStats net = service.stats();

  Merged merged;
  std::vector<std::string> spills;
  uint64_t collected = 0;
  double spill_s = 0;
  for (int i = 0; i < n; ++i) {
    Shard& shard = shards[static_cast<size_t>(i)];
    const uint32_t id = systems[static_cast<size_t>(i)].system_id;
    NetSessionResult session;
    if (!out->Check(shard.completed && service.TakeSession(id, &session), 1,
                    "net session of system " + std::to_string(id) + " missing")) {
      continue;
    }
    shard.server = std::move(session.server);
    FoldShard(&shard, &merged);
    const TraceSet& rows = shard.server.Finish();
    collected += rows.records.size();
    const std::string path = config.columnar_dir + "/sys" + std::to_string(id) + ".ntx";
    const double spill_start = Now();
    ExtentStoreWriter writer;
    const bool spilled = writer.Open(path, 4096, kConfigFingerprint) &&
                         writer.AppendRecords(rows.records.data(), rows.records.size()) &&
                         writer.Seal();
    writer.Close();
    spill_s += Now() - spill_start;
    out->Check(spilled, rows.records.size(), "spill of system " + std::to_string(id) + " failed");
    spills.push_back(path);
    c.read_bytes += FileSize(path);  // The merge reads each spill once.
  }
  const std::string store_path = config.columnar_dir + "/merged.ntx";
  const double merge_start = Now();
  ExtentStoreWriter store;
  store.Open(store_path, kDefaultExtentRecords, kConfigFingerprint);
  const ExtentMergeResult mr = MergeExtentStreams(spills, &store);
  for (const NameRecord& name : merged.trace.names) {
    store.AddName(name);
  }
  for (const auto& [pid, name] : merged.proc_insertions) {
    store.AddProcessName(pid, name);
  }
  const bool sealed = store.Seal();
  store.Close();
  for (const std::string& p : spills) {
    std::filesystem::remove(p);
  }
  const double merge_s = Now() - merge_start;
  c.wall = Now() - start;
  c.allocs = bench_alloc_count() - allocs;
  const MetricsSnapshot delta = MetricsRegistry::Global().Snapshot().DeltaFrom(before);
  const uint64_t spool_bytes = delta.CounterValue("ntrace_spool_bytes_written_total");
  c.write_bytes = spool_bytes + delta.CounterValue("ntrace_extent_bytes_written_total");
  c.records = mr.records;
  c.ops = merged.integrity.Totals().records_emitted;

  if (options.plant == "truncate-store") {
    TruncateHalf(store_path);
  }
  const uint64_t store_bytes = FileSize(store_path);
  const ColumnarTraceSet columnar = ColumnarTraceSet::FromFile(store_path);
  const ExtentReadStats& st = columnar.read_stats();
  const TraceScan scan = TraceScan::Run(columnar);
  if (out->Check(sealed && st.sealed && st.frames_damaged == 0,
                 c.ops - std::min(c.ops, st.records_recovered),
                 "composed ingest store is not sealed and intact")) {
    out->Check(mr.records == collect.records && columnar.names.size() == collect.names &&
                   ScanFingerprint(scan) == collect.scan_fingerprint,
               mr.records, "composed ingest store differs from the row collection");
  }
  const SystemIntegrity t = merged.integrity.Totals();
  CheckConservation(out, "ingest", t.records_emitted, AgentLosses(merged.integrity),
                    Sum(shards, &Shard::delivered), t.duplicate_records_discarded, collected,
                    mr.records, scan.records_scanned);
  out->Check(net.records_delivered == Sum(shards, &Shard::delivered), 1,
             "ingest ledger: service delivered != agents shipped");
  std::filesystem::remove_all(dir);

  const double records = static_cast<double>(std::max<uint64_t>(c.records, 1));
  out->Add("net.deliver_s", Seconds(shards, &Shard::sink_s), "s");
  out->Add("net.finish_s", Seconds(shards, &Shard::finish_s) + stop_s, "s");
  out->Add("net.frames_sent", static_cast<double>(frames_sent.load()), "count");
  out->Add("net.frames_delivered_per_sent",
           frames_sent.load() > 0 ? static_cast<double>(net.frames_delivered) / frames_sent.load()
                                  : 0,
           "ratio");
  out->Add("net.backpressure_signals", static_cast<double>(net.busy_signals + net.shed_signals),
           "count");
  out->Add("spool.bytes_per_record", static_cast<double>(spool_bytes) / records, "B");
  out->Add("extent.spill_s", spill_s, "s");
  out->Add("extent.merge_s", merge_s, "s");
  out->Add("extent.store_mb", static_cast<double>(store_bytes) / (1024.0 * 1024.0), "MB");
  out->Add("extent.bytes_per_record", static_cast<double>(store_bytes) / records, "B");
  out->Add("extent.compression_ratio",
           store_bytes > 0 ? records * sizeof(TraceRecord) / static_cast<double>(store_bytes) : 0,
           "ratio");
  return c;
}

Composed TraceAnalyze(const Options& options, bool untraced_twin, Outcome* out) {
  Composed c;
  std::filesystem::create_directories(options.work_dir);
  const std::string store_path = options.work_dir + "/ledger-analyze.ntx";
  const std::vector<FigureStep>& figures = StudyFigures();
  StudyConfig config;
  config.fleet = StudyFleet(options, /*fleet=*/0, /*threads=*/4);

  if (untraced_twin) {
    Study study(config);
    study.Run();
    WriteExtentStore(study.trace(), store_path);
    const double start = Now();
    for (const FigureStep& step : figures) {
      step.compute(study);
    }
    TraceScan::Run(ColumnarTraceSet::FromFile(store_path));
    c.untraced_wall = Now() - start;
  }

  Study study(config);
  study.Run();
  c.write_bytes = WriteExtentStore(study.trace(), store_path);
  if (options.plant == "truncate-store") {
    TruncateHalf(store_path);
  }
  c.records = study.trace().records.size();
  c.ops = figures.size() + 1;

  std::map<std::string, double> span_s;
  std::map<std::string, double> span_rss;
  const size_t allocs = bench_alloc_count();
  const double start = Now();
  for (const FigureStep& step : figures) {
    const double rss = CurrentRssMb();
    const double t0 = Now();
    const bool ok = step.compute(study);
    span_s[step.span] += Now() - t0;
    span_rss[step.span] += CurrentRssMb() - rss;
    out->Check(ok, 1, std::string("figure ") + step.figure + " came back empty");
  }
  const double rescan_start = Now();
  c.read_bytes = FileSize(store_path);
  const TraceScan rescan = TraceScan::Run(ColumnarTraceSet::FromFile(store_path));
  const double rescan_s = Now() - rescan_start;
  c.wall = Now() - start;
  c.allocs = bench_alloc_count() - allocs;
  std::filesystem::remove(store_path);

  out->Check(c.write_bytes > 0 && rescan.records_scanned == c.records &&
                 ScanFingerprint(rescan) == ScanFingerprint(study.Scan()),
             1, "analyze ledger: disk rescan does not cover the trace");

  out->Add("extent.rescan_s", rescan_s, "s");
  for (const char* span : {"analysis.scan", "tracedb.instances", "analysis.app_trace",
                           "analysis.user_activity", "analysis.patterns", "analysis.sessions",
                           "analysis.lifetimes", "analysis.figures", "analysis.tails",
                           "analysis.profiles", "analysis.snapshots"}) {
    out->Add(std::string(span) + "_s", span_s[span], "s");
  }
  out->Add("tracedb.instances_rss_mb", span_rss["tracedb.instances"], "MB");
  out->Add("analysis.app_trace_rss_mb", span_rss["analysis.app_trace"], "MB");
  return c;
}

Composed TraceWhatif(Outcome* out) {
  Composed c;
  const FleetConfig config = EnvelopeFleet();
  const FleetResult recording = RunFleet(config);
  const TraceSet& recorded = recording.trace;
  constexpr int kThreads = 4;

  // The untraced twin: PolicySweep itself, whose rows the composition must
  // reproduce point for point.
  PolicySweepOptions sweep_options;
  sweep_options.threads = kThreads;
  double start = Now();
  const WhatIfReport reference = PolicySweep(config).Run(recorded, sweep_options);
  c.untraced_wall = Now() - start;

  const TraceReplayer replayer(config);
  PolicyConfig base;
  base.cache = config.cache_config;
  const std::vector<PolicyPoint> grid = DefaultPolicyGrid(base);
  if (!out->Check(reference.rows.size() == grid.size(), grid.size() + 1,
                  "PolicySweep grid differs from DefaultPolicyGrid")) {
    return c;
  }
  std::vector<double> point_s;
  double fidelity_s = 0;
  const size_t allocs = bench_alloc_count();
  const double cpu = CpuNow();
  start = Now();
  for (size_t i = 0; i <= grid.size(); ++i) {
    ReplayOptions replay_options;
    if (i > 0) {
      replay_options.apply_policy = true;
      replay_options.policy = grid[i - 1].policy;
    }
    const double t0 = Now();
    const FleetReplayResult result = replayer.Replay(recorded, replay_options, kThreads);
    FastIoAnalyzer::Analyze(result.trace);  // The sweep's per-row report work.
    const uint32_t fingerprint = TraceFingerprint(result.trace);
    point_s.push_back(Now() - t0);
    c.records += result.trace.records.size();
    const WhatIfRow& row = i == 0 ? reference.baseline : reference.rows[i - 1];
    out->Check(fingerprint == row.fingerprint && result.trace.records.size() == row.records, 1,
               "composed sweep point " + std::to_string(i) + " differs from PolicySweep");
    if (i == 0) {
      const double f0 = Now();
      const FidelityReport fidelity = CheckFidelity(recorded, result.trace);
      fidelity_s = Now() - f0;
      out->Check(fidelity.exact() && result.divergence.total() == 0, grid.size() + 1,
                 "what-if ledger: baseline is not fidelity-exact");
    }
  }
  c.wall = Now() - start;
  const double busy = (CpuNow() - cpu) / (c.wall * kThreads);
  c.allocs = bench_alloc_count() - allocs;
  c.ops = grid.size() + 1;

  out->Add("replay.points", static_cast<double>(point_s.size()), "count");
  out->Add("replay.point_p50_s", Quantile(point_s, 0.5), "s");
  out->Add("replay.point_max_s", Quantile(point_s, 1.0), "s");
  out->Add("replay.busy_fraction", busy, "fraction");
  out->Add("replay.fidelity_s", fidelity_s, "s");
  return c;
}

}  // namespace

Outcome RunLedger(const Options& options) {
  Outcome out;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Composed collect = TraceCollect(options, &out);
  Composed ingest = TraceIngest(options, collect, &out);
  if (options.workload == "ingest") {
    const std::string dir = options.work_dir + "/ledger-ingest-twin";
    std::filesystem::remove_all(dir);
    const double start = Now();
    RunFleet(IngestFleet(options, /*fleet=*/0, dir));
    ingest.untraced_wall = Now() - start;
    std::filesystem::remove_all(dir);
  }
  Composed analyze = TraceAnalyze(options, options.workload == "analyze", &out);
  Composed whatif = TraceWhatif(&out);
  const MetricsSnapshot delta = MetricsRegistry::Global().Snapshot().DeltaFrom(before);

  const std::map<std::string, const Composed*> by_name = {
      {"collect", &collect}, {"ingest", &ingest}, {"analyze", &analyze}, {"whatif", &whatif}};
  const Composed& selected = *by_name.at(options.workload);
  out.attempted += collect.ops + ingest.ops + analyze.ops + whatif.ops;

  const double records = static_cast<double>(std::max<uint64_t>(selected.records, 1));
  out.Add("ledger.overhead_fraction",
          selected.untraced_wall > 0 ? selected.wall / selected.untraced_wall - 1 : 0,
          "fraction");
  out.Add("alloc_per_record", static_cast<double>(selected.allocs) / records, "count");
  out.Add("write_bytes_per_record", static_cast<double>(selected.write_bytes) / records, "B");
  out.Add("read_bytes_per_record", static_cast<double>(selected.read_bytes) / records, "B");
  const uint64_t fastio_accepted = delta.CounterValue("ntrace_ntio_fastio_read_accepted_total");
  const uint64_t fastio_attempts =
      fastio_accepted + delta.CounterValue("ntrace_ntio_fastio_read_rejected_total");
  const uint64_t copy_reads = delta.CounterValue("ntrace_mm_copy_read_total");
  out.Add("ntio.fastio_read_attempts", static_cast<double>(fastio_attempts), "count");
  out.Add("ntio.fastio_read_accept_ratio",
          fastio_attempts > 0 ? static_cast<double>(fastio_accepted) / fastio_attempts : 0,
          "ratio");
  out.Add("mm.copy_reads", static_cast<double>(copy_reads), "count");
  out.Add("mm.copy_read_hit_ratio",
          copy_reads > 0
              ? static_cast<double>(delta.CounterValue("ntrace_mm_copy_read_hit_total")) /
                    copy_reads
              : 0,
          "ratio");
  out.Add("failed_fraction",
          out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0, "fraction");
  return out;
}

}  // namespace ntrace::ntbench
