// Unit tests: src/trace -- record semantics, triple-buffering, the filter
// driver's event capture, snapshots, and trace-set serialization.

#include <gtest/gtest.h>

#include <cstdio>

#include <utility>

#include "src/fault/fault.h"
#include "src/trace/collection_server.h"
#include "src/trace/extent_store.h"
#include "src/trace/snapshot.h"
#include "src/trace/trace_buffer.h"
#include "src/trace/trace_set.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

TEST(TraceRecordSemantics, EventClassification) {
  EXPECT_TRUE(IsIrpEvent(TraceEvent::kIrpCreate));
  EXPECT_FALSE(IsIrpEvent(TraceEvent::kFastIoRead));
  EXPECT_TRUE(IsFastIoEvent(TraceEvent::kFastIoWrite));
  EXPECT_TRUE(IsDataTransfer(TraceEvent::kIrpRead));
  EXPECT_TRUE(IsDataTransfer(TraceEvent::kFastIoWrite));
  EXPECT_FALSE(IsDataTransfer(TraceEvent::kIrpCleanup));
  EXPECT_TRUE(IsReadEvent(TraceEvent::kFastIoRead));
  EXPECT_FALSE(IsReadEvent(TraceEvent::kIrpWrite));
  EXPECT_TRUE(IsWriteEvent(TraceEvent::kIrpWrite));
  EXPECT_EQ(TraceEventForIrp(IrpMajor::kCleanup), TraceEvent::kIrpCleanup);
}

TEST(TraceRecordSemantics, CacheInducedDetection) {
  TraceRecord r;
  r.irp_flags = kIrpPagingIo;
  EXPECT_TRUE(r.IsPagingIo());
  EXPECT_FALSE(r.IsCacheInduced());  // VM-originated.
  r.irp_flags = kIrpPagingIo | kIrpCacheFault;
  EXPECT_TRUE(r.IsCacheInduced());
  r.irp_flags = kIrpPagingIo | kIrpReadAhead | kIrpCacheFault;
  EXPECT_TRUE(r.IsCacheInduced());
  r.irp_flags = kIrpPagingIo | kIrpLazyWrite | kIrpCacheFault;
  EXPECT_TRUE(r.IsCacheInduced());
}

TEST(TraceRecordSemantics, LatencyFromTimestamps) {
  TraceRecord r;
  r.start_ticks = 100;
  r.complete_ticks = 350;
  EXPECT_EQ(r.Latency().ticks(), 250);
  EXPECT_EQ(r.StartTime().ticks(), 100);
}

TEST(TraceRecordSemantics, EventNames) {
  EXPECT_EQ(TraceEventName(TraceEvent::kIrpCreate), "CREATE");
  EXPECT_EQ(TraceEventName(TraceEvent::kFastIoRead), "FASTIO_READ");
  EXPECT_EQ(TraceEventName(TraceEvent::kFastIoWriteNotPossible), "FASTIO_WRITE_NOT_POSSIBLE");
}

// --- TraceBuffer ----------------------------------------------------------------

class CountingSink final : public TraceSink {
 public:
  void DeliverShipment(const ShipmentHeader&, std::vector<TraceRecord> records) override {
    delivered += records.size();
    ++deliveries;
  }
  void DeliverName(NameRecord) override { ++names; }
  size_t delivered = 0;
  size_t deliveries = 0;
  size_t names = 0;
};

TEST(TraceBuffer, RotatesAtCapacityAndDeliversAsync) {
  Engine engine;
  CountingSink sink;
  TraceBuffer buffer(engine, sink);
  TraceRecord r;
  for (size_t i = 0; i < TraceBuffer::kRecordsPerBuffer + 10; ++i) {
    buffer.Append(r);
  }
  EXPECT_EQ(sink.delivered, 0u);  // In flight, not yet delivered.
  engine.RunAll();
  EXPECT_EQ(sink.delivered, TraceBuffer::kRecordsPerBuffer);
  buffer.FlushAll();
  engine.RunAll();
  EXPECT_EQ(sink.delivered, TraceBuffer::kRecordsPerBuffer + 10);
  EXPECT_EQ(buffer.records_dropped(), 0u);
}

TEST(TraceBuffer, OverflowDropsWhenAllBuffersInFlight) {
  Engine engine;
  CountingSink sink;
  // Extremely slow shipping: buffers never free up between appends.
  TraceBuffer buffer(engine, sink, SimDuration::Seconds(10));
  TraceRecord r;
  const size_t total = TraceBuffer::kRecordsPerBuffer * 4;
  for (size_t i = 0; i < total; ++i) {
    buffer.Append(r);
  }
  EXPECT_GT(buffer.records_dropped(), 0u);
  EXPECT_EQ(buffer.records_written() + buffer.records_dropped(), total);
}

TEST(TraceBuffer, NameRecordsBypassBuffering) {
  Engine engine;
  CountingSink sink;
  TraceBuffer buffer(engine, sink);
  buffer.AppendName(NameRecord{1, 1, "C:\\x"});
  EXPECT_EQ(sink.names, 1u);
}

// --- Resilient shipment link -------------------------------------------------------

TEST(TraceBufferFaults, RetriesWithBackoffUntilOutageEnds) {
  Engine engine;
  CountingSink sink;
  FaultInjector injector(11);
  FaultPlan plan;
  plan.outages.emplace_back(SimTime(), SimTime() + SimDuration::Millis(500));
  injector.SetPlan(FaultSite::kShipment, plan);
  TraceBuffer buffer(engine, sink, SimDuration::Micros(2), /*system_id=*/1, ShipmentPolicy{},
                     &injector);
  TraceRecord r;
  for (int i = 0; i < 100; ++i) {
    buffer.Append(r);
  }
  buffer.FlushAll();
  engine.RunAll();
  // The outage ends well inside the default backoff schedule: everything
  // arrives eventually, nothing is lost or left in flight.
  EXPECT_EQ(sink.delivered, 100u);
  EXPECT_GT(buffer.shipment_failures(), 0u);
  EXPECT_GT(buffer.shipment_attempts(), 1u);
  EXPECT_EQ(buffer.records_lost(), 0u);
  EXPECT_EQ(buffer.records_unresolved(), 0u);
  EXPECT_EQ(buffer.retry_backlog(), 0u);
}

TEST(TraceBufferFaults, AbandonsAfterMaxAttemptsAndCountsLoss) {
  // A non-positive max_attempts abandons after the first attempt.
  for (const int max_attempts : {3, 0, -1}) {
    Engine engine;
    CountingSink sink;
    FaultInjector injector(11);
    FaultPlan plan;
    plan.outages.emplace_back(SimTime(), SimTime() + SimDuration::Days(365));
    injector.SetPlan(FaultSite::kShipment, plan);
    ShipmentPolicy policy;
    policy.max_attempts = max_attempts;
    TraceBuffer buffer(engine, sink, SimDuration::Micros(2), 1, policy, &injector);
    TraceRecord r;
    for (int i = 0; i < 42; ++i) {
      buffer.Append(r);
    }
    buffer.FlushAll();
    engine.RunAll();
    SCOPED_TRACE(max_attempts);
    EXPECT_EQ(sink.delivered, 0u);
    const uint64_t attempts = max_attempts > 0 ? static_cast<uint64_t>(max_attempts) : 1;
    EXPECT_EQ(buffer.shipment_attempts(), attempts);
    EXPECT_EQ(buffer.shipments_abandoned(), 1u);
    EXPECT_EQ(buffer.records_lost(), 42u);
    EXPECT_EQ(buffer.records_unresolved(), 0u);
    ASSERT_EQ(buffer.abandoned_shipments().size(), 1u);
    EXPECT_EQ(buffer.abandoned_shipments()[0], (std::pair<uint64_t, uint64_t>{1, 42}));
  }
}

TEST(TraceBufferFaults, ShedsIncomingRecordsWhileBacklogged) {
  Engine engine;
  CountingSink sink;
  FaultInjector injector(11);
  FaultPlan plan;
  plan.outages.emplace_back(SimTime(), SimTime() + SimDuration::Days(365));
  injector.SetPlan(FaultSite::kShipment, plan);
  ShipmentPolicy policy;
  policy.max_attempts = 1000;  // Keep the shipment parked in the retry queue.
  policy.shed_watermark = 1;
  policy.shed_keep_probability = 0.0;  // Shed everything while backlogged.
  TraceBuffer buffer(engine, sink, SimDuration::Micros(2), 1, policy, &injector);
  TraceRecord r;
  buffer.Append(r);
  buffer.FlushAll();
  engine.RunUntil(SimTime() + SimDuration::Millis(1));  // First attempt fails.
  EXPECT_EQ(buffer.retry_backlog(), 1u);
  for (int i = 0; i < 10; ++i) {
    buffer.Append(r);
  }
  EXPECT_EQ(buffer.records_shed(), 10u);
  EXPECT_EQ(buffer.records_emitted(), 11u);
  EXPECT_EQ(buffer.records_written(), 1u);
}

TEST(CollectionServerIntegrity, DetectsGapsDuplicatesAndReordering) {
  CollectionServer server;
  const std::vector<TraceRecord> two(2);
  const std::vector<TraceRecord> one(1);
  server.DeliverShipment(ShipmentHeader{3, 1, 1, 2}, two);
  server.DeliverShipment(ShipmentHeader{3, 3, 1, 1}, one);
  // A retry of sequence 1 whose acknowledgement was lost: duplicate.
  server.DeliverShipment(ShipmentHeader{3, 1, 2, 2}, two);
  const CollectionServer::StreamState* stream = server.StreamOf(3);
  ASSERT_NE(stream, nullptr);
  EXPECT_EQ(stream->shipments_received, 3u);
  EXPECT_EQ(stream->duplicate_shipments, 1u);
  EXPECT_EQ(stream->duplicate_records_discarded, 2u);
  EXPECT_EQ(stream->records_collected, 3u);
  EXPECT_EQ(stream->MissingSequences(), 1u);  // Sequence 2 never arrived.
  // The hole fills in late (a retried shipment overtaken by successors).
  server.DeliverShipment(ShipmentHeader{3, 2, 4, 1}, one);
  EXPECT_EQ(stream->out_of_order_shipments, 1u);
  EXPECT_EQ(stream->MissingSequences(), 0u);

  SystemIntegrity row;
  row.system_id = 3;
  row.records_emitted = 4;
  server.FillIntegrity(&row);
  EXPECT_EQ(row.records_collected, 4u);
  EXPECT_EQ(row.sequence_gaps, 0u);
  EXPECT_TRUE(row.Accounted());
}

// --- Filter capture ---------------------------------------------------------------

TEST(TraceFilter, QueryViaFastIoIsRecorded) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\q.txt");
  sys.io->WriteNext(*fo, 100);  // Initializes caching -> FastIO query works.
  FileBasicInfo info;
  sys.io->QueryBasicInfo(*fo, &info);
  sys.io->CloseHandle(*fo);
  TraceSet& set = sys.FinishTrace();
  bool fastio_query = false;
  for (const TraceRecord& r : set.records) {
    if (r.Event() == TraceEvent::kFastIoQueryBasicInfo) {
      fastio_query = true;
    }
  }
  EXPECT_TRUE(fastio_query);
}

TEST(TraceFilter, FastIoFallbackRecorded) {
  TestSystem sys;
  FileObject* w = sys.OpenRw("C:\\fb.bin");
  sys.io->Write(*w, 0, 128 * 1024);
  sys.io->CloseHandle(*w);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(10));
  sys.cache->PurgeNode(sys.fs->volume().Lookup("fb.bin"));
  FileObject* r = sys.OpenRw("C:\\fb.bin");
  sys.io->Read(*r, 0, 4096);         // IRP (first).
  sys.io->Read(*r, 100 * 1024, 4096);  // FastIO attempted, falls back.
  sys.io->CloseHandle(*r);
  TraceSet& set = sys.FinishTrace();
  int fallbacks = 0;
  for (const TraceRecord& rec : set.records) {
    if (rec.Event() == TraceEvent::kFastIoReadNotPossible) {
      ++fallbacks;
    }
  }
  EXPECT_GE(fallbacks, 1);
}

TEST(TraceFilter, TimestampsAreMonotonePerRecord) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\t.bin");
  sys.io->WriteNext(*fo, 65536);
  sys.io->ReadNext(*fo, 4096);
  sys.io->CloseHandle(*fo);
  TraceSet& set = sys.FinishTrace();
  ASSERT_GT(set.records.size(), 3u);
  for (const TraceRecord& r : set.records) {
    EXPECT_LE(r.start_ticks, r.complete_ticks);
  }
}

TEST(TraceFilter, FileSizeFieldTracksGrowth) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\grow.bin");
  sys.io->WriteNext(*fo, 4096);
  sys.io->WriteNext(*fo, 4096);
  const uint64_t id = fo->id();
  sys.io->CloseHandle(*fo);
  TraceSet& set = sys.FinishTrace();
  uint64_t last_size = 0;
  for (const TraceRecord& r : set.records) {
    if (r.file_object == id && IsWriteEvent(r.Event()) && !r.IsPagingIo()) {
      EXPECT_GE(r.file_size, last_size);
      last_size = r.file_size;
    }
  }
  EXPECT_EQ(last_size, 8192u);
}

// --- Snapshots ----------------------------------------------------------------------

TEST(SnapshotWalkerTest, PreOrderRecoverableTree) {
  Volume volume("C:", 1 << 30);
  volume.CreatePath("a\\x.txt", false, kAttrNormal, SimTime());
  volume.CreatePath("a\\y.txt", false, kAttrNormal, SimTime());
  volume.CreatePath("b\\c\\z.txt", false, kAttrNormal, SimTime());
  const Snapshot snap = SnapshotWalker::Walk(volume, 1, SimTime());
  EXPECT_EQ(snap.FileCount(), 3u);
  EXPECT_EQ(snap.DirectoryCount(), 4u);  // Root, a, b, c.
  // Directory records carry entry counts.
  for (const SnapshotRecord& r : snap.records) {
    if (r.directory && r.name == "a") {
      EXPECT_EQ(r.file_entries, 2u);
      EXPECT_EQ(r.subdirectories, 0u);
    }
    if (r.directory && r.name.empty()) {  // Root.
      EXPECT_EQ(r.subdirectories, 2u);
    }
  }
}

TEST(SnapshotWalkerTest, FatVolumesDropCreationAndAccessTimes) {
  Volume fat("C:", 1 << 30, /*maintain_access_times=*/false);
  FileNode* node = fat.CreatePath("f.txt", false, kAttrNormal,
                                  SimTime() + SimDuration::Seconds(100));
  (void)node;
  const Snapshot snap = SnapshotWalker::Walk(fat, 1, SimTime());
  for (const SnapshotRecord& r : snap.records) {
    EXPECT_EQ(r.creation_time.ticks(), 0);
    EXPECT_EQ(r.last_access_time.ticks(), 0);
  }
}

// --- Serialization -------------------------------------------------------------------

TEST(TraceSetIo, SaveLoadRoundTrip) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\persist.bin");
  sys.io->WriteNext(*fo, 10000);
  sys.io->ReadNext(*fo, 512);
  sys.io->CloseHandle(*fo);
  TraceSet& set = sys.FinishTrace();

  const std::string path = ScratchPath("ntrace_roundtrip_test.ntx");
  ASSERT_TRUE(set.SaveTo(path));
  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(path);
  EXPECT_TRUE(store.read_stats().sealed);
  EXPECT_EQ(store.read_stats().config_fingerprint, 0u);
  const TraceSet loaded = store.ToRows();
  ASSERT_EQ(loaded.records.size(), set.records.size());
  for (size_t i = 0; i < set.records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].event, set.records[i].event);
    EXPECT_EQ(loaded.records[i].complete_ticks, set.records[i].complete_ticks);
    EXPECT_EQ(loaded.records[i].file_object, set.records[i].file_object);
  }
  EXPECT_EQ(loaded.names.size(), set.names.size());
  EXPECT_EQ(loaded.process_names.size(), set.process_names.size());
  std::remove(path.c_str());
}

TEST(TraceSetIo, SystemFiltering) {
  TraceSet set;
  TraceRecord r;
  r.system_id = 1;
  set.records.push_back(r);
  r.system_id = 2;
  set.records.push_back(r);
  set.records.push_back(r);
  set.names.push_back(NameRecord{1, 1, "C:\\a"});
  set.names.push_back(NameRecord{2, 2, "C:\\b"});
  const TraceSet only2 = set.ForSystem(2);
  EXPECT_EQ(only2.records.size(), 2u);
  EXPECT_EQ(only2.names.size(), 1u);
  EXPECT_EQ(set.SystemIds(), (std::vector<uint32_t>{1, 2}));
}

TraceRecord RecordAt(int64_t ticks, uint32_t system_id) {
  TraceRecord r;
  r.complete_ticks = ticks;
  r.system_id = system_id;
  return r;
}

TEST(TraceSetMerge, ZeroRunsClearsRecords) {
  TraceSet set;
  set.records.push_back(RecordAt(7, 1));
  set.MergeSortedRuns({});
  EXPECT_TRUE(set.records.empty());
}

TEST(TraceSetMerge, SingleEmptyRunClearsRecords) {
  TraceSet set;
  set.records.push_back(RecordAt(7, 1));
  set.MergeSortedRuns({{}});
  EXPECT_TRUE(set.records.empty());
}

TEST(TraceSetMerge, AllRunsEmptyYieldsEmpty) {
  TraceSet set;
  set.records.push_back(RecordAt(7, 1));
  std::vector<std::vector<TraceRecord>> runs(3);
  set.MergeSortedRuns(std::move(runs));
  EXPECT_TRUE(set.records.empty());
}

TEST(TraceSetMerge, EmptyRunsAmongNonEmptyAreSkipped) {
  // A faulted fleet can lose every shipment of a system, producing an empty
  // shard between populated ones; the merge must behave as if the empty
  // runs were absent.
  std::vector<std::vector<TraceRecord>> runs;
  runs.push_back({RecordAt(10, 1), RecordAt(30, 1)});
  runs.push_back({});
  runs.push_back({RecordAt(20, 3), RecordAt(30, 3)});
  runs.push_back({});
  TraceSet set;
  set.MergeSortedRuns(std::move(runs));
  ASSERT_EQ(set.records.size(), 4u);
  EXPECT_EQ(set.records[0].complete_ticks, 10);
  EXPECT_EQ(set.records[1].complete_ticks, 20);
  EXPECT_EQ(set.records[2].complete_ticks, 30);
  EXPECT_EQ(set.records[2].system_id, 1u);  // Tie resolves to the earlier run.
  EXPECT_EQ(set.records[3].complete_ticks, 30);
  EXPECT_EQ(set.records[3].system_id, 3u);
}

TEST(TraceSetMerge, MatchesStableSortOfConcatenation) {
  std::vector<std::vector<TraceRecord>> runs;
  runs.push_back({RecordAt(5, 1), RecordAt(5, 1), RecordAt(9, 1)});
  runs.push_back({RecordAt(1, 2), RecordAt(5, 2)});
  runs.push_back({RecordAt(5, 3)});

  TraceSet concat;
  for (const auto& run : runs) {
    concat.records.insert(concat.records.end(), run.begin(), run.end());
  }
  concat.SortByTime();

  TraceSet merged;
  merged.MergeSortedRuns(std::move(runs));
  ASSERT_EQ(merged.records.size(), concat.records.size());
  for (size_t i = 0; i < merged.records.size(); ++i) {
    EXPECT_EQ(merged.records[i].complete_ticks, concat.records[i].complete_ticks);
    EXPECT_EQ(merged.records[i].system_id, concat.records[i].system_id);
  }
}

}  // namespace
}  // namespace ntrace
