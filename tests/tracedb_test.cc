// Unit tests: src/tracedb -- dimension hierarchies, the instance fact
// table, and the rollup helpers.

#include <gtest/gtest.h>

#include "src/tracedb/dimensions.h"
#include "src/tracedb/instance_table.h"
#include "src/tracedb/rollup.h"
#include "src/tracedb/system_index.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

// --- Dimensions -----------------------------------------------------------------

TEST(FileTypeDim, PaperExampleMbxIsMailIsApplication) {
  // "A mailbox file with a .mbx type is part of the mail files category,
  // which is part of the application files category" (section 4).
  const FileTypeKey key = FileTypeDimension::Categorize("C:\\profile\\inbox.mbx");
  EXPECT_EQ(key.extension, ".mbx");
  EXPECT_EQ(key.category, FileCategory::kMail);
  EXPECT_EQ(key.file_class, FileClass::kApplicationFiles);
}

TEST(FileTypeDim, CommonExtensions) {
  EXPECT_EQ(FileTypeDimension::Categorize("x.DLL").category, FileCategory::kExecutable);
  EXPECT_EQ(FileTypeDimension::Categorize("x.ttf").category, FileCategory::kFont);
  EXPECT_EQ(FileTypeDimension::Categorize("x.cpp").category, FileCategory::kDevelopment);
  EXPECT_EQ(FileTypeDimension::Categorize("x.gif").category, FileCategory::kWeb);
  EXPECT_EQ(FileTypeDimension::Categorize("x.unknown_ext").category, FileCategory::kOther);
  EXPECT_EQ(FileTypeDimension::Categorize("noext").category, FileCategory::kOther);
}

TEST(FileTypeDim, ClassRollup) {
  EXPECT_EQ(FileTypeDimension::ClassOfCategory(FileCategory::kExecutable),
            FileClass::kSystemFiles);
  EXPECT_EQ(FileTypeDimension::ClassOfCategory(FileCategory::kDevelopment),
            FileClass::kDevelopmentFiles);
  EXPECT_EQ(FileTypeDimension::ClassOfCategory(FileCategory::kWeb),
            FileClass::kApplicationFiles);
  EXPECT_EQ(FileTypeDimension::ClassOfCategory(FileCategory::kTemporary),
            FileClass::kOtherFiles);
}

TEST(OperationDim, Groups) {
  TraceRecord r;
  r.event = static_cast<uint16_t>(TraceEvent::kIrpRead);
  EXPECT_EQ(OperationDimension::GroupOf(r), OperationGroup::kDataTransfer);
  r.irp_flags = kIrpPagingIo;
  EXPECT_EQ(OperationDimension::GroupOf(r), OperationGroup::kPaging);
  r.irp_flags = 0;
  r.event = static_cast<uint16_t>(TraceEvent::kIrpDirectoryControl);
  EXPECT_EQ(OperationDimension::GroupOf(r), OperationGroup::kDirectory);
  r.event = static_cast<uint16_t>(TraceEvent::kIrpCreate);
  EXPECT_EQ(OperationDimension::GroupOf(r), OperationGroup::kLifecycle);
  r.event = static_cast<uint16_t>(TraceEvent::kIrpSetInformation);
  EXPECT_EQ(OperationDimension::GroupOf(r), OperationGroup::kControl);
}

TEST(TimeDim, Buckets) {
  const SimTime t = SimTime() + SimDuration::Days(2) + SimDuration::Hours(13) +
                    SimDuration::Minutes(25) + SimDuration::Seconds(7);
  const TimeKey key = TimeDimension::Bucketize(t);
  EXPECT_EQ(key.day, 2);
  EXPECT_EQ(key.hour, 13);
  const int64_t seconds = 2 * 86400 + 13 * 3600 + 25 * 60 + 7;
  EXPECT_EQ(key.second, seconds);
  EXPECT_EQ(key.second10, seconds / 10);
  EXPECT_EQ(key.minute10, seconds / 600);
}

TEST(ProcessDim, Classification) {
  EXPECT_EQ(ProcessDimension::Classify("explorer.exe"), ProcessClass::kInteractive);
  EXPECT_EQ(ProcessDimension::Classify("winlogon.exe"), ProcessClass::kService);
  EXPECT_EQ(ProcessDimension::Classify("cl.exe"), ProcessClass::kDevelopment);
  EXPECT_EQ(ProcessDimension::Classify("system"), ProcessClass::kSystem);
  EXPECT_EQ(ProcessDimension::Classify("randomthing.exe"), ProcessClass::kOther);
}

// --- InstanceTable -----------------------------------------------------------------

TEST(InstanceTableBuild, AggregatesOneSession) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\agg.bin");
  const uint64_t id = fo->id();
  sys.io->WriteNext(*fo, 4096);   // IRP write.
  sys.io->WriteNext(*fo, 4096);   // FastIO write.
  sys.io->Read(*fo, 0, 1000);     // FastIO read.
  FileBasicInfo info;
  sys.io->QueryBasicInfo(*fo, &info);  // Control.
  sys.io->CloseHandle(*fo);
  TraceSet& set = sys.FinishTrace();
  const InstanceTable table = InstanceTable::Build(set);

  const Instance* row = nullptr;
  for (const Instance& r : table.rows()) {
    if (r.file_object == id) {
      row = &r;
    }
  }
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->irp_writes, 1u);
  EXPECT_EQ(row->fastio_writes, 1u);
  EXPECT_EQ(row->fastio_reads, 1u);
  EXPECT_EQ(row->bytes_written, 8192u);
  EXPECT_EQ(row->bytes_read, 1000u);
  EXPECT_GE(row->control_ops, 1u);
  EXPECT_TRUE(row->ReadWrite());
  EXPECT_TRUE(row->HasData());
  EXPECT_FALSE(row->ControlOnly());
  EXPECT_EQ(row->path, "C:\\agg.bin");
  EXPECT_EQ(row->ops.size(), 3u);
  EXPECT_GT(row->cleanup_time, 0);
  EXPECT_GT(row->close_time, 0);
  EXPECT_GE(row->lazywrite_irps, 1u);
  EXPECT_TRUE(row->seteof_at_close);
}

TEST(InstanceTableBuild, FailedOpenRow) {
  TestSystem sys;
  CreateRequest req;
  req.path = "C:\\missing.txt";
  req.disposition = CreateDisposition::kOpen;
  req.process_id = sys.pid;
  sys.io->Create(req);
  TraceSet& set = sys.FinishTrace();
  const InstanceTable table = InstanceTable::Build(set);
  ASSERT_EQ(table.rows().size(), 1u);
  EXPECT_TRUE(table.rows()[0].open_failed);
  EXPECT_EQ(table.rows()[0].open_status, NtStatus::kObjectNameNotFound);
  EXPECT_TRUE(table.SuccessfulOpens().empty());
}

TEST(InstanceTableBuild, ControlOnlySession) {
  TestSystem sys;
  FileObject* w = sys.OpenRw("C:\\ctl.txt");
  sys.io->CloseHandle(*w);
  CreateRequest req;
  req.path = "C:\\ctl.txt";
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessReadAttributes;
  req.process_id = sys.pid;
  FileObject* probe = sys.io->Create(req).file;
  FileBasicInfo info;
  sys.io->QueryBasicInfo(*probe, &info);
  sys.io->CloseHandle(*probe);
  TraceSet& set = sys.FinishTrace();
  const InstanceTable table = InstanceTable::Build(set);
  int control_only = 0;
  for (const Instance& r : table.rows()) {
    if (r.ControlOnly()) {
      ++control_only;
    }
  }
  EXPECT_EQ(control_only, 2);  // Both sessions moved no data.
  EXPECT_TRUE(table.DataSessions().empty());
}

TEST(InstanceTableBuild, DeleteDispositionFlagged) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\doom.txt");
  sys.io->SetDispositionDelete(*fo, true);
  const uint64_t id = fo->id();
  sys.io->CloseHandle(*fo);
  TraceSet& set = sys.FinishTrace();
  const InstanceTable table = InstanceTable::Build(set);
  for (const Instance& r : table.rows()) {
    if (r.file_object == id) {
      EXPECT_TRUE(r.set_delete_disposition);
    }
  }
}

// Two systems whose records interleave in time: system 2 opens A and C,
// system 1 opens B and D, and each reads what it opened.
TraceSet InterleavedTwoSystemTrace() {
  TraceSet trace;
  int64_t t = 0;
  const auto add = [&](uint32_t system, TraceEvent event, uint64_t fo, uint32_t bytes) {
    TraceRecord r;
    r.event = static_cast<uint16_t>(event);
    r.system_id = system;
    r.file_object = fo;
    r.returned = bytes;
    r.start_ticks = ++t;
    r.complete_ticks = ++t;
    trace.records.push_back(r);
    if (event == TraceEvent::kIrpCreate) {
      trace.names.push_back(NameRecord{fo, system, "C:\\f" + std::to_string(fo)});
    }
  };
  add(2, TraceEvent::kIrpCreate, 0xA, 0);
  add(1, TraceEvent::kIrpCreate, 0xB, 0);
  add(2, TraceEvent::kIrpRead, 0xA, 10);
  add(2, TraceEvent::kIrpCreate, 0xC, 0);
  add(1, TraceEvent::kIrpRead, 0xB, 20);
  add(1, TraceEvent::kIrpCreate, 0xD, 0);
  add(2, TraceEvent::kIrpRead, 0xC, 30);
  add(1, TraceEvent::kIrpRead, 0xD, 40);
  return trace;
}

TEST(SystemIndexBuild, ListsEachSystemsRecordsInTraceOrder) {
  const TraceSet trace = InterleavedTwoSystemTrace();
  const SystemIndex index = SystemIndex::Build(trace);
  ASSERT_EQ(index.systems(), 2);
  EXPECT_EQ(index.id(0), 1u);
  EXPECT_EQ(index.id(1), 2u);
  const std::vector<uint32_t> system1(index.records(0).begin(), index.records(0).end());
  const std::vector<uint32_t> system2(index.records(1).begin(), index.records(1).end());
  EXPECT_EQ(system1, (std::vector<uint32_t>{1, 4, 5, 7}));
  EXPECT_EQ(system2, (std::vector<uint32_t>{0, 2, 3, 6}));
  EXPECT_EQ(index.creates(0), 2u);
  EXPECT_EQ(index.creates(1), 2u);
  EXPECT_EQ(index.last_complete_ticks(), trace.records.back().complete_ticks);
}

// The row-order contract: the time-ordered rows (A, B, C, D) stably
// partitioned by system -- system 1's B and D, then system 2's A and C --
// at every worker count.
TEST(InstanceTableBuild, RowsAreSystemMajorInCreateOrder) {
  const TraceSet trace = InterleavedTwoSystemTrace();
  const SystemIndex index = SystemIndex::Build(trace);
  for (const int workers : {1, 2}) {
    const InstanceTable table = InstanceTable::Build(trace, index, workers);
    std::vector<uint64_t> objects;
    std::vector<uint64_t> bytes;
    for (const Instance& row : table.rows()) {
      objects.push_back(row.file_object);
      bytes.push_back(row.bytes_read);
    }
    EXPECT_EQ(objects, (std::vector<uint64_t>{0xB, 0xD, 0xA, 0xC}));
    EXPECT_EQ(bytes, (std::vector<uint64_t>{20, 40, 10, 30}));
    ASSERT_EQ(table.systems(), 2);
    EXPECT_EQ(table.system_id(0), 1u);
    EXPECT_EQ(table.system_rows(0).size(), 2u);
    EXPECT_EQ(table.system_rows(1)[0].path, "C:\\f10");
  }
}

TEST(InstanceTableFromRows, PartitionsStablyBySystem) {
  std::vector<Instance> rows(4);
  const uint32_t systems[] = {5, 3, 5, 3};
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].system_id = systems[i];
    rows[i].file_object = i;
  }
  const InstanceTable table = InstanceTable::FromRows(std::move(rows));
  ASSERT_EQ(table.systems(), 2);
  EXPECT_EQ(table.system_id(0), 3u);
  EXPECT_EQ(table.system_rows(0)[0].file_object, 1u);
  EXPECT_EQ(table.system_rows(0)[1].file_object, 3u);
  EXPECT_EQ(table.system_rows(1)[0].file_object, 0u);
  EXPECT_EQ(table.system_rows(1)[1].file_object, 2u);
}

// --- Rollups -------------------------------------------------------------------------

TEST(Rollup, GroupStatsAndCounts) {
  struct Fact {
    int key;
    double value;
  };
  const std::vector<Fact> facts = {{1, 10.0}, {1, 20.0}, {2, 5.0}};
  const auto stats = GroupStats(facts, [](const Fact& f) { return f.key; },
                                [](const Fact& f) { return f.value; });
  EXPECT_EQ(stats.at(1).count(), 2);
  EXPECT_DOUBLE_EQ(stats.at(1).mean(), 15.0);
  EXPECT_DOUBLE_EQ(stats.at(2).sum(), 5.0);
  const auto counts = GroupCounts(facts, [](const Fact& f) { return f.key; });
  EXPECT_EQ(counts.at(1), 2u);
  EXPECT_EQ(counts.at(2), 1u);
}

TEST(Rollup, PivotTwoAxes) {
  struct Fact {
    int row;
    char col;
    double v;
  };
  const std::vector<Fact> facts = {{1, 'a', 1.0}, {1, 'b', 2.0}, {1, 'a', 3.0}};
  const auto pivot = Pivot(facts, [](const Fact& f) { return f.row; },
                           [](const Fact& f) { return f.col; },
                           [](const Fact& f) { return f.v; });
  EXPECT_DOUBLE_EQ(pivot.at({1, 'a'}).sum(), 4.0);
  EXPECT_DOUBLE_EQ(pivot.at({1, 'b'}).sum(), 2.0);
}

}  // namespace
}  // namespace ntrace
