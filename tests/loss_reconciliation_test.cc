// Loss-accounting reconciliation (DESIGN.md §16): every layer that counts
// lost records over the same damaged input must produce the same figure.
// The extent reader's salvage stats, ColumnarTraceSet::FromFile, the batch
// scan kernels and the replayer's salvage info all meter the same loss;
// Study reconciles the storage figure against the collection pipeline's
// integrity report. A figure that disagrees between layers would silently
// misstate every "share of records" number the report prints.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/report.h"
#include "src/analysis/trace_scan.h"
#include "src/replay/trace_replayer.h"
#include "src/study/study.h"
#include "src/trace/extent_store.h"
#include "src/trace/spool.h"
#include "src/workload/fleet.h"
#include "tests/test_util.h"

namespace ntrace {
namespace {

TraceRecord MakeRecord(uint32_t system_id, uint64_t i) {
  TraceRecord r;
  r.file_object = 0x1000 + (i % 7);
  r.start_ticks = static_cast<int64_t>(100 * i);
  r.complete_ticks = static_cast<int64_t>(100 * i + 7 + (i % 3));
  r.offset = 512 * i;
  r.file_size = (1u << 20) + i;
  r.length = 4096 + static_cast<uint32_t>(i % 5) * 512;
  r.returned = r.length;
  r.process_id = 40 + static_cast<uint32_t>(i % 4);
  r.event = static_cast<uint16_t>(i % 2 == 0 ? TraceEvent::kIrpRead : TraceEvent::kIrpWrite);
  r.status = static_cast<uint16_t>(NtStatus::kSuccess);
  r.system_id = system_id;
  return r;
}

// Offset of the end of the first extent frame (the damage target sits just
// past it, inside the second extent's payload).
size_t FirstFrameEnd(const std::vector<uint8_t>& bytes) {
  SpoolFrameView view;
  size_t consumed = 0;
  const SpoolFrameStatus status =
      SpoolParseFrame(bytes.data() + kExtentStoreHeaderSize,
                      bytes.size() - kExtentStoreHeaderSize, &view, &consumed);
  EXPECT_EQ(status, SpoolFrameStatus::kOk);
  EXPECT_EQ(static_cast<ExtentFrameType>(view.type), ExtentFrameType::kExtent);
  return kExtentStoreHeaderSize + consumed;
}

// One payload byte of the second extent flips under an intact frame header:
// the reader keeps the first extent, knows exactly how many records the
// damaged extent held, and every consumer downstream must report that same
// loss figure.
TEST(LossReconciliation, DamagedStoreLossAgreesAcrossLayers) {
  const std::string path = ScratchPath("loss_reconcile.ntx");
  std::vector<TraceRecord> records;
  for (uint64_t i = 0; i < 3000; ++i) {
    records.push_back(MakeRecord(7, i));
  }
  {
    ExtentStoreWriter writer;
    ASSERT_TRUE(writer.Open(path, 256, 0xFEED));
    ASSERT_TRUE(writer.AppendRecords(records.data(), records.size()));
    NameRecord name;
    name.file_object = 0x1000;
    name.system_id = 7;
    name.path = "C:\\users\\data.dat";
    writer.AddName(name);
    ASSERT_TRUE(writer.Seal());
  }
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[FirstFrameEnd(bytes) + kSpoolFrameHeaderSize + 48] ^= 0x01;
  WriteFileBytes(path, bytes);

  // Layer 1: the extent stream reader.
  ExtentStreamReader reader;
  ASSERT_TRUE(reader.Open(path));
  uint64_t streamed = 0;
  ColumnarExtent extent;
  while (reader.NextExtent(&extent)) {
    streamed += extent.size();
  }
  const ExtentReadStats reader_stats = reader.stats();
  ASSERT_EQ(reader_stats.frames_damaged, 1u);
  ASSERT_GT(reader_stats.records_lost_known, 0u);
  EXPECT_EQ(streamed, reader_stats.records_recovered);
  EXPECT_EQ(reader_stats.records_recovered, 256u);   // First extent survives.
  EXPECT_EQ(reader_stats.records_lost_known, 256u);  // Second extent metered.

  // Layer 2: the columnar store facade.
  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(path);
  EXPECT_EQ(store.record_count(), reader_stats.records_recovered);
  EXPECT_EQ(store.read_stats().records_lost_known, reader_stats.records_lost_known);

  // Layer 3: the batch scan kernels.
  const TraceScan scan = TraceScan::Run(store);
  EXPECT_EQ(scan.records_scanned, reader_stats.records_recovered);
  EXPECT_EQ(scan.records_lost_known, reader_stats.records_lost_known);
  const double want_coverage =
      static_cast<double>(scan.records_scanned) /
      static_cast<double>(scan.records_scanned + scan.records_lost_known);
  EXPECT_DOUBLE_EQ(scan.KnownCoverage(), want_coverage);

  // Layer 4: the replayer's salvage accounting.
  const ReplaySalvageInfo salvage = SalvageInfoFromStats(store.read_stats());
  EXPECT_EQ(salvage.records_lost_known, reader_stats.records_lost_known);
  EXPECT_TRUE(salvage.names_lost);  // Scan stopped before the name table.

  // The report layer turns the same figure into a confidence annotation.
  const std::string note = CoverageNote(scan);
  EXPECT_FALSE(note.empty());
  EXPECT_NE(note.find("lost"), std::string::npos) << note;

  std::remove(path.c_str());
}

// A clean store reconciles to zero everywhere and prints no annotation.
TEST(LossReconciliation, CleanStoreHasFullCoverageAndNoNote) {
  const std::string path = ScratchPath("loss_reconcile_clean.ntx");
  std::vector<TraceRecord> records;
  for (uint64_t i = 0; i < 1000; ++i) {
    records.push_back(MakeRecord(3, i));
  }
  {
    ExtentStoreWriter writer;
    ASSERT_TRUE(writer.Open(path, 256, 0xFEED));
    ASSERT_TRUE(writer.AppendRecords(records.data(), records.size()));
    ASSERT_TRUE(writer.Seal());
  }
  const ColumnarTraceSet store = ColumnarTraceSet::FromFile(path);
  const TraceScan scan = TraceScan::Run(store);
  EXPECT_EQ(scan.records_scanned, records.size());
  EXPECT_EQ(scan.records_lost_known, 0u);
  EXPECT_DOUBLE_EQ(scan.KnownCoverage(), 1.0);
  EXPECT_TRUE(CoverageNote(scan).empty());
  EXPECT_FALSE(SalvageInfoFromStats(store.read_stats()).lossy());
  std::remove(path.c_str());
}

// Study-level reconciliation: a fleet that loses records in the collection
// pipeline (a crashing victim restored from its spool prefix) must surface
// the integrity report's loss total in the shared scan -- the same figure
// the spool salvage metered -- so report annotations and replay salvage
// info agree with the pipeline accounting.
TEST(LossReconciliation, LossyFleetStudyScanCarriesPipelineLoss) {
  StudyConfig config;
  config.fleet.walk_up = 1;
  config.fleet.pool = 1;
  config.fleet.personal = 1;
  config.fleet.administrative = 1;
  config.fleet.scientific = 1;
  config.fleet.days = 1;
  config.fleet.seed = 7;
  config.fleet.activity_scale = 0.3;
  config.fleet.content_scale = 0.05;
  config.fleet.durability.spool_dir = ScratchPath("loss_reconcile_spool");
  config.fleet.durability.salvage = true;
  config.fleet.durability.max_restarts = 1;
  config.fleet.fault_config.crash.kind = CrashKind::kTornWrite;
  config.fleet.fault_config.crash.system_id = 2;
  config.fleet.fault_config.crash.at_event = 400;
  config.fleet.fault_config.crash.at_attempt = 0;  // Down for good: prefix only.

  Study study(config);
  study.Run();
  ASSERT_TRUE(study.integrity().AllAccounted());

  const SystemIntegrity t = study.integrity().Totals();
  const uint64_t pipeline_lost = t.records_overflow_dropped + t.records_shed +
                                 t.records_lost + t.records_unresolved +
                                 t.records_lost_to_corruption;
  ASSERT_GT(pipeline_lost, 0u);

  const TraceScan& scan = study.Scan();
  EXPECT_EQ(scan.records_lost_known, pipeline_lost);
  EXPECT_EQ(scan.records_scanned + scan.records_lost_known, t.records_emitted);

  // The replayer derives the identical figure from the same report.
  const ReplaySalvageInfo salvage = SalvageInfoFromIntegrity(study.integrity());
  EXPECT_EQ(salvage.records_lost_known, pipeline_lost);
  EXPECT_TRUE(salvage.lossy());
  EXPECT_FALSE(CoverageNote(scan).empty());
}

}  // namespace
}  // namespace ntrace
