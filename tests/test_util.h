// Shared fixture pieces for tests: a per-process scratch path, whole-file
// byte helpers, and a single simulated system with one local volume, cache
// manager, VM manager and trace filter, wired exactly like the study fleet
// wires its machines.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/fs_driver.h"
#include "src/mm/cache_manager.h"
#include "src/mm/vm_manager.h"
#include "src/ntio/io_manager.h"
#include "src/sim/engine.h"
#include "src/trace/collection_server.h"
#include "src/trace/extent_store.h"
#include "src/trace/trace_agent.h"

namespace ntrace {

// A file or directory path under testing::TempDir() that no other test
// process uses. gtest_discover_tests runs every TEST in its own process and
// `ctest -j` runs those side by side (the same TEST twice, for reruns such
// as scan_parity_test_no_simd), so a fixed scratch name races.
inline std::string ScratchPath(const std::string& name) {
  return testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

// The whole contents of `path` (empty, with a test failure, if it cannot be
// opened).
inline std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f != nullptr) {
    uint8_t buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + n);
    }
    std::fclose(f);
  }
  return bytes;
}

// Creates or truncates `path` to exactly `bytes`.
inline void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // An empty vector's data() may be null, which fwrite must not be given.
  if (!bytes.empty()) {
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size()) << path;
  }
  std::fclose(f);
}

// The bytes TraceSet::SaveTo publishes for `trace`: the strongest equality
// a test can ask of two traces, since it is the format a collection ships
// in. `tag` names the scratch file.
inline std::vector<uint8_t> SerializedBytes(const TraceSet& trace, const std::string& tag) {
  const std::string path = ScratchPath("serialized_" + tag + ".ntx");
  EXPECT_TRUE(trace.SaveTo(path)) << path;
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

// Writes `trace` to a columnar store at `path` in extents of
// `extent_records` records and opens it: the columnar form of a row trace.
// The caller removes `path`.
inline ColumnarTraceSet WriteColumnarStore(const TraceSet& trace, const std::string& path,
                                           uint32_t extent_records = kDefaultExtentRecords) {
  ExtentStoreWriter writer;
  EXPECT_TRUE(writer.Open(path, extent_records, /*config_fingerprint=*/0)) << path;
  EXPECT_TRUE(writer.AppendRecords(trace.records.data(), trace.records.size())) << path;
  for (const NameRecord& n : trace.names) {
    writer.AddName(n);
  }
  for (const auto& [pid, name] : trace.process_names) {
    writer.AddProcessName(pid, name);
  }
  EXPECT_TRUE(writer.Seal()) << path;
  writer.Close();
  return ColumnarTraceSet::FromFile(path);
}

// Two stores opened, compared the way a reader sees them: record count,
// name and process tables, and every read-stats field.
inline void ExpectSameStore(const ColumnarTraceSet& a, const ColumnarTraceSet& b) {
  EXPECT_EQ(a.spill_path(), b.spill_path());
  EXPECT_EQ(a.record_count(), b.record_count());
  ASSERT_EQ(a.names.size(), b.names.size());
  for (size_t i = 0; i < a.names.size(); ++i) {
    ASSERT_TRUE(a.names[i].file_object == b.names[i].file_object &&
                a.names[i].system_id == b.names[i].system_id && a.names[i].path == b.names[i].path)
        << "name " << i;
  }
  EXPECT_EQ(a.process_names, b.process_names);
  const ExtentReadStats& x = a.read_stats();
  const ExtentReadStats& y = b.read_stats();
#define NTRACE_EXPECT_FIELD(field) EXPECT_EQ(x.field, y.field) << #field
  NTRACE_EXPECT_FIELD(file_opened);
  NTRACE_EXPECT_FIELD(header_valid);
  NTRACE_EXPECT_FIELD(version);
  NTRACE_EXPECT_FIELD(config_fingerprint);
  NTRACE_EXPECT_FIELD(sealed);
  NTRACE_EXPECT_FIELD(frames_valid);
  NTRACE_EXPECT_FIELD(frames_damaged);
  NTRACE_EXPECT_FIELD(records_lost_known);
  NTRACE_EXPECT_FIELD(bytes_discarded);
  NTRACE_EXPECT_FIELD(extent_capacity);
  NTRACE_EXPECT_FIELD(extents_recovered);
  NTRACE_EXPECT_FIELD(records_recovered);
  NTRACE_EXPECT_FIELD(names_recovered);
  NTRACE_EXPECT_FIELD(seal_records);
  NTRACE_EXPECT_FIELD(seal_extents);
  NTRACE_EXPECT_FIELD(seal_names);
  NTRACE_EXPECT_FIELD(seal_procs);
  NTRACE_EXPECT_FIELD(seal_dict_entries);
#undef NTRACE_EXPECT_FIELD
}

// One traced machine with a "C:" volume. Members are public on purpose:
// tests poke at every layer.
class TestSystem {
 public:
  explicit TestSystem(CacheConfig cache_config = {}, FsOptions fs_options = {},
                      TraceFilterOptions filter_options = {}) {
    io = std::make_unique<IoManager>(engine, processes);
    cache = std::make_unique<CacheManager>(engine, *io, cache_config);
    cache->Start();
    vm = std::make_unique<VmManager>(engine, *io, *cache);
    auto volume = std::make_unique<Volume>("C:", 4ull << 30);
    fs = std::make_unique<FileSystemDriver>(engine, *cache, std::move(volume), "C:",
                                            DiskProfile::Ide(), fs_options);
    fs_device = std::make_unique<DeviceObject>("fs:C:", fs.get());
    io->RegisterVolume("C:", fs_device.get());
    agent = std::make_unique<TraceAgent>(engine, *io, server, /*system_id=*/1, filter_options);
    agent->AttachToVolume("C:", fs.get());
    pid = processes.Spawn("test.exe", engine.Now());
  }

  // Convenience: create-or-open a file for read/write.
  FileObject* OpenRw(const std::string& path, uint32_t extra_options = 0) {
    CreateRequest req;
    req.path = path;
    req.disposition = CreateDisposition::kOpenIf;
    req.desired_access = kAccessReadData | kAccessWriteData;
    req.create_options = extra_options;
    req.process_id = pid;
    CreateResult r = io->Create(req);
    return r.file;
  }

  // Runs the engine forward and collects the trace.
  TraceSet& FinishTrace(SimDuration settle = SimDuration::Seconds(30)) {
    engine.RunUntil(engine.Now() + settle);
    agent->Flush();
    engine.RunUntil(engine.Now() + SimDuration::Seconds(1));
    TraceSet& set = server.Finish();
    for (const auto& [p, info] : processes.all()) {
      set.process_names[p] = info.image_name;
    }
    return set;
  }

  Engine engine;
  ProcessTable processes;
  CollectionServer server;
  std::unique_ptr<IoManager> io;
  std::unique_ptr<CacheManager> cache;
  std::unique_ptr<VmManager> vm;
  std::unique_ptr<FileSystemDriver> fs;
  std::unique_ptr<DeviceObject> fs_device;
  std::unique_ptr<TraceAgent> agent;
  uint32_t pid = 0;
};

}  // namespace ntrace

#endif  // TESTS_TEST_UTIL_H_
