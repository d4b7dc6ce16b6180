// Unit tests: src/mm/cache_manager -- read-ahead policy (granularity,
// boost, sequential-only doubling, third-sequential detection, fuzzy mask),
// write-behind, two-stage teardown, purge accounting, write throttling.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ntrace {
namespace {

TEST(CacheManager, InitializeOnFirstDataOperationOnly) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\f.txt");
  EXPECT_EQ(sys.cache->stats().maps_created, 0u);
  sys.io->WriteNext(*fo, 100);
  EXPECT_EQ(sys.cache->stats().maps_created, 1u);
  sys.io->CloseHandle(*fo);
}

TEST(CacheManager, SecondOpenSharesTheMap) {
  TestSystem sys;
  FileObject* a = sys.OpenRw("C:\\shared.txt");
  sys.io->WriteNext(*a, 4096);
  FileObject* b = sys.OpenRw("C:\\shared.txt");
  sys.io->Read(*b, 0, 100);
  EXPECT_EQ(sys.cache->stats().maps_created, 1u);
  EXPECT_EQ(a->shared_cache_map, b->shared_cache_map);
  sys.io->CloseHandle(*a);
  sys.io->CloseHandle(*b);
}

TEST(CacheManager, ReadAheadGranularityBoostForLargeFiles) {
  TestSystem sys;
  // Small file: 4 KB granularity.
  FileObject* small = sys.OpenRw("C:\\small.bin");
  sys.io->Write(*small, 0, 8 * 1024);
  EXPECT_EQ(small->shared_cache_map->granularity, 4096u);
  sys.io->CloseHandle(*small);
  // Large file: boosted to 64 KB. Build it, close, reopen for read.
  FileObject* big = sys.OpenRw("C:\\big.bin");
  sys.io->Write(*big, 0, 256 * 1024);
  sys.io->CloseHandle(*big);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(10));
  CreateRequest req;
  req.path = "C:\\big.bin";
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessReadData;
  req.process_id = sys.pid;
  FileObject* reader = sys.io->Create(req).file;
  ASSERT_NE(reader, nullptr);
  sys.io->Read(*reader, 0, 4096);
  EXPECT_EQ(reader->shared_cache_map->granularity, 65536u);
  sys.io->CloseHandle(*reader);
}

TEST(CacheManager, InitialPrefetchCoversGranularity) {
  TestSystem sys;
  // Cold 64 KB file, then read 4 KB: the single initial read-ahead should
  // load the rest of the granularity window so later reads hit.
  FileObject* w = sys.OpenRw("C:\\pre.bin");
  sys.io->Write(*w, 0, 64 * 1024);
  sys.io->CloseHandle(*w);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(10));
  // Purge so the cache is cold for the read path.
  sys.cache->PurgeNode(sys.fs->volume().Lookup("pre.bin"));
  // Re-open and read the first 4 KB: one demand fault + one read-ahead.
  CreateRequest req;
  req.path = "C:\\pre.bin";
  req.disposition = CreateDisposition::kOpen;
  req.desired_access = kAccessReadData;
  req.process_id = sys.pid;
  FileObject* r = sys.io->Create(req).file;
  ASSERT_NE(r, nullptr);
  const uint64_t ra_before = sys.cache->stats().readahead_irps;
  sys.io->Read(*r, 0, 4096);
  // Read-ahead is asynchronous: run the engine briefly.
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Millis(10));
  EXPECT_EQ(sys.cache->stats().readahead_irps, ra_before + 1);
  // Subsequent sequential reads are all hits (single prefetch sufficed).
  const uint64_t hits_before = sys.cache->stats().copy_read_hits;
  for (int i = 1; i < 16; ++i) {
    sys.io->Read(*r, static_cast<uint64_t>(i) * 4096, 4096);
  }
  EXPECT_EQ(sys.cache->stats().copy_read_hits, hits_before + 15);
  sys.io->CloseHandle(*r);
}

TEST(CacheManager, ReadAheadDisabledByConfig) {
  CacheConfig config;
  config.read_ahead_enabled = false;
  TestSystem sys(config);
  FileObject* w = sys.OpenRw("C:\\nora.bin");
  sys.io->Write(*w, 0, 64 * 1024);
  sys.io->CloseHandle(*w);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(10));
  EXPECT_EQ(sys.cache->stats().readahead_irps, 0u);
}

TEST(CacheManager, LazyWriterFlushesDirtyPages) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\lazy.bin");
  sys.io->Write(*fo, 0, 32 * 1024);
  EXPECT_EQ(sys.cache->pages().DirtyCountOf(fo->fs_context), 8u);
  // Several lazy-writer scans drain the dirty pages (1/8 per scan).
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(30));
  EXPECT_EQ(sys.cache->pages().DirtyCountOf(fo->fs_context), 0u);
  EXPECT_GT(sys.cache->stats().lazy_write_irps, 0u);
  sys.io->CloseHandle(*fo);
}

TEST(CacheManager, LazyWriteRunsRespectCoalescingLimit) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\runs.bin");
  sys.io->Write(*fo, 0, 512 * 1024);  // 128 dirty pages.
  sys.io->CloseHandle(*fo);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(60));
  const CacheStats& stats = sys.cache->stats();
  ASSERT_GT(stats.lazy_write_irps, 0u);
  const double mean_run =
      static_cast<double>(stats.lazy_write_bytes) / static_cast<double>(stats.lazy_write_irps);
  EXPECT_LE(mean_run, 65536.0 + 4096.0);
}

TEST(CacheManager, FlushWritesSynchronously) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\flush.bin");
  sys.io->Write(*fo, 0, 16 * 1024);
  EXPECT_GT(sys.cache->pages().DirtyCountOf(fo->fs_context), 0u);
  sys.io->Flush(*fo);
  EXPECT_EQ(sys.cache->pages().DirtyCountOf(fo->fs_context), 0u);
  sys.io->CloseHandle(*fo);
}

TEST(CacheManager, WriteThroughFlushesEachWrite) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\wt.bin", kOptWriteThrough);
  sys.io->WriteNext(*fo, 4096);
  EXPECT_EQ(sys.cache->pages().DirtyCountOf(fo->fs_context), 0u);
  sys.io->CloseHandle(*fo);
}

TEST(CacheManager, TemporaryFilesSkippedByLazyWriter) {
  TestSystem sys;
  CreateRequest req;
  req.path = "C:\\temp.tmp";
  req.disposition = CreateDisposition::kCreate;
  req.desired_access = kAccessReadData | kAccessWriteData;
  req.file_attributes = kAttrTemporary;
  req.process_id = sys.pid;
  FileObject* fo = sys.io->Create(req).file;
  ASSERT_NE(fo, nullptr);
  EXPECT_TRUE(fo->temporary);
  sys.io->WriteNext(*fo, 16 * 1024);
  const void* node = fo->fs_context;
  // Lazy writer runs but skips the temporary file's pages while it is open.
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(5));
  EXPECT_GT(sys.cache->pages().DirtyCountOf(node), 0u);
  EXPECT_GT(sys.cache->stats().temporary_pages_skipped, 0u);
  sys.io->CloseHandle(*fo);
}

TEST(CacheManager, OverwritePurgeCountsDirtyPages) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\over.bin");
  sys.io->WriteNext(*fo, 8 * 1024);
  sys.io->CloseHandle(*fo);
  // Immediately overwrite: the dirty pages are still unwritten.
  CreateRequest req;
  req.path = "C:\\over.bin";
  req.disposition = CreateDisposition::kOverwriteIf;
  req.desired_access = kAccessWriteData;
  req.process_id = sys.pid;
  FileObject* again = sys.io->Create(req).file;
  ASSERT_NE(again, nullptr);
  EXPECT_GE(sys.cache->stats().purges_with_dirty, 1u);
  EXPECT_GE(sys.cache->stats().dirty_pages_discarded, 2u);
  sys.io->CloseHandle(*again);
}

TEST(CacheManager, SetFileSizeTruncatesResidentPages) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\trunc.bin");
  sys.io->Write(*fo, 0, 64 * 1024);
  sys.io->SetEndOfFile(*fo, 4096);
  EXPECT_TRUE(sys.cache->pages().IsResident(fo->fs_context, 0));
  EXPECT_FALSE(sys.cache->pages().IsResident(fo->fs_context, 5));
  sys.io->CloseHandle(*fo);
}

TEST(CacheManager, PartialPageWriteTriggersReadModifyWrite) {
  TestSystem sys;
  // Build a file on disk, cold.
  FileObject* w = sys.OpenRw("C:\\rmw.bin");
  sys.io->Write(*w, 0, 16 * 1024);
  sys.io->CloseHandle(*w);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(10));
  sys.cache->PurgeNode(sys.fs->volume().Lookup("rmw.bin"));
  // Re-open and write 100 bytes mid-page: the page must be faulted first.
  FileObject* fo = sys.OpenRw("C:\\rmw.bin");
  const uint64_t rmw_before = sys.cache->stats().rmw_faults;
  sys.io->Write(*fo, 300, 100);
  EXPECT_GT(sys.cache->stats().rmw_faults, rmw_before);
  sys.io->CloseHandle(*fo);
}

TEST(CacheManager, WriteThrottlingUnderDirtyPressure) {
  CacheConfig config;
  config.capacity_pages = 64;  // 256 KB cache.
  TestSystem sys(config);
  FileObject* fo = sys.OpenRw("C:\\pressure.bin");
  // Write 1 MB without giving the lazy writer a chance to run.
  for (int i = 0; i < 16; ++i) {
    sys.io->WriteNext(*fo, 65536);
  }
  EXPECT_GT(sys.cache->stats().write_throttles, 0u);
  // The store never exceeds capacity by more than the throttle slack.
  EXPECT_LE(sys.cache->pages().dirty_pages(), 64u);
  sys.io->CloseHandle(*fo);
}

// NodeDeleted erasing a map whose teardown is pending must drop the pending
// count with it: the lazy writer's idle fast path needs the count to be
// exactly the maps still waiting, or every later tick walks every map.
TEST(CacheManager, DeleteOnCloseLeavesNoPendingTeardown) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\doomed.tmp", kOptDeleteOnClose);
  sys.io->Write(*fo, 0, 8 * 1024);
  ASSERT_EQ(sys.cache->active_maps(), 1u);
  sys.io->CloseHandle(*fo);  // Cleanup starts the teardown, then deletes the node.
  EXPECT_EQ(sys.cache->pending_teardowns(), 0u);
  EXPECT_EQ(sys.cache->active_maps(), 0u);
}

TEST(CacheManager, SupersedeDuringPendingTeardownLeavesNoPendingTeardown) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\replaced.bin");
  sys.io->Write(*fo, 0, 64 * 1024);
  sys.io->CloseHandle(*fo);
  // The dirty pages wait for the lazy writer, and so does the teardown.
  ASSERT_EQ(sys.cache->pending_teardowns(), 1u);
  CreateRequest req;
  req.path = "C:\\replaced.bin";
  req.disposition = CreateDisposition::kSupersede;
  req.desired_access = kAccessReadData | kAccessWriteData;
  req.process_id = sys.pid;
  const CreateResult super = sys.io->Create(req);
  ASSERT_EQ(super.action, CreateAction::kSuperseded);
  EXPECT_EQ(sys.cache->pending_teardowns(), 0u);
  EXPECT_EQ(sys.cache->active_maps(), 0u);
  sys.io->CloseHandle(*super.file);
}

TEST(CacheManager, ResurrectionOnReopenDuringTeardown) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\resur.bin");
  sys.io->WriteNext(*fo, 8 * 1024);
  sys.io->CloseHandle(*fo);  // Teardown pending (dirty: waits for lazy writer).
  // Re-open before the teardown completes.
  FileObject* again = sys.OpenRw("C:\\resur.bin");
  sys.io->Read(*again, 0, 100);
  EXPECT_EQ(sys.cache->stats().maps_resurrected, 1u);
  sys.io->CloseHandle(*again);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(30));
  EXPECT_EQ(sys.cache->active_maps(), 0u);
}

TEST(CacheManager, SetEofIssuedOnlyForWrittenFiles) {
  TestSystem sys;
  FileObject* w = sys.OpenRw("C:\\wrote.bin");
  sys.io->WriteNext(*w, 100);
  sys.io->CloseHandle(*w);
  FileObject* r = sys.OpenRw("C:\\wrote.bin");
  sys.io->Read(*r, 0, 50);
  sys.io->CloseHandle(*r);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(30));
  // One SetEndOfFile for the writer's map; the read-only session (if it got
  // its own map after teardown) must not add one.
  EXPECT_EQ(sys.cache->stats().seteof_on_close, 1u);
}

TEST(CacheManager, CopyReadNoWaitFailsOnMissingPages) {
  TestSystem sys;
  FileObject* w = sys.OpenRw("C:\\cold.bin");
  sys.io->Write(*w, 0, 128 * 1024);
  sys.io->CloseHandle(*w);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Minutes(5));
  // Purge to guarantee cold pages.
  sys.cache->PurgeNode(sys.fs->volume().Lookup("cold.bin"));
  FileObject* r = sys.OpenRw("C:\\cold.bin");
  // Initialize caching with a first read (IRP path).
  const IoResult first = sys.io->Read(*r, 0, 4096);
  EXPECT_FALSE(first.used_fastio);
  // A read far away from anything resident: FastIO must fall back.
  const IoResult far = sys.io->Read(*r, 100 * 1024, 4096);
  EXPECT_FALSE(far.used_fastio);
  sys.io->CloseHandle(*r);
}

}  // namespace
}  // namespace ntrace
