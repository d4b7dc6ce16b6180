// Unit tests: src/fs -- node tree, create dispositions, deletion semantics,
// rename, directory enumeration, attributes, the disk model and the
// redirector.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <new>

#include "src/base/format.h"
#include "src/fs/disk.h"
#include "src/fs/redirector.h"
#include "tests/test_util.h"

// Counting global operator new, as in sim_engine_test.cc: pins the heap
// allocations of one open. Replacing the allocator in this TU affects the
// whole test binary, but only FsCreate.ReopenDeepPathAllocations reads the
// counter.
namespace {
std::atomic<size_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ntrace {
namespace {

CreateResult Open(TestSystem& sys, const std::string& path, CreateDisposition disposition,
                  uint32_t access = kAccessReadData | kAccessWriteData, uint32_t options = 0,
                  uint32_t attributes = kAttrNormal) {
  CreateRequest req;
  req.path = path;
  req.disposition = disposition;
  req.desired_access = access;
  req.create_options = options;
  req.file_attributes = attributes;
  req.process_id = sys.pid;
  return sys.io->Create(req);
}

// --- Volume / FileNode -------------------------------------------------------

TEST(VolumeTree, LookupIsCaseInsensitive) {
  Volume volume("C:", 1 << 30);
  volume.CreatePath("WinNT\\System32\\Kernel32.DLL", false, kAttrNormal, SimTime());
  EXPECT_NE(volume.Lookup("winnt\\system32\\kernel32.dll"), nullptr);
  EXPECT_NE(volume.Lookup("WINNT\\SYSTEM32\\KERNEL32.DLL"), nullptr);
  EXPECT_EQ(volume.Lookup("winnt\\missing.dll"), nullptr);
}

// The name fold is std::tolower in the "C" locale (nothing in the tree
// calls setlocale), byte for byte, as a reference implementation of the
// three helpers shows over every byte pair.
bool ReferenceLess(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int ca = std::tolower(static_cast<unsigned char>(a[i]));
    const int cb = std::tolower(static_cast<unsigned char>(b[i]));
    if (ca != cb) {
      return ca < cb;
    }
  }
  return a.size() < b.size();
}

std::string ReferenceLower(std::string_view s) {
  std::string out;
  for (const char c : s) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

TEST(VolumeTree, NameFoldMatchesCLocaleTolower) {
  const CaseInsensitiveLess less;
  for (int x = 0; x < 256; ++x) {
    const std::string a(1, static_cast<char>(x));
    ASSERT_EQ(AsciiLower(a), ReferenceLower(a)) << x;
    for (int y = 0; y < 256; ++y) {
      const std::string b(1, static_cast<char>(y));
      // One byte each; equal prefixes that differ after them; lengths that
      // differ after an equal-folding byte.
      const std::pair<std::string, std::string> cases[] = {
          {a, b}, {"Pre" + a, "pRE" + b}, {a, b + b}, {a + "Z", b}};
      for (const auto& [s, t] : cases) {
        ASSERT_EQ(less(s, t), ReferenceLess(s, t)) << x << " " << y;
        ASSERT_EQ(EqualsIgnoreCase(s, t), ReferenceLower(s) == ReferenceLower(t)) << x << " " << y;
      }
    }
  }
}

TEST(VolumeTree, RelativePathRoundTrip) {
  Volume volume("C:", 1 << 30);
  FileNode* node = volume.CreatePath("a\\b\\c.txt", false, kAttrNormal, SimTime());
  EXPECT_EQ(node->RelativePath(), "a\\b\\c.txt");
  EXPECT_EQ(volume.root()->RelativePath(), "");
}

TEST(VolumeTree, UsedBytesTracksResizes) {
  Volume volume("C:", 1 << 30);
  FileNode* node = volume.CreatePath("f.bin", false, kAttrNormal, SimTime());
  volume.NodeResized(node, 10000);
  EXPECT_EQ(volume.used_bytes(), 10000u);
  volume.NodeResized(node, 4000);
  EXPECT_EQ(volume.used_bytes(), 4000u);
  EXPECT_EQ(node->allocation, 4096u);
  volume.RemoveNode(node);
  EXPECT_EQ(volume.used_bytes(), 0u);
}

TEST(VolumeTree, CountsWalkTheLiveTree) {
  Volume volume("C:", 1 << 30);
  volume.CreatePath("d1\\f1", false, kAttrNormal, SimTime());
  volume.CreatePath("d1\\f2", false, kAttrNormal, SimTime());
  volume.CreatePath("d2\\sub\\f3", false, kAttrNormal, SimTime());
  const VolumeCounts counts = volume.Counts();
  EXPECT_EQ(counts.files, 3u);
  EXPECT_EQ(counts.directories, 4u);  // Root, d1, d2, sub.
}

TEST(VolumeTree, RemovedNodesSurviveOnGraveyard) {
  Volume volume("C:", 1 << 30);
  FileNode* node = volume.CreatePath("dead.txt", false, kAttrNormal, SimTime());
  volume.NodeResized(node, 100);
  volume.RemoveNode(node);
  EXPECT_EQ(volume.Lookup("dead.txt"), nullptr);
  // The pointer stays valid (cache/VM may still reference it).
  EXPECT_EQ(node->size, 100u);
}

// --- Create dispositions ------------------------------------------------------

TEST(FsCreate, OpenRequiresExistence) {
  TestSystem sys;
  EXPECT_EQ(Open(sys, "C:\\nope.txt", CreateDisposition::kOpen).status,
            NtStatus::kObjectNameNotFound);
  EXPECT_EQ(Open(sys, "C:\\no\\dir\\file.txt", CreateDisposition::kOpen).status,
            NtStatus::kObjectPathNotFound);
}

TEST(FsCreate, CreateFailsOnCollision) {
  TestSystem sys;
  CreateResult first = Open(sys, "C:\\a.txt", CreateDisposition::kCreate);
  EXPECT_EQ(first.status, NtStatus::kSuccess);
  EXPECT_EQ(first.action, CreateAction::kCreated);
  sys.io->CloseHandle(*first.file);
  EXPECT_EQ(Open(sys, "C:\\a.txt", CreateDisposition::kCreate).status,
            NtStatus::kObjectNameCollision);
}

TEST(FsCreate, OpenIfCreatesOrOpens) {
  TestSystem sys;
  CreateResult first = Open(sys, "C:\\b.txt", CreateDisposition::kOpenIf);
  EXPECT_EQ(first.action, CreateAction::kCreated);
  sys.io->CloseHandle(*first.file);
  CreateResult second = Open(sys, "C:\\b.txt", CreateDisposition::kOpenIf);
  EXPECT_EQ(second.action, CreateAction::kOpened);
  sys.io->CloseHandle(*second.file);
}

TEST(FsCreate, OverwriteTruncatesAndPreservesCreationTime) {
  TestSystem sys;
  CreateResult first = Open(sys, "C:\\c.txt", CreateDisposition::kCreate);
  sys.io->WriteNext(*first.file, 5000);
  FileBasicInfo before;
  sys.io->QueryBasicInfo(*first.file, &before);
  sys.io->CloseHandle(*first.file);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(5));

  CreateResult over = Open(sys, "C:\\c.txt", CreateDisposition::kOverwriteIf);
  EXPECT_EQ(over.action, CreateAction::kOverwritten);
  FileStandardInfo std_info;
  sys.io->QueryStandardInfo(*over.file, &std_info);
  EXPECT_EQ(std_info.end_of_file, 0u);
  FileBasicInfo after;
  sys.io->QueryBasicInfo(*over.file, &after);
  EXPECT_EQ(after.creation_time, before.creation_time);
  sys.io->CloseHandle(*over.file);
}

TEST(FsCreate, OverwriteOfMissingFails) {
  TestSystem sys;
  EXPECT_EQ(Open(sys, "C:\\nothing.txt", CreateDisposition::kOverwrite).status,
            NtStatus::kObjectNameNotFound);
}

TEST(FsCreate, SupersedeReplacesNode) {
  TestSystem sys;
  CreateResult first = Open(sys, "C:\\d.txt", CreateDisposition::kCreate);
  sys.io->WriteNext(*first.file, 100);
  sys.io->CloseHandle(*first.file);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(10));

  CreateResult super = Open(sys, "C:\\d.txt", CreateDisposition::kSupersede);
  EXPECT_EQ(super.status, NtStatus::kSuccess);
  EXPECT_EQ(super.action, CreateAction::kSuperseded);
  FileStandardInfo info;
  sys.io->QueryStandardInfo(*super.file, &info);
  EXPECT_EQ(info.end_of_file, 0u);
  sys.io->CloseHandle(*super.file);
}

// Redundant separators and a trailing one name the same node, at the same
// metadata charge, as the canonical path; "C:" and "C:\\" both open the root.
TEST(FsCreate, EquivalentPathFormsOpenTheSameNode) {
  TestSystem sys;
  CreateResult dir = Open(sys, "C:\\dir", CreateDisposition::kCreate, kAccessListDirectory,
                          kOptDirectoryFile);
  ASSERT_EQ(dir.status, NtStatus::kSuccess);
  sys.io->CloseHandle(*dir.file);
  CreateResult file = Open(sys, "C:\\dir\\file", CreateDisposition::kCreate);
  ASSERT_EQ(file.status, NtStatus::kSuccess);
  sys.io->CloseHandle(*file.file);

  struct Reached {
    void* node;
    SimDuration elapsed;
  };
  auto open = [&sys](const std::string& path) {
    const SimTime start = sys.engine.Now();
    CreateResult r = Open(sys, path, CreateDisposition::kOpen, kAccessReadData);
    EXPECT_EQ(r.status, NtStatus::kSuccess) << path;
    if (r.file == nullptr) {
      return Reached{nullptr, SimDuration()};
    }
    const Reached reached{r.file->fs_context, sys.engine.Now() - start};
    sys.io->CloseHandle(*r.file);
    return reached;
  };
  const Reached root = open("C:\\");
  const Reached leaf = open("C:\\dir\\file");
  ASSERT_NE(root.node, nullptr);
  ASSERT_NE(leaf.node, nullptr);
  EXPECT_EQ(root.node, sys.fs->volume().root());
  const Reached bare = open("C:");
  EXPECT_EQ(bare.node, root.node);
  EXPECT_EQ(bare.elapsed, root.elapsed);
  for (const char* path : {"C:\\\\dir\\\\\\file", "C:\\dir\\file\\"}) {
    const Reached r = open(path);
    EXPECT_EQ(r.node, leaf.node) << path;
    EXPECT_EQ(r.elapsed, leaf.elapsed) << path;
  }
}

// An open builds no path strings: reopening an existing file five
// directories deep allocates only what the I/O manager and the trace filter
// keep (the file object, its name and the traced name record).
TEST(FsCreate, ReopenDeepPathAllocations) {
  TestSystem sys;
  std::string path = "C:";
  for (const char* dir : {"\\first", "\\second", "\\third", "\\fourth", "\\fifth"}) {
    path += dir;
    CreateResult d = Open(sys, path, CreateDisposition::kCreate, kAccessListDirectory,
                          kOptDirectoryFile);
    ASSERT_EQ(d.status, NtStatus::kSuccess) << path;
    sys.io->CloseHandle(*d.file);
  }
  path += "\\leaf.txt";
  CreateRequest req;
  req.path = path;
  req.disposition = CreateDisposition::kOpenIf;
  req.desired_access = kAccessReadData;
  req.process_id = sys.pid;
  // Two warm-up opens fill the IRP and file-object pools.
  for (int i = 0; i < 2; ++i) {
    CreateResult r = sys.io->Create(req);
    ASSERT_EQ(r.status, NtStatus::kSuccess);
    sys.io->CloseHandle(*r.file);
  }
  req.disposition = CreateDisposition::kOpen;
  const size_t before = g_alloc_count.load(std::memory_order_relaxed);
  CreateResult r = sys.io->Create(req);
  const size_t allocations = g_alloc_count.load(std::memory_order_relaxed) - before;
  ASSERT_EQ(r.status, NtStatus::kSuccess);
  EXPECT_EQ(r.action, CreateAction::kOpened);
  sys.io->CloseHandle(*r.file);
  EXPECT_EQ(allocations, 3u);
}

TEST(FsCreate, DirectoryVsFileMismatch) {
  TestSystem sys;
  CreateResult dir = Open(sys, "C:\\dir", CreateDisposition::kCreate, kAccessListDirectory,
                          kOptDirectoryFile);
  ASSERT_EQ(dir.status, NtStatus::kSuccess);
  sys.io->CloseHandle(*dir.file);
  // Open the directory demanding a file.
  EXPECT_EQ(Open(sys, "C:\\dir", CreateDisposition::kOpen, kAccessReadData,
                 kOptNonDirectoryFile)
                .status,
            NtStatus::kFileIsADirectory);
  // Open a file demanding a directory.
  CreateResult file = Open(sys, "C:\\plain.txt", CreateDisposition::kCreate);
  sys.io->CloseHandle(*file.file);
  EXPECT_EQ(Open(sys, "C:\\plain.txt", CreateDisposition::kOpen, kAccessReadData,
                 kOptDirectoryFile)
                .status,
            NtStatus::kNotADirectory);
}

TEST(FsCreate, ReadOnlyAttributeBlocksWriteAccess) {
  TestSystem sys;
  CreateResult first =
      Open(sys, "C:\\ro.txt", CreateDisposition::kCreate, kAccessWriteData, 0, kAttrReadOnly);
  ASSERT_EQ(first.status, NtStatus::kSuccess);  // Creation itself is fine.
  sys.io->CloseHandle(*first.file);
  EXPECT_EQ(Open(sys, "C:\\ro.txt", CreateDisposition::kOpen, kAccessWriteData).status,
            NtStatus::kAccessDenied);
  EXPECT_EQ(Open(sys, "C:\\ro.txt", CreateDisposition::kOpen, kAccessReadData).status,
            NtStatus::kSuccess);
}

// --- Deletion -------------------------------------------------------------------

TEST(FsDelete, ExplicitDispositionDeletesAtLastCleanup) {
  TestSystem sys;
  CreateResult a = Open(sys, "C:\\del.txt", CreateDisposition::kCreate);
  CreateResult b = Open(sys, "C:\\del.txt", CreateDisposition::kOpen);
  EXPECT_EQ(sys.io->SetDispositionDelete(*a.file, true), NtStatus::kSuccess);
  sys.io->CloseHandle(*a.file);
  // Still present: b holds it open.
  EXPECT_EQ(Open(sys, "C:\\del.txt", CreateDisposition::kOpen).status,
            NtStatus::kDeletePending);
  sys.io->CloseHandle(*b.file);
  EXPECT_EQ(Open(sys, "C:\\del.txt", CreateDisposition::kOpen).status,
            NtStatus::kObjectNameNotFound);
}

TEST(FsDelete, DispositionCanBeCleared) {
  TestSystem sys;
  CreateResult a = Open(sys, "C:\\undo.txt", CreateDisposition::kCreate);
  sys.io->SetDispositionDelete(*a.file, true);
  sys.io->SetDispositionDelete(*a.file, false);
  sys.io->CloseHandle(*a.file);
  EXPECT_EQ(Open(sys, "C:\\undo.txt", CreateDisposition::kOpen).status, NtStatus::kSuccess);
}

TEST(FsDelete, ReadOnlyFileCannotBeDeleted) {
  TestSystem sys;
  CreateResult a =
      Open(sys, "C:\\locked.txt", CreateDisposition::kCreate, kAccessReadData, 0, kAttrReadOnly);
  EXPECT_EQ(sys.io->SetDispositionDelete(*a.file, true), NtStatus::kCannotDelete);
  sys.io->CloseHandle(*a.file);
}

TEST(FsDelete, NonEmptyDirectoryRefusesDeletion) {
  TestSystem sys;
  Open(sys, "C:\\full", CreateDisposition::kCreate, kAccessListDirectory, kOptDirectoryFile);
  CreateResult child = Open(sys, "C:\\full\\kid.txt", CreateDisposition::kCreate);
  sys.io->CloseHandle(*child.file);
  CreateResult dir = Open(sys, "C:\\full", CreateDisposition::kOpen, kAccessDelete,
                          kOptDirectoryFile);
  EXPECT_EQ(sys.io->SetDispositionDelete(*dir.file, true), NtStatus::kDirectoryNotEmpty);
  sys.io->CloseHandle(*dir.file);
}

// --- Rename / times / info -------------------------------------------------------

TEST(FsRename, MovesWithinVolume) {
  TestSystem sys;
  Open(sys, "C:\\dst", CreateDisposition::kCreate, kAccessListDirectory, kOptDirectoryFile);
  CreateResult a = Open(sys, "C:\\orig.txt", CreateDisposition::kCreate);
  EXPECT_EQ(sys.io->Rename(*a.file, "C:\\dst\\renamed.txt"), NtStatus::kSuccess);
  sys.io->CloseHandle(*a.file);
  EXPECT_EQ(Open(sys, "C:\\orig.txt", CreateDisposition::kOpen).status,
            NtStatus::kObjectNameNotFound);
  EXPECT_EQ(Open(sys, "C:\\dst\\renamed.txt", CreateDisposition::kOpen).status,
            NtStatus::kSuccess);
}

TEST(FsRename, CollisionAndMissingTargetDirFail) {
  TestSystem sys;
  CreateResult a = Open(sys, "C:\\x1.txt", CreateDisposition::kCreate);
  CreateResult b = Open(sys, "C:\\x2.txt", CreateDisposition::kCreate);
  EXPECT_EQ(sys.io->Rename(*a.file, "C:\\x2.txt"), NtStatus::kObjectNameCollision);
  EXPECT_EQ(sys.io->Rename(*a.file, "C:\\ghost\\x.txt"), NtStatus::kObjectPathNotFound);
  sys.io->CloseHandle(*a.file);
  sys.io->CloseHandle(*b.file);
}

TEST(FsTimes, ApplicationsCanBackdateCreation) {
  TestSystem sys;
  sys.engine.AdvanceBy(SimDuration::Days(30));
  CreateResult a = Open(sys, "C:\\inst.dll", CreateDisposition::kCreate);
  FileBasicInfo info;
  info.creation_time = SimTime() + SimDuration::Days(1);  // Years "ago".
  EXPECT_EQ(sys.io->SetBasicInfo(*a.file, info), NtStatus::kSuccess);
  FileBasicInfo out;
  sys.io->QueryBasicInfo(*a.file, &out);
  EXPECT_EQ(out.creation_time, SimTime() + SimDuration::Days(1));
  // The anomaly the paper reports: creation now after... actually before
  // last access; the inverse anomaly needs a future creation time.
  info.creation_time = sys.engine.Now() + SimDuration::Days(365);
  sys.io->SetBasicInfo(*a.file, info);
  sys.io->QueryBasicInfo(*a.file, &out);
  EXPECT_GT(out.creation_time, out.last_access_time);
  sys.io->CloseHandle(*a.file);
}

TEST(FsTimes, WriteUpdatesLastWriteAndArchive) {
  TestSystem sys;
  CreateResult a = Open(sys, "C:\\w.txt", CreateDisposition::kCreate);
  FileBasicInfo before;
  sys.io->QueryBasicInfo(*a.file, &before);
  sys.engine.AdvanceBy(SimDuration::Seconds(3));
  sys.io->WriteNext(*a.file, 100);
  FileBasicInfo after;
  sys.io->QueryBasicInfo(*a.file, &after);
  EXPECT_GT(after.last_write_time, before.last_write_time);
  EXPECT_NE(after.attributes & kAttrArchive, 0u);
  sys.io->CloseHandle(*a.file);
}

// --- Directory enumeration --------------------------------------------------------

TEST(FsDirectory, EnumerationChunksAndTerminates) {
  FsOptions options;
  options.directory_chunk = 10;
  TestSystem sys(CacheConfig{}, options);
  Open(sys, "C:\\many", CreateDisposition::kCreate, kAccessListDirectory, kOptDirectoryFile);
  for (int i = 0; i < 25; ++i) {
    CreateResult f = Open(sys, "C:\\many\\f" + std::to_string(i) + ".txt",
                          CreateDisposition::kCreate);
    sys.io->CloseHandle(*f.file);
  }
  CreateResult dir = Open(sys, "C:\\many", CreateDisposition::kOpen, kAccessListDirectory,
                          kOptDirectoryFile);
  std::vector<DirEntry> entries;
  EXPECT_EQ(sys.io->QueryDirectory(*dir.file, true, "", &entries), NtStatus::kSuccess);
  EXPECT_EQ(entries.size(), 10u);
  sys.io->QueryDirectory(*dir.file, false, "", &entries);
  sys.io->QueryDirectory(*dir.file, false, "", &entries);
  EXPECT_EQ(entries.size(), 25u);
  EXPECT_EQ(sys.io->QueryDirectory(*dir.file, false, "", &entries), NtStatus::kNoMoreFiles);
  // Restart rewinds the cursor.
  EXPECT_EQ(sys.io->QueryDirectory(*dir.file, true, "", &entries), NtStatus::kSuccess);
  sys.io->CloseHandle(*dir.file);
}

// Enumeration order is the name fold's order: digits, '[', '_', then
// letters regardless of case, then bytes >= 0x80.
TEST(FsDirectory, EnumerationFollowsTheNameFold) {
  TestSystem sys;
  Open(sys, "C:\\order", CreateDisposition::kCreate, kAccessListDirectory, kOptDirectoryFile);
  for (const char* name : {"b.txt", "\xE9t\xE9.txt", "A.txt", "_x.txt", "cB.txt", "[y.txt",
                           "9.txt", "Ca.txt", "a1.TXT"}) {
    CreateResult f = Open(sys, std::string("C:\\order\\") + name, CreateDisposition::kCreate);
    ASSERT_EQ(f.status, NtStatus::kSuccess) << name;
    sys.io->CloseHandle(*f.file);
  }
  CreateResult dir = Open(sys, "C:\\order", CreateDisposition::kOpen, kAccessListDirectory,
                          kOptDirectoryFile);
  std::vector<DirEntry> entries;
  EXPECT_EQ(sys.io->QueryDirectory(*dir.file, true, "", &entries), NtStatus::kSuccess);
  std::vector<std::string> names;
  for (const DirEntry& e : entries) {
    names.push_back(e.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"9.txt", "[y.txt", "_x.txt", "A.txt", "a1.TXT",
                                             "b.txt", "Ca.txt", "cB.txt", "\xE9t\xE9.txt"}));
  sys.io->CloseHandle(*dir.file);
}

TEST(FsDirectory, PatternMatching) {
  TestSystem sys;
  Open(sys, "C:\\pat", CreateDisposition::kCreate, kAccessListDirectory, kOptDirectoryFile);
  for (const char* name : {"alpha.txt", "beta.txt", "alpine.doc"}) {
    CreateResult f = Open(sys, std::string("C:\\pat\\") + name, CreateDisposition::kCreate);
    sys.io->CloseHandle(*f.file);
  }
  CreateResult dir = Open(sys, "C:\\pat", CreateDisposition::kOpen, kAccessListDirectory,
                          kOptDirectoryFile);
  std::vector<DirEntry> all;
  sys.io->QueryDirectory(*dir.file, true, "*", &all);
  EXPECT_EQ(all.size(), 3u);
  std::vector<DirEntry> al;
  sys.io->QueryDirectory(*dir.file, true, "al*", &al);
  EXPECT_EQ(al.size(), 2u);
  std::vector<DirEntry> exact;
  sys.io->QueryDirectory(*dir.file, true, "BETA.TXT", &exact);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].name, "beta.txt");
  sys.io->CloseHandle(*dir.file);
}

// --- Disk model -------------------------------------------------------------------

TEST(DiskModel, SequentialFasterThanRandom) {
  Disk disk(DiskProfile::Ide());
  const SimDuration first = disk.Access(0, 65536, false);
  const SimDuration sequential = disk.Access(65536, 65536, false);
  const SimDuration random = disk.Access(500 * 1024 * 1024, 65536, false);
  EXPECT_LT(sequential, first);  // No positioning cost.
  EXPECT_GT(random, sequential);
  EXPECT_EQ(disk.sequential_hits(), 1u);
  EXPECT_EQ(disk.reads(), 3u);
}

TEST(DiskModel, TransferScalesWithSize) {
  Disk disk(DiskProfile::ScsiUltra2());
  disk.Access(0, 4096, false);
  const SimDuration small = disk.Access(4096, 4096, true);
  const SimDuration big = disk.Access(8192, 1024 * 1024, true);
  EXPECT_GT(big.ticks(), small.ticks() * 10);
  EXPECT_EQ(disk.writes(), 2u);
  EXPECT_EQ(disk.bytes_written(), 4096u + 1024 * 1024);
}

// --- Redirector -------------------------------------------------------------------

TEST(Redirector, RemoteOpsCostMoreThanCacheHitsButCacheWorks) {
  Engine engine;
  ProcessTable processes;
  IoManager io(engine, processes);
  CacheManager cache(engine, io, CacheConfig{});
  cache.Start();
  auto volume = std::make_unique<Volume>("\\\\srv\\home", 1ull << 30);
  RedirectorDriver rdr(engine, cache, std::move(volume), "\\\\srv\\home", NetworkProfile{});
  DeviceObject device("rdr", &rdr);
  io.RegisterVolume("\\\\srv\\home", &device);

  CreateRequest req;
  req.path = "\\\\srv\\home\\doc.txt";
  req.disposition = CreateDisposition::kCreate;
  req.desired_access = kAccessReadData | kAccessWriteData;
  CreateResult r = io.Create(req);
  ASSERT_EQ(r.status, NtStatus::kSuccess);
  io.Write(*r.file, 0, 65536);

  // First read from cache (pages resident from the write): fast.
  const SimTime t0 = engine.Now();
  io.Read(*r.file, 0, 4096);
  const SimDuration cached = engine.Now() - t0;
  EXPECT_LT(cached, SimDuration::Millis(1));
  EXPECT_GT(rdr.wire_requests(), 0u);  // The metadata ops went remote.
  io.CloseHandle(*r.file);
}

}  // namespace
}  // namespace ntrace
