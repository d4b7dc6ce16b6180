// Unit tests: src/ntio (status semantics, IRP naming, the I/O manager's
// dispatch, FastIO fallback, file-object lifecycle, volume resolution).

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ntrace {
namespace {

TEST(NtStatusSemantics, SuccessClasses) {
  EXPECT_TRUE(NtSuccess(NtStatus::kSuccess));
  EXPECT_TRUE(NtSuccess(NtStatus::kEndOfFile));  // Warning, not error.
  EXPECT_TRUE(NtSuccess(NtStatus::kNoMoreFiles));
  EXPECT_FALSE(NtSuccess(NtStatus::kObjectNameNotFound));
  EXPECT_TRUE(NtError(NtStatus::kAccessDenied));
  EXPECT_FALSE(NtError(NtStatus::kSuccess));
}

TEST(NtStatusSemantics, NamesAreStable) {
  EXPECT_EQ(NtStatusName(NtStatus::kSuccess), "SUCCESS");
  EXPECT_EQ(NtStatusName(NtStatus::kObjectNameCollision), "OBJECT_NAME_COLLISION");
  EXPECT_EQ(NtStatusName(NtStatus::kDeletePending), "DELETE_PENDING");
}

TEST(IrpNames, MajorsAndDispositions) {
  EXPECT_EQ(IrpMajorName(IrpMajor::kCreate), "CREATE");
  EXPECT_EQ(IrpMajorName(IrpMajor::kFileSystemControl), "FILE_SYSTEM_CONTROL");
  EXPECT_EQ(CreateDispositionName(CreateDisposition::kOverwriteIf), "OVERWRITE_IF");
  EXPECT_EQ(FsctlCodeName(FsctlCode::kIsVolumeMounted), "IS_VOLUME_MOUNTED");
  EXPECT_EQ(FileInfoClassName(FileInfoClass::kDisposition), "DISPOSITION");
}

TEST(IoManager, VolumeResolutionIsCaseInsensitiveLongestPrefix) {
  TestSystem sys;
  EXPECT_NE(sys.io->ResolveVolume("C:\\foo.txt"), nullptr);
  EXPECT_NE(sys.io->ResolveVolume("c:\\foo.txt"), nullptr);
  EXPECT_EQ(sys.io->ResolveVolume("D:\\foo.txt"), nullptr);
  EXPECT_EQ(sys.io->ResolveVolume("\\\\server\\share\\x"), nullptr);
}

TEST(IoManager, CreateOnUnknownVolumeFails) {
  TestSystem sys;
  CreateRequest req;
  req.path = "Z:\\nothing.txt";
  req.process_id = sys.pid;
  const CreateResult r = sys.io->Create(req);
  EXPECT_EQ(r.status, NtStatus::kObjectPathNotFound);
  EXPECT_EQ(r.file, nullptr);
}

TEST(IoManager, FailedCreateLeavesNoFileObject) {
  TestSystem sys;
  const size_t before = sys.io->open_file_count();
  CreateRequest req;
  req.path = "C:\\missing.txt";
  req.disposition = CreateDisposition::kOpen;
  req.process_id = sys.pid;
  sys.io->Create(req);
  EXPECT_EQ(sys.io->open_file_count(), before);
}

TEST(IoManager, OffsetTrackingAcrossReadNext) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\seq.bin");
  ASSERT_NE(fo, nullptr);
  sys.io->Write(*fo, 0, 10000);
  fo->current_byte_offset = 0;
  IoResult r1 = sys.io->ReadNext(*fo, 4096);
  EXPECT_EQ(r1.bytes, 4096u);
  EXPECT_EQ(fo->current_byte_offset, 4096u);
  IoResult r2 = sys.io->ReadNext(*fo, 4096);
  EXPECT_EQ(fo->current_byte_offset, 8192u);
  EXPECT_EQ(r2.bytes, 4096u);
  // Third read is clamped to the remaining bytes.
  IoResult r3 = sys.io->ReadNext(*fo, 4096);
  EXPECT_EQ(r3.bytes, 10000u - 8192u);
  sys.io->CloseHandle(*fo);
}

TEST(IoManager, ReadPastEndOfFile) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\small.bin");
  sys.io->Write(*fo, 0, 100);
  const IoResult r = sys.io->Read(*fo, 5000, 100);
  EXPECT_EQ(r.status, NtStatus::kEndOfFile);
  EXPECT_EQ(r.bytes, 0u);
  sys.io->CloseHandle(*fo);
}

TEST(IoManager, FirstDataOpGoesIrpThenFastIo) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\f.bin");
  EXPECT_FALSE(fo->caching_initialized);
  const IoResult w1 = sys.io->WriteNext(*fo, 4096);
  EXPECT_FALSE(w1.used_fastio);
  EXPECT_TRUE(fo->caching_initialized);
  const IoResult w2 = sys.io->WriteNext(*fo, 4096);
  EXPECT_TRUE(w2.used_fastio);
  sys.io->CloseHandle(*fo);
}

TEST(IoManager, FastIoCountersTrack) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\g.bin");
  sys.io->Write(*fo, 0, 8192);
  const uint64_t attempts_before = sys.io->fastio_read_attempts();
  sys.io->Read(*fo, 0, 4096);  // Resident: FastIO hit.
  EXPECT_EQ(sys.io->fastio_read_attempts(), attempts_before + 1);
  EXPECT_GE(sys.io->fastio_read_hits(), 1u);
  sys.io->CloseHandle(*fo);
}

TEST(IoManager, NoIntermediateBufferingBypassesFastIo) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\direct.bin", kOptNoIntermediateBuffering);
  ASSERT_NE(fo, nullptr);
  const IoResult w = sys.io->WriteNext(*fo, 4096);
  EXPECT_FALSE(w.used_fastio);
  EXPECT_FALSE(fo->caching_initialized);
  const IoResult r = sys.io->Read(*fo, 0, 4096);
  EXPECT_FALSE(r.used_fastio);
  sys.io->CloseHandle(*fo);
}

TEST(IoManager, WriteThroughWritesNeverUseFastIo) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\wt.bin", kOptWriteThrough);
  ASSERT_NE(fo, nullptr);
  sys.io->WriteNext(*fo, 4096);
  const IoResult w2 = sys.io->WriteNext(*fo, 4096);
  EXPECT_FALSE(w2.used_fastio);
  sys.io->CloseHandle(*fo);
}

TEST(IoManager, ReferenceCountingDelaysClose) {
  TestSystem sys;
  FileObject* fo = sys.OpenRw("C:\\ref.bin");
  const uint64_t id = fo->id();
  sys.io->ReferenceFileObject(*fo);  // Extra reference (e.g. a VM section).
  sys.io->CloseHandle(*fo);
  // Still alive: our reference holds it (plus possibly the cache's).
  EXPECT_EQ(sys.io->open_file_count() >= 1, true);
  sys.io->DereferenceFileObject(*fo);
  sys.engine.RunUntil(sys.engine.Now() + SimDuration::Seconds(10));
  // After cache teardown the object is gone: no record should reference it.
  bool alive = false;
  (void)id;
  // open_file_count counts live objects; after everything drains only the
  // volume file objects remain (they are not in files_).
  EXPECT_EQ(sys.io->open_file_count(), 0u);
  (void)alive;
}

TEST(IoManager, FsctlVolumeWorksWithoutOpen) {
  TestSystem sys;
  const NtStatus status = sys.io->FsctlVolume("C:", FsctlCode::kIsVolumeMounted, sys.pid);
  EXPECT_EQ(status, NtStatus::kSuccess);
  EXPECT_EQ(sys.io->FsctlVolume("Q:", FsctlCode::kIsVolumeMounted, sys.pid),
            NtStatus::kObjectPathNotFound);
}

TEST(IoManager, QueryVolumeInformationReturnsFreeBytes) {
  TestSystem sys;
  CreateRequest req;
  req.path = "C:\\";
  req.disposition = CreateDisposition::kOpen;
  req.create_options = kOptDirectoryFile;
  req.process_id = sys.pid;
  CreateResult root = sys.io->Create(req);
  ASSERT_NE(root.file, nullptr);
  uint64_t free_bytes = 0;
  EXPECT_EQ(sys.io->QueryVolumeInformation(*root.file, &free_bytes), NtStatus::kSuccess);
  EXPECT_GT(free_bytes, 0u);
  sys.io->CloseHandle(*root.file);
}

TEST(ProcessTable, SpawnExitAndNames) {
  ProcessTable table;
  const uint32_t pid = table.Spawn("word.exe", SimTime(), true);
  EXPECT_EQ(table.NameOf(pid), "word.exe");
  EXPECT_TRUE(table.Find(pid)->running);
  EXPECT_TRUE(table.Find(pid)->takes_user_input);
  table.Exit(pid, SimTime() + SimDuration::Seconds(5));
  EXPECT_FALSE(table.Find(pid)->running);
  EXPECT_EQ(table.NameOf(999999), "<unknown>");
  EXPECT_EQ(table.NameOf(kSystemProcessId), "system");
}

TEST(ProcessTable, PidsAreMultiplesOfFourAndUnique) {
  ProcessTable table;
  const uint32_t a = table.Spawn("a.exe", SimTime());
  const uint32_t b = table.Spawn("b.exe", SimTime());
  EXPECT_EQ(a % 4, 0u);
  EXPECT_EQ(b % 4, 0u);
  EXPECT_NE(a, b);
}

TEST(Driver, ForwardingWithoutLowerDeviceFailsIrp) {
  class NullDriver final : public Driver {
   public:
    NtStatus DispatchIrp(DeviceObject* device, Irp& irp) override {
      return ForwardIrp(device, irp);
    }
  };
  Engine engine;
  ProcessTable processes;
  IoManager io(engine, processes);
  NullDriver driver;
  DeviceObject device("null", &driver);
  io.RegisterVolume("N:", &device);
  CreateRequest req;
  req.path = "N:\\x";
  const CreateResult r = io.Create(req);
  EXPECT_EQ(r.status, NtStatus::kInvalidDeviceRequest);
}

}  // namespace
}  // namespace ntrace
