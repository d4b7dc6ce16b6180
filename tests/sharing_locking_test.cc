// Tests: NT share-access semantics and byte-range locks (the paper lists
// file sharing and locking as the next analyses its trace set supports,
// section 12).

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ntrace {
namespace {

CreateResult Open(TestSystem& sys, const std::string& path, uint32_t access, uint32_t share,
                  CreateDisposition disposition = CreateDisposition::kOpenIf) {
  CreateRequest req;
  req.path = path;
  req.disposition = disposition;
  req.desired_access = access;
  req.share_access = share;
  req.process_id = sys.pid;
  return sys.io->Create(req);
}

TEST(ShareAccess, ExclusiveOpenBlocksEveryone) {
  TestSystem sys;
  CreateResult owner = Open(sys, "C:\\excl.dat", kAccessReadData | kAccessWriteData,
                            /*share=*/0);
  ASSERT_EQ(owner.status, NtStatus::kSuccess);
  EXPECT_EQ(Open(sys, "C:\\excl.dat", kAccessReadData, kShareRead | kShareWrite).status,
            NtStatus::kSharingViolation);
  sys.io->CloseHandle(*owner.file);
  // Released after cleanup.
  CreateResult later = Open(sys, "C:\\excl.dat", kAccessReadData, kShareRead);
  EXPECT_EQ(later.status, NtStatus::kSuccess);
  sys.io->CloseHandle(*later.file);
}

TEST(ShareAccess, ConcurrentReadersAllowed) {
  TestSystem sys;
  CreateResult a = Open(sys, "C:\\shared.dat", kAccessReadData, kShareRead);
  CreateResult b = Open(sys, "C:\\shared.dat", kAccessReadData, kShareRead);
  EXPECT_EQ(a.status, NtStatus::kSuccess);
  EXPECT_EQ(b.status, NtStatus::kSuccess);
  sys.io->CloseHandle(*a.file);
  sys.io->CloseHandle(*b.file);
}

TEST(ShareAccess, WriterExcludedByReaderNotSharingWrite) {
  TestSystem sys;
  CreateResult reader = Open(sys, "C:\\doc.txt", kAccessReadData, kShareRead);
  ASSERT_EQ(reader.status, NtStatus::kSuccess);
  EXPECT_EQ(Open(sys, "C:\\doc.txt", kAccessWriteData, kShareRead | kShareWrite).status,
            NtStatus::kSharingViolation);
  // A second reader that shares read is still fine.
  CreateResult reader2 = Open(sys, "C:\\doc.txt", kAccessReadData, kShareRead);
  EXPECT_EQ(reader2.status, NtStatus::kSuccess);
  sys.io->CloseHandle(*reader.file);
  sys.io->CloseHandle(*reader2.file);
}

TEST(ShareAccess, NewOpenMustTolerateExistingHolders) {
  TestSystem sys;
  CreateResult writer = Open(sys, "C:\\log.txt", kAccessWriteData,
                             kShareRead | kShareWrite);
  ASSERT_EQ(writer.status, NtStatus::kSuccess);
  // This reader refuses to share with writers: violation.
  EXPECT_EQ(Open(sys, "C:\\log.txt", kAccessReadData, kShareRead).status,
            NtStatus::kSharingViolation);
  // This reader tolerates writers: fine.
  CreateResult tolerant = Open(sys, "C:\\log.txt", kAccessReadData,
                               kShareRead | kShareWrite);
  EXPECT_EQ(tolerant.status, NtStatus::kSuccess);
  sys.io->CloseHandle(*writer.file);
  sys.io->CloseHandle(*tolerant.file);
}

TEST(ShareAccess, DeleteWhileOpenWithoutShareDeleteFails) {
  TestSystem sys;
  // The classic Windows behavior: you cannot delete a file someone has open
  // without FILE_SHARE_DELETE.
  CreateResult holder = Open(sys, "C:\\busy.txt", kAccessReadData,
                             kShareRead | kShareWrite);
  ASSERT_EQ(holder.status, NtStatus::kSuccess);
  EXPECT_EQ(Open(sys, "C:\\busy.txt", kAccessDelete, kShareRead | kShareWrite).status,
            NtStatus::kSharingViolation);
  sys.io->CloseHandle(*holder.file);
  CreateResult deleter = Open(sys, "C:\\busy.txt", kAccessDelete,
                              kShareRead | kShareWrite, CreateDisposition::kOpen);
  EXPECT_EQ(deleter.status, NtStatus::kSuccess);
  sys.io->CloseHandle(*deleter.file);
}

TEST(ByteRangeLocks, ConflictingLockRefused) {
  TestSystem sys;
  CreateResult a = Open(sys, "C:\\db.mdb", kAccessReadData | kAccessWriteData,
                        kShareRead | kShareWrite);
  CreateResult b = Open(sys, "C:\\db.mdb", kAccessReadData | kAccessWriteData,
                        kShareRead | kShareWrite);
  ASSERT_EQ(a.status, NtStatus::kSuccess);
  ASSERT_EQ(b.status, NtStatus::kSuccess);

  EXPECT_EQ(sys.io->Lock(*a.file, 0, 4096), NtStatus::kSuccess);
  // Overlapping lock from another handle: refused.
  EXPECT_EQ(sys.io->Lock(*b.file, 2048, 4096), NtStatus::kLockNotGranted);
  // Disjoint lock from another handle: granted.
  EXPECT_EQ(sys.io->Lock(*b.file, 8192, 4096), NtStatus::kSuccess);
  // The owner may re-lock its own overlapping range.
  EXPECT_EQ(sys.io->Lock(*a.file, 1024, 1024), NtStatus::kSuccess);

  // Unlock releases the conflict.
  EXPECT_EQ(sys.io->Unlock(*a.file, 0, 4096), NtStatus::kSuccess);
  EXPECT_EQ(sys.io->Unlock(*a.file, 1024, 1024), NtStatus::kSuccess);
  EXPECT_EQ(sys.io->Lock(*b.file, 2048, 4096), NtStatus::kSuccess);
  sys.io->CloseHandle(*a.file);
  sys.io->CloseHandle(*b.file);
}

TEST(ByteRangeLocks, LocksDieWithTheHandle) {
  TestSystem sys;
  CreateResult a = Open(sys, "C:\\locked.mdb", kAccessReadData | kAccessWriteData,
                        kShareRead | kShareWrite);
  ASSERT_EQ(sys.io->Lock(*a.file, 0, 1 << 20), NtStatus::kSuccess);
  sys.io->CloseHandle(*a.file);

  CreateResult b = Open(sys, "C:\\locked.mdb", kAccessReadData | kAccessWriteData,
                        kShareRead | kShareWrite);
  EXPECT_EQ(sys.io->Lock(*b.file, 0, 4096), NtStatus::kSuccess);
  sys.io->CloseHandle(*b.file);
}

TEST(ByteRangeLocks, LockedFilesFallBackToIrpPath) {
  TestSystem sys;
  CreateResult a = Open(sys, "C:\\irp.mdb", kAccessReadData | kAccessWriteData,
                        kShareRead | kShareWrite);
  sys.io->Write(*a.file, 0, 16 * 1024);  // Caching initialized, pages hot.
  const IoResult fast = sys.io->Read(*a.file, 0, 4096);
  EXPECT_TRUE(fast.used_fastio);
  ASSERT_EQ(sys.io->Lock(*a.file, 0, 4096), NtStatus::kSuccess);
  // "All of the requests for these files will go through the traditional
  // IRP path" -- FastIO is not possible while byte-range locks exist.
  const IoResult slow = sys.io->Read(*a.file, 8192, 4096);
  EXPECT_FALSE(slow.used_fastio);
  const IoResult w = sys.io->Write(*a.file, 8192, 4096);
  EXPECT_FALSE(w.used_fastio);
  sys.io->Unlock(*a.file, 0, 4096);
  const IoResult again = sys.io->Read(*a.file, 0, 4096);
  EXPECT_TRUE(again.used_fastio);
  sys.io->CloseHandle(*a.file);
}

}  // namespace
}  // namespace ntrace
