// The network redirector: remote file systems over a CIFS-like protocol.
//
// The paper's trace driver attached both to local file system drivers and to
// the driver implementing the network redirector, which provides access to
// remote file systems through CIFS (section 3.2). The study found no
// significant difference in open times between local and remote storage
// (section 6.2) -- because the redirector participates in the same cache
// manager machinery, remote files are cached client-side and most operations
// never touch the wire.
//
// The redirector here is the local file system driver with media and
// metadata access routed through a network + server model: one round trip
// per metadata operation, and payload transfer at the link rate plus the
// server's own (partially cached) disk time.

#ifndef SRC_FS_REDIRECTOR_H_
#define SRC_FS_REDIRECTOR_H_

#include <memory>

#include "src/base/rng.h"
#include "src/fs/fs_driver.h"

namespace ntrace {

struct NetworkProfile {
  SimDuration round_trip = SimDuration::Micros(800);  // Switched 100 Mbit/s LAN.
  double mb_per_second = 10.0;                        // Effective CIFS payload rate.
  double server_cache_hit_rate = 0.7;                 // Server satisfies from its own cache.
  DiskProfile server_disk = DiskProfile::Server();
};

class RedirectorDriver final : public FileSystemDriver {
 public:
  RedirectorDriver(Engine& engine, CacheManager& cache, std::unique_ptr<Volume> volume,
                   std::string prefix, NetworkProfile network, FsOptions options = {});

  uint64_t wire_requests() const { return wire_requests_; }
  uint64_t wire_bytes() const { return wire_bytes_; }

 protected:
  SimDuration MediaAccess(FileNode* node, uint64_t offset, uint64_t bytes, bool write) override;
  SimDuration MetadataAccess(size_t path_components) override;

 private:
  NetworkProfile network_;
  Disk server_disk_;
  Rng rng_;
  uint64_t wire_requests_ = 0;
  uint64_t wire_bytes_ = 0;
};

}  // namespace ntrace

#endif  // SRC_FS_REDIRECTOR_H_
