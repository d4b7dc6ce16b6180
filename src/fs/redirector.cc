#include "src/fs/redirector.h"

namespace ntrace {

RedirectorDriver::RedirectorDriver(Engine& engine, CacheManager& cache,
                                   std::unique_ptr<Volume> volume, std::string prefix,
                                   NetworkProfile network, FsOptions options)
    : FileSystemDriver(engine, cache, std::move(volume), std::move(prefix), network.server_disk,
                       options),
      network_(network),
      server_disk_(network.server_disk, /*rng_seed=*/0x5E17E),
      rng_(0xCAFE) {}

SimDuration RedirectorDriver::MediaAccess(FileNode* node, uint64_t offset, uint64_t bytes,
                                          bool write) {
  ++wire_requests_;
  wire_bytes_ += bytes;
  SimDuration latency = network_.round_trip;
  const double transfer_seconds =
      static_cast<double>(bytes) / (network_.mb_per_second * 1024.0 * 1024.0);
  latency += SimDuration::FromSecondsF(transfer_seconds);
  // The server serves hot data from its own cache; cold data pays disk time.
  if (write || !rng_.Bernoulli(network_.server_cache_hit_rate)) {
    latency += server_disk_.Access(node->disk_position + offset, bytes, write);
  }
  return latency;
}

SimDuration RedirectorDriver::MetadataAccess(size_t path_components) {
  ++wire_requests_;
  // Path resolution is one round trip regardless of depth (the server walks
  // the path); depth only adds server CPU, which is negligible here.
  (void)path_components;
  return network_.round_trip;
}

}  // namespace ntrace
