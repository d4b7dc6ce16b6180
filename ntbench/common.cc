#include "ntbench/common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "src/trace/extent_store.h"

namespace ntrace::ntbench {

void Outcome::Fail(uint64_t ops, const std::string& why) {
  correct = false;
  failed += ops;
  std::fprintf(stderr, "ntbench: check failed: %s\n", why.c_str());
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB.
}

double CurrentRssMb() {
  long pages_total = 0;
  long pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  const int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) {
    return 0;
  }
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void ResetPeakRss() {
  malloc_trim(0);  // Hand freed heap pages back first, so they do not count.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f != nullptr) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssSinceResetMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return PeakRssMb();
  }
  char line[256];
  double kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb >= 0 ? kb / 1024.0 : PeakRssMb();
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double RunPool(int n, int workers, const std::function<void(int)>& body) {
  const double start = Now();
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        body(i);
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return Now() - start;
}

FleetConfig StudyFleet(const Options& options, int fleet, int threads) {
  FleetConfig config;
  if (options.tiny) {
    config.walk_up = config.pool = config.personal = config.administrative = config.scientific = 1;
    config.activity_scale = 0.3;
    config.content_scale = 0.05;
  } else {
    config.walk_up = 10;
    config.pool = 12;
    config.personal = 14;
    config.administrative = 5;
    config.scientific = 4;
    config.activity_scale = 0.75;
    config.content_scale = 0.12;
  }
  config.days = 1;
  config.seed = 1999 + kSeedFleets * options.seed + static_cast<uint64_t>(fleet);
  config.threads = threads;
  return config;
}

FleetConfig IngestFleet(const Options& options, int fleet, const std::string& dir) {
  FleetConfig config = StudyFleet(options, fleet, /*threads=*/2);
  config.net.enabled = true;
  config.net.shards = 2;
  config.durability.spool_dir = dir + "/spool";
  config.columnar_dir = dir + "/columnar";
  return config;
}

FleetConfig EnvelopeFleet() {
  FleetConfig config;
  config.walk_up = config.pool = config.personal = config.administrative = config.scientific = 1;
  config.days = 1;
  config.seed = 7;
  config.activity_scale = 0.3;
  config.content_scale = 0.05;
  config.threads = 4;
  return config;
}

namespace {

class Fnv {
 public:
  void Mix(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void MixU64(uint64_t v) { Mix(&v, sizeof(v)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t FleetFingerprint(const TraceSet& trace, const IntegrityReport& integrity) {
  Fnv fp;
  if (!trace.records.empty()) {
    // TraceRecord is POD with no implicit padding (see trace_record.h).
    fp.Mix(trace.records.data(), trace.records.size() * sizeof(TraceRecord));
  }
  for (const NameRecord& n : trace.names) {
    fp.MixU64(n.file_object);
    fp.MixU64(n.system_id);
    fp.Mix(n.path.data(), n.path.size());
  }
  for (const auto& [pid, name] : trace.process_names) {
    fp.MixU64(pid);
    fp.Mix(name.data(), name.size());
  }
  for (const SystemIntegrity& s : integrity.systems) {
    for (uint64_t v :
         {uint64_t{s.system_id}, s.records_emitted, s.records_overflow_dropped, s.records_shed,
          s.records_lost, s.records_unresolved, s.shipments_sent, s.shipment_attempts,
          s.shipment_failures, s.shipments_abandoned, s.peak_retry_backlog, s.shipments_received,
          s.duplicate_shipments, s.out_of_order_shipments, s.sequence_gaps, s.records_collected,
          s.duplicate_records_discarded, s.records_salvaged, s.records_lost_to_corruption}) {
      fp.MixU64(v);
    }
  }
  return fp.value();
}

uint64_t WriteExtentStore(const TraceSet& trace, const std::string& path) {
  ExtentStoreWriter writer;
  if (!writer.Open(path, kDefaultExtentRecords, /*config_fingerprint=*/0) ||
      !writer.AppendRecords(trace.records.data(), trace.records.size())) {
    return 0;
  }
  for (const NameRecord& n : trace.names) {
    writer.AddName(n);
  }
  for (const auto& [pid, name] : trace.process_names) {
    writer.AddProcessName(pid, name);
  }
  if (!writer.Seal()) {
    return 0;
  }
  const uint64_t bytes = writer.bytes_written();
  writer.Close();
  return bytes;
}

void TruncateHalf(const std::string& path) {
  std::error_code ec;
  std::filesystem::resize_file(path, FileSize(path) / 2, ec);
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

void AddEndToEnd(Outcome* out, const std::vector<double>& setup_seconds,
                 const std::vector<Sample>& samples) {
  std::map<int, std::vector<const Sample*>> by_input;
  for (const Sample& s : samples) {
    by_input[s.input].push_back(&s);
  }
  double records = 0;
  double wall = 0;
  double cpu = 0;
  double peak_bytes = 0;
  for (const auto& [input, runs] : by_input) {
    std::vector<double> r;
    std::vector<double> w;
    std::vector<double> c;
    std::vector<double> p;
    for (const Sample* s : runs) {
      r.push_back(static_cast<double>(s->records));
      w.push_back(s->wall);
      c.push_back(s->cpu);
      p.push_back(s->peak_mb * 1024 * 1024);
    }
    records += Median(r);
    wall += Median(w);
    cpu += Median(c);
    peak_bytes += Median(p);
  }
  std::printf("# process peak_rss_mb=%.1f inputs=%zu iterations=%zu\n", PeakRssMb(),
              by_input.size(), samples.size());
  out->Add("setup_s", Median(setup_seconds), "s");
  out->Add("records_per_s", wall > 0 ? records / wall : 0, "1/s");
  out->Add("cpu_ns_per_record", records > 0 ? cpu * 1e9 / records : 0, "ns");
  out->Add("rss_bytes_per_record", records > 0 ? peak_bytes / records : 0, "B");
}

std::vector<Sample> TimedLoop(const Options& options, int pass, int min_passes,
                              const std::function<Sample(int)>& iteration) {
  std::vector<Sample> samples;
  double timed = 0;
  while (samples.size() < static_cast<size_t>(pass * min_passes) || timed < options.seconds) {
    for (int i = 0; i < pass; ++i) {
      ResetPeakRss();
      samples.push_back(iteration(static_cast<int>(samples.size())));
      Sample& s = samples.back();
      s.peak_mb = PeakRssSinceResetMb();
      timed += s.wall;
      std::printf("# iteration %zu input=%d records=%llu wall_s=%.4f cpu_s=%.4f peak_mb=%.1f\n",
                  samples.size(), s.input, static_cast<unsigned long long>(s.records), s.wall,
                  s.cpu, s.peak_mb);
    }
  }
  return samples;
}

}  // namespace ntrace::ntbench
