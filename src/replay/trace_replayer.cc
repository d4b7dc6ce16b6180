#include "src/replay/trace_replayer.h"

#include <atomic>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "src/base/crc32c.h"

namespace ntrace {

namespace {

int ResolveThreads(int requested, int systems) {
  if (requested <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return requested < systems ? (requested < 1 ? 1 : requested) : systems;
}

}  // namespace

uint32_t TraceFingerprint(const TraceSet& trace) {
  uint32_t crc = 0;
  if (!trace.records.empty()) {
    crc = Crc32cExtend(crc, trace.records.data(), trace.records.size() * sizeof(TraceRecord));
  }
  for (const NameRecord& n : trace.names) {
    crc = Crc32cExtend(crc, &n.file_object, sizeof(n.file_object));
    crc = Crc32cExtend(crc, &n.system_id, sizeof(n.system_id));
    crc = Crc32cExtend(crc, n.path.data(), n.path.size());
  }
  return crc;
}

FidelityReport CheckFidelity(const TraceSet& original, const TraceSet& replayed) {
  FidelityReport report;
  report.original_records = original.records.size();
  report.replayed_records = replayed.records.size();

  const size_t common =
      original.records.size() < replayed.records.size() ? original.records.size()
                                                        : replayed.records.size();
  size_t mismatch = SIZE_MAX;
  for (size_t i = 0; i < common; ++i) {
    if (std::memcmp(&original.records[i], &replayed.records[i], sizeof(TraceRecord)) != 0) {
      mismatch = i;
      break;
    }
  }
  if (mismatch == SIZE_MAX && original.records.size() != replayed.records.size()) {
    mismatch = common;
  }
  report.identical = mismatch == SIZE_MAX;
  report.first_mismatch = mismatch;

  report.names_identical = original.names.size() == replayed.names.size();
  if (report.names_identical) {
    for (size_t i = 0; i < original.names.size(); ++i) {
      const NameRecord& a = original.names[i];
      const NameRecord& b = replayed.names[i];
      if (a.file_object != b.file_object || a.system_id != b.system_id || a.path != b.path) {
        report.names_identical = false;
        break;
      }
    }
  }

  if (!report.exact()) {
    std::ostringstream os;
    if (!report.identical) {
      os << "records differ at index " << mismatch << " (" << report.original_records
         << " recorded vs " << report.replayed_records << " replayed)";
      if (mismatch < common) {
        const TraceRecord& a = original.records[mismatch];
        const TraceRecord& b = replayed.records[mismatch];
        os << ": recorded {event=" << a.event << " fo=" << a.file_object
           << " start=" << a.start_ticks << " complete=" << a.complete_ticks
           << " offset=" << a.offset << " length=" << a.length << " status=" << a.status
           << "} replayed {event=" << b.event << " fo=" << b.file_object
           << " start=" << b.start_ticks << " complete=" << b.complete_ticks
           << " offset=" << b.offset << " length=" << b.length << " status=" << b.status << "}";
      }
    }
    if (!report.names_identical) {
      if (!report.identical) {
        os << "; ";
      }
      os << "name streams differ (" << original.names.size() << " recorded vs "
         << replayed.names.size() << " replayed)";
    }
    report.detail = os.str();
  }
  return report;
}

ReplaySalvageInfo SalvageInfoFromStats(const ExtentReadStats& stats) {
  ReplaySalvageInfo info;
  info.records_lost_known = stats.KnownLost();
  // The dictionary, name table and seal ride behind the extent frames, so
  // any damage -- or a truncation clean enough to leave no damaged frame --
  // takes the names with it; an unsealed read of a sealed store is the same
  // evidence.
  info.names_lost = stats.frames_damaged > 0 || stats.bytes_discarded > 0 || !stats.sealed;
  return info;
}

ReplaySalvageInfo SalvageInfoFromIntegrity(const IntegrityReport& report) {
  const SystemIntegrity t = report.Totals();
  ReplaySalvageInfo info;
  info.records_lost_known = t.records_overflow_dropped + t.records_shed + t.records_lost +
                            t.records_unresolved + t.records_lost_to_corruption;
  // Shipment loss takes the shipment's name records with it; only a fully
  // collected run is guaranteed a complete name table.
  info.names_lost = info.records_lost_known > 0;
  return info;
}

TraceReplayer::TraceReplayer(const FleetConfig& config)
    : config_(config), system_options_(FleetSystemOptions(config)) {}

FleetReplayResult TraceReplayer::Replay(const TraceSet& recorded, const ReplayOptions& options,
                                        int threads) const {
  const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();

  const int total = static_cast<int>(system_options_.size());
  // Slice the collection per system up front (preserves per-system emission
  // order: the fleet merge is stable, so a slice equals the shard stream the
  // system originally delivered).
  std::vector<TraceSet> slices(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    slices[static_cast<size_t>(i)] = recorded.ForSystem(system_options_[static_cast<size_t>(i)].system_id);
  }

  std::vector<SystemReplayResult> results(static_cast<size_t>(total));
  const int workers = ResolveThreads(threads, total);
  std::atomic<int> next{0};
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) {
        return;
      }
      const size_t idx = static_cast<size_t>(i);
      ReplaySystem system(system_options_[idx], slices[idx], options);
      results[idx] = system.Run();
      // Mirror the fleet worker: the shard leaves each system time-sorted
      // (already true of per-system emission order; a stable no-op).
      TraceSet shard;
      shard.records = std::move(results[idx].records);
      shard.SortByTime();
      results[idx].records = std::move(shard.records);
    }
  };
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

  // Merge in system-id order, exactly like RunFleet's merge phase.
  FleetReplayResult out;
  std::vector<std::vector<TraceRecord>> sorted_runs;
  sorted_runs.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    SystemReplayResult& r = results[static_cast<size_t>(i)];
    sorted_runs.push_back(std::move(r.records));
    out.trace.names.insert(out.trace.names.end(), r.names.begin(), r.names.end());
    r.names.clear();
    out.divergence.Accumulate(r.divergence);
    out.cache.Accumulate(r.cache);
    out.fastio_read_attempts += r.fastio_read_attempts;
    out.fastio_read_hits += r.fastio_read_hits;
    out.fastio_write_attempts += r.fastio_write_attempts;
    out.fastio_write_hits += r.fastio_write_hits;
    out.irp_count += r.irp_count;
    out.records_in += r.records_in;
    out.degraded.Accumulate(r.degraded);
  }
  // Loss is a collection-level figure; echo it once, not once per system.
  out.degraded.records_lost_known = options.salvage.records_lost_known;
  out.trace.MergeSortedRuns(std::move(sorted_runs));
  // The end-of-run process-name capture is not part of the replayable
  // stream; carry the recorded map through.
  out.trace.process_names = recorded.process_names;
  out.trace.EnsureNameIndex();
  out.systems = std::move(results);
  out.metrics = MetricsRegistry::Global().Snapshot().DeltaFrom(metrics_before);
  return out;
}

FleetReplayResult TraceReplayer::Replay(const ColumnarTraceSet& recorded,
                                        const ReplayOptions& options, int threads) const {
  const TraceSet rows = recorded.ToRows();
  ReplayOptions effective = options;
  if (effective.tolerate_gaps && !effective.salvage.lossy()) {
    // The columnar reader already did the loss accounting; a gap-tolerant
    // caller should not have to re-derive it.
    effective.salvage = SalvageInfoFromStats(recorded.read_stats());
  }
  return Replay(rows, effective, threads);
}

}  // namespace ntrace
