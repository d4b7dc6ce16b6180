#include "src/analysis/lifetimes.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <vector>

namespace ntrace {
namespace {

struct PathEvent {
  enum Kind { kCreated, kOverwritten, kDeleted, kTempDeleted, kOpened } kind;
  int64_t at = 0;            // Event time (creation completion / death time).
  int64_t close_at = 0;      // Cleanup of the handle (0 if absent).
  uint32_t process = 0;
  uint64_t size = 0;         // Size observed at the event.
};

// One system's new files and their deaths, file by file in path order.
struct LifetimePartial {
  std::vector<NewFileDeath> deaths;
  uint64_t new_files = 0;
};

LifetimePartial FoldSystem(std::span<const Instance> rows) {
  LifetimePartial p;
  // Per-file time-ordered event streams (rows are in create order). A fold
  // sees one system, so a path is a file: a death on one machine never
  // ends a file created on another.
  std::map<std::string_view, std::vector<PathEvent>> events;
  for (const Instance& s : rows) {
    if (s.open_failed || s.path.empty()) {
      continue;
    }
    const bool created = s.create_action == CreateAction::kCreated ||
                         s.create_action == CreateAction::kSuperseded;
    const bool overwrote = s.create_action == CreateAction::kOverwritten ||
                           s.create_action == CreateAction::kSuperseded;
    if (overwrote) {
      events[s.path].push_back(PathEvent{PathEvent::kOverwritten, s.open_complete, s.cleanup_time,
                                         s.process_id, s.file_size_at_open});
    }
    if (created) {
      events[s.path].push_back(PathEvent{PathEvent::kCreated, s.open_complete, s.cleanup_time,
                                         s.process_id, s.max_file_size});
      ++p.new_files;
    }
    if (s.cleanup_time != 0 && (s.set_delete_disposition || s.delete_on_close())) {
      const PathEvent::Kind kind = s.set_delete_disposition && !s.delete_on_close()
                                       ? PathEvent::kDeleted
                                       : PathEvent::kTempDeleted;
      events[s.path].push_back(
          PathEvent{kind, s.cleanup_time, s.cleanup_time, s.process_id, s.max_file_size});
    }
    if (!created && !overwrote && s.HasData()) {
      // Intermediate open (used for the opens-between statistic).
      events[s.path].push_back(
          PathEvent{PathEvent::kOpened, s.open_complete, s.cleanup_time, s.process_id, 0});
    }
  }

  // Match each creation with the next death event on the same file.
  for (auto& [file, list] : events) {
    std::stable_sort(list.begin(), list.end(),
                     [](const PathEvent& a, const PathEvent& b) { return a.at < b.at; });
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].kind != PathEvent::kCreated) {
        continue;
      }
      uint32_t opens_between = 0;
      for (size_t j = i + 1; j < list.size(); ++j) {
        const PathEvent& death = list[j];
        if (death.kind == PathEvent::kOpened) {
          ++opens_between;
          continue;
        }
        if (death.kind == PathEvent::kCreated) {
          break;  // Re-created without an observed death (lost overwrite).
        }
        NewFileDeath d;
        d.method = death.kind == PathEvent::kOverwritten ? DeletionMethod::kOverwrite
                   : death.kind == PathEvent::kDeleted   ? DeletionMethod::kExplicitDelete
                                                         : DeletionMethod::kTemporary;
        d.lifetime_ms = SimDuration(death.at - list[i].at).ToMillisF();
        if (list[i].close_at != 0 && death.at > list[i].close_at) {
          d.close_to_death_ms = SimDuration(death.at - list[i].close_at).ToMillisF();
        }
        d.size_at_death = death.kind == PathEvent::kOverwritten ? death.size : list[i].size;
        d.same_process = death.process == list[i].process;
        d.opens_between = opens_between;
        p.deaths.push_back(d);
        break;
      }
    }
  }
  return p;
}

}  // namespace

LifetimeResult LifetimeAnalyzer::Analyze(const InstanceTable& instances, int workers) {
  LifetimeResult result;
  for (LifetimePartial& p : instances.FoldSystems(workers, FoldSystem)) {
    result.new_files += p.new_files;
    result.deaths.insert(result.deaths.end(), p.deaths.begin(), p.deaths.end());
  }

  std::vector<double> sizes;
  std::vector<double> lifetimes;
  uint64_t died_4s = 0;
  uint64_t died_30s = 0;
  uint64_t overwrites_4ms = 0;
  uint64_t deletes_4s = 0;
  uint64_t overwrite_same_proc = 0;
  uint64_t delete_same_proc = 0;
  uint64_t delete_opened_between = 0;
  WeightedCdf overwrite_close_gap;
  for (const NewFileDeath& d : result.deaths) {
    if (d.lifetime_ms <= 4000.0) {
      ++died_4s;
    }
    if (d.lifetime_ms <= 30000.0) {
      ++died_30s;
    }
    switch (d.method) {
      case DeletionMethod::kOverwrite:
        result.overwrite_lifetime_ms.Add(d.lifetime_ms);
        if (d.lifetime_ms <= 4.0) {
          ++overwrites_4ms;
        }
        if (d.same_process) {
          ++overwrite_same_proc;
        }
        if (d.close_to_death_ms > 0) {
          overwrite_close_gap.Add(d.close_to_death_ms);
        }
        break;
      case DeletionMethod::kExplicitDelete:
        result.delete_lifetime_ms.Add(d.lifetime_ms);
        if (d.lifetime_ms <= 4000.0) {
          ++deletes_4s;
        }
        if (d.same_process) {
          ++delete_same_proc;
        }
        if (d.opens_between > 0) {
          ++delete_opened_between;
        }
        break;
      case DeletionMethod::kTemporary:
        break;
    }
    sizes.push_back(static_cast<double>(d.size_at_death));
    lifetimes.push_back(d.lifetime_ms);
  }

  result.overwrite_lifetime_ms.Finalize();
  result.delete_lifetime_ms.Finalize();
  overwrite_close_gap.Finalize();

  const double n = static_cast<double>(result.deaths.size());
  if (n > 0) {
    uint64_t overwrite_count = 0;
    uint64_t explicit_count = 0;
    uint64_t temp_count = 0;
    for (const NewFileDeath& d : result.deaths) {
      switch (d.method) {
        case DeletionMethod::kOverwrite:
          ++overwrite_count;
          break;
        case DeletionMethod::kExplicitDelete:
          ++explicit_count;
          break;
        case DeletionMethod::kTemporary:
          ++temp_count;
          break;
      }
    }
    result.overwrite_share = overwrite_count / n;
    result.explicit_share = explicit_count / n;
    result.temporary_share = temp_count / n;
    result.died_within_4s_fraction = died_4s / n;
    result.died_within_30s_fraction = died_30s / n;
    result.overwritten_within_4ms_fraction =
        overwrite_count > 0 ? static_cast<double>(overwrites_4ms) / overwrite_count : 0;
    result.deleted_within_4s_fraction =
        explicit_count > 0 ? static_cast<double>(deletes_4s) / explicit_count : 0;
    result.overwrite_same_process_fraction =
        overwrite_count > 0 ? static_cast<double>(overwrite_same_proc) / overwrite_count : 0;
    result.delete_same_process_fraction =
        explicit_count > 0 ? static_cast<double>(delete_same_proc) / explicit_count : 0;
    result.delete_opened_between_fraction =
        explicit_count > 0 ? static_cast<double>(delete_opened_between) / explicit_count : 0;
  }
  if (!overwrite_close_gap.empty()) {
    result.overwrite_close_gap_p75_ms = overwrite_close_gap.Percentile(0.75);
  }
  if (sizes.size() >= 3) {
    result.size_lifetime_correlation = PearsonCorrelation(sizes, lifetimes);
  }
  return result;
}

}  // namespace ntrace
