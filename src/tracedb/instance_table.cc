#include "src/tracedb/instance_table.h"

#include <algorithm>

#include "src/base/flat_map.h"

namespace ntrace {
namespace {

// One system's rows, from its records in trace order, into `rows` (one
// slot per create, in create order).
void BuildSystem(const TraceSet& trace, std::span<const uint32_t> records,
                 std::span<Instance> rows) {
  FlatMap<uint64_t, Instance*> index;  // file_object -> row.
  index.reserve(rows.size());
  Instance* next = rows.data();

  auto row_for = [&](const TraceRecord& r) -> Instance* {
    auto it = index.find(r.file_object);
    return it == index.end() ? nullptr : it->second;
  };

  for (const uint32_t i : records) {
    const TraceRecord& r = trace.records[i];
    const TraceEvent ev = r.Event();
    if (ev == TraceEvent::kIrpCreate) {
      Instance& row = *next++;
      row.file_object = r.file_object;
      row.system_id = r.system_id;
      row.process_id = r.process_id;
      const std::string* path = trace.PathOf(r.file_object);
      if (path != nullptr) {
        row.path = *path;
        row.file_type = FileTypeDimension::Categorize(*path);
      }
      row.open_status = r.Status();
      row.open_failed = NtError(r.Status());
      row.disposition = static_cast<CreateDisposition>(r.disposition);
      row.create_action = static_cast<CreateAction>(r.create_action);
      row.create_options = r.create_options;
      row.file_attributes = r.file_attributes;
      row.open_start = r.start_ticks;
      row.open_complete = r.complete_ticks;
      row.file_size_at_open = r.file_size;
      row.max_file_size = r.file_size;
      index[r.file_object] = &row;
      continue;
    }

    Instance* row = row_for(r);
    if (row == nullptr) {
      continue;  // Operation on an object opened before the trace started.
    }
    row->max_file_size = std::max(row->max_file_size, r.file_size);

    if (r.IsPagingIo()) {
      if ((r.irp_flags & kIrpReadAhead) != 0) {
        ++row->readahead_irps;
      } else if ((r.irp_flags & kIrpLazyWrite) != 0) {
        ++row->lazywrite_irps;
      } else if ((r.irp_flags & kIrpCacheFault) != 0) {
        if (ev == TraceEvent::kIrpRead) {
          ++row->pagein_irps;
        } else if (ev == TraceEvent::kIrpWrite) {
          ++row->lazywrite_irps;  // Flush-path write-behind.
        } else if (ev == TraceEvent::kIrpSetInformation &&
                   static_cast<FileInfoClass>(r.info_class) == FileInfoClass::kEndOfFile) {
          row->seteof_at_close = true;
        }
      } else {
        ++row->vm_paging_irps;
      }
      continue;
    }

    switch (ev) {
      case TraceEvent::kIrpRead:
      case TraceEvent::kFastIoRead: {
        const bool fastio = ev == TraceEvent::kFastIoRead;
        if (NtError(r.Status()) || r.Status() == NtStatus::kEndOfFile) {
          ++row->read_errors;
          if (r.Status() != NtStatus::kEndOfFile) {
            break;
          }
        }
        fastio ? ++row->fastio_reads : ++row->irp_reads;
        row->bytes_read += r.returned;
        row->ops.push_back(
            RwOp{r.offset, r.length, false, fastio, r.start_ticks, r.complete_ticks});
        break;
      }
      case TraceEvent::kIrpWrite:
      case TraceEvent::kFastIoWrite: {
        const bool fastio = ev == TraceEvent::kFastIoWrite;
        fastio ? ++row->fastio_writes : ++row->irp_writes;
        row->bytes_written += r.returned;
        row->ops.push_back(
            RwOp{r.offset, r.length, true, fastio, r.start_ticks, r.complete_ticks});
        break;
      }
      case TraceEvent::kFastIoReadNotPossible:
        ++row->fastio_read_fallbacks;
        break;
      case TraceEvent::kFastIoWriteNotPossible:
        ++row->fastio_write_fallbacks;
        break;
      case TraceEvent::kIrpCleanup:
        row->cleanup_time = r.complete_ticks;
        break;
      case TraceEvent::kIrpClose:
        row->close_time = r.complete_ticks;
        break;
      case TraceEvent::kIrpDirectoryControl:
        ++row->directory_ops;
        if (NtError(r.Status())) {
          ++row->control_errors;
        }
        break;
      case TraceEvent::kIrpSetInformation:
        if (static_cast<FileInfoClass>(r.info_class) == FileInfoClass::kDisposition &&
            r.offset != 0) {
          row->set_delete_disposition = true;
        }
        [[fallthrough]];
      case TraceEvent::kIrpQueryInformation:
      case TraceEvent::kIrpQueryVolumeInformation:
      case TraceEvent::kIrpFileSystemControl:
      case TraceEvent::kIrpDeviceControl:
      case TraceEvent::kIrpFlushBuffers:
      case TraceEvent::kIrpLockControl:
      case TraceEvent::kIrpQueryEa:
      case TraceEvent::kIrpSetEa:
      case TraceEvent::kIrpQuerySecurity:
      case TraceEvent::kIrpSetSecurity:
      case TraceEvent::kFastIoQueryBasicInfo:
      case TraceEvent::kFastIoQueryStandardInfo:
        ++row->control_ops;
        if (NtError(r.Status())) {
          ++row->control_errors;
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace

InstanceTable InstanceTable::Build(const TraceSet& trace, const SystemIndex& index, int workers) {
  InstanceTable table;
  const int n = index.systems();
  table.system_ids_.reserve(static_cast<size_t>(n));
  table.begin_.reserve(static_cast<size_t>(n) + 1);
  for (int s = 0; s < n; ++s) {
    table.system_ids_.push_back(index.id(s));
    table.begin_.push_back(table.begin_.back() + index.creates(s));
  }
  table.rows_.resize(table.begin_.back());
  trace.EnsureNameIndex();  // Before the workers share it.
  const auto records = [&index](int s) { return index.records(s).size(); };
  ParallelForHeaviestFirst(n, workers, records, [&](int s) {
    const std::span<Instance> rows(table.rows_.data() + table.begin_[s], index.creates(s));
    BuildSystem(trace, index.records(s), rows);
  });
  return table;
}

InstanceTable InstanceTable::Build(const TraceSet& trace) {
  return Build(trace, SystemIndex::Build(trace), 1);
}

InstanceTable InstanceTable::FromRows(std::vector<Instance> rows) {
  InstanceTable table;
  std::stable_sort(rows.begin(), rows.end(), [](const Instance& a, const Instance& b) {
    return a.system_id < b.system_id;
  });
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].system_id != rows[i - 1].system_id) {
      if (i > 0) {
        table.begin_.push_back(i);
      }
      table.system_ids_.push_back(rows[i].system_id);
    }
  }
  if (!rows.empty()) {
    table.begin_.push_back(rows.size());
  }
  table.rows_ = std::move(rows);
  return table;
}

std::vector<const Instance*> InstanceTable::SuccessfulOpens() const {
  std::vector<const Instance*> out;
  out.reserve(rows_.size());
  for (const Instance& row : rows_) {
    if (!row.open_failed) {
      out.push_back(&row);
    }
  }
  return out;
}

std::vector<const Instance*> InstanceTable::DataSessions() const {
  std::vector<const Instance*> out;
  for (const Instance& row : rows_) {
    if (!row.open_failed && row.HasData()) {
      out.push_back(&row);
    }
  }
  return out;
}

}  // namespace ntrace
