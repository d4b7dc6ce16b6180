#include "src/replay/replay_system.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/metrics/metrics.h"
#include "src/mm/page_store.h"
#include "src/ntio/irp_pool.h"
#include "src/ntio/status.h"

namespace ntrace {

namespace {

// Degraded-mode counters (DESIGN.md §16): how much session-bracket repair
// and pacing re-anchoring gap-tolerant replays are doing process-wide.
struct ReplayMetrics {
  Counter& synthesized_ops;
  Counter& gaps;
  Counter& reanchors;

  static ReplayMetrics& Get() {
    static ReplayMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ReplayMetrics{
          r.GetCounter("ntrace_replay_synthesized_ops_total",
                       "Session-bracket operations synthesized for gap-orphaned handles"),
          r.GetCounter("ntrace_replay_gaps_total",
                       "Trace gaps spanned by gap-tolerant replays"),
          r.GetCounter("ntrace_replay_reanchors_total",
                       "Pacing re-anchor events in gap-tolerant replays")};
    }();
    return m;
  }
};

}  // namespace

void ReplayDivergence::Accumulate(const ReplayDivergence& other) {
  late_ops += other.late_ops;
  id_mismatches += other.id_mismatches;
  status_mismatches += other.status_mismatches;
  missing_file_objects += other.missing_file_objects;
  missing_names += other.missing_names;
  synthesized_renames += other.synthesized_renames;
  pattern_fallbacks += other.pattern_fallbacks;
  unsupported_ops += other.unsupported_ops;
  saturated_reserved += other.saturated_reserved;
  unfired_bursts += other.unfired_bursts;
}

void DegradedReplayReport::Accumulate(const DegradedReplayReport& other) {
  degraded = degraded || other.degraded;
  records_lost_known += other.records_lost_known;
  gaps_detected += other.gaps_detected;
  synthesized_creates += other.synthesized_creates;
  synthesized_closes += other.synthesized_closes;
  fabricated_names += other.fabricated_names;
  orphan_ops_dropped += other.orphan_ops_dropped;
  reanchors += other.reanchors;
  if (other.max_drift_ticks > max_drift_ticks) {
    max_drift_ticks = other.max_drift_ticks;
  }
}

SystemOptions ReplaySystem::EffectiveOptions(const SystemOptions& options,
                                             const ReplayOptions& replay) {
  SystemOptions effective = options;
  if (replay.apply_policy) {
    effective.cache_config = replay.policy.cache;
  }
  return effective;
}

ReplaySystem::ReplaySystem(const SystemOptions& options, const TraceSet& recorded,
                           const ReplayOptions& replay)
    : recorded_(recorded), replay_(replay), sys_(EffectiveOptions(options, replay), server_) {
  if (replay_.apply_policy) {
    sys_.io().set_fastio_policy(replay_.policy.fastio);
  }
  const IoDispatchCosts costs;
  irp_ticks_ = costs.irp_overhead.ticks();
  fastio_ticks_ = costs.fastio_overhead.ticks();
  BuildNameCursors();
  BuildVolumeIdMap();
  ExtractBursts();
}

void ReplaySystem::BuildNameCursors() {
  for (const NameRecord& n : recorded_.names) {
    name_cursors_[n.file_object].entries.push_back(&n.path);
  }
}

void ReplaySystem::BuildVolumeIdMap() {
  for (const std::string& prefix : sys_.io().VolumePrefixes()) {
    FileObject* volume_file = sys_.io().VolumeFileObject(prefix);
    if (volume_file != nullptr) {
      volume_ids_[volume_file->id()] = prefix;
    }
  }
}

void ReplaySystem::ExtractBursts() {
  ops_.reserve(recorded_.records.size());
  for (const TraceRecord& r : recorded_.records) {
    if (r.IsCacheInduced()) {
      continue;  // Regenerated live by the cache manager.
    }
    if (r.Event() == TraceEvent::kIrpClose) {
      recorded_closes_.insert(r.file_object);
    }
    ops_.push_back(&r);
  }
  size_t begin = 0;
  int64_t current_due = 0;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const TraceRecord& r = *ops_[i];
    if (r.reserved == UINT32_MAX) {
      ++div_.saturated_reserved;
    }
    int64_t due = r.complete_ticks - static_cast<int64_t>(r.reserved);
    if (due < 0) {
      due = 0;
    }
    if (i == 0) {
      current_due = due;
      continue;
    }
    if (due != current_due) {
      bursts_.push_back(Burst{current_due, begin, i});
      begin = i;
      current_due = due;
    }
  }
  if (!ops_.empty()) {
    bursts_.push_back(Burst{current_due, begin, ops_.size()});
  }
}

SystemReplayResult ReplaySystem::Run() {
  end_ticks_ = SimDuration::Days(sys_.options().days).ticks();
  Engine& engine = sys_.engine();

  // Bursts due exactly at end-of-run ran inline after the recording's
  // RunUntil(end) returned (end-of-session teardown); everything else is
  // an ordinary engine callback. Pre-scheduling at time zero gives replay
  // bursts the lowest sequence numbers, so at equal dues they dispatch
  // before the live stack's background events -- matching the recording,
  // where the operation's callback was the one that advanced the clock.
  std::vector<size_t> end_bursts;
  for (size_t i = 0; i < bursts_.size(); ++i) {
    if (bursts_[i].due == end_ticks_) {
      end_bursts.push_back(i);
    } else {
      engine.ScheduleAt(SimTime(bursts_[i].due), [this, i] { RunBurst(i); });
    }
  }
  engine.RunUntil(SimTime(end_ticks_));
  for (size_t i : end_bursts) {
    RunBurst(i);
  }

  if (replay_.tolerate_gaps && (replay_.salvage.lossy() || deg_.degraded)) {
    SynthesizeCloses();
  }
  ReleaseGovernorRefs();

  // Mirror SimulatedSystem::Run's drain: flush the agent, let shipments and
  // deferred closes land, and give a faulted link its retry window.
  sys_.agent().Flush();
  engine.RunUntil(engine.Now() + SimDuration::Seconds(30));
  if (sys_.options().fault_config.enabled()) {
    sys_.agent().Flush();
    engine.RunUntil(engine.Now() + SimDuration::Seconds(30));
  }

  SystemReplayResult out;
  out.system_id = sys_.options().system_id;
  out.records_in = ops_.size();
  out.bursts = bursts_.size();
  div_.unfired_bursts += bursts_.size() - fired_bursts_;
  TraceSet& collected = server_.Finish();
  out.records = std::move(collected.records);
  out.names = std::move(collected.names);
  out.divergence = div_;
  out.cache = sys_.cache().stats();
  out.fastio_read_attempts = sys_.io().fastio_read_attempts();
  out.fastio_read_hits = sys_.io().fastio_read_hits();
  out.fastio_write_attempts = sys_.io().fastio_write_attempts();
  out.fastio_write_hits = sys_.io().fastio_write_hits();
  out.irp_count = sys_.io().irp_count();
  // records_lost_known is a collection-level figure (a damaged merged store
  // cannot attribute loss to one system); the fleet aggregation echoes it.
  deg_.degraded = deg_.degraded || replay_.salvage.lossy();
  out.degraded = deg_;
  if (deg_.synthesized_ops() > 0 || deg_.gaps_detected > 0 || deg_.reanchors > 0) {
    ReplayMetrics& m = ReplayMetrics::Get();
    m.synthesized_ops.Inc(deg_.synthesized_ops());
    m.gaps.Inc(deg_.gaps_detected);
    m.reanchors.Inc(deg_.reanchors);
  }
  return out;
}

void ReplaySystem::RunBurst(size_t burst_index) {
  const Burst& b = bursts_[burst_index];
  ++fired_bursts_;
  for (size_t i = b.begin; i < b.end; ++i) {
    ReplayRecord(i);
  }
}

void ReplaySystem::PaceTo(int64_t target_ticks) {
  // Pace to the absolute recorded time: if the burst dispatched late (its
  // callback's due had already been overtaken by synchronous work, in the
  // recording and the replay alike), the recorded issue times already carry
  // that lateness.
  const int64_t target = target_ticks + anchor_offset_;
  const int64_t now = sys_.engine().Now().ticks();
  if (target > now) {
    sys_.engine().AdvanceBy(SimDuration(target - now));
  } else if (target < now) {
    // Gap-tolerant pacing (DESIGN.md §16): when the live clock has
    // overtaken the recorded timeline past the drift bound -- synthetic
    // session repair did work the recording never paid for -- re-anchor the
    // timeline to the live clock. Later ops keep their recorded spacing,
    // shifted by the accumulated offset, instead of issuing as a wall of
    // instantly-due operations until the clock catches up.
    if (replay_.tolerate_gaps && now - target > replay_.gap_reanchor_ticks) {
      anchor_offset_ += now - target;
      ++deg_.reanchors;
      if (anchor_offset_ > deg_.max_drift_ticks) {
        deg_.max_drift_ticks = anchor_offset_;
      }
      deg_.degraded = true;
    } else {
      ++div_.late_ops;  // The clock never rewinds; issue late and count it.
    }
  }
}

void ReplaySystem::ReleaseGovernorRefs() {
  // A close that fired during the recording's post-flush drain emitted a
  // record that never shipped, so the input holds no close for that id and
  // the governor reference would pin the object forever, suppressing the
  // close IRP the recording dispatched. Where another holder remains (a
  // cache map awaiting teardown), drop the governor reference now; the live
  // stack then fires the mirrored close on its own during the drain below,
  // exactly when the recording did. Objects whose recorded close is still
  // scheduled (a drain burst shipped by a later flush) keep the reference,
  // as do objects the governor alone keeps alive -- there it stands in for
  // an unrecorded holder that never released before harvest.
  for (auto it = live_.begin(); it != live_.end();) {
    FileObject* fo = it->second;
    if (fo->ref_count > 1 && recorded_closes_.count(it->first) == 0) {
      it = live_.erase(it);
      sys_.io().DereferenceFileObject(*fo);
    } else {
      ++it;
    }
  }
}

FileObject* ReplaySystem::LookupFileObject(uint64_t id) {
  auto it = live_.find(id);
  if (it != live_.end()) {
    return it->second;
  }
  auto vit = volume_ids_.find(id);
  if (vit != volume_ids_.end()) {
    return sys_.io().VolumeFileObject(vit->second);
  }
  return nullptr;
}

FileObject* ReplaySystem::ResolveFileObject(const TraceRecord& r) {
  FileObject* fo = LookupFileObject(r.file_object);
  if (fo != nullptr) {
    return fo;
  }
  if (replay_.tolerate_gaps) {
    return RecoverOrphan(r);
  }
  ++div_.missing_file_objects;
  return nullptr;
}

void ReplaySystem::NoteGapEvidence() {
  deg_.degraded = true;
  // Consecutive orphaned ops are one hole in the stream; a fresh cluster is
  // a fresh gap.
  if (last_orphan_index_ == SIZE_MAX || cur_index_ != last_orphan_index_ + 1) {
    ++deg_.gaps_detected;
  }
  last_orphan_index_ = cur_index_;
}

FileObject* ReplaySystem::RecoverOrphan(const TraceRecord& r) {
  NoteGapEvidence();
  // The create for this id fell in a gap. Re-open the session synthetically:
  // the recorded path is the id's first unconsumed name-cursor entry; when
  // the name shipped in a lost frame (or the whole name table went with the
  // store tail), fabricate a root-level stand-in path instead.
  const std::string* path = NextName(r.file_object);
  std::string fabricated;
  if (path == nullptr) {
    const std::vector<std::string> volumes = sys_.io().VolumePrefixes();
    if (volumes.empty()) {
      ++deg_.orphan_ops_dropped;
      return nullptr;
    }
    fabricated = volumes.front() + "\\__salvaged_" + std::to_string(r.file_object);
    path = &fabricated;
    ++deg_.fabricated_names;
  }
  CreateRequest req;
  req.path = *path;
  req.disposition = CreateDisposition::kOpenIf;
  req.desired_access = kAccessReadData | kAccessWriteData;
  req.share_access = kShareRead | kShareWrite | kShareDelete;
  req.process_id = r.process_id;
  const CreateResult res = sys_.io().Create(req);
  if (res.file == nullptr) {
    ++deg_.orphan_ops_dropped;
    return nullptr;
  }
  ++deg_.synthesized_creates;
  live_[r.file_object] = res.file;
  sys_.io().ReferenceFileObject(*res.file);
  return res.file;
}

void ReplaySystem::SynthesizeCloses() {
  // Reconstruct the session brackets a gap swallowed: every still-live id
  // with no recorded close gets a synthetic teardown -- the handle close if
  // the recorded cleanup was lost too, then the governor release -- so a
  // salvaged trace replays to completion with no leaked handles and the
  // repair is charged to replay.synthesized_ops instead of diverging
  // silently. Runs before ReleaseGovernorRefs, which then has nothing left
  // to release.
  bool any = false;
  for (auto it = live_.begin(); it != live_.end();) {
    FileObject* fo = it->second;
    if (recorded_closes_.count(it->first) != 0) {
      ++it;
      continue;
    }
    it = live_.erase(it);
    if (!fo->cleanup_done) {
      sys_.io().CloseHandle(*fo);
    }
    sys_.io().DereferenceFileObject(*fo);
    ++deg_.synthesized_closes;
    any = true;
  }
  if (any) {
    // The truncated session tail is one more gap the replay spanned.
    ++deg_.gaps_detected;
    deg_.degraded = true;
  }
}

const std::string* ReplaySystem::NextName(uint64_t file_object) {
  auto it = name_cursors_.find(file_object);
  if (it == name_cursors_.end() || it->second.next >= it->second.entries.size()) {
    return nullptr;
  }
  return it->second.entries[it->second.next++];
}

void ReplaySystem::CheckStatus(const TraceRecord& r, NtStatus live) {
  if (static_cast<uint16_t>(live) != r.status) {
    ++div_.status_mismatches;
  }
}

void ReplaySystem::ReplayRecord(size_t index) {
  if (index == skip_index_) {
    skip_index_ = SIZE_MAX;  // Fallback IRP already regenerated by its anchor.
    return;
  }
  cur_index_ = index;
  const TraceRecord& r = *ops_[index];
  IoManager& io = sys_.io();
  switch (r.Event()) {
    case TraceEvent::kIrpCreate:
      ReplayCreate(r);
      break;

    case TraceEvent::kIrpRead:
    case TraceEvent::kIrpWrite: {
      if (r.IsPagingIo()) {
        ReplayPagingIo(index);
        break;
      }
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      // A bare app-level data IRP means the FastIO gate was closed at
      // recording time (first touch, no-buffering open, ...), so the call
      // went straight to the packet path: issue = start - IRP overhead.
      PaceTo(r.start_ticks - irp_ticks_);
      const IoResult res = r.Event() == TraceEvent::kIrpRead ? io.Read(*fo, r.offset, r.length)
                                                             : io.Write(*fo, r.offset, r.length);
      CheckStatus(r, res.status);
      break;
    }

    case TraceEvent::kFastIoRead:
    case TraceEvent::kFastIoWrite: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - fastio_ticks_);
      const IoResult res = r.Event() == TraceEvent::kFastIoRead
                               ? io.Read(*fo, r.offset, r.length)
                               : io.Write(*fo, r.offset, r.length);
      CheckStatus(r, res.status);
      break;
    }

    case TraceEvent::kFastIoReadNotPossible:
    case TraceEvent::kFastIoWriteNotPossible:
      ReplayFastIoNotPossible(index);
      break;

    case TraceEvent::kFastIoQueryBasicInfo: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - fastio_ticks_);
      FileBasicInfo out;
      CheckStatus(r, io.QueryBasicInfo(*fo, &out));
      break;
    }

    case TraceEvent::kFastIoQueryStandardInfo: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - fastio_ticks_);
      FileStandardInfo out;
      CheckStatus(r, io.QueryStandardInfo(*fo, &out));
      break;
    }

    case TraceEvent::kIrpQueryInformation: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      // A recorded query IRP means the FastIO query attempt failed first; it
      // consumed its overhead but produced no record of its own.
      const int64_t fastio_cost = io.fastio_policy().enabled ? fastio_ticks_ : 0;
      PaceTo(r.start_ticks - irp_ticks_ - fastio_cost);
      if (static_cast<FileInfoClass>(r.info_class) == FileInfoClass::kStandard) {
        FileStandardInfo out;
        CheckStatus(r, io.QueryStandardInfo(*fo, &out));
      } else {
        FileBasicInfo out;
        CheckStatus(r, io.QueryBasicInfo(*fo, &out));
      }
      break;
    }

    case TraceEvent::kIrpSetInformation:
      ReplaySetInformation(r);
      break;

    case TraceEvent::kIrpFlushBuffers: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - irp_ticks_);
      CheckStatus(r, io.Flush(*fo));
      break;
    }

    case TraceEvent::kIrpLockControl: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - irp_ticks_);
      CheckStatus(r, r.info_class != 0 ? io.Unlock(*fo, r.offset, r.length)
                                       : io.Lock(*fo, r.offset, r.length));
      break;
    }

    case TraceEvent::kIrpDirectoryControl: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - irp_ticks_);
      // The filter keeps only the pattern's class: 0 = empty, 1 = "*",
      // 2 = anything else (replayed as "*"; entry counts may differ).
      std::string pattern;
      if (r.create_action != 0) {
        pattern = "*";
      }
      if (r.create_action == 2) {
        ++div_.pattern_fallbacks;
      }
      std::vector<DirEntry> entries;
      CheckStatus(r, io.QueryDirectory(*fo, r.disposition == 1, pattern, &entries));
      break;
    }

    case TraceEvent::kIrpFileSystemControl: {
      auto vit = volume_ids_.find(r.file_object);
      if (vit != volume_ids_.end()) {
        PaceTo(r.start_ticks - irp_ticks_);
        CheckStatus(r, io.FsctlVolume(vit->second, static_cast<FsctlCode>(r.fsctl),
                                      r.process_id));
        break;
      }
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - irp_ticks_);
      CheckStatus(r, io.Fsctl(*fo, static_cast<FsctlCode>(r.fsctl)));
      break;
    }

    case TraceEvent::kIrpQueryVolumeInformation: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - irp_ticks_);
      CheckStatus(r, io.QueryVolumeInformation(*fo));
      break;
    }

    case TraceEvent::kIrpCleanup: {
      FileObject* fo = ResolveFileObject(r);
      if (fo == nullptr) {
        break;
      }
      PaceTo(r.start_ticks - irp_ticks_);
      io.CloseHandle(*fo);
      break;
    }

    case TraceEvent::kIrpClose:
      ReplayClose(r);
      break;

    default:
      ++div_.unsupported_ops;
      break;
  }
}

void ReplaySystem::ReplayCreate(const TraceRecord& r) {
  const std::string* path = NextName(r.file_object);
  std::string fabricated;
  if (path == nullptr) {
    if (!replay_.tolerate_gaps) {
      ++div_.missing_names;
      return;
    }
    // The create survived but its name record shipped in a lost frame (or
    // the name table went with the store tail): open a stand-in path so the
    // session bracket still reconstructs.
    NoteGapEvidence();
    const std::vector<std::string> volumes = sys_.io().VolumePrefixes();
    if (volumes.empty()) {
      ++deg_.orphan_ops_dropped;
      return;
    }
    fabricated = volumes.front() + "\\__salvaged_" + std::to_string(r.file_object);
    path = &fabricated;
    ++deg_.fabricated_names;
  }
  PaceTo(r.start_ticks - irp_ticks_);
  CreateRequest req;
  req.path = *path;
  req.disposition = static_cast<CreateDisposition>(r.disposition);
  // The filter packs desired_access | (share_access << 32) into offset.
  req.desired_access = static_cast<uint32_t>(r.offset & 0xFFFFFFFFull);
  req.share_access = static_cast<uint32_t>(r.offset >> 32);
  req.create_options = r.create_options;
  req.file_attributes = r.file_attributes;
  req.process_id = r.process_id;
  const CreateResult res = sys_.io().Create(req);
  CheckStatus(r, res.status);
  if (res.file != nullptr) {
    if (res.file->id() != r.file_object) {
      ++div_.id_mismatches;
    }
    live_[r.file_object] = res.file;
    // The replay governor's reference: keeps the live object addressable
    // until the recorded close record is reached, and stands in for holders
    // the trace does not record (VM section references).
    sys_.io().ReferenceFileObject(*res.file);
  }
}

void ReplaySystem::ReplayClose(const TraceRecord& r) {
  auto it = live_.find(r.file_object);
  if (it == live_.end()) {
    if (replay_.tolerate_gaps) {
      // A close whose create fell in a gap: re-opening a file only to close
      // it again reconstructs nothing, so drop the orphan and account it.
      NoteGapEvidence();
      ++deg_.orphan_ops_dropped;
      return;
    }
    ++div_.missing_file_objects;
    return;
  }
  FileObject* fo = it->second;
  live_.erase(it);
  if (fo->ref_count > 1) {
    // A live holder (cache map, or the enclosing operation that is about to
    // release it) still references the object; it will fire the close IRP
    // itself at the recorded moment. Drop the governor reference silently.
    sys_.io().DereferenceFileObject(*fo);
  } else {
    // Governor is last (unrecorded holder, e.g. a VM section, or an
    // uncached handle-close): fire the close at its recorded start.
    PaceTo(r.start_ticks);
    sys_.io().DereferenceFileObject(*fo);  // Destroys fo.
  }
}

void ReplaySystem::ReplayPagingIo(size_t index) {
  const TraceRecord& r = *ops_[index];
  FileObject* fo = ResolveFileObject(r);
  if (fo == nullptr) {
    return;
  }
  PaceTo(r.start_ticks);  // CallDriver charges no dispatch overhead.
  {
    PooledIrp irp(sys_.io().irp_pool());
    irp->major = static_cast<IrpMajor>(r.event);
    irp->flags = r.irp_flags;
    irp->file_object = fo;
    irp->process_id = r.process_id;
    irp->params.offset = r.offset;
    irp->params.length = r.length;
    CheckStatus(r, sys_.io().CallDriver(fo->device(), *irp));
  }
  const void* node = fo->fs_context;
  if (node == nullptr) {
    return;
  }
  const uint64_t first = r.offset / kPageSize;
  const uint64_t last = (r.offset + r.length + kPageSize - 1) / kPageSize;
  if (r.Event() == TraceEvent::kIrpRead) {
    // Mirror VmManager::FaultRange: pages become resident after the bounded
    // retry chain settles, whatever the final status. A device-errored
    // attempt whose retry is the next record leaves insertion to the final
    // attempt (each retry is its own recorded IRP, 2 ms apart).
    if (NtDeviceError(r.Status()) && index + 1 < ops_.size()) {
      const TraceRecord& n = *ops_[index + 1];
      if (n.Event() == TraceEvent::kIrpRead && n.IsPagingIo() &&
          n.file_object == r.file_object && n.offset == r.offset && n.length == r.length) {
        return;
      }
    }
    for (uint64_t q = first; q < last; ++q) {
      sys_.cache().pages().Insert(node, q);
    }
  } else {
    // VmManager::DeleteSection writes back mapped-writer dirty pages one
    // page per IRP and cleans them. Replay never dirtied them (mapped
    // stores are not traced), so this is usually a no-op.
    for (uint64_t q = first; q < last; ++q) {
      sys_.cache().pages().MarkClean(node, q);
    }
  }
}

void ReplaySystem::ReplayFastIoNotPossible(size_t index) {
  const TraceRecord& r = *ops_[index];
  FileObject* fo = ResolveFileObject(r);
  if (fo == nullptr) {
    return;
  }
  const bool is_read = r.Event() == TraceEvent::kFastIoReadNotPossible;
  PaceTo(r.start_ticks - fastio_ticks_);
  const IoResult res = is_read ? sys_.io().Read(*fo, r.offset, r.length)
                               : sys_.io().Write(*fo, r.offset, r.length);
  (void)res;
  // One live call regenerates the whole attempt: the not-possible record and
  // the IRP-path fallback. Swallow the recorded fallback so it is not issued
  // a second time.
  if (index + 1 < ops_.size()) {
    const TraceRecord& n = *ops_[index + 1];
    const TraceEvent fallback = is_read ? TraceEvent::kIrpRead : TraceEvent::kIrpWrite;
    if (n.Event() == fallback && !n.IsPagingIo() && n.file_object == r.file_object &&
        n.offset == r.offset && n.length == r.length) {
      skip_index_ = index + 1;
    }
  }
}

void ReplaySystem::ReplaySetInformation(const TraceRecord& r) {
  FileObject* fo = ResolveFileObject(r);
  if (fo == nullptr) {
    return;
  }
  PaceTo(r.start_ticks - irp_ticks_);
  IoManager& io = sys_.io();
  switch (static_cast<FileInfoClass>(r.info_class)) {
    case FileInfoClass::kBasic: {
      FileBasicInfo info;
      info.attributes = r.file_attributes;  // Timestamps are not recorded.
      CheckStatus(r, io.SetBasicInfo(*fo, info));
      break;
    }
    case FileInfoClass::kEndOfFile:
      CheckStatus(r, io.SetEndOfFile(*fo, r.offset));
      break;
    case FileInfoClass::kDisposition:
      CheckStatus(r, io.SetDispositionDelete(*fo, r.offset != 0));
      break;
    case FileInfoClass::kRename: {
      if (NtSuccess(r.Status())) {
        const std::string* target = NextName(r.file_object);
        if (target == nullptr) {
          if (replay_.tolerate_gaps) {
            // Target name lost with a gap: move the file to a stand-in
            // sibling so the rename still lands.
            NoteGapEvidence();
            ++deg_.fabricated_names;
            CheckStatus(r, io.Rename(*fo, fo->path() + "__salvaged"));
            break;
          }
          ++div_.missing_names;
          break;
        }
        CheckStatus(r, io.Rename(*fo, *target));
        break;
      }
      // Failed renames never record their target, but the failure status
      // pins which kind it was, and both kinds reproduce exactly from
      // synthesized targets: renaming onto the file's own path collides
      // with itself, and a target below the file treats the file as a
      // missing parent directory.
      if (r.Status() == NtStatus::kObjectPathNotFound) {
        CheckStatus(r, io.Rename(*fo, fo->path() + "\\__replay_missing__"));
      } else if (r.Status() == NtStatus::kObjectNameCollision) {
        CheckStatus(r, io.Rename(*fo, fo->path()));
      } else {
        ++div_.synthesized_renames;  // Unreproducible failure kind.
        CheckStatus(r, io.Rename(*fo, fo->path()));
      }
      break;
    }
    default:
      ++div_.unsupported_ops;
      break;
  }
}

}  // namespace ntrace
