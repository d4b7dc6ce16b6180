#include "src/workload/simulated_system.h"

#include <algorithm>

namespace ntrace {

std::string_view UsageCategoryName(UsageCategory c) {
  switch (c) {
    case UsageCategory::kWalkUp:
      return "walk-up";
    case UsageCategory::kPool:
      return "pool";
    case UsageCategory::kPersonal:
      return "personal";
    case UsageCategory::kAdministrative:
      return "administrative";
    case UsageCategory::kScientific:
      return "scientific";
  }
  return "unknown";
}

SimulatedSystem::SimulatedSystem(const SystemOptions& options, TraceSink& sink)
    : options_(options), sink_(sink), rng_(options.seed) {
  BuildStacks();
  BuildModels();
}

SimulatedSystem::~SimulatedSystem() = default;

void SimulatedSystem::BuildStacks() {
  io_ = std::make_unique<IoManager>(engine_, processes_);
  io_->SetFileIdBase(static_cast<uint64_t>(options_.system_id) << 40);
  processes_.SetPidBase(options_.system_id << 20);

  // Per-category hardware (section 2): 64-128 MB desktops with 2-6 GB IDE
  // disks; scientific machines with >= 256 MB and 9-18 GB SCSI Ultra-2.
  CacheConfig cache_config = options_.cache_config;
  const bool scientific = options_.category == UsageCategory::kScientific;
  if (cache_config.capacity_pages == 0) {
    // 96 MB (scientific) / 32 MB of file cache at full content scale; the
    // cache shrinks with the content so hit rates stay realistic when the
    // initial image is scaled down.
    const double base = scientific ? 24576.0 : 8192.0;
    cache_config.capacity_pages = static_cast<uint64_t>(
        std::max(512.0, base * std::min(1.0, options_.content_scale * 0.5)));
  }
  cache_ = std::make_unique<CacheManager>(engine_, *io_, cache_config, rng_.NextU64());
  cache_->Start();
  vm_ = std::make_unique<VmManager>(engine_, *io_, *cache_);
  win32_ = std::make_unique<Win32Api>(*io_);

  // 2-6 GB IDE / 9-18 GB SCSI at full content scale; capacity shrinks with
  // the initial content so fullness stays in the paper's 54-87% band.
  const double full_gb = scientific ? rng_.UniformReal(9.0, 18.0) : rng_.UniformReal(2.0, 6.0);
  const uint64_t disk_bytes = std::max<uint64_t>(
      static_cast<uint64_t>(full_gb * options_.content_scale * (1ull << 30) * 0.62), 16u << 20);
  auto local_volume = std::make_unique<Volume>("C:", disk_bytes);
  local_fs_ = std::make_unique<FileSystemDriver>(
      engine_, *cache_, std::move(local_volume), "C:",
      scientific ? DiskProfile::ScsiUltra2() : DiskProfile::Ide(), options_.fs_options);
  devices_.push_back(std::make_unique<DeviceObject>("fs:C:", local_fs_.get()));
  io_->RegisterVolume("C:", devices_.back().get());

  const std::string share = "\\\\server\\user" + std::to_string(options_.system_id);
  auto share_volume = std::make_unique<Volume>(share, 2ull << 30);
  remote_fs_ = std::make_unique<RedirectorDriver>(engine_, *cache_, std::move(share_volume), share,
                                                  NetworkProfile{}, options_.fs_options);
  devices_.push_back(std::make_unique<DeviceObject>("rdr:" + share, remote_fs_.get()));
  io_->RegisterVolume(share, devices_.back().get());

  // Initial content.
  FsImageOptions image_options;
  image_options.user = "user" + std::to_string(options_.system_id);
  image_options.seed = rng_.NextU64();
  image_options.scale = options_.content_scale;
  image_options.developer_content = options_.category == UsageCategory::kPool ||
                                    options_.category == UsageCategory::kScientific;
  image_options.scientific_content = scientific;
  FsImageBuilder builder(image_options);
  builder.BuildLocal(local_fs_->volume(), "C:", engine_.Now(), &catalog_);
  // Keep initial fullness at or below ~72% whatever the content scale
  // produced (the study's volumes were 54-87% full).
  local_fs_->volume().EnsureCapacity(local_fs_->volume().used_bytes() * 25 / 18);
  builder.BuildShare(remote_fs_->volume(), share, engine_.Now(), &catalog_);

  // Fault injection (opt-in): each system gets an independent fault stream
  // derived from the fault seed and its id, decoupled from the workload RNG
  // so the generated activity is identical with and without faults.
  if (options_.fault_config.enabled()) {
    fault_injector_ = std::make_unique<FaultInjector>(options_.fault_config, options_.system_id);
    if (fault_injector_->enabled(FaultSite::kDiskRead) ||
        fault_injector_->enabled(FaultSite::kDiskWrite)) {
      local_fs_->set_fault_injector(fault_injector_.get());
    }
  }

  // The trace agent attaches its filter on top of both stacks (section
  // 3.2); only the local volume is snapshotted.
  agent_ = std::make_unique<TraceAgent>(engine_, *io_, sink_, options_.system_id,
                                        options_.filter_options, options_.shipment_policy,
                                        fault_injector_.get());
  agent_->AttachToVolume("C:", local_fs_.get());
  agent_->AttachToVolume(share, nullptr);
  agent_->ScheduleDailySnapshots();

  ctx_ = SystemContext{&engine_, io_.get(), win32_.get(), vm_.get(),
                       &processes_, &catalog_, options_.system_id};
}

void SimulatedSystem::BuildModels() {
  const double act = options_.activity_scale;
  auto cfg = [act](double off_xm, double alpha = 1.3) {
    AppModelConfig c;
    c.off_xm_seconds = off_xm;
    c.off_alpha = alpha;
    c.activity_scale = act;
    return c;
  };
  auto add = [this](std::unique_ptr<AppModel> model, double launch_probability) {
    user_models_.push_back(std::move(model));
    model_launch_probability_.push_back(launch_probability);
  };

  switch (options_.category) {
    case UsageCategory::kWalkUp:
      add(std::make_unique<ExplorerModel>(ctx_, cfg(8), rng_.NextU64()), 1.0);
      add(std::make_unique<BrowserModel>(ctx_, cfg(12), rng_.NextU64()), 0.95);
      add(std::make_unique<OfficeModel>(ctx_, cfg(25), rng_.NextU64()), 0.7);
      add(std::make_unique<NotepadModel>(ctx_, cfg(60), rng_.NextU64()), 0.5);
      add(std::make_unique<MailModel>(ctx_, cfg(30), rng_.NextU64()), 0.6);
      break;
    case UsageCategory::kPool:
      add(std::make_unique<ExplorerModel>(ctx_, cfg(10), rng_.NextU64()), 1.0);
      add(std::make_unique<CompilerModel>(ctx_, cfg(110, 1.2), rng_.NextU64()), 0.9);
      add(std::make_unique<BrowserModel>(ctx_, cfg(25), rng_.NextU64()), 0.6);
      add(std::make_unique<MailModel>(ctx_, cfg(30), rng_.NextU64()), 0.7);
      add(std::make_unique<JavaToolModel>(ctx_, cfg(90), rng_.NextU64()), 0.5);
      add(std::make_unique<OfficeModel>(ctx_, cfg(50), rng_.NextU64()), 0.4);
      break;
    case UsageCategory::kPersonal:
      add(std::make_unique<ExplorerModel>(ctx_, cfg(10), rng_.NextU64()), 1.0);
      add(std::make_unique<MailModel>(ctx_, cfg(15), rng_.NextU64()), 0.95);
      add(std::make_unique<OfficeModel>(ctx_, cfg(20), rng_.NextU64()), 0.8);
      add(std::make_unique<BrowserModel>(ctx_, cfg(18), rng_.NextU64()), 0.8);
      add(std::make_unique<NotepadModel>(ctx_, cfg(70), rng_.NextU64()), 0.4);
      break;
    case UsageCategory::kAdministrative:
      add(std::make_unique<DatabaseModel>(ctx_, cfg(12, 1.2), rng_.NextU64()), 1.0);
      add(std::make_unique<ExplorerModel>(ctx_, cfg(15), rng_.NextU64()), 0.9);
      add(std::make_unique<OfficeModel>(ctx_, cfg(30), rng_.NextU64()), 0.6);
      add(std::make_unique<MailModel>(ctx_, cfg(25), rng_.NextU64()), 0.7);
      break;
    case UsageCategory::kScientific:
      add(std::make_unique<ScientificModel>(ctx_, cfg(20, 1.2), rng_.NextU64()), 1.0);
      add(std::make_unique<ExplorerModel>(ctx_, cfg(40), rng_.NextU64()), 0.6);
      add(std::make_unique<CompilerModel>(ctx_, cfg(90), rng_.NextU64()), 0.4);
      break;
  }
  winlogon_ = std::make_unique<WinlogonModel>(ctx_, cfg(600, 1.5), rng_.NextU64());
  services_ = std::make_unique<ServicesModel>(ctx_, cfg(20, 1.4), rng_.NextU64());
  // Sub-second shell polling fills the short-range arrival structure; only
  // meaningfully active while a user session drives the desktop.
  monitor_ = std::make_unique<MonitorModel>(ctx_, cfg(0.4, 1.1), rng_.NextU64());
}

void SimulatedSystem::StartSession() {
  if (session_active_) {
    return;
  }
  session_active_ = true;
  ++sessions_run_;
  // Session holding times are heavy-tailed (section 7): bounded Pareto
  // between half an hour and 14 hours.
  const double hours =
      BoundedParetoDistribution(0.5, 14.0, 1.3).Sample(rng_);
  const SimTime session_end = engine_.Now() + SimDuration::FromSecondsF(hours * 3600.0);

  winlogon_->Launch(session_end);
  winlogon_->Logon();
  monitor_->Launch(session_end);
  for (size_t i = 0; i < user_models_.size(); ++i) {
    if (rng_.Bernoulli(model_launch_probability_[i])) {
      user_models_[i]->Launch(session_end);
    }
  }
  engine_.ScheduleAt(session_end, [this] { EndSession(); });
}

void SimulatedSystem::EndSession() {
  if (!session_active_) {
    return;
  }
  session_active_ = false;
  for (auto& model : user_models_) {
    model->OnSessionEnd();
  }
  monitor_->OnSessionEnd();
  winlogon_->OnSessionEnd();
}

SystemRunStats SimulatedSystem::Run() {
  // Background services run from "boot", across user sessions.
  const SimTime end_of_run = SimTime() + SimDuration::Days(options_.days);
  services_->Launch(end_of_run);

  for (int day = 0; day < options_.days; ++day) {
    // Login between 08:00 and 09:30.
    const SimTime login = SimTime() + SimDuration::Days(day) +
                          SimDuration::FromSecondsF(rng_.UniformReal(8.0, 9.5) * 3600.0);
    engine_.ScheduleAt(login, [this] { StartSession(); });
  }

  engine_.RunUntil(end_of_run);
  EndSession();
  services_->OnSessionEnd();
  agent_->Flush();
  engine_.RunUntil(engine_.Now() + SimDuration::Seconds(30));
  if (options_.fault_config.enabled()) {
    // Final flush + drain so every shipment concludes (delivered or
    // abandoned) before harvest; keeps the integrity identity exact.
    agent_->Flush();
    engine_.RunUntil(engine_.Now() + SimDuration::Seconds(30));
  }

  SystemRunStats stats;
  stats.system_id = options_.system_id;
  stats.category = options_.category;
  stats.cache = cache_->stats();
  stats.vm = vm_->stats();
  stats.local_fs = local_fs_->stats();
  stats.remote_fs = remote_fs_->stats();
  stats.fastio_read_attempts = io_->fastio_read_attempts();
  stats.fastio_read_hits = io_->fastio_read_hits();
  stats.fastio_write_attempts = io_->fastio_write_attempts();
  stats.fastio_write_hits = io_->fastio_write_hits();
  stats.irp_count = io_->irp_count();
  stats.trace_records = agent_->buffer().records_written();
  stats.trace_drops = agent_->buffer().records_dropped();
  stats.sessions_run = sessions_run_;
  stats.snapshots = agent_->snapshot_series();

  const TraceBuffer& buffer = agent_->buffer();
  stats.trace_emitted = buffer.records_emitted();
  stats.trace_shed = buffer.records_shed();
  stats.trace_lost = buffer.records_lost();
  stats.trace_unresolved = buffer.records_unresolved();
  stats.shipments_sent = buffer.buffers_shipped();
  stats.shipment_attempts = buffer.shipment_attempts();
  stats.shipment_failures = buffer.shipment_failures();
  stats.shipments_abandoned = buffer.shipments_abandoned();
  stats.peak_retry_backlog = buffer.peak_retry_backlog();
  stats.abandoned_shipments = buffer.abandoned_shipments();
  stats.disk_read_errors = stats.local_fs.injected_read_errors;
  stats.disk_write_errors = stats.local_fs.injected_write_errors;
  stats.paging_retries = stats.vm.paging_retries + stats.cache.paging_retries;
  return stats;
}

}  // namespace ntrace
