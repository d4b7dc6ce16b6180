// Tests: every Study accessor is thread-invariant, and the per-system folds
// (DESIGN.md §7) reproduce the serial row analyses they replaced.
//
// One multi-system study runs at fleet.threads 1, 2 and 4 -- the width of
// the simulation pool and of the folds alike -- and each accessor must
// compare equal field by field across the three. The goldens were captured
// from the serial row code the folds replaced, on the same configuration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/replay/trace_replayer.h"
#include "src/study/study.h"

namespace ntrace {
namespace {

StudyConfig ParityStudy(int threads) {
  StudyConfig config;
  config.fleet.walk_up = 2;
  config.fleet.pool = 1;
  config.fleet.personal = 1;
  config.fleet.administrative = 1;
  config.fleet.scientific = 1;
  config.fleet.days = 1;
  config.fleet.seed = 2028;
  config.fleet.activity_scale = 0.25;
  config.fleet.content_scale = 0.05;
  config.fleet.threads = threads;
  return config;
}

Study& StudyAt(int threads) {
  static std::map<int, std::unique_ptr<Study>> studies;
  std::unique_ptr<Study>& study = studies[threads];
  if (study == nullptr) {
    study = std::make_unique<Study>(ParityStudy(threads));
    study->Run();
  }
  return *study;
}

// --- Field-by-field equality --------------------------------------------------

// Bit equality; NaN equals NaN.
void Same(double a, double b, const std::string& what) {
  EXPECT_TRUE(std::memcmp(&a, &b, sizeof a) == 0 || (std::isnan(a) && std::isnan(b)))
      << what << ": " << a << " vs " << b;
}

// Integers, enums and strings.
template <typename T>
void Same(const T& a, const T& b, const std::string& what) {
  EXPECT_EQ(a, b) << what;
}

void Same(const WeightedCdf& a, const WeightedCdf& b, const std::string& what) {
  Same(a.count(), b.count(), what + ".count");
  Same(a.total_weight(), b.total_weight(), what + ".total_weight");
  EXPECT_EQ(a.samples(), b.samples()) << what;
}

void Same(const StreamingStats& a, const StreamingStats& b, const std::string& what) {
  Same(a.count(), b.count(), what + ".count");
  Same(a.total_weight(), b.total_weight(), what + ".total_weight");
  Same(a.mean(), b.mean(), what + ".mean");
  Same(a.variance(), b.variance(), what + ".variance");
  Same(a.min(), b.min(), what + ".min");
  Same(a.max(), b.max(), what + ".max");
  Same(a.sum(), b.sum(), what + ".sum");
}

// The struct overloads below, declared ahead of the containers that hold
// them.
void Same(const RwOp& a, const RwOp& b, const std::string& what);
void Same(const Instance& a, const Instance& b, const std::string& what);
void Same(const UserActivityRow& a, const UserActivityRow& b, const std::string& what);
void Same(const PatternCell& a, const PatternCell& b, const std::string& what);
void Same(const NewFileDeath& a, const NewFileDeath& b, const std::string& what);
void Same(const TailDiagnostics& a, const TailDiagnostics& b, const std::string& what);
void Same(const ProcessProfile& a, const ProcessProfile& b, const std::string& what);
void Same(const FileTypeProfile& a, const FileTypeProfile& b, const std::string& what);
void Same(const ContentSummary& a, const ContentSummary& b, const std::string& what);
void Same(const ChurnSummary& a, const ChurnSummary& b, const std::string& what);

template <typename T>
void Same(const std::vector<T>& a, const std::vector<T>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    Same(a[i], b[i], what + "[" + std::to_string(i) + "]");
  }
}

template <typename T, size_t N>
void Same(const std::array<T, N>& a, const std::array<T, N>& b, const std::string& what) {
  for (size_t i = 0; i < N; ++i) {
    Same(a[i], b[i], what + "[" + std::to_string(i) + "]");
  }
}

template <typename T, size_t N>
void Same(const T (&a)[N], const T (&b)[N], const std::string& what) {
  for (size_t i = 0; i < N; ++i) {
    Same(a[i], b[i], what + "[" + std::to_string(i) + "]");
  }
}

#define SAME(field) Same(a.field, b.field, what + "." #field)

void Same(const RwOp& a, const RwOp& b, const std::string& what) {
  SAME(offset);
  SAME(length);
  SAME(write);
  SAME(fastio);
  SAME(start_ticks);
  SAME(complete_ticks);
}

void Same(const Instance& a, const Instance& b, const std::string& what) {
  SAME(file_object);
  SAME(system_id);
  SAME(process_id);
  SAME(path);
  SAME(file_type.extension);
  SAME(file_type.category);
  SAME(file_type.file_class);
  SAME(open_status);
  SAME(disposition);
  SAME(create_action);
  SAME(create_options);
  SAME(file_attributes);
  SAME(open_failed);
  SAME(open_start);
  SAME(open_complete);
  SAME(cleanup_time);
  SAME(close_time);
  SAME(irp_reads);
  SAME(irp_writes);
  SAME(fastio_reads);
  SAME(fastio_writes);
  SAME(fastio_read_fallbacks);
  SAME(fastio_write_fallbacks);
  SAME(bytes_read);
  SAME(bytes_written);
  SAME(control_ops);
  SAME(directory_ops);
  SAME(read_errors);
  SAME(control_errors);
  SAME(pagein_irps);
  SAME(readahead_irps);
  SAME(lazywrite_irps);
  SAME(vm_paging_irps);
  SAME(set_delete_disposition);
  SAME(seteof_at_close);
  SAME(file_size_at_open);
  SAME(max_file_size);
  SAME(ops);
}

void Same(const TraceScan& a, const TraceScan& b, const std::string& what) {
  SAME(reads);
  SAME(writes);
  SAME(reads_512_or_4096);
  SAME(reads_small);
  SAME(reads_48k_plus);
  SAME(read_failures);
  SAME(write_failures);
  SAME(opens);
  SAME(open_failures);
  SAME(open_notfound);
  SAME(open_collision);
  SAME(directory_ops);
  SAME(control_ops);
  SAME(control_total);
  SAME(control_failures);
  SAME(volume_mounted_checks);
  SAME(seteof_ops);
  SAME(read_sizes);
  SAME(write_sizes);
  SAME(attributed);
  SAME(non_interactive);
  SAME(active_seconds);
  SAME(fastio_reads);
  SAME(irp_reads);
  SAME(fastio_writes);
  SAME(irp_writes);
  SAME(read_fallbacks);
  SAME(write_fallbacks);
  SAME(fastio_read_latency_us);
  SAME(fastio_write_latency_us);
  SAME(irp_read_latency_us);
  SAME(irp_write_latency_us);
  SAME(fastio_read_size);
  SAME(fastio_write_size);
  SAME(irp_read_size);
  SAME(irp_write_size);
  SAME(paging_reads);
  SAME(paging_read_bytes);
  SAME(paging_writes);
  SAME(paging_write_bytes);
  SAME(readahead_records);
  SAME(readahead_bytes);
  SAME(lazywrite_records);
  SAME(lazywrite_bytes);
  SAME(flushed_files.size());
  SAME(records_scanned);
  SAME(records_lost_known);
  SAME(read_runs_by_count);
  SAME(read_runs_by_bytes);
  SAME(write_runs_by_count);
  SAME(write_runs_by_bytes);
}

void Same(const UserActivityRow& a, const UserActivityRow& b, const std::string& what) {
  SAME(interval_seconds);
  SAME(max_active_users);
  SAME(avg_active_users);
  SAME(avg_active_users_sd);
  SAME(avg_user_throughput_kbs);
  SAME(avg_user_throughput_sd);
  SAME(peak_user_throughput_kbs);
  SAME(peak_system_wide_kbs);
}

void Same(const PatternCell& a, const PatternCell& b, const std::string& what) {
  SAME(accesses_pct);
  SAME(accesses_min);
  SAME(accesses_max);
  SAME(bytes_pct);
  SAME(bytes_min);
  SAME(bytes_max);
}

void Same(const NewFileDeath& a, const NewFileDeath& b, const std::string& what) {
  SAME(method);
  SAME(lifetime_ms);
  SAME(close_to_death_ms);
  SAME(size_at_death);
  SAME(same_process);
  SAME(opens_between);
}

void Same(const LlcdSeries& a, const LlcdSeries& b, const std::string& what) {
  SAME(log_x);
  SAME(log_ccdf);
  SAME(fitted_slope);
  SAME(alpha_hat);
  SAME(fit_r2);
}

void Same(const QqSeries& a, const QqSeries& b, const std::string& what) {
  SAME(sample_q);
  SAME(theoretical_q);
  SAME(deviation);
}

void Same(const TailDiagnostics& a, const TailDiagnostics& b, const std::string& what) {
  SAME(quantity);
  SAME(hill_alpha);
  SAME(llcd);
  SAME(qq_normal);
  SAME(qq_pareto);
  SAME(samples);
}

void Same(const ProcessProfile& a, const ProcessProfile& b, const std::string& what) {
  SAME(image_name);
  SAME(opens);
  SAME(failed_opens);
  SAME(data_sessions);
  SAME(control_only_sessions);
  SAME(bytes_read);
  SAME(bytes_written);
  SAME(distinct_files);
  SAME(session_length_ms);
  SAME(control_only_fraction);
  SAME(session_p90_ms);
}

void Same(const FileTypeProfile& a, const FileTypeProfile& b, const std::string& what) {
  SAME(category);
  SAME(opens);
  SAME(bytes);
  SAME(file_size);
  SAME(session_length_ms);
}

void Same(const ContentSummary& a, const ContentSummary& b, const std::string& what) {
  SAME(files);
  SAME(directories);
  SAME(fullness);
  SAME(bytes_share);
  SAME(count_share);
  SAME(profile_file_share);
  SAME(web_cache_files);
  SAME(web_cache_bytes);
  SAME(creation_after_access_fraction);
  SAME(file_sizes);
}

void Same(const ChurnSummary& a, const ChurnSummary& b, const std::string& what) {
  SAME(files_changed_per_day);
  SAME(profile_change_share);
  SAME(web_cache_change_share);
  SAME(total_added);
  SAME(total_removed);
  SAME(total_modified);
}

// Every accessor of `b` against `a`.
void ExpectSameStudy(Study& a_study, Study& b_study, const std::string& label) {
  std::string what = label;
  Same(TraceFingerprint(a_study.trace()), TraceFingerprint(b_study.trace()), what + ".trace");
  Same(a_study.instances().rows(), b_study.instances().rows(), what + ".instances");
  Same(a_study.Scan(), b_study.Scan(), what + ".Scan");
  {
    const UserActivityResult& a = a_study.UserActivity();
    const UserActivityResult& b = b_study.UserActivity();
    what = label + ".UserActivity";
    SAME(ten_minutes);
    SAME(ten_seconds);
  }
  {
    const AccessPatternTable& a = a_study.AccessPatterns();
    const AccessPatternTable& b = b_study.AccessPatterns();
    what = label + ".AccessPatterns";
    SAME(cells);
    SAME(usage_totals);
    SAME(data_sessions);
  }
  {
    const RunLengthResult& a = a_study.RunLengths();
    const RunLengthResult& b = b_study.RunLengths();
    what = label + ".RunLengths";
    SAME(read_runs_by_count);
    SAME(write_runs_by_count);
    SAME(read_runs_by_bytes);
    SAME(write_runs_by_bytes);
    SAME(read_p80_bytes);
  }
  {
    const FileSizeResult& a = a_study.FileSizes();
    const FileSizeResult& b = b_study.FileSizes();
    what = label + ".FileSizes";
    SAME(size_by_opens);
    SAME(size_by_bytes);
    SAME(all_by_opens);
    SAME(all_by_bytes);
    SAME(p80_size_by_opens);
    SAME(top20_size);
  }
  {
    const SessionResult& a = a_study.Sessions();
    const SessionResult& b = b_study.Sessions();
    what = label + ".Sessions";
    SAME(open_time_all_ms);
    SAME(open_time_local_ms);
    SAME(open_time_network_ms);
    SAME(data_open_p75_ms);
    SAME(open_interarrival_io_ms);
    SAME(open_interarrival_control_ms);
    SAME(interarrival_p40_ms);
    SAME(interarrival_p90_ms);
    SAME(session_all_ms);
    SAME(session_control_ms);
    SAME(session_data_ms);
    SAME(session_p40_ms);
    SAME(session_p90_ms);
    SAME(close_gap_read_us);
    SAME(close_gap_write_us);
    SAME(readonly_reopen_fraction);
    SAME(writeonly_reopened_for_read_fraction);
    SAME(seconds_with_opens_fraction);
  }
  {
    const LifetimeResult& a = a_study.Lifetimes();
    const LifetimeResult& b = b_study.Lifetimes();
    what = label + ".Lifetimes";
    SAME(deaths);
    SAME(overwrite_lifetime_ms);
    SAME(delete_lifetime_ms);
    SAME(new_files);
    SAME(overwrite_share);
    SAME(explicit_share);
    SAME(temporary_share);
    SAME(died_within_4s_fraction);
    SAME(died_within_30s_fraction);
    SAME(overwritten_within_4ms_fraction);
    SAME(deleted_within_4s_fraction);
    SAME(overwrite_close_gap_p75_ms);
    SAME(overwrite_same_process_fraction);
    SAME(delete_same_process_fraction);
    SAME(delete_opened_between_fraction);
    SAME(size_lifetime_correlation);
    SAME(overwrite_with_dirty_fraction);
  }
  {
    const FastIoResultAnalysis& a = a_study.FastIo();
    const FastIoResultAnalysis& b = b_study.FastIo();
    what = label + ".FastIo";
    SAME(fastio_read_latency_us);
    SAME(fastio_write_latency_us);
    SAME(irp_read_latency_us);
    SAME(irp_write_latency_us);
    SAME(fastio_read_size);
    SAME(fastio_write_size);
    SAME(irp_read_size);
    SAME(irp_write_size);
    SAME(fastio_read_share);
    SAME(fastio_write_share);
    SAME(read_fallbacks);
    SAME(write_fallbacks);
  }
  {
    const OperationResult& a = a_study.Operations();
    const OperationResult& b = b_study.Operations();
    what = label + ".Operations";
    SAME(reads);
    SAME(writes);
    SAME(reads_512_or_4096_fraction);
    SAME(reads_small_fraction);
    SAME(reads_48k_plus_fraction);
    SAME(read_sizes);
    SAME(write_sizes);
    SAME(read_gap_us);
    SAME(write_gap_us);
    SAME(read_gap_p80_us);
    SAME(write_gap_p80_us);
    SAME(batch_session_fraction);
    SAME(control_only_open_fraction);
    SAME(control_ops);
    SAME(directory_ops);
    SAME(volume_mounted_checks);
    SAME(volume_checks_per_active_second);
    SAME(seteof_ops);
    SAME(open_failure_fraction);
    SAME(open_notfound_share);
    SAME(open_collision_share);
    SAME(control_failure_fraction);
    SAME(read_failure_fraction);
    SAME(write_failures);
    SAME(non_interactive_access_fraction);
  }
  {
    const CacheAnalysisResult& a = a_study.Cache();
    const CacheAnalysisResult& b = b_study.Cache();
    what = label + ".Cache";
    SAME(cached_read_fraction);
    SAME(single_io_session_fraction);
    SAME(single_prefetch_fraction);
    SAME(sequential_hint_open_fraction);
    SAME(read_cache_disabled_fraction);
    SAME(write_through_fraction);
    SAME(flush_user_fraction);
    SAME(lazy_write_irps);
    SAME(lazy_write_bytes);
    SAME(lazy_write_mean_run_bytes);
    SAME(seteof_on_close);
    SAME(overwrite_with_dirty_fraction);
    SAME(temporary_pages_skipped);
    SAME(temporary_benefit_fraction);
  }
  {
    const ArrivalViews a = a_study.Burstiness();
    const ArrivalViews b = b_study.Burstiness();
    what = label + ".Burstiness";
    SAME(trace_1s);
    SAME(trace_10s);
    SAME(trace_100s);
    SAME(poisson_1s);
    SAME(poisson_10s);
    SAME(poisson_100s);
    SAME(trace_cv);
    SAME(poisson_cv);
  }
  Same(a_study.TailSweep(), b_study.TailSweep(), label + ".TailSweep");
  Same(a_study.ProcessProfiles(), b_study.ProcessProfiles(), label + ".ProcessProfiles");
  Same(a_study.FileTypeProfiles(), b_study.FileTypeProfiles(), label + ".FileTypeProfiles");
  Same(a_study.ContentSummaries(), b_study.ContentSummaries(), label + ".ContentSummaries");
  Same(a_study.ChurnSummaries(), b_study.ChurnSummaries(), label + ".ChurnSummaries");
}

#undef SAME

TEST(StudyParity, EveryAccessorIsEqualAtOneTwoAndFourThreads) {
  Study& one = StudyAt(1);
  ASSERT_GT(one.systems().size(), 1u);
  ExpectSameStudy(one, StudyAt(2), "threads 2");
  ExpectSameStudy(one, StudyAt(4), "threads 4");
}

// Values of the serial row analyses on ParityStudy, before they became
// folds. Integer counts and percentiles must not move at all.
// ProcessProfile::session_length_ms is a Welford accumulator, so its
// moments depend on the order samples arrive in: the folds add them in
// system-major row order, the row code added them in time order, and the
// mean moved in its last digits (0.57954207233626698 -> ...609).
TEST(StudyParity, FoldsReproduceTheRowGoldens) {
  Study& study = StudyAt(4);
  EXPECT_EQ(study.trace().records.size(), 113032u);
  EXPECT_EQ(study.instances().rows().size(), 15142u);

  const SessionResult& sessions = study.Sessions();
  EXPECT_EQ(sessions.session_p40_ms, 0.038600000000000002);
  EXPECT_EQ(sessions.session_p90_ms, 3.4174000000000002);
  EXPECT_EQ(sessions.interarrival_p40_ms, 0.089499999999999996);
  EXPECT_EQ(sessions.interarrival_p90_ms, 17322.197899999999);
  EXPECT_EQ(sessions.readonly_reopen_fraction, 0.49215246636771298);
  EXPECT_EQ(sessions.writeonly_reopened_for_read_fraction, 0.32713754646840149);
  EXPECT_EQ(sessions.seconds_with_opens_fraction, 0.0071238425925925922);
  EXPECT_EQ(sessions.open_interarrival_io_ms.count(), 4455u);
  EXPECT_EQ(sessions.open_interarrival_control_ms.count(), 10681u);
  EXPECT_EQ(sessions.open_time_network_ms.count(), 184u);
  EXPECT_EQ(sessions.open_time_network_ms.Percentile(0.5), 0.5454);
  EXPECT_EQ(sessions.close_gap_write_us.count(), 1854u);

  const LifetimeResult& lifetimes = study.Lifetimes();
  EXPECT_EQ(lifetimes.new_files, 1073u);
  EXPECT_EQ(lifetimes.deaths.size(), 588u);
  EXPECT_EQ(lifetimes.size_lifetime_correlation, 0.20037486762959905);
  EXPECT_EQ(lifetimes.overwrite_lifetime_ms.count(), 257u);
  EXPECT_EQ(lifetimes.delete_lifetime_ms.count(), 330u);
  EXPECT_EQ(lifetimes.overwrite_close_gap_p75_ms, 1.1126);
  EXPECT_EQ(lifetimes.delete_opened_between_fraction, 0.31818181818181818);

  const std::vector<TailDiagnostics> tails = study.TailSweep();
  ASSERT_EQ(tails.size(), 5u);
  EXPECT_EQ(tails[0].samples, 9055u);
  EXPECT_EQ(tails[1].hill_alpha, 0.79838695851339636);
  EXPECT_EQ(tails[4].samples, 24966u);
  EXPECT_EQ(tails[4].hill_alpha, 0.7606927018588181);

  const std::vector<ProcessProfile> profiles = study.ProcessProfiles();
  ASSERT_FALSE(profiles.empty());
  const ProcessProfile& top = profiles[0];
  EXPECT_EQ(top.image_name, "explorer.exe");
  EXPECT_EQ(top.opens, 5360u);
  EXPECT_EQ(top.failed_opens, 245u);
  EXPECT_EQ(top.data_sessions, 87u);
  EXPECT_EQ(top.control_only_sessions, 5028u);
  EXPECT_EQ(top.bytes_read, 81814u);
  EXPECT_EQ(top.distinct_files, 1281u);
  EXPECT_EQ(top.session_length_ms.count(), 5115);
  EXPECT_NEAR(top.session_length_ms.mean(), 0.57954207233626698, 1e-14);
  EXPECT_EQ(top.control_only_fraction, 0.98299120234604109);
  EXPECT_EQ(top.session_p90_ms, 0.038600000000000002);

  const UserActivityResult& activity = study.UserActivity();
  EXPECT_EQ(activity.ten_minutes.max_active_users, 6);
  EXPECT_EQ(activity.ten_seconds.max_active_users, 6);
  EXPECT_EQ(activity.ten_seconds.peak_system_wide_kbs, 1868.8376953125);
  EXPECT_EQ(activity.ten_minutes.avg_active_users, 2.4210526315789473);
  EXPECT_EQ(activity.ten_minutes.avg_user_throughput_kbs, 8.1329353841145835);

  EXPECT_EQ(study.AccessPatterns().data_sessions, 4455u);
  EXPECT_EQ(study.AccessPatterns().cells[0][0].accesses_min, 40.454545454545453);
  EXPECT_EQ(study.Burstiness().trace_cv[0], 23.816576406192993);
}

}  // namespace
}  // namespace ntrace
