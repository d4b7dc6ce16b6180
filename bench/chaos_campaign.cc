// Chaos campaign driver (DESIGN.md §16): composes the fault injectors over
// seeded randomized schedules and checks the pipeline's global invariants
// after every trial -- exact accounting, salvage prefix monotonicity,
// cross-thread determinism, gap-tolerant replay termination and, on trials
// whose only loss is unresolved records, per-system replay identity (the
// count of such trials is printed). On a failure the campaign shrinks the
// plan and prints a minimal reproducing seed.
//
// Default is a short deterministic campaign suitable for CI; the soak knobs
// scale it up:
//   NTRACE_CHAOS_TRIALS    trials to run, at least 1 (default 10)
//   NTRACE_CHAOS_SEED      campaign seed, decimal or 0x hex (default 0xC4A0C4A0)
//   NTRACE_CHAOS_ACTIVITY  trial fleet activity scale (default 0.05)
//   NTRACE_CHAOS_VERBOSE   1 = per-trial progress lines (default 1)

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "bench/bench_common.h"
#include "src/fault/chaos.h"

int main() {
  using namespace ntrace;

  // Strict parsers: a malformed knob warns and runs the default, where a
  // bare strtoull reads "abc" as 0 trials and "2OO" as 2. The seed also
  // takes the 0x form the campaign prints.
  ChaosCampaignConfig config;
  config.trials = EnvInt("NTRACE_CHAOS_TRIALS", 10, 1, std::numeric_limits<int>::max());
  config.seed = EnvU64("NTRACE_CHAOS_SEED", 0xC4A0C4A0ULL, /*base=*/0);
  config.activity_scale = EnvDouble("NTRACE_CHAOS_ACTIVITY", 0.05);
  config.verbose = EnvInt("NTRACE_CHAOS_VERBOSE", 1, 0, 1) == 1;
  std::error_code ec;
  config.work_dir = (std::filesystem::temp_directory_path(ec) /
                     ("ntrace_chaos_" + std::to_string(static_cast<unsigned>(getpid()))))
                        .string();

  std::printf("ntrace chaos campaign: %d trials, seed 0x%llx, activity %.3f\n", config.trials,
              static_cast<unsigned long long>(config.seed), config.activity_scale);
  const ChaosCampaignResult result = RunChaosCampaign(config);
  std::filesystem::remove_all(config.work_dir, ec);

  std::printf("\ntrials run:          %d (%d failed)\n", result.trials_run, result.trials_failed);
  std::printf("fault families:      %d of 5 composed "
              "(crash=%d ship=%d disk=%d transport=%d damage=%d)\n",
              result.FamiliesCovered(), result.crash_trials, result.shipment_trials,
              result.disk_trials, result.transport_trials, result.damage_trials);
  std::printf("determinism rechecks: %d\n", result.determinism_checks);
  std::printf("identity checks:     %d\n", result.identity_checks);
  std::printf("records emitted:     %llu (%llu lost across all trials)\n",
              static_cast<unsigned long long>(result.records_emitted),
              static_cast<unsigned long long>(result.records_lost_total));
  std::printf("replay synthesized:  %llu ops\n",
              static_cast<unsigned long long>(result.synthesized_ops));
  if (!result.ok()) {
    std::printf("CAMPAIGN FAILED -- minimal reproducing plan: %s\n",
                result.minimal_plan.Describe().c_str());
    return 1;
  }
  std::printf("all invariants held\n");
  return 0;
}
