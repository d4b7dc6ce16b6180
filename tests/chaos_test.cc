// Chaos campaign engine tests (DESIGN.md §16). The campaign itself is the
// assertion -- every trial checks the any-plan invariants (accounting,
// salvage monotonicity, cross-thread determinism, gap-tolerant replay
// termination) -- so the suite pins three meta-properties: a healthy tree
// passes a multi-family campaign, the plan generator is reproducible from
// (seed, index) alone, and a deliberately failing invariant shrinks to a
// minimal single-family reproduction. A crash-only trial also pins
// invariant D's identity clause, which only such trials reach.

#include "src/fault/chaos.h"
#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <string>

namespace ntrace {
namespace {

TEST(ChaosPlanGenerator, DeterministicAndAlwaysArmed) {
  const uint64_t seed = 0xC4A0C4A0ULL;
  bool seeds_diverge = false;
  for (int i = 0; i < 24; ++i) {
    const ChaosPlan a = DrawChaosPlan(seed, i);
    const ChaosPlan b = DrawChaosPlan(seed, i);
    EXPECT_EQ(a.Describe(), b.Describe()) << "i=" << i;
    EXPECT_EQ(a.trial_seed, b.trial_seed);
    EXPECT_GE(a.FamilyCount(), 1) << "i=" << i;
    EXPECT_GE(a.threads, 1);
    if (DrawChaosPlan(seed ^ 0x5A5A5A5AULL, i).Describe() != a.Describe()) {
      seeds_diverge = true;
    }
  }
  EXPECT_TRUE(seeds_diverge);
}

TEST(ChaosCampaign, HealthyTreeHoldsInvariantsAcrossFamilies) {
  ChaosCampaignConfig config;
  config.seed = 0xC4A0C4A0ULL;
  config.trials = 8;
  config.determinism_every = 4;  // Trials 0 and 4 re-run at swapped threads.
  config.work_dir = ScratchPath("chaos_campaign_test");

  const ChaosCampaignResult result = RunChaosCampaign(config);
  EXPECT_TRUE(result.ok()) << result.first_failure.plan.Describe();
  EXPECT_EQ(result.trials_run, config.trials);
  EXPECT_EQ(result.trials_failed, 0);
  EXPECT_GE(result.FamiliesCovered(), 3);
  EXPECT_EQ(result.determinism_checks, 2);
  EXPECT_GT(result.records_emitted, 0u);
}

// Invariant D's identity clause on a crash-only plan. Soak plan 25 tears
// system 3's spool mid-run and restarts it; the trial fleet's only loss is
// unresolved records, so the clause must run, and every system's replayed
// stream must equal its stream in the system-major store.
TEST(ChaosCampaign, CrashOnlyTrialReplaysEverySystemIdentically) {
  const ChaosPlan plan = DrawChaosPlan(0xC4A0C4A0ULL, 25);
  ASSERT_EQ(plan.Describe(), "seed=0x43c6db89fcf56081 threads=3 crash=torn-write sys3@ev593 att1");
  ChaosCampaignConfig config;
  const ChaosTrialResult r =
      RunChaosTrial(plan, config, ScratchPath("chaos_identity_test"), /*check_determinism=*/false);
  for (const ChaosInvariantFailure& f : r.failures) {
    ADD_FAILURE() << f.invariant << ": " << f.detail;
  }
  EXPECT_TRUE(r.identity_checked);
  EXPECT_EQ(r.worker_crashes, 1u);
  EXPECT_GT(r.records_lost_total, 0u);  // Unresolved records, and nothing else.
  EXPECT_EQ(r.store_records, r.records_collected);
  EXPECT_EQ(r.replay_records, r.records_collected);
}

// The acceptance demo: break an invariant on purpose and watch the campaign
// stop, shrink the failing composition and converge on a minimal
// single-family plan a human can replay from its printed seed.
TEST(ChaosCampaign, SabotageShrinksToMinimalSingleFamilyPlan) {
  const uint64_t seed = 0xC4A0C4A0ULL;
  // Find the first drawn plan with a (fast) crash family to sabotage.
  int victim = -1;
  CrashKind kind = CrashKind::kNone;
  for (int i = 0; i < 50; ++i) {
    const ChaosPlan p = DrawChaosPlan(seed, i);
    if (p.crash.enabled() && p.crash.kind != CrashKind::kHang) {
      victim = i;
      kind = p.crash.kind;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "no crash-family plan in the first 50 draws";

  ChaosCampaignConfig config;
  config.seed = seed;
  config.trials = victim + 1;
  config.determinism_every = 0;
  config.sabotage_crash_kind = kind;
  config.work_dir = ScratchPath("chaos_shrink_test");

  const ChaosCampaignResult result = RunChaosCampaign(config);
  ASSERT_TRUE(result.failed);
  EXPECT_EQ(result.trials_run, victim + 1);  // Stops at the failing trial.
  EXPECT_EQ(result.trials_failed, 1);
  ASSERT_FALSE(result.first_failure.failures.empty());
  EXPECT_EQ(result.first_failure.failures[0].invariant, "sabotage");

  // The shrunk plan keeps exactly the component the failure depends on.
  EXPECT_EQ(result.minimal_plan.crash.kind, kind);
  EXPECT_EQ(result.minimal_plan.FamilyCount(), 1);
  EXPECT_EQ(result.minimal_plan.threads, 1);
  EXPECT_FALSE(result.minimal_plan.damage.enabled());
  EXPECT_FALSE(result.minimal_plan.net);
  EXPECT_EQ(result.minimal_plan.shipment_probability, 0.0);
  EXPECT_EQ(result.minimal_plan.disk_read_probability, 0.0);
  EXPECT_EQ(result.minimal_plan.disk_write_probability, 0.0);
  EXPECT_LE(result.shrink_runs, config.shrink_budget);
  EXPECT_FALSE(result.minimal_plan.Describe().empty());
}

}  // namespace
}  // namespace ntrace
