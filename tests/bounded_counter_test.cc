// The bounded-counter impossibility (deferred by §2.4 to the full paper):
// round agreement with counters mod M cannot be ftss-solved — a lagging
// faulty coterie member's counter periodically wraps into the correct
// processes' future and disturbs them with no coterie change to excuse it.
#include "core/bounded_round_agreement.h"

#include <gtest/gtest.h>

#include "core/predicates.h"
#include "core/round_agreement.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ftss {
namespace {

using testing::clock_state;

std::vector<std::unique_ptr<SyncProcess>> bounded_system(int n,
                                                         std::int64_t modulus) {
  std::vector<std::unique_ptr<SyncProcess>> procs;
  for (ProcessId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<BoundedRoundAgreementProcess>(p, modulus));
  }
  return procs;
}

// The adversarial execution: TWO deaf faulty processes (receive-omit
// everything, so each free-runs its own counter track at +1/round) with
// counter tracks offset by a systemic failure, each heard by a different
// correct process.  One such track disturbs the correct processes only once
// (they merge onto its phase and stay merged — both tracks advance at the
// same rate).  With bounded counters and TWO distinct offsets, the integer
// representative of "which track leads" flips at every wrap, yanking the two
// correct listeners in different directions again and again; with unbounded
// counters the globally maximal track leads forever after one merge.
void install_adversary(SyncSimulator& sim, int n, Round offset_a,
                       Round offset_b) {
  auto deaf_to_all_but = [n](ProcessId target) {
    FaultPlan plan;
    plan.receive_omissions.push_back(OmissionRule{});
    for (ProcessId d = 0; d < n; ++d) {
      if (d != target) plan.send_omissions.push_back(OmissionRule{.peer = d});
    }
    return plan;
  };
  const ProcessId qa = n - 2;
  const ProcessId qb = n - 1;
  sim.set_fault_plan(qa, deaf_to_all_but(0));
  sim.set_fault_plan(qb, deaf_to_all_but(1));
  sim.corrupt_state(qa, clock_state(offset_a));
  sim.corrupt_state(qb, clock_state(offset_b));
}

TEST(BoundedCounter, CleanStartCountsModM) {
  SyncSimulator sim(SyncConfig{}, bounded_system(3, 8));
  sim.run_rounds(20);
  const auto& h = sim.history();
  for (Round r = 2; r <= 20; ++r) {
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(*h.at(r).clock[p], r % 8) << "r=" << r;
    }
  }
}

TEST(BoundedCounter, SimpleCorruptionStillConvergesWithoutAdversary) {
  // Without a faulty process, the bounded rule does reach clock AGREEMENT in
  // one round (everyone adopts the same representative max) — the
  // impossibility needs the interaction of both failure types, like
  // everything in this paper.  Note the rate condition of Assumption 1 is
  // not even expressible mod M (it fails at every wrap), which is itself
  // half of why the paper demands an unbounded counter.
  SyncSimulator sim(SyncConfig{}, bounded_system(4, 8));
  sim.corrupt_state(0, clock_state(5));
  sim.corrupt_state(2, clock_state(3));
  sim.run_rounds(20);
  const auto& h = sim.history();
  EXPECT_TRUE(disagreement_rounds(h, 2, h.length(), h.faulty()).empty());
}

TEST(BoundedCounter, RateConditionFailsAtEveryWrap) {
  SyncSimulator sim(SyncConfig{}, bounded_system(3, 8));
  sim.run_rounds(33);
  const auto& h = sim.history();
  auto violations = rate_violation_rounds(h, 1, h.length(), h.faulty());
  // One wrap every 8 rounds: counters go ... 7 -> 0, breaking c' = c + 1.
  EXPECT_GE(violations.size(), 3u);
  for (std::size_t i = 1; i < violations.size(); ++i) {
    EXPECT_EQ(violations[i] - violations[i - 1], 8);
  }
}

TEST(BoundedCounter, RestoreMapsGarbageIntoRange) {
  BoundedRoundAgreementProcess p(0, 8);
  p.restore_state(Value::map({{"c", Value(123456)}}));
  EXPECT_GE(*p.round_counter(), 0);
  EXPECT_LT(*p.round_counter(), 8);
  p.restore_state(Value("garbage"));
  EXPECT_GE(*p.round_counter(), 0);
  EXPECT_LT(*p.round_counter(), 8);
  p.restore_state(Value::map({{"c", Value(-3)}}));
  EXPECT_EQ(*p.round_counter(), 5);
}

TEST(BoundedCounter, LaggingFaultyMembersDisturbForever) {
  const int n = 4;
  const std::int64_t modulus = 8;
  SyncSimulator sim(SyncConfig{}, bounded_system(n, modulus));
  install_adversary(sim, n, /*offset_a=*/6, /*offset_b=*/3);
  sim.run_rounds(100);
  const auto& h = sim.history();
  const auto faulty = h.faulty();

  // Disturbances — correct processes DISAGREEING on the round number —
  // recur long after the coterie has stopped changing...
  auto disagreements = disagreement_rounds(h, 1, h.length(), faulty);
  ASSERT_GE(disagreements.size(), 5u);
  EXPECT_GT(disagreements.back(), h.last_coterie_change() + 2 * modulus);
  // ...so no finite stabilization time up to ~the horizon works.
  for (Round stab : {Round{1}, Round{4}, Round{8}, Round{16}, Round{32}}) {
    EXPECT_FALSE(check_round_agreement_ftss(h, stab).ok) << "stab=" << stab;
  }
}

TEST(BoundedCounter, UnboundedProtocolHandlesTheSameAdversary) {
  // The identical execution against Figure 1 (unbounded counters): a brief
  // disturbance when the adversarial tracks enter the coterie, then
  // permanent stability — exactly why the paper requires an unbounded
  // variable.
  const int n = 4;
  std::vector<std::unique_ptr<SyncProcess>> procs;
  for (ProcessId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<RoundAgreementProcess>(p));
  }
  SyncSimulator sim(SyncConfig{}, std::move(procs));
  install_adversary(sim, n, /*offset_a=*/600, /*offset_b=*/350);
  sim.run_rounds(100);
  EXPECT_TRUE(check_round_agreement_ftss(sim.history(), 1).ok)
      << check_round_agreement_ftss(sim.history(), 1).violation;
}

class BoundedModulusSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BoundedModulusSweep, DisturbanceRecursAtPeriodM) {
  const std::int64_t modulus = GetParam();
  const int n = 4;
  SyncSimulator sim(SyncConfig{}, bounded_system(n, modulus));
  install_adversary(sim, n, modulus - 2, modulus / 2 + 1);
  const int horizon = static_cast<int>(8 * modulus);
  sim.run_rounds(horizon);
  const auto& h = sim.history();
  auto disagreements = disagreement_rounds(h, 1, h.length(), h.faulty());
  // At least one disturbance per wrap period, sustained through the run.
  EXPECT_GE(static_cast<std::int64_t>(disagreements.size()), 4);
  EXPECT_GT(disagreements.back(), static_cast<Round>(horizon - 2 * modulus));
}

INSTANTIATE_TEST_SUITE_P(Moduli, BoundedModulusSweep,
                         ::testing::Values<std::int64_t>(4, 8, 16, 32, 64),
                         [](const ::testing::TestParamInfo<std::int64_t>& param_info) {
                           return std::string("M").append(std::to_string(param_info.param));
                         });

}  // namespace
}  // namespace ftss
