// The §2.4 compiler applied to the other terminating protocols: a rotating-
// sequencer reliable broadcast and interactive consistency.  This is the
// paper's stated purpose — "much of the large body of existing process
// failure-tolerant protocols automatically can be made self-stabilizing".
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/predicates.h"
#include "protocols/interactive_consistency.h"
#include "protocols/reliable_broadcast.h"
#include "protocols/repeated.h"
#include "sim/corrupt.h"
#include "sim/simulator.h"
#include "util/numeric.h"

namespace ftss {
namespace {

// Rotating-sequencer broadcast: iteration i's source is i mod n, proposing a
// string derived from the iteration.
InputSource rotating_broadcast_inputs(int n) {
  return [n](ProcessId, std::int64_t iteration) {
    return ReliableBroadcastProtocol::make_input(
        static_cast<ProcessId>(floor_mod(iteration, n)),
        Value(std::string("m").append(std::to_string(iteration))));
  };
}

InputSource ic_inputs() {
  return [](ProcessId p, std::int64_t iteration) {
    return Value(std::string("v").append(std::to_string(iteration)) +
                 "_" + std::to_string(p));
  };
}

TEST(CompiledBroadcast, CleanRunDeliversRotatingSequence) {
  const int n = 4, f = 1;
  auto protocol = std::make_shared<ReliableBroadcastProtocol>(f);
  SyncSimulator sim(SyncConfig{.seed = 1},
                    compile_protocol(n, protocol, rotating_broadcast_inputs(n)));
  sim.run_rounds(16);  // final_round = 2 -> 8 iterations
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   broadcast_validity());
  ASSERT_EQ(analysis.iterations.size(), 8u);
  for (const auto& it : analysis.iterations) {
    EXPECT_TRUE(RepeatedAnalysis::clean(it, true)) << it.iteration;
    EXPECT_EQ(it.decision, Value(std::string("m").append(std::to_string(it.iteration))));
  }
}

TEST(CompiledBroadcast, CrashedSourceIterationsDeliverNull) {
  const int n = 3, f = 1;
  auto protocol = std::make_shared<ReliableBroadcastProtocol>(f);
  SyncSimulator sim(SyncConfig{.seed = 2},
                    compile_protocol(n, protocol, rotating_broadcast_inputs(n)));
  sim.set_fault_plan(1, FaultPlan::crash(1));  // source of iterations 1, 4, ...
  sim.run_rounds(12);  // 6 iterations
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   broadcast_validity());
  for (const auto& it : analysis.iterations) {
    EXPECT_TRUE(RepeatedAnalysis::clean(it, true)) << it.iteration;
    if (floor_mod(it.iteration, n) == 1) {
      EXPECT_TRUE(it.decision.is_null()) << it.iteration;
    } else {
      EXPECT_EQ(it.decision, Value(std::string("m").append(std::to_string(it.iteration))));
    }
  }
}

TEST(CompiledBroadcast, RecoversFromTotalCorruption) {
  const int n = 4, f = 1;
  auto protocol = std::make_shared<ReliableBroadcastProtocol>(f);
  SyncSimulator sim(SyncConfig{.seed = 3},
                    compile_protocol(n, protocol, rotating_broadcast_inputs(n)));
  Rng rng(3);
  for (ProcessId p = 0; p < n; ++p) {
    sim.corrupt_state(p, random_value(rng, 100'000));
  }
  sim.run_rounds(24);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   broadcast_validity());
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  EXPECT_LE(*clean_from, 1 + 2 * protocol->final_round());
  EXPECT_GE(analysis.clean_count(*clean_from, sim.history().length(), true), 5);
}

TEST(CompiledInteractiveConsistency, CleanRunAgreesOnVectors) {
  const int n = 4, f = 1;
  auto protocol = std::make_shared<InteractiveConsistency>(f);
  SyncSimulator sim(SyncConfig{.seed = 4},
                    compile_protocol(n, protocol, ic_inputs()));
  sim.run_rounds(10);  // 5 iterations of final_round = 2
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   interactive_consistency_validity());
  ASSERT_GE(analysis.iterations.size(), 5u);
  for (const auto& it : analysis.iterations) {
    EXPECT_TRUE(RepeatedAnalysis::clean(it, true)) << it.iteration;
    // Vector contains everyone's iteration-specific input.
    ASSERT_TRUE(it.decision.is_map());
    for (int p = 0; p < n; ++p) {
      EXPECT_EQ(it.decision.at(std::to_string(p)),
                Value(std::string("v").append(std::to_string(it.iteration)) +
                      "_" +
                      std::to_string(p)));
    }
  }
}

TEST(CompiledInteractiveConsistency, RecoversFromCorruptionWithCrash) {
  const int n = 5, f = 2;
  auto protocol = std::make_shared<InteractiveConsistency>(f);
  SyncSimulator sim(SyncConfig{.seed = 5},
                    compile_protocol(n, protocol, ic_inputs()));
  Rng rng(5);
  for (ProcessId p = 0; p < n; ++p) {
    sim.corrupt_state(p, random_value(rng, 100'000));
  }
  sim.set_fault_plan(4, FaultPlan::crash(7));
  sim.run_rounds(36);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   interactive_consistency_validity());
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  EXPECT_GE(analysis.clean_count(*clean_from, sim.history().length(), true), 3);
}

struct CompiledParam {
  int n;
  int f;
  std::uint64_t seed;
};

class CompiledBroadcastSweep : public ::testing::TestWithParam<CompiledParam> {};

TEST_P(CompiledBroadcastSweep, FtssSolvesRepeatedBroadcast) {
  const auto param = GetParam();
  auto protocol = std::make_shared<ReliableBroadcastProtocol>(param.f);
  SyncSimulator sim(
      SyncConfig{.seed = param.seed, .record_states = false},
      compile_protocol(param.n, protocol, rotating_broadcast_inputs(param.n)));
  Rng rng(param.seed * 7 + param.n);
  for (ProcessId p = 0; p < param.n; ++p) {
    sim.corrupt_state(p, random_value(rng, 10'000));
  }
  for (int idx : rng.sample(param.n, param.f)) {
    sim.set_fault_plan(idx, FaultPlan::crash(rng.uniform(1, 12)));
  }
  sim.run_rounds(30 + 10 * protocol->final_round());
  EXPECT_TRUE(check_round_agreement_ftss(sim.history(), 1).ok);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty(),
                                   broadcast_validity());
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  const Round base = std::max<Round>(sim.history().last_coterie_change(), 1);
  EXPECT_LE(*clean_from - base, 2 * protocol->final_round() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CompiledBroadcastSweep,
    ::testing::Values(CompiledParam{3, 1, 1}, CompiledParam{4, 1, 2},
                      CompiledParam{5, 2, 3}, CompiledParam{6, 2, 4},
                      CompiledParam{8, 3, 5}, CompiledParam{10, 3, 6},
                      CompiledParam{4, 2, 7}, CompiledParam{7, 2, 8}),
    [](const ::testing::TestParamInfo<CompiledParam>& param_info) {
      return std::string("n").append(std::to_string(param_info.param.n)) +
             "_f" +
             std::to_string(param_info.param.f) + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace ftss
