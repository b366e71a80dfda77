// Theorem 4: the Figure 3 compiler turns Π (ft-solves Σ) into Π⁺
// (ftss-solves Σ⁺ with stabilization time final_round).
#include "core/compiler.h"

#include <gtest/gtest.h>

#include <set>

#include "core/predicates.h"
#include "protocols/floodset.h"
#include "protocols/reliable_broadcast.h"
#include "protocols/repeated.h"
#include "sim/corrupt.h"
#include "sim/simulator.h"

namespace ftss {
namespace {

// Deterministic per-(process, iteration) integer inputs.
InputSource int_inputs() {
  return [](ProcessId p, std::int64_t iteration) {
    return Value(100 * iteration + p);
  };
}

SyncSimulator make_compiled_floodset(int n, int f, std::uint64_t seed,
                                     CompilerOptions options = {}) {
  auto protocol = std::make_shared<FloodSetConsensus>(f);
  return SyncSimulator(SyncConfig{.seed = seed},
                       compile_protocol(n, protocol, int_inputs(), options));
}

TEST(Compiler, CleanRunDecidesEveryIteration) {
  const int n = 4, f = 1;  // final_round = 2
  auto sim = make_compiled_floodset(n, f, 1);
  sim.run_rounds(10);  // 5 complete iterations
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty());
  ASSERT_EQ(analysis.iterations.size(), 5u);
  for (const auto& it : analysis.iterations) {
    EXPECT_TRUE(RepeatedAnalysis::clean(it, /*require_validity=*/true))
        << "iteration " << it.iteration;
    // min input of the iteration = 100*iteration + 0.
    EXPECT_EQ(it.decision, Value(100 * it.iteration));
  }
}

TEST(Compiler, IterationInputsAdvanceWithCounter) {
  auto sim = make_compiled_floodset(3, 1, 1);
  sim.run_rounds(6);
  auto views = compiled_views(sim);
  ASSERT_EQ(views[0]->decisions().size(), 3u);
  EXPECT_EQ(views[0]->decisions()[0].iteration, 0);
  EXPECT_EQ(views[0]->decisions()[1].iteration, 1);
  EXPECT_EQ(views[0]->decisions()[2].iteration, 2);
  EXPECT_EQ(views[0]->decisions()[1].input_used, Value(100));
}

TEST(Compiler, CorruptedClocksRecoverWithinFinalRound) {
  const int n = 4, f = 1;
  auto protocol = std::make_shared<FloodSetConsensus>(f);
  SyncSimulator sim(SyncConfig{.seed = 2},
                    compile_protocol(n, protocol, int_inputs()));
  for (ProcessId p = 0; p < n; ++p) {
    Value garbage;
    garbage["c"] = Value(1000 + 13 * p);
    garbage["s"] = Value("junk");
    garbage["suspect"] = Value::array({Value(0), Value(3)});
    garbage["input"] = Value(-1);
    sim.corrupt_state(p, garbage);
  }
  sim.run_rounds(20);
  const auto& h = sim.history();
  // Round agreement stabilizes in one round; full Σ⁺ (clean iterations)
  // within final_round + one iteration of suspect-set flushing.
  auto m = measure_round_agreement(h);
  ASSERT_TRUE(m.time().has_value());
  EXPECT_LE(*m.time(), 1);

  auto analysis = analyze_repeated(compiled_views(sim), h.faulty());
  auto clean_from = analysis.clean_from(/*require_validity=*/true);
  ASSERT_TRUE(clean_from.has_value());
  // Theorem 4: stabilization within final_round rounds (plus the corrupted
  // suspect sets extending it by at most final_round, §2.4).
  EXPECT_LE(*clean_from, 1 + 2 * protocol->final_round());
  // Several clean iterations actually happened after stabilization.
  EXPECT_GE(analysis.clean_count(*clean_from, h.length(), true), 5);
}

TEST(Compiler, NegativeCorruptedCountersAreHandled) {
  auto sim = make_compiled_floodset(3, 1, 3);
  Value garbage;
  garbage["c"] = Value(-1'000'000);
  sim.corrupt_state(1, garbage);
  sim.run_rounds(12);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty());
  EXPECT_TRUE(analysis.clean_from(true).has_value());
}

TEST(Compiler, ExtremeCounterCorruptionDoesNotOverflow) {
  auto sim = make_compiled_floodset(3, 1, 4);
  Value garbage;
  garbage["c"] = Value(std::numeric_limits<std::int64_t>::max());
  sim.corrupt_state(0, garbage);
  sim.run_rounds(8);  // must not crash / UB; clocks clamp and agree
  auto m = measure_round_agreement(sim.history());
  ASSERT_TRUE(m.time().has_value());
  EXPECT_LE(*m.time(), 1);
}

TEST(Compiler, ToleratesCrashesWithinBound) {
  const int n = 5, f = 2;
  auto sim = make_compiled_floodset(n, f, 5);
  sim.set_fault_plan(2, FaultPlan::crash(4));
  sim.set_fault_plan(4, FaultPlan::crash(7));
  sim.run_rounds(30);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty());
  // After the last crash settles, iterations are clean.
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  EXPECT_GE(analysis.clean_count(*clean_from, sim.history().length(), true), 4);
}

TEST(Compiler, SuspectSetsFilterCrashedProcesses) {
  auto sim = make_compiled_floodset(3, 1, 6);
  sim.set_fault_plan(2, FaultPlan::crash(3));
  // Stop mid-iteration (final_round = 2; the boundary reset happens when the
  // counter wraps, i.e. after even-numbered rounds in a clean run).
  sim.run_rounds(3);
  auto views = compiled_views(sim);
  EXPECT_TRUE(views[0]->suspects().contains(2));
  // At the next boundary the suspect set is wiped again.
  sim.run_rounds(1);
  EXPECT_TRUE(views[0]->suspects().empty());
}

TEST(Compiler, SuspectSetsResetEachIteration) {
  // final_round = 2; suspects accumulated in an iteration are cleared at the
  // boundary, so a recovered (hidden) process is readmitted.
  auto sim = make_compiled_floodset(3, 1, 7);
  sim.set_fault_plan(2, FaultPlan::hide_until(5));
  sim.run_rounds(10);
  auto views = compiled_views(sim);
  // Long after the reveal and at least one reset boundary, 2 is trusted.
  EXPECT_FALSE(views[0]->suspects().contains(2));
}

TEST(Compiler, HiddenRevealDisruptsOnlyBrieflyUnderDef24) {
  const int n = 4, f = 1;
  auto protocol = std::make_shared<FloodSetConsensus>(f);
  SyncSimulator sim(SyncConfig{.seed = 8},
                    compile_protocol(n, protocol, int_inputs()));
  Value garbage;
  garbage["c"] = Value(5000);
  sim.corrupt_state(3, garbage);
  sim.set_fault_plan(3, FaultPlan::hide_until(9));
  sim.run_rounds(30);
  const auto& h = sim.history();
  EXPECT_EQ(h.last_coterie_change(), 9);
  auto analysis = analyze_repeated(compiled_views(sim), h.faulty());
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  // Clean again within ~2 iterations of the reveal.
  EXPECT_LE(*clean_from, 9 + 1 + 2 * protocol->final_round());
}

TEST(Compiler, RoundTagFilteringBlocksOutOfDateMessages) {
  // Ablation check (§2.4's "insidious problem"): with tags ON, a process
  // whose counter lags keeps polluting Π's view unless filtered.  We verify
  // the positive side here: with defaults, corrupted-state pollution does
  // not leak into post-stabilization decisions (validity holds).
  const int n = 4, f = 1;
  auto protocol = std::make_shared<FloodSetConsensus>(f);
  SyncSimulator sim(SyncConfig{.seed = 9},
                    compile_protocol(n, protocol, int_inputs()));
  Value evil;
  evil["c"] = Value(0);
  evil["s"] = Value::map(
      {{"vals", Value::array({Value(-999999)})}, {"decision", Value()}});
  sim.corrupt_state(2, evil);
  sim.run_rounds(20);
  auto analysis = analyze_repeated(compiled_views(sim), sim.history().faulty());
  ASSERT_GE(analysis.iterations.size(), 2u);
  // The poisoned value can pollute at most the first iteration(s); after
  // stabilization validity holds (decisions come from real inputs).
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  EXPECT_LE(*clean_from, 1 + 2 * protocol->final_round());
}

TEST(Compiler, SnapshotRoundTripsIncludingSuspects) {
  auto protocol = std::make_shared<FloodSetConsensus>(1);
  CompiledProcess a(0, 3, protocol, int_inputs());
  Value state;
  state["c"] = Value(7);
  state["s"] = Value::map({{"vals", Value::array({Value(3)})}});
  state["suspect"] = Value::array({Value(1), Value(2)});
  state["input"] = Value(42);
  a.restore_state(state);
  EXPECT_EQ(a.round_counter(), std::optional<Round>(7));
  EXPECT_EQ(a.suspects().to_bools(), (std::vector<bool>{false, true, true}));
  CompiledProcess b(0, 3, protocol, int_inputs());
  b.restore_state(a.snapshot_state());
  EXPECT_EQ(b.snapshot_state(), a.snapshot_state());
}

TEST(Compiler, RestoreIgnoresOutOfRangeSuspects) {
  auto protocol = std::make_shared<FloodSetConsensus>(1);
  CompiledProcess a(0, 3, protocol, int_inputs());
  Value state;
  state["suspect"] = Value::array({Value(-1), Value(99), Value("x"), Value(1)});
  a.restore_state(state);
  EXPECT_EQ(a.suspects().to_bools(), (std::vector<bool>{false, true, false}));
}

// --- Theorem 4 property sweep ------------------------------------------------

struct Thm4Param {
  int n;
  int f;
  std::uint64_t seed;
};

class Theorem4Sweep : public ::testing::TestWithParam<Thm4Param> {};

TEST_P(Theorem4Sweep, CompiledFloodSetFtssSolvesRepeatedConsensus) {
  const auto param = GetParam();
  Rng rng(param.seed);
  auto protocol = std::make_shared<FloodSetConsensus>(param.f);
  SyncSimulator sim(SyncConfig{.seed = param.seed, .record_states = false},
                    compile_protocol(param.n, protocol, int_inputs()));
  // Systemic failure everywhere: fully random garbage states.
  for (ProcessId p = 0; p < param.n; ++p) {
    sim.corrupt_state(p, random_value(rng, 10'000));
  }
  // Up to f crash failures at random times (FloodSet's fault model).
  for (int idx : rng.sample(param.n, param.f)) {
    sim.set_fault_plan(idx, FaultPlan::crash(rng.uniform(1, 15)));
  }
  const int horizon = 30 + 10 * protocol->final_round();
  sim.run_rounds(horizon);
  const auto& h = sim.history();

  // Round agreement part of Σ⁺ (Assumption 1) holds with stab time 1.
  EXPECT_TRUE(check_round_agreement_ftss(h, 1).ok);

  // Repeated-consensus part: clean iterations from shortly after the last
  // de-stabilizing event (coterie change from crashes) onward.  Validity is
  // the standard rule: the decision is *some* process's input (a crashed
  // process's proposal may legitimately win an iteration it started).
  auto analysis = analyze_repeated(compiled_views(sim), h.faulty(),
                                   consensus_validity_any(int_inputs(), param.n));
  auto clean_from = analysis.clean_from(true);
  ASSERT_TRUE(clean_from.has_value());
  const Round last_change = std::max<Round>(h.last_coterie_change(), 1);
  EXPECT_LE(*clean_from - last_change, 2 * protocol->final_round() + 1)
      << "clean_from=" << *clean_from << " last_change=" << last_change;
  EXPECT_GE(analysis.clean_count(*clean_from, h.length(), true), 3);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem4Sweep,
    ::testing::Values(Thm4Param{3, 1, 1}, Thm4Param{3, 1, 2},
                      Thm4Param{4, 1, 3}, Thm4Param{4, 2, 4},
                      Thm4Param{5, 2, 5}, Thm4Param{5, 2, 6},
                      Thm4Param{6, 2, 7}, Thm4Param{8, 3, 8},
                      Thm4Param{8, 3, 9}, Thm4Param{10, 4, 10},
                      Thm4Param{12, 5, 11}, Thm4Param{16, 5, 12},
                      Thm4Param{4, 1, 13}, Thm4Param{5, 1, 14},
                      Thm4Param{6, 3, 15}, Thm4Param{7, 2, 16}),
    [](const ::testing::TestParamInfo<Thm4Param>& param_info) {
      return std::string("n").append(std::to_string(param_info.param.n)) +
             "_f" +
             std::to_string(param_info.param.f) + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace ftss
