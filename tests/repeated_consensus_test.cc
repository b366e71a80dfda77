// Repeated asynchronous consensus: Σ⁺ in the asynchronous model, including
// the validity-recovery property single-shot consensus cannot offer.
#include "consensus/repeated_consensus.h"

#include <gtest/gtest.h>

#include "consensus/harness.h"
#include "util/rng.h"

namespace ftss {
namespace {

InputSource int_inputs() {
  return [](ProcessId p, std::int64_t instance) {
    return Value(1000 * instance + p);
  };
}

ConsensusSystemConfig base_config(int n, std::uint64_t seed) {
  ConsensusSystemConfig config;
  config.n = n;
  config.async.seed = seed;
  config.async.tick_interval = 10;
  config.async.min_delay = 1;
  config.async.max_delay = 20;
  config.async.max_delay_pre_gst = 20;
  return config;
}

TEST(RepeatedAsync, CleanRunDecidesManyValidInstances) {
  auto config = base_config(3, 1);
  auto sim = build_repeated_consensus_system(config, int_inputs());
  sim->run_until(30000);
  auto analysis = analyze_repeated_async(*sim, int_inputs(), sim->now() - 2000);
  ASSERT_GE(analysis.instances.size(), 10u);
  for (const auto& it : analysis.instances) {
    EXPECT_EQ(it.deciders, 3) << "instance " << it.instance;
    EXPECT_TRUE(it.agreement) << "instance " << it.instance;
    EXPECT_TRUE(it.validity) << "instance " << it.instance;
  }
  // Instances are consecutive from 0 in a clean run.
  EXPECT_EQ(analysis.instances.front().instance, 0);
  EXPECT_EQ(analysis.instances[5].instance, 5);
}

TEST(RepeatedAsync, InstancesAdvanceMonotonically) {
  auto config = base_config(3, 2);
  auto sim = build_repeated_consensus_system(config, int_inputs());
  sim->run_until(5000);
  auto k1 = repeated_view(*sim, 0)->instance();
  sim->run_until(20000);
  auto k2 = repeated_view(*sim, 0)->instance();
  EXPECT_GT(k2, k1);
}

TEST(RepeatedAsync, ToleratesCrashMidStream) {
  auto config = base_config(5, 3);
  auto sim = build_repeated_consensus_system(config, int_inputs());
  sim->schedule_crash(2, 5000);  // witness (3) stays alive
  sim->run_until(60000);
  auto analysis = analyze_repeated_async(*sim, int_inputs(), sim->now() - 2000);
  ASSERT_GE(analysis.instances.size(), 5u);
  // All instances decided after the crash settle cleanly among the 4
  // survivors; agreement holds for every instance throughout.
  for (const auto& it : analysis.instances) {
    EXPECT_TRUE(it.agreement) << "instance " << it.instance;
  }
  auto clean_from = analysis.clean_from(/*correct_count=*/4);
  ASSERT_TRUE(clean_from.has_value());
}

TEST(RepeatedAsync, ValidityRecoversAfterFullCorruption) {
  // The headline property: single-shot consensus from corrupted state loses
  // validity forever; REPEATED consensus regains it, because instances
  // started after stabilization draw fresh inputs.
  const int n = 5;
  auto config = base_config(n, 4);
  auto sim = build_repeated_consensus_system(config, int_inputs());
  Rng rng(44);
  for (ProcessId p = 0; p < n; ++p) {
    Value host_state;
    Value rcons;
    rcons["k"] = Value(rng.uniform(0, 50) * (p + 1));
    rcons["inner"] =
        make_corrupt_state(CorruptionPattern::kFull, p, n, rng).at("cons");
    host_state["rcons"] = std::move(rcons);
    host_state["gfd"] =
        make_corrupt_state(CorruptionPattern::kDetector, p, n, rng).at("gfd");
    sim->corrupt_state(p, host_state);
  }
  sim->run_until(120000);
  auto analysis = analyze_repeated_async(*sim, int_inputs(), sim->now() - 2000);
  ASSERT_FALSE(analysis.instances.empty());
  auto clean_from = analysis.clean_from(/*correct_count=*/n);
  ASSERT_TRUE(clean_from.has_value());
  // Plenty of fully-clean (valid!) instances after stabilization.
  EXPECT_GE(analysis.clean_count(n), 10);
}

TEST(RepeatedAsync, SkippedInstancesBackfilledFromDecideMessages) {
  // Corrupt ONE process's instance counter far ahead: everyone jumps to it
  // (instance-level agreement).  The stream continues from there; all
  // correct processes log the same decisions from the jump point on.
  const int n = 3;
  auto config = base_config(n, 5);
  auto sim = build_repeated_consensus_system(config, int_inputs());
  Value state;
  state["rcons"] = Value::map({{"k", Value(1000)}, {"inner", Value()}});
  sim->corrupt_state(0, state);
  sim->run_until(30000);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_GE(repeated_view(*sim, p)->instance(), 1000) << "p=" << p;
  }
  auto analysis = analyze_repeated_async(*sim, int_inputs(), sim->now() - 2000);
  auto clean_from = analysis.clean_from(n);
  ASSERT_TRUE(clean_from.has_value());
  EXPECT_GE(*clean_from, 1000);
}

TEST(RepeatedAsync, DecisionOfLookup) {
  auto config = base_config(3, 6);
  auto sim = build_repeated_consensus_system(config, int_inputs());
  sim->run_until(20000);
  const auto* view = repeated_view(*sim, 1);
  ASSERT_TRUE(view->decision_of(0).has_value());
  EXPECT_FALSE(view->decision_of(99999).has_value());
}

TEST(RepeatedAsync, SnapshotRestoreRoundTrips) {
  RepeatedConsensus a(0, 3, int_inputs(), nullptr);
  Value state;
  state["k"] = Value(7);
  state["inner"] = Value::map({{"r", Value(3)}, {"est", Value(42)}});
  a.restore(state);
  EXPECT_EQ(a.instance(), 7);
  RepeatedConsensus b(0, 3, int_inputs(), nullptr);
  b.restore(a.snapshot());
  EXPECT_EQ(b.snapshot(), a.snapshot());
}

TEST(RepeatedAsync, RestoreToleratesGarbage) {
  RepeatedConsensus a(0, 3, int_inputs(), nullptr);
  a.restore(Value("junk"));
  EXPECT_GE(a.instance(), 0);
  a.restore(Value::map({{"k", Value(-50)}, {"inner", Value(3)}}));
  EXPECT_GE(a.instance(), 0);  // negative instances clamp to 0
}

struct RepeatedParam {
  int n;
  int crashes;
  bool corrupt;
  std::uint64_t seed;
};

class RepeatedAsyncSweep : public ::testing::TestWithParam<RepeatedParam> {};

TEST_P(RepeatedAsyncSweep, EventuallyCleanStream) {
  const auto param = GetParam();
  auto config = base_config(param.n, param.seed);
  auto sim = build_repeated_consensus_system(config, int_inputs());
  Rng rng(param.seed * 31 + 7);
  if (param.corrupt) {
    for (ProcessId p = 0; p < param.n; ++p) {
      Value host_state;
      host_state["rcons"] = Value::map(
          {{"k", Value(rng.uniform(0, 100))},
           {"inner",
            make_corrupt_state(CorruptionPattern::kFull, p, param.n, rng)
                .at("cons")}});
      sim->corrupt_state(p, host_state);
    }
  }
  for (int i = 0; i < param.crashes; ++i) {
    sim->schedule_crash(2 * i, rng.uniform(0, 3000));
  }
  sim->run_until(150000);
  const int correct = param.n - param.crashes;
  auto analysis = analyze_repeated_async(*sim, int_inputs(), sim->now() - 2000);
  auto clean_from = analysis.clean_from(correct);
  ASSERT_TRUE(clean_from.has_value());
  EXPECT_GE(analysis.clean_count(correct), 5);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RepeatedAsyncSweep,
    ::testing::Values(RepeatedParam{3, 0, false, 11},
                      RepeatedParam{3, 1, false, 12},
                      RepeatedParam{3, 0, true, 13},
                      RepeatedParam{5, 2, false, 14},
                      RepeatedParam{5, 0, true, 15},
                      RepeatedParam{5, 2, true, 16},
                      RepeatedParam{7, 3, false, 17},
                      RepeatedParam{7, 0, true, 18},
                      RepeatedParam{9, 2, true, 19}),
    [](const ::testing::TestParamInfo<RepeatedParam>& param_info) {
      return std::string("n").append(std::to_string(param_info.param.n)) +
             "_c" +
             std::to_string(param_info.param.crashes) +
             (param_info.param.corrupt ? "_corrupt" : "_clean") + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace ftss
