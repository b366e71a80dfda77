// Socket-transport conformance tests (ctest label: transport).
//
// The transport leg runs every process on its own OS thread behind a
// loopback socketpair, exchanging binary frames (src/net/transport.h), and
// is held to the same standard as the event-simulator lock-step leg: the
// recorded history must match the SyncSimulator's byte for byte.  Layers:
//   1. agreement on the hand-built plan family conform_test.cc uses
//      (clean / faulty / jittery / compiled), plus determinism across runs
//      despite real threads — the hub's fixed read order is the only
//      ordering authority;
//   2. a crash/GST-style grid mirroring golden_fingerprint_test.cc, each
//      cell asserting sync and transport fingerprints are identical;
//   3. a >=240-trial seeded sweep over adversary-sampled plans with the
//      aggregate fingerprint pinned;
//   4. mutation tests: the hub's corruption hooks (drop, delay, payload
//      mutation, bit flip, truncation, duplication) must each surface as a
//      typed rejection and/or a history divergence the differ catches —
//      a transport oracle that cannot fail verifies nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/adversary.h"
#include "conform/conform.h"
#include "divergence_pins.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace ftss {
namespace {

TrialPlan clean_plan() {
  TrialPlan plan;
  plan.trial_seed = 7;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = 4;
  plan.rounds = 12;
  return plan;
}

TrialPlan faulty_plan() {
  TrialPlan plan;
  plan.trial_seed = 21;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = 5;
  plan.rounds = 16;
  plan.faults.push_back(
      FaultSpec{.process = 2, .kind = FaultSpec::Kind::kCrash, .onset = 7});
  plan.faults.push_back(FaultSpec{.process = 0,
                                  .kind = FaultSpec::Kind::kSendOmission,
                                  .onset = 3,
                                  .until = 6,
                                  .peer = 1});
  plan.corruptions.push_back(CorruptionSpec{
      .process = 1, .kind = CorruptionSpec::Kind::kClock, .magnitude = 4123});
  return plan;
}

TrialPlan jittery_plan() {
  TrialPlan plan;
  plan.trial_seed = 33;
  plan.mode = TrialMode::kRoundAgreementJitter;
  plan.n = 4;
  plan.rounds = 20;
  plan.max_extra_delay = 3;
  plan.faults.push_back(FaultSpec{.process = 3,
                                  .kind = FaultSpec::Kind::kReceiveOmission,
                                  .onset = 2,
                                  .until = 9,
                                  .permille = 500});
  return plan;
}

TrialPlan compiled_plan() {
  TrialPlan plan;
  plan.trial_seed = 11;
  plan.mode = TrialMode::kCompiled;
  plan.protocol = "floodset-consensus";
  plan.n = 4;
  plan.f_budget = 1;
  plan.rounds = 18;
  plan.faults.push_back(
      FaultSpec{.process = 0, .kind = FaultSpec::Kind::kCrash, .onset = 5});
  return plan;
}

std::string first_problem(const TransportResult& r) {
  if (!r.divergences.empty()) return describe(r.divergences.front());
  const auto ds = diff_histories(r.sync_history, r.transport_history);
  return ds.empty() ? std::string("(clean)") : describe(ds.front());
}

void expect_lock_step(const TrialPlan& plan) {
  const TransportResult r = run_transport_trial(plan);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  EXPECT_TRUE(r.divergences.empty()) << first_problem(r);
  EXPECT_TRUE(r.rejected_frames.empty());
  EXPECT_TRUE(diff_histories(r.sync_history, r.transport_history).empty())
      << first_problem(r);
  EXPECT_EQ(history_fingerprint(r.sync_history),
            history_fingerprint(r.transport_history));
  EXPECT_GT(r.frames_sent, 0);
  EXPECT_GT(r.bytes_sent, 0);
}

// --- Layer 1: agreement on the standard plan family ---------------------

TEST(TransportConform, AgreesOnCleanPlan) { expect_lock_step(clean_plan()); }

TEST(TransportConform, AgreesUnderCrashOmissionAndCorruption) {
  expect_lock_step(faulty_plan());
}

TEST(TransportConform, AgreesUnderJitterAndProbabilisticDrops) {
  expect_lock_step(jittery_plan());
}

TEST(TransportConform, AgreesOnCompiledProtocol) {
  expect_lock_step(compiled_plan());
}

TEST(TransportConform, OracleWrapperPassesAndIsApplicable) {
  for (const TrialPlan& plan :
       {clean_plan(), faulty_plan(), jittery_plan(), compiled_plan()}) {
    const OracleResult r = check_transport(plan);
    ASSERT_TRUE(r.applicable) << r.skip_reason;
    EXPECT_TRUE(r.ok()) << r.describe();
    EXPECT_EQ(r.oracle, "transport");
  }
}

// Threads are real; determinism is not free.  The hub's id-ordered reads
// must make the recorded history independent of the kernel's scheduling.
TEST(TransportConform, IsDeterministicAcrossRuns) {
  const TransportResult a = run_transport_trial(jittery_plan());
  const TransportResult b = run_transport_trial(jittery_plan());
  ASSERT_TRUE(a.supported && b.supported);
  EXPECT_EQ(history_fingerprint(a.transport_history),
            history_fingerprint(b.transport_history));
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
}

TEST(TransportConform, RejectsUnrunnablePlans) {
  TrialPlan plan = compiled_plan();
  plan.protocol = "no-such-protocol";
  const TransportResult r = run_transport_trial(plan);
  EXPECT_FALSE(r.supported);
  EXPECT_FALSE(r.unsupported_reason.empty());
  EXPECT_FALSE(check_transport(plan).applicable);
}

// --- Layer 2: crash/GST grid mirroring golden_fingerprint_test.cc -------

TEST(TransportConform, CrashAndJitterGridLockSteps) {
  for (const std::uint64_t seed : {7u, 20u}) {
    for (const int n : {4, 6}) {
      TrialPlan plan;
      plan.trial_seed = seed;
      plan.mode = TrialMode::kRoundAgreementSync;
      plan.n = n;
      plan.rounds = 30;
      plan.faults.push_back(
          FaultSpec{.process = 1, .kind = FaultSpec::Kind::kCrash, .onset = 9});
      plan.corruptions.push_back(CorruptionSpec{
          .process = 0, .kind = CorruptionSpec::Kind::kClock,
          .magnitude = 4123});
      expect_lock_step(plan);
    }
  }
  for (const int delay : {2, 3}) {
    TrialPlan plan;
    plan.trial_seed = 11 + delay;
    plan.mode = TrialMode::kRoundAgreementJitter;
    plan.n = 4 + delay % 2;
    plan.rounds = 40;
    plan.max_extra_delay = delay;
    plan.faults.push_back(FaultSpec{.process = 2,
                                    .kind = FaultSpec::Kind::kReceiveOmission,
                                    .onset = 5,
                                    .until = 12,
                                    .permille = 500});
    plan.corruptions.push_back(
        CorruptionSpec{.process = 1,
                       .kind = CorruptionSpec::Kind::kGarbage,
                       .magnitude = 64,
                       .value_seed = plan.trial_seed * 3 + 1});
    expect_lock_step(plan);
  }
  for (const int f : {1, 2}) {
    TrialPlan plan;
    plan.trial_seed = 5 + f;
    plan.mode = TrialMode::kCompiled;
    plan.protocol = "floodset-consensus";
    plan.n = 4 + f;
    plan.f_budget = f;
    plan.rounds = 24;
    plan.faults.push_back(
        FaultSpec{.process = 0, .kind = FaultSpec::Kind::kCrash, .onset = 7});
    if (f >= 2) {
      plan.faults.push_back(FaultSpec{.process = 1,
                                      .kind = FaultSpec::Kind::kSendOmission,
                                      .onset = 3,
                                      .until = 10,
                                      .peer = 2});
    }
    expect_lock_step(plan);
  }
}

// --- Layer 3: the seeded sweep ------------------------------------------

TEST(TransportSweep, SeededSweepIsCleanAndPinned) {
  const int trials = 240 * testing::trial_scale();
  AdversaryConfig adversary;  // same defaults the conform sweep uses
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  int ran = 0;
  int skipped = 0;
  for (int i = 0; i < trials; ++i) {
    const TrialPlan plan =
        sample_trial(adversary, WeakenedKind::kNone, trial_seed_for(1993, i));
    const TransportResult r = run_transport_trial(plan);
    if (!r.supported) {
      ++skipped;
      fp = (fp ^ 1) * 0x100000001b3ULL;
      continue;
    }
    ++ran;
    ASSERT_TRUE(r.divergences.empty())
        << "trial " << i << ": " << first_problem(r);
    ASSERT_TRUE(diff_histories(r.sync_history, r.transport_history).empty())
        << "trial " << i << ": " << first_problem(r);
    fp = (fp ^ history_fingerprint(r.transport_history)) * 0x100000001b3ULL;
  }
  EXPECT_GE(ran, trials * 9 / 10) << skipped << " of " << trials << " skipped";
  if (testing::trial_scale() == 1) {
    EXPECT_EQ(fp, 0x57b0f42d20c4cfbaULL)
        << "sweep fingerprint 0x" << std::hex << fp;
  }
}

// --- Layer 4: mutation tests — the differ must catch a lying network ----

// A plan where every round carries traffic, so attempt index 0 exists.
TrialPlan target_plan() { return clean_plan(); }

TEST(TransportMutation, DroppedDeliveryDiverges) {
  TransportOptions broken;
  broken.drop_index = 5;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  const auto ds = diff_histories(r.sync_history, r.transport_history);
  EXPECT_FALSE(ds.empty()) << "a vanished delivery must diverge";
  EXPECT_NE(history_fingerprint(r.sync_history),
            history_fingerprint(r.transport_history));
}

TEST(TransportMutation, DelayedDeliveryDiverges) {
  TransportOptions broken;
  broken.delay_index = 5;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  // Shipping a round late reorders delivery against the audited schedule:
  // either the histories differ or the hub flags the schedule violation.
  const bool caught =
      !diff_histories(r.sync_history, r.transport_history).empty() ||
      !r.divergences.empty();
  EXPECT_TRUE(caught) << "a delayed delivery must be detected";
}

TEST(TransportMutation, MutatedPayloadDiverges) {
  TransportOptions broken;
  broken.mutate_payload_index = 3;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  // The mutated frame still decodes (it is a valid re-encoding), so this is
  // a *semantic* corruption only the typed differ can see.
  EXPECT_TRUE(r.rejected_frames.empty());
  EXPECT_FALSE(diff_histories(r.sync_history, r.transport_history).empty())
      << "a payload swap must diverge";
}

TEST(TransportCorruption, BitFlipIsRejectedWithHashMismatch) {
  for (const int bit : {3, 77, 150}) {
    TransportOptions broken;
    broken.flip_bit_index = 2;
    broken.flip_bit = bit;
    const TransportResult r = run_transport_trial(target_plan(), broken);
    ASSERT_TRUE(r.supported) << r.unsupported_reason;
    ASSERT_EQ(r.rejected_frames.size(), 1u) << "bit " << bit;
    // Any single flip lands in magic/version/type/flags/length/hash/body —
    // all are covered by a header-field check or the content hash.
    EXPECT_NE(r.rejected_frames.front().error, wire::WireError::kOk);

    // The receiver reports the rejection, the hub records it as a
    // frame_corrupted send — a model-level fault, not a crash.
    int corrupted = 0;
    for (const RoundRecord& rec : r.transport_history.rounds) {
      for (const SendRecord& s : rec.sends) corrupted += s.frame_corrupted;
    }
    EXPECT_EQ(corrupted, 1);

    // The sync leg delivered that message; the transport leg lost it to
    // corruption.  The typed differ must see the disagreement.
    EXPECT_FALSE(diff_histories(r.sync_history, r.transport_history).empty());

    // And the metrics pipeline surfaces it under its own drop cause.
    MetricsRegistry m;
    record_history_metrics(r.transport_history, m);
    EXPECT_EQ(m.snapshot().counters.at("msgs_dropped_frame_corrupt"), 1);
  }
}

TEST(TransportCorruption, TruncationIsRejectedAsTruncated) {
  TransportOptions broken;
  broken.truncate_index = 4;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  ASSERT_EQ(r.rejected_frames.size(), 1u);
  EXPECT_EQ(r.rejected_frames.front().error, wire::WireError::kTruncated);
  EXPECT_FALSE(diff_histories(r.sync_history, r.transport_history).empty());
}

TEST(TransportCorruption, DuplicatedFrameIsFlagged) {
  TransportOptions broken;
  broken.duplicate_index = 1;
  const TransportResult r = run_transport_trial(target_plan(), broken);
  ASSERT_TRUE(r.supported) << r.unsupported_reason;
  bool flagged = false;
  for (const Divergence& n : r.divergences) {
    if (n.detail.find("duplicate") != std::string::npos) flagged = true;
  }
  EXPECT_TRUE(flagged) << "a duplicated delivery must be flagged: "
                       << first_problem(r);
}

// What each hook makes the transport oracle report (the leg's own notes,
// then the history diff), pinned report by report, with the transport
// history's fingerprint and the receivers' rejection count.
TEST(TransportMutation, HookReportsArePinned) {
  struct Case {
    const char* name;
    TrialPlan (*plan)();
    TransportOptions options;
    std::uint64_t transport_fingerprint;
    std::size_t rejected;
    std::vector<testing::DivergencePin> pins;
  };
  const auto hook = [](int TransportOptions::*field, int index) {
    TransportOptions o;
    o.*field = index;
    o.flip_bit = 77;
    return o;
  };
  const TransportOptions drop = hook(&TransportOptions::drop_index, 5);
  const TransportOptions delay = hook(&TransportOptions::delay_index, 5);
  const TransportOptions mutate =
      hook(&TransportOptions::mutate_payload_index, 3);
  const TransportOptions duplicate =
      hook(&TransportOptions::duplicate_index, 1);
  const TransportOptions flip = hook(&TransportOptions::flip_bit_index, 2);
  const TransportOptions truncate = hook(&TransportOptions::truncate_index, 4);
  const Case cases[] = {
      {"clean/drop", clean_plan, drop, 0x6c16ac8816efdce4, 0,
       {{"schedule", 1, "p1->p1"}, {"metrics", 12, ""},
        {"sends", 1, "p1->p1"}}},
      {"clean/delay", clean_plan, delay, 0x46895415e00d1c0, 0,
       {{"metrics", 12, ""}, {"sends", 1, ""}, {"sends", 1, "p1->p1"},
        {"sends", 1, "p1->p2"}, {"sends", 1, "p1->p3"}, {"sends", 1, "p2->p0"},
        {"sends", 1, "p2->p1"}, {"sends", 1, "p2->p2"}, {"sends", 1, "p2->p3"},
        {"sends", 1, "p3->p0"}, {"sends", 1, "p3->p1"}, {"sends", 1, "p3->p2"},
        {"sends", 2, ""}, {"sends", 2, "p0->p0"}, {"sends", 2, "p0->p1"},
        {"sends", 2, "p0->p2"}, {"sends", 2, "p0->p3"}}},
      {"clean/mutate", clean_plan, mutate, 0x2308c8394e5a8cf5, 0,
       {{"sends", 1, "p0->p3"}}},
      {"clean/duplicate", clean_plan, duplicate, 0x46b8188a5e21f60d, 0,
       {{"schedule", 1, ""}}},
      {"clean/flip", clean_plan, flip, 0x4865aa89fca25dd3, 1,
       {{"metrics", 12, ""}, {"sends", 1, "p0->p2"}, {"coterie", 1, ""}}},
      {"clean/truncate", clean_plan, truncate, 0x4f1e68e5f66d2c99, 1,
       {{"metrics", 12, ""}, {"sends", 1, "p1->p0"}, {"coterie", 1, ""}}},
      {"faulty/drop", faulty_plan, drop, 0x2210bace6c037cc, 0,
       {{"schedule", 1, "p1->p0"}, {"metrics", 16, ""}, {"sends", 1, "p1->p0"},
        {"coterie", 1, ""}, {"clock", 2, "p0"}, {"state", 2, "p0"},
        {"sends", 2, "p0->p0"}, {"sends", 2, "p0->p1"}, {"sends", 2, "p0->p2"},
        {"sends", 2, "p0->p3"}, {"sends", 2, "p0->p4"}}},
      {"faulty/delay", faulty_plan, delay, 0xf80064e0909667b6, 0,
       {{"metrics", 16, ""}, {"sends", 1, ""}, {"sends", 1, "p1->p0"},
        {"sends", 1, "p1->p1"}, {"sends", 1, "p1->p2"}, {"sends", 1, "p1->p3"},
        {"sends", 1, "p1->p4"}, {"sends", 1, "p2->p0"}, {"sends", 1, "p2->p1"},
        {"sends", 1, "p2->p2"}, {"sends", 1, "p2->p3"}, {"sends", 1, "p2->p4"},
        {"sends", 1, "p3->p0"}, {"sends", 1, "p3->p1"}, {"sends", 1, "p3->p2"},
        {"sends", 1, "p3->p3"}, {"sends", 1, "p3->p4"}}},
      {"faulty/mutate", faulty_plan, mutate, 0x751899e70eac12bb, 0,
       {{"sends", 1, "p0->p3"}}},
      {"faulty/duplicate", faulty_plan, duplicate, 0xf6978e4965b6f88b, 0,
       {{"schedule", 1, ""}}},
      {"faulty/flip", faulty_plan, flip, 0x27363096d50c4a15, 1,
       {{"metrics", 16, ""}, {"sends", 1, "p0->p2"}, {"coterie", 1, ""}}},
      {"faulty/truncate", faulty_plan, truncate, 0x25f2bf2d025fe869, 1,
       {{"metrics", 16, ""}, {"sends", 1, "p0->p4"}, {"coterie", 1, ""}}},
  };
  for (const Case& c : cases) {
    const OracleResult o = check_transport(c.plan(), c.options);
    ASSERT_TRUE(o.applicable) << c.name << ": " << o.skip_reason;
    const auto pins = testing::divergence_pins(o.divergences);
    EXPECT_EQ(pins, c.pins) << c.name << ": " << testing::render_pins(pins);
    const TransportResult r = run_transport_trial(c.plan(), c.options);
    ASSERT_TRUE(r.supported) << c.name << ": " << r.unsupported_reason;
    EXPECT_EQ(history_fingerprint(r.transport_history),
              c.transport_fingerprint)
        << c.name << ": 0x" << std::hex
        << history_fingerprint(r.transport_history);
    EXPECT_EQ(r.rejected_frames.size(), c.rejected)
        << c.name << ": rejected " << r.rejected_frames.size();
  }
}

TEST(TransportCorruption, CorruptionNeverPanicsTheRun) {
  // Every hook on the same faulty plan: the run must complete with a
  // well-formed history of the full length, never deadlock or crash.
  for (int hook = 0; hook < 5; ++hook) {
    TransportOptions broken;
    switch (hook) {
      case 0: broken.flip_bit_index = 0; broken.flip_bit = 42; break;
      case 1: broken.truncate_index = 0; break;
      case 2: broken.duplicate_index = 0; break;
      case 3: broken.drop_index = 0; break;
      default: broken.delay_index = 0; break;
    }
    const TransportResult r = run_transport_trial(faulty_plan(), broken);
    ASSERT_TRUE(r.supported) << "hook " << hook << ": "
                             << r.unsupported_reason;
    EXPECT_EQ(r.transport_history.length(), faulty_plan().rounds);
  }
}

}  // namespace
}  // namespace ftss
