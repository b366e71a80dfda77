// Deterministic intra-round parallelism (SyncConfig::threads).
//
// The round engine's contract is byte-identical observable output at ANY
// lane count: clock/coterie/faulty columns, SendRecords, trace tapes,
// causality results and every downstream fingerprint must not move when a
// round's phases run on 2 or 8 lanes instead of inline.  This suite pins
// that contract four ways: the golden-fingerprint constants (traced cases
// included) re-asserted at threads ∈ {1,2,8}, full history-dump equality on
// unrecorded runs, recorded and jittered runs folded against constants
// pinned on an independent reference implementation, and the explorer's
// aggregate fingerprint under a process-wide lane default.  A flight-recorder stress test dumps the ring
// mid-run while lanes record — the TSan CI leg runs this suite to prove the
// engine shares nothing without a happens-before edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "check/explorer.h"
#include "core/round_agreement.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "sim/history_dump.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftss {
namespace {

// The lane default is process-wide state; every test restores the serial
// default on exit so suites stay order-independent.
struct SimThreadsGuard {
  explicit SimThreadsGuard(unsigned k) { set_sim_threads_default(k); }
  ~SimThreadsGuard() { set_sim_threads_default(1); }
  SimThreadsGuard(const SimThreadsGuard&) = delete;
  SimThreadsGuard& operator=(const SimThreadsGuard&) = delete;
};

std::uint64_t fnv(std::uint64_t h, std::string_view s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Same folding as golden_fingerprint_test.cc's sync_fingerprint: verbose
// history dump + metrics fingerprint + oracle violations, plus the JSONL
// trace tape for traced cases.  The constants asserted below are the exact
// pins from that suite, so a lane count that perturbs anything observable
// fails against the serial truth.
std::uint64_t sync_fingerprint(const TrialPlan& plan, bool traced) {
  JsonlTraceSink sink;
  TrialRunOptions options;
  options.record_states = true;
  History history;
  options.history_out = &history;
  if (traced) options.trace = &sink;
  const TrialResult result = run_trial(plan, options);

  DumpOptions dump;
  dump.show_sends = true;
  dump.show_suspects = true;
  std::uint64_t fp = kFnvBasis;
  fp = fnv(fp, history_to_string(history, dump));
  fp = fnv(fp, std::to_string(result.metrics.fingerprint()));
  for (const auto& v : result.evaluation.violations) fp = fnv(fp, v.oracle);
  if (traced) fp = fnv(fp, sink.to_string());
  return fp;
}

// A finished run's observable fold: the verbose history dump (every
// SendRecord and suspect set) plus every process's final state.
std::uint64_t run_fingerprint(const SyncSimulator& sim) {
  DumpOptions dump;
  dump.show_sends = true;
  dump.show_suspects = true;
  std::uint64_t fp = fnv(kFnvBasis, history_to_string(sim.history(), dump));
  for (ProcessId p = 0; p < sim.process_count(); ++p) {
    fp = fnv(fp, sim.process(p).snapshot_state().to_string());
  }
  return fp;
}

TrialPlan sync_plan(std::uint64_t seed, int n) {
  TrialPlan plan;
  plan.trial_seed = seed;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = n;
  plan.rounds = 30;
  plan.faults.push_back(FaultSpec{.process = 1,
                                  .kind = FaultSpec::Kind::kCrash,
                                  .onset = 9});
  plan.corruptions.push_back(CorruptionSpec{
      .process = 0, .kind = CorruptionSpec::Kind::kClock, .magnitude = 4123});
  return plan;
}

TrialPlan jitter_plan(std::uint64_t seed, int n, int max_extra_delay) {
  TrialPlan plan;
  plan.trial_seed = seed;
  plan.mode = TrialMode::kRoundAgreementJitter;
  plan.n = n;
  plan.rounds = 40;
  plan.max_extra_delay = max_extra_delay;
  plan.faults.push_back(FaultSpec{.process = 2,
                                  .kind = FaultSpec::Kind::kReceiveOmission,
                                  .onset = 5,
                                  .until = 12,
                                  .permille = 500});
  plan.corruptions.push_back(CorruptionSpec{.process = 1,
                                            .kind = CorruptionSpec::Kind::kGarbage,
                                            .magnitude = 64,
                                            .value_seed = seed * 3 + 1});
  return plan;
}

TrialPlan compiled_plan(std::uint64_t seed, const std::string& protocol, int n,
                        int f, int max_extra_delay) {
  TrialPlan plan;
  plan.trial_seed = seed;
  plan.mode = TrialMode::kCompiled;
  plan.protocol = protocol;
  plan.n = n;
  plan.f_budget = f;
  plan.rounds = 36;
  plan.max_extra_delay = max_extra_delay;
  plan.faults.push_back(FaultSpec{.process = 0,
                                  .kind = FaultSpec::Kind::kCrash,
                                  .onset = 7});
  if (f >= 2) {
    plan.faults.push_back(FaultSpec{.process = 1,
                                    .kind = FaultSpec::Kind::kSendOmission,
                                    .onset = 3,
                                    .until = 10,
                                    .peer = 2});
  }
  plan.corruptions.push_back(CorruptionSpec{
      .process = n - 1, .kind = CorruptionSpec::Kind::kClock, .magnitude = 997});
  return plan;
}

TEST(ParallelRound, PinnedFingerprintsIdenticalAtAnyLaneCount) {
  struct Case {
    const char* name;
    TrialPlan plan;
    bool traced;
    std::uint64_t want;
  };
  const Case cases[] = {
      {"sync/n4/seed7", sync_plan(7, 4), false, 0xc9eed893f838c016},
      {"sync/n4/seed7/traced", sync_plan(7, 4), true, 0xa88e386fb597faae},
      {"jitter/n4/d2/seed11", jitter_plan(11, 4, 2), false,
       0x356d9460bf79b1e6},
      {"jitter/n4/d2/seed11/traced", jitter_plan(11, 4, 2), true,
       0xceecf8df6be581b6},
      {"compiled/floodset/n8/f2/d1/seed9",
       compiled_plan(9, "floodset-consensus", 8, 2, 1), false,
       0xd386235ad0028cfb},
      {"compiled/floodset/n4/f1/seed5/traced",
       compiled_plan(5, "floodset-consensus", 4, 1, 0), true,
       0x1d9416d9253c4bff},
      {"compiled/rbcast/n5/f2/d2/seed17",
       compiled_plan(17, "reliable-broadcast", 5, 2, 2), true,
       0x1403bbc0c46ddc95},
  };
  for (unsigned threads : {1u, 2u, 8u}) {
    SimThreadsGuard guard(threads);
    for (const Case& c : cases) {
      const std::uint64_t got = sync_fingerprint(c.plan, c.traced);
      EXPECT_EQ(got, c.want) << c.name << " at threads=" << threads
                             << " fingerprint 0x" << std::hex << got;
    }
  }
}

// Broadcast plane without faults (no recording, no jitter): destination-
// partitioned lanes with private scratch inboxes must reproduce the serial
// destination-major loop's history exactly.  n is chosen so 8 lanes each own
// several destinations and the id-range split has ragged edges.
TEST(ParallelRound, FastPathHistoryIdenticalAcrossLaneCounts) {
  const int n = 27;
  auto run_at = [&](unsigned threads) {
    SyncSimulator sim(SyncConfig{.seed = 3,
                                 .record_states = false,
                                 .record_sends = false,
                                 .threads = threads},
                      testing::round_agreement_system(n));
    sim.corrupt_state(0, testing::clock_state(100000));
    sim.corrupt_state(n - 1, testing::clock_state(-77));
    sim.run_rounds(25);
    return history_to_string(sim.history(), DumpOptions{});
  };
  const std::string serial = run_at(1);
  for (unsigned threads : {2u, 8u}) {
    EXPECT_EQ(run_at(threads), serial) << "threads=" << threads;
  }
}

// Recorded runs under crashes, omission rules and jitter: every RNG draw,
// SendRecord slot, in-flight enqueue and inbox order must match the pin at
// any lane count.  The pins fold the dump with every SendRecord and the
// final process states; they were measured on the pre-unification engine,
// whose serial streaming send phase resolved each message as it was sent.
TEST(ParallelRound, SlowPathHistoryIdenticalAcrossLaneCounts) {
  const int n = 24;
  auto run_at = [&](unsigned threads, int max_extra_delay) {
    SyncSimulator sim(SyncConfig{.seed = 11,
                                 .record_states = true,
                                 .record_sends = true,
                                 .max_extra_delay = max_extra_delay,
                                 .threads = threads},
                      testing::round_agreement_system(n));
    sim.corrupt_state(0, testing::clock_state(4123));
    sim.set_fault_plan(1, FaultPlan::crash(9));
    sim.set_fault_plan(2, FaultPlan::lossy(0.5, 0.3));
    sim.set_fault_plan(5, FaultPlan::hide_until(7));
    sim.set_fault_plan(7, FaultPlan::mute());
    sim.run_rounds(30);
    return run_fingerprint(sim);
  };
  const struct {
    int max_extra_delay;
    std::uint64_t want;
  } cells[] = {{0, 0xba8f2fd336bd4667}, {2, 0xdf3aeaf8f326a759}};
  for (const auto& cell : cells) {
    for (unsigned threads : {1u, 2u, 8u}) {
      const std::uint64_t got = run_at(threads, cell.max_extra_delay);
      EXPECT_EQ(got, cell.want)
          << "threads=" << threads << " max_extra_delay="
          << cell.max_extra_delay << " fingerprint 0x" << std::hex << got;
    }
  }
}

// The same contract with records off and jitter on: delayed messages,
// drained arrivals and receive omissions must resolve identically whether
// or not the run keeps SendRecords.
TEST(ParallelRound, RecordingOffSlowPathIdenticalAcrossLaneCounts) {
  const int n = 24;
  auto run_at = [&](unsigned threads) {
    SyncSimulator sim(SyncConfig{.seed = 5,
                                 .record_states = false,
                                 .record_sends = false,
                                 .max_extra_delay = 2,
                                 .threads = threads},
                      testing::round_agreement_system(n));
    sim.set_fault_plan(3, FaultPlan::lossy(0.4, 0.2));
    sim.run_rounds(30);
    return run_fingerprint(sim);
  };
  constexpr std::uint64_t kWant = 0x0274033dbedebbcf;
  for (unsigned threads : {1u, 2u, 8u}) {
    const std::uint64_t got = run_at(threads);
    EXPECT_EQ(got, kWant) << "threads=" << threads << " fingerprint 0x"
                          << std::hex << got;
  }
}

// --- Recorded and unrecorded runs under omission faults --------------------

enum class PlaneSystem { kFig1, kUniform, kMixed };

// A Fig 1-style process that also sends targeted messages on even local
// rounds and skips its broadcast on some rounds, so a run alternates
// between broadcast-only round logs and mixed ones.  Its state folds every
// delivery's sender, dest and payload in order, so the final snapshot pins
// each inbox's exact content.
class MixedSender : public SyncProcess {
 public:
  MixedSender(ProcessId self, int n) : self_(self), n_(n) {}

  void begin_round(Outbox& out) override {
    if (step_ % 2 == 0 && self_ % 3 == 0) {
      out.send(static_cast<ProcessId>((self_ + 1 + step_) % n_), Value(-c_));
    }
    if (self_ % 4 != 1 || step_ % 3 != 2) out.broadcast(Value(c_));
  }

  void end_round(const std::vector<Message>& delivered) override {
    Round best = c_;
    for (const Message& m : delivered) {
      const std::int64_t v = m.payload.int_or(0);
      for (const std::int64_t x : {std::int64_t{m.sender},
                                   std::int64_t{m.dest}, v}) {
        digest_ = (digest_ ^ static_cast<std::uint64_t>(x)) * 0x100000001b3ULL;
      }
      best = std::max(best, v);
    }
    c_ = best + 1;
    ++step_;
  }

  Value snapshot_state() const override {
    Value s;
    s["c"] = Value(c_);
    s["digest"] = Value(static_cast<std::int64_t>(digest_));
    s["step"] = Value(step_);
    return s;
  }
  void restore_state(const Value& state) override {
    c_ = state.at("c").int_or(c_);
  }
  std::optional<Round> round_counter() const override { return c_; }

 private:
  ProcessId self_;
  int n_;
  Round c_ = 1;
  std::int64_t step_ = 0;
  std::uint64_t digest_ = kFnvBasis;
};

std::vector<std::unique_ptr<SyncProcess>> plane_system(PlaneSystem sys,
                                                       int n) {
  std::vector<std::unique_ptr<SyncProcess>> procs;
  for (ProcessId p = 0; p < n; ++p) {
    switch (sys) {
      case PlaneSystem::kFig1:
        procs.push_back(std::make_unique<RoundAgreementProcess>(p));
        break;
      case PlaneSystem::kUniform:
        procs.push_back(std::make_unique<UniformRoundAgreementProcess>(p));
        break;
      case PlaneSystem::kMixed:
        procs.push_back(std::make_unique<MixedSender>(p, n));
        break;
    }
  }
  return procs;
}

// One seeded cell of the omission grid: two clock corruptions and
// max(3, n/5) faulty processes, cycling through every plan shape the fate
// pass must resolve: send and receive windows, peer rules, crashes, mute
// and hidden processes.
void apply_omission_plans(SyncSimulator& sim, int n, std::uint64_t seed,
                          Round rounds) {
  Rng rng(seed);
  const int faulty = std::max(3, n / 5);
  const std::vector<int> picked = rng.sample(n, faulty + 2);
  for (int i = 0; i < 2; ++i) {
    sim.corrupt_state(picked[faulty + i],
                      testing::clock_state(rng.uniform(-5000, 5000)));
  }
  for (int i = 0; i < faulty; ++i) {
    const ProcessId other = static_cast<ProcessId>(rng.uniform(0, n - 1));
    const Round from = rng.uniform(1, rounds / 2);
    const Round to = from + rng.uniform(0, rounds / 2);
    FaultPlan plan;
    switch ((seed + static_cast<std::uint64_t>(i)) % 7) {
      case 0:  // send-omission window, p = 1
        plan.send_omissions.push_back(
            OmissionRule{.from_round = from, .to_round = to});
        break;
      case 1:
        plan = FaultPlan::lossy(0.3, 0.2);
        break;
      case 2:  // peer-specific rules
        plan.send_omissions.push_back(OmissionRule{
            .from_round = from, .to_round = to, .peer = other});
        plan.receive_omissions.push_back(
            OmissionRule{.peer = other, .probability = 0.6});
        break;
      case 3:  // receive-omission window
        plan.receive_omissions.push_back(
            OmissionRule{.from_round = from,
                         .to_round = to,
                         .probability = rng.chance(0.5) ? 1.0 : 0.4});
        break;
      case 4:
        plan = FaultPlan::crash(rng.uniform(2, rounds - 1));
        break;
      case 5:
        plan = FaultPlan::mute();
        break;
      default:
        plan = FaultPlan::hide_until(rng.uniform(2, rounds));
        break;
    }
    sim.set_fault_plan(picked[i], std::move(plan));
  }
}

// Each cell runs once with SendRecords kept and once without, at 1, 2 and 8
// lanes.  The recorded runs must match the cell's pin, which folds the dump
// with every SendRecord and the final process states and was measured on
// the pre-unification engine's serial streaming send phase.  The
// unrecorded runs draw only for the pairs an omission rule covers, so each
// must still reproduce the recorded run's round columns and final states:
// a drop applied to the wrong destination, a draw out of order or a halted
// or crashed destination mistreated all move them.  n = 130 crosses the
// ProcessSet inline -> heap boundary.
TEST(ParallelRound, OmissionPlaneMatchesRecordedRun) {
  constexpr Round kRounds = 12;
  // Indexed [system][n][seed - 1].
  constexpr std::uint64_t kPins[3][3][3] = {
      {{0x0422b87aaa76d05a, 0x8ecf4f2b476d8f00, 0xc52ecbbed89b3898},
       {0x295da02252362dce, 0x790dca9232836125, 0xe86b19ffc6106cdb},
       {0x313f23424b35ab8b, 0xb5608e6786f8aeac, 0x25ea08888acb521a}},
      {{0xc356d4444e13ccae, 0xfe4d5804c67792b0, 0x602217209f08c659},
       {0xfbb0406a8bf2382a, 0xc876e47779f2295e, 0x58bed41a7f32d4c4},
       {0x3407811f55305b3c, 0x5c566b61e60984c9, 0x05d12d7e5845e438}},
      {{0x0bc94b142abe86e7, 0xd6f25d00bc536c25, 0xecb2015a9fcc739a},
       {0x6d9ba27de2bc26ea, 0x162657888fef8e33, 0x61c0c3a042aa0434},
       {0x85a99aa2cebe9011, 0xaf662623e9a8b86b, 0x85804f10b6706882}},
  };
  constexpr int kSizes[] = {5, 27, 130};
  int halted_runs = 0;
  for (const PlaneSystem sys :
       {PlaneSystem::kFig1, PlaneSystem::kUniform, PlaneSystem::kMixed}) {
    for (int ni = 0; ni < 3; ++ni) {
      const int n = kSizes[ni];
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto run = [&](bool record_sends, unsigned threads) {
          auto sim = std::make_unique<SyncSimulator>(
              SyncConfig{.seed = seed * 31 + static_cast<std::uint64_t>(n),
                         .record_states = false,
                         .record_sends = record_sends,
                         .threads = threads},
              plane_system(sys, n));
          apply_omission_plans(*sim, n, seed, kRounds);
          sim->run_rounds(kRounds);
          return sim;
        };
        const std::uint64_t want =
            kPins[static_cast<int>(sys)][ni][seed - 1];
        for (const unsigned threads : {1u, 2u, 8u}) {
          const auto recorded = run(true, threads);
          const auto plane = run(false, threads);
          const std::string cell =
              "system " + std::to_string(static_cast<int>(sys)) +
              " n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
              " threads=" + std::to_string(threads);
          const std::uint64_t got = run_fingerprint(*recorded);
          EXPECT_EQ(got, want) << cell << " fingerprint 0x" << std::hex << got;
          const History& a = recorded->history();
          const History& b = plane->history();
          ASSERT_EQ(a.length(), b.length()) << cell;
          for (Round r = 1; r <= a.length(); ++r) {
            EXPECT_EQ(a.at(r).clock, b.at(r).clock) << cell << " round " << r;
            EXPECT_EQ(a.at(r).coterie, b.at(r).coterie)
                << cell << " round " << r;
            EXPECT_EQ(a.at(r).faulty_by_now, b.at(r).faulty_by_now)
                << cell << " round " << r;
            EXPECT_EQ(a.at(r).alive, b.at(r).alive) << cell << " round " << r;
          }
          bool any_halted = false;
          for (ProcessId p = 0; p < n; ++p) {
            EXPECT_EQ(recorded->process(p).snapshot_state(),
                      plane->process(p).snapshot_state())
                << cell << " process " << p;
            any_halted = any_halted || plane->process(p).halted();
          }
          if (any_halted) ++halted_runs;
        }
      }
    }
  }
  // The uniform system must actually halt somewhere, or the halted-
  // destination handling went untested.
  EXPECT_GT(halted_runs, 0);
}

// Traced, recorded and jittered rounds that mix targeted sends with
// broadcasts, under the omission grid's fault shapes.  The run is extended
// once, so messages still in flight at the first stop are flushed as lost,
// retracted and resolved normally.  The pin folds the dump, the final
// states and the JSONL trace tape; it was measured on the pre-unification
// engine, which always ran traced rounds serially.
TEST(ParallelRound, TracedMixedJitterPinned) {
  const int n = 20;
  for (const unsigned threads : {1u, 2u, 8u}) {
    JsonlTraceSink sink;
    SyncSimulator sim(SyncConfig{.seed = 77,
                                 .record_states = true,
                                 .record_sends = true,
                                 .max_extra_delay = 2,
                                 .threads = threads},
                      plane_system(PlaneSystem::kMixed, n));
    apply_omission_plans(sim, n, 1, 14);
    sim.set_trace_sink(&sink);
    sim.run_rounds(9);
    sim.run_rounds(5);
    const std::uint64_t got = fnv(run_fingerprint(sim), sink.to_string());
    EXPECT_EQ(got, 0xcf2cf656b223ab57ULL)
        << "threads=" << threads << " fingerprint 0x" << std::hex << got;
  }
}

// The whole checker pipeline under a process-wide lane default: sampling,
// every oracle, metrics fold.  jobs = 1 keeps the sweep serial so the sims
// are NOT nested in pool tasks and the lanes genuinely engage; the
// aggregate fingerprints must equal the serial pins from
// golden_fingerprint_test.cc.
TEST(ParallelRound, ExplorerAggregateUnchangedByLaneDefault) {
  SimThreadsGuard guard(8);
  ExplorerConfig config;
  config.seed = 42;
  config.trials = 60;
  config.jobs = 1;
  config.shrink = false;
  const ExplorerReport report = explore(config);
  EXPECT_EQ(report.fingerprint, 0xa6e279165f653846ULL)
      << "explorer fingerprint 0x" << std::hex << report.fingerprint;
  EXPECT_EQ(report.metrics.fingerprint(), 0xebdc28eb4e182790ULL)
      << "metrics fingerprint 0x" << std::hex << report.metrics.fingerprint();
}

TEST(ParallelRound, ThreadsDefaultSetterClampsZeroToSerial) {
  SimThreadsGuard guard(4);
  EXPECT_EQ(sim_threads_default(), 4u);
  set_sim_threads_default(0);
  EXPECT_EQ(sim_threads_default(), 1u);
}

// Flight-recorder stress: dump the global ring repeatedly while a parallel
// simulator's lanes are recording kLane spans into their per-thread rings.
// Under TSan this is the proof that recording and dumping share only the
// per-ring mutex; the history must still match serial afterwards.
TEST(ParallelRound, FlightDumpWhileLanesRecord) {
  const int n = 32;
  auto run_at = [&](unsigned threads) {
    SyncSimulator sim(SyncConfig{.seed = 9,
                                 .record_states = false,
                                 .record_sends = false,
                                 .threads = threads},
                      testing::round_agreement_system(n));
    sim.run_rounds(200);
    return history_to_string(sim.history(), DumpOptions{});
  };

  std::atomic<bool> done{false};
  std::string parallel_dump;
  std::thread simulate([&] {
    parallel_dump = run_at(8);
    done.store(true, std::memory_order_release);
  });
  int dumps = 0;
  while (!done.load(std::memory_order_acquire)) {
    const FlightDump snap = FlightRecorder::global().dump();
    (void)snap;
    ++dumps;
  }
  simulate.join();
  EXPECT_GT(dumps, 0);
  EXPECT_EQ(parallel_dump, run_at(1));

  if (FlightRecorder::global().enabled()) {
    // The obs layer self-installs the lane hooks; a threads=8 run must have
    // left kLane spans behind (any ring — lanes land on pool threads).
    const FlightDump after = FlightRecorder::global().dump();
    int lane_events = 0;
    for (const FlightThreadDump& t : after.threads) {
      for (const FlightEvent& e : t.events) {
        if (e.cat == static_cast<std::uint16_t>(FlightCat::kLane)) {
          ++lane_events;
        }
      }
    }
    EXPECT_GT(lane_events, 0) << "lane hooks installed but no spans recorded";
  }
}

}  // namespace
}  // namespace ftss
