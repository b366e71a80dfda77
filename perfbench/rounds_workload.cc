// rounds-1024: Figure 1 round agreement at n = 1024 on the lock-step
// SyncSimulator, with corrupted clocks at start and general-omission faults
// on f processes.  The same fixed number of rounds runs at 1 lane and then
// at 4 lanes, followed by check_round_agreement_ftss (Theorem 3, stab 1) on
// the history.  Omission rules keep every round on the engine's general
// (non-broadcast-fast-path) message plane.  The end-to-end figures time the
// 1-lane rounds and the check; the 4-lane time is printed per repetition
// and reported by the traced run.
//
// The traced run steps both simulators one round at a time and installs
// the public lane hooks (set_sim_lane_hooks) to collect every lane's
// parallel-phase span, from which it splits the 4-lane round into its
// parallel phases (slowest lane) and the serial remainder.
#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>

#include "core/predicates.h"
#include "core/round_agreement.h"
#include "harness.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace ftss;

constexpr int kN = 1024;
constexpr int kRounds = 6;
constexpr int kCorruptClocks = 128;
constexpr int kFaulty = 16;
constexpr unsigned kLanes = 4;

struct Inputs {
  std::vector<std::pair<ProcessId, Round>> clocks;
  std::vector<std::pair<ProcessId, FaultPlan>> faults;
};

// Corrupted clocks on kCorruptClocks processes; on kFaulty others, half
// send-omission windows, half probabilistic receive omission.
Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  Rng rng(derive_seed(seed, 3));
  const std::vector<int> picked = rng.sample(kN, kCorruptClocks + kFaulty);
  for (int i = 0; i < kCorruptClocks; ++i) {
    in.clocks.emplace_back(picked[i], rng.uniform(-1'000'000, 1'000'000));
  }
  for (int i = 0; i < kFaulty; ++i) {
    FaultPlan plan;
    const Round from = rng.uniform(1, kRounds / 2);
    const Round to = from + rng.uniform(1, kRounds / 2);
    if (i % 2 == 0) {
      plan.send_omissions.push_back(
          OmissionRule{.from_round = from, .to_round = to});
    } else {
      plan.receive_omissions.push_back(OmissionRule{
          .from_round = from, .to_round = to, .probability = 0.3});
    }
    in.faults.emplace_back(picked[kCorruptClocks + i], std::move(plan));
  }
  return in;
}

std::unique_ptr<SyncSimulator> build(const Inputs& in, unsigned lanes,
                                     std::uint64_t seed) {
  std::vector<std::unique_ptr<SyncProcess>> procs;
  procs.reserve(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    procs.push_back(std::make_unique<RoundAgreementProcess>(p));
  }
  auto sim = std::make_unique<SyncSimulator>(
      SyncConfig{.seed = derive_seed(seed, 4),
                 .record_states = false,
                 .record_sends = false,
                 .threads = lanes},
      std::move(procs));
  for (const auto& [p, c] : in.clocks) {
    Value state;
    state["c"] = Value(c);
    sim->corrupt_state(p, state);
  }
  for (const auto& [p, plan] : in.faults) sim->set_fault_plan(p, plan);
  return sim;
}

// FNV-1a over every column the checkers read: clocks, liveness, coterie
// and faulty sets, round by round.
std::uint64_t history_fingerprint(const History& h) {
  std::uint64_t fp = 0xcbf29ce484222325ULL;
  auto mix = [&fp](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      fp ^= (x >> (8 * i)) & 0xff;
      fp *= 0x100000001b3ULL;
    }
  };
  for (const RoundRecord& rec : h.rounds) {
    mix(static_cast<std::uint64_t>(rec.round));
    for (int p = 0; p < h.n; ++p) {
      const auto& c = rec.clock[p];
      mix(c ? static_cast<std::uint64_t>(*c) : 0x8000000000000000ULL);
      mix((rec.alive[p] ? 1u : 0u) | (rec.coterie[p] ? 2u : 0u) |
          (rec.faulty_by_now[p] ? 4u : 0u));
    }
  }
  return fp;
}

// --- lane hooks (traced runs) -------------------------------------------------

struct LaneSpan {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  int tid = 0;
};

std::mutex g_lane_mu;
std::vector<LaneSpan> g_lane_spans;  // guarded by g_lane_mu
int g_next_tid = 1;                  // guarded by g_lane_mu

std::int64_t hook_now() { return now_ns(); }

// The simulator reports the round too; spans are taken after every
// single-round step, so the round is implied.
void hook_span(Round, std::int64_t t0) {
  const std::int64_t t1 = now_ns();
  thread_local int tid = 0;
  const std::lock_guard<std::mutex> lock(g_lane_mu);
  if (tid == 0) tid = g_next_tid++;
  g_lane_spans.push_back(LaneSpan{t0, t1, tid});
}

std::vector<LaneSpan> take_lane_spans() {
  const std::lock_guard<std::mutex> lock(g_lane_mu);
  std::vector<LaneSpan> out;
  out.swap(g_lane_spans);
  return out;
}

// One round's lane spans split into its parallel phases: spans that overlap
// belong to one phase, and the phases are separated by the engine's
// barriers.
struct PhaseSplit {
  double slowest_s = 0;   // sum over phases of the slowest lane's span
  double lane_s = 0;      // sum of every lane's busy time
  double window_s = 0;    // sum over phases of lanes x phase window
};

PhaseSplit split_phases(std::vector<LaneSpan> spans) {
  PhaseSplit out;
  std::sort(spans.begin(), spans.end(),
            [](const LaneSpan& a, const LaneSpan& b) { return a.t0 < b.t0; });
  std::size_t i = 0;
  while (i < spans.size()) {
    std::int64_t begin = spans[i].t0, end = spans[i].t1, slowest = 0;
    std::size_t j = i;
    for (; j < spans.size() && spans[j].t0 <= end; ++j) {
      end = std::max(end, spans[j].t1);
      slowest = std::max(slowest, spans[j].t1 - spans[j].t0);
      out.lane_s += static_cast<double>(spans[j].t1 - spans[j].t0) * 1e-9;
    }
    out.slowest_s += static_cast<double>(slowest) * 1e-9;
    out.window_s += static_cast<double>(j - i) *
                    static_cast<double>(end - begin) * 1e-9;
    i = j;
  }
  return out;
}

// --- one measured repetition ---------------------------------------------------

struct Rep {
  Interval one_lane, four_lanes, check;
  bool ftss_ok = false;
  std::uint64_t fp1 = 0, fp4 = 0;

  Interval total() const {
    return {one_lane.wall + four_lanes.wall + check.wall,
            one_lane.cpu + four_lanes.cpu + check.cpu};
  }
};

Rep run_rep(const Inputs& in, std::uint64_t seed) {
  Rep rep;
  auto s1 = build(in, 1, seed);
  auto s4 = build(in, kLanes, seed);

  const Stopwatch a;
  s1->run_rounds(kRounds);
  rep.one_lane = a.elapsed();
  const Stopwatch b;
  s4->run_rounds(kRounds);
  rep.four_lanes = b.elapsed();
  const Stopwatch c;
  rep.ftss_ok = check_round_agreement_ftss(s1->history(), 1).ok;
  rep.check = c.elapsed();
  rep.fp1 = history_fingerprint(s1->history());
  rep.fp4 = history_fingerprint(s4->history());
  return rep;
}

void gate_rep(const Rep& rep, Result& result) {
  result.gate(rep.ftss_ok,
              "check_round_agreement_ftss rejected the n=1024 history");
  result.gate(rep.fp1 == rep.fp4,
              "1-lane and 4-lane histories differ: " + hex(rep.fp1) + " vs " +
                  hex(rep.fp4));
}

void run_traced(const Options& options, const Pins& pins, const Inputs& in,
                Result& result) {
  // A warm-up repetition, then the untraced baseline for the overhead.
  (void)run_rep(in, options.seed);
  const Rep base = run_rep(in, options.seed);
  gate_rep(base, result);

  SpanLog log;
  auto s1 = build(in, 1, options.seed);
  auto s4 = build(in, kLanes, options.seed);
  std::vector<double> one_ms, four_ms;
  double serial_s = 0, parallel_s = 0, lane_s = 0, window_s = 0;

  const SimLaneHooks saved = sim_lane_hooks();
  const Stopwatch traced;
  for (int r = 0; r < kRounds; ++r) {
    const Scope span(&log, "sim.round_1lane");
    const std::int64_t t0 = now_ns();
    s1->run_rounds(1);
    one_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  set_sim_lane_hooks(SimLaneHooks{&hook_now, &hook_span});
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = now_ns();
    s4->run_rounds(1);
    const std::int64_t t1 = now_ns();
    const int id = log.add("sim.round_4lanes", t0, t1, -1);
    const std::vector<LaneSpan> spans = take_lane_spans();
    for (const LaneSpan& s : spans) {
      log.add("sim.lane_phase", s.t0, s.t1, id, s.tid);
    }
    const PhaseSplit split = split_phases(spans);
    const double round_s = static_cast<double>(t1 - t0) * 1e-9;
    four_ms.push_back(round_s * 1e3);
    parallel_s += split.slowest_s;
    serial_s += round_s - split.slowest_s;
    lane_s += split.lane_s;
    window_s += split.window_s;
  }
  set_sim_lane_hooks(saved);
  bool ftss_ok = false;
  {
    const Scope span(&log, "core.check");
    ftss_ok = check_round_agreement_ftss(s1->history(), 1).ok;
  }
  const double wall = traced.elapsed().wall;

  const std::uint64_t fp1 = history_fingerprint(s1->history());
  result.gate(ftss_ok, "check_round_agreement_ftss rejected the traced history");
  result.gate(fp1 == history_fingerprint(s4->history()) && fp1 == base.fp1,
              "traced round histories differ from the untraced ones");
  result.gate_fingerprint(options, pins, "rounds-1024", fp1);

  double messages = 0;
  std::vector<double> per_round;
  for (const RoundRecord& rec : s1->history().rounds) {
    const double alive = static_cast<double>(
        std::count(rec.alive.begin(), rec.alive.end(), true));
    per_round.push_back(alive * kN);
    messages += alive * kN;
  }
  double one_total_s = 0;
  for (double ms : one_ms) one_total_s += ms * 1e-3;
  const double check_s = log.total_s("core.check");
  const double sum = one_total_s + parallel_s + serial_s + check_s;

  result.set("sim.round_ms", median(one_ms), "ms");
  result.set("sim.round_ms_4lanes", median(four_ms), "ms");
  result.set("sim.round_ms_max", *std::max_element(one_ms.begin(), one_ms.end()),
             "ms");
  result.set("sim.messages_per_round", median(per_round), "count");
  result.set("sim.ns_per_msg", one_total_s * 1e9 / messages, "ns");
  result.set("sim.parallel_s", parallel_s, "s");
  result.set("sim.serial_s", serial_s, "s");
  result.set("sim.lane_idle_frac", window_s > 0 ? 1.0 - lane_s / window_s : 0,
             "ratio");
  result.set("core.check_s", check_s, "s");
  result.set_coverage(wall, base.total().wall, sum);
  result.attempted = 2 * kRounds;

  if (!options.trace_out.empty() && !log.write_chrome(options.trace_out)) {
    result.gate(false, "cannot write " + options.trace_out);
  }
}

}  // namespace

void run_rounds_1024(const Options& options, const Pins& pins, Result& result) {
  const Inputs in = make_inputs(options.seed);
  if (options.trace) {
    run_traced(options, pins, in, result);
    return;
  }
  // Set-up: both simulators constructed.
  Samples samples;
  samples.setup = time_setup([&] {
    const Stopwatch setup;
    const auto s1 = build(in, 1, options.seed);
    const auto s4 = build(in, kLanes, options.seed);
    return setup.elapsed().wall;
  });
  std::vector<double> one_ms, four_ms;
  std::optional<std::uint64_t> fp;
  repeat_for(options.seconds, 3, [&] {
    const Rep rep = run_rep(in, options.seed);
    gate_rep(rep, result);
    if (!fp) fp = rep.fp1;
    result.gate(rep.fp1 == *fp,
                "round history changed between repetitions");
    // The end-to-end figures time the 1-lane rounds and the check.  The
    // 4-lane rounds run in every repetition too — their history must equal
    // the 1-lane one, and their time is printed — but stay out of those
    // figures: a 4-lane round on the general message plane is 65
    // barrier-separated phases, so on a contended host its wall time
    // follows the host's steal bursts rather than the program.
    samples.wall.push_back(rep.one_lane.wall + rep.check.wall);
    samples.cpu.push_back(rep.one_lane.cpu + rep.check.cpu);
    samples.rate.push_back(kRounds / rep.one_lane.wall);
    one_ms.push_back(rep.one_lane.wall * 1e3 / kRounds);
    four_ms.push_back(rep.four_lanes.wall * 1e3 / kRounds);
    result.attempted += 2 * kRounds;
  });
  result.gate_fingerprint(options, pins, "rounds-1024", *fp);
  result.set_end_to_end(samples);
  result.note(series("repetitions round_ms_4lanes", four_ms));
  result.note("headline round_ms " + std::to_string(median(one_ms)) +
              " ms, round_ms_4lanes " + std::to_string(median(four_ms)) +
              " ms over " + std::to_string(samples.wall.size()) + " repetitions");
}

}  // namespace perfbench
