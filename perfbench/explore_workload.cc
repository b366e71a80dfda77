// check-explore: the adversary explorer (src/check/) over every trial mode
// with the default adversary settings, a fixed trial count and 4 sweep
// workers.  It is the only workload that runs the oracles, plan sampling and
// the sweep fan-out, and the only one that runs the round engine at small n.
//
// The traced run also sweeps at 1 worker (the scaling figure) and replays
// every trial serially through run_trial's public steps — sample_trial,
// build_trial_processes + configure_trial, run_rounds, evaluate_trial — to
// time each step.
#include <memory>
#include <optional>

#include "check/adversary.h"
#include "check/explorer.h"
#include "check/oracles.h"
#include "check/trial_build.h"
#include "harness.h"

namespace perfbench {

namespace {

using namespace ftss;

constexpr int kTrials = 800;
constexpr unsigned kWorkers = 4;

ExplorerConfig explorer_config(std::uint64_t seed, unsigned workers) {
  ExplorerConfig config;
  config.seed = derive_seed(seed, 5);
  config.trials = kTrials;
  config.jobs = workers;
  config.shrink = false;  // a failure fails the gate; no need to shrink it
  return config;
}

// The simulator run_trial builds for a plan (serial lanes).
std::unique_ptr<SyncSimulator> build_trial(const TrialPlan& plan) {
  auto sim = std::make_unique<SyncSimulator>(
      SyncConfig{.seed = plan.trial_seed,
                 .record_states = false,
                 .max_extra_delay = plan.max_extra_delay,
                 .threads = 1},
      build_trial_processes(plan));
  configure_trial(*sim, plan);
  return sim;
}

// Set-up: every trial's plan sampled and its system constructed.
double setup_once(const ExplorerConfig& config) {
  const Stopwatch setup;
  for (int i = 0; i < config.trials; ++i) {
    const TrialPlan plan = sample_trial(config.adversary, config.weakened,
                                        trial_seed_for(config.seed, i));
    const auto sim = build_trial(plan);
  }
  return setup.elapsed().wall;
}

struct Sweep {
  ExplorerReport report;
  Interval measured;
  double util = 0;  // summed trial time / (wall x workers)
};

Sweep sweep(const ExplorerConfig& config) {
  Sweep s;
  const Stopwatch measured;
  s.report = explore(config);
  s.measured = measured.elapsed();
  auto it = s.report.metrics.histograms.find("trial_ns");
  const double busy_s =
      it != s.report.metrics.histograms.end()
          ? static_cast<double>(it->second.sum) * 1e-9
          : 0;
  s.util = busy_s / (s.measured.wall * static_cast<double>(config.jobs));
  return s;
}

void gate_sweep(const Sweep& s, Result& result) {
  result.gate(s.report.trials == kTrials && s.report.failing_trials == 0,
              "explore() reported " + std::to_string(s.report.failing_trials) +
                  " failing trials:\n" + s.report.summary());
}

void run_traced(const Options& options, const Pins& pins, Result& result) {
  const ExplorerConfig config = explorer_config(options.seed, kWorkers);
  // A warm-up sweep (the first in a process also pays for allocator
  // growth), then the untraced baseline for the overhead.
  (void)sweep(config);
  const Sweep base = sweep(config);
  gate_sweep(base, result);

  SpanLog log;
  std::optional<Sweep> four;
  {
    const Scope span(&log, "check.explore");
    four = sweep(config);
  }
  std::optional<Sweep> one;
  {
    const Scope span(&log, "check.explore_1worker");
    one = sweep(explorer_config(options.seed, 1));
  }
  gate_sweep(*four, result);
  gate_sweep(*one, result);
  result.gate(four->report.fingerprint == base.report.fingerprint &&
                  one->report.fingerprint == base.report.fingerprint,
              "explorer fingerprint depends on tracing or worker count");
  result.gate_fingerprint(options, pins, "check-explore",
                          four->report.fingerprint);

  // Serial replay of run_trial's steps, one span per step.
  std::vector<double> trial_ms;
  double sample_s = 0, build_s = 0, sim_s = 0, oracle_s = 0;
  for (int i = 0; i < config.trials; ++i) {
    const Scope trial(&log, "check.trial");
    const std::int64_t t0 = now_ns();
    std::optional<TrialPlan> plan;
    {
      const Scope span(&log, "check.sample");
      plan = sample_trial(config.adversary, config.weakened,
                          trial_seed_for(config.seed, i));
    }
    const std::int64_t t1 = now_ns();
    std::unique_ptr<SyncSimulator> sim;
    {
      const Scope span(&log, "check.build");
      sim = build_trial(*plan);
    }
    const std::int64_t t2 = now_ns();
    {
      const Scope span(&log, "check.sim");
      sim->run_rounds(plan->rounds);
    }
    const std::int64_t t3 = now_ns();
    std::optional<TrialEvaluation> eval;
    {
      const Scope span(&log, "check.oracle");
      eval = evaluate_trial(*sim, *plan);
    }
    const std::int64_t t4 = now_ns();
    result.gate(eval->ok(), "serial replay of trial " + std::to_string(i) +
                                " failed: " + eval->describe());
    sample_s += static_cast<double>(t1 - t0) * 1e-9;
    build_s += static_cast<double>(t2 - t1) * 1e-9;
    sim_s += static_cast<double>(t3 - t2) * 1e-9;
    oracle_s += static_cast<double>(t4 - t3) * 1e-9;
    trial_ms.push_back(static_cast<double>(t4 - t0) * 1e-6);
  }

  const double wall = four->measured.wall;
  // The four steps' serial total spread over the sweep's workers: the part
  // of the 4-worker wall the trials themselves account for.
  const double sum = (sample_s + build_s + sim_s + oracle_s) / kWorkers;
  result.set("check.sample_s", sample_s, "s");
  result.set("check.build_s", build_s, "s");
  result.set("check.sim_s", sim_s, "s");
  result.set("check.oracle_s", oracle_s, "s");
  result.set("check.trial_ms_p50", percentile(trial_ms, 50), "ms");
  result.set("check.trial_ms_p99", percentile(trial_ms, 99), "ms");
  result.set("check.trial_ms_max", percentile(trial_ms, 100), "ms");
  result.set("check.trials_per_s", kTrials / wall, "1/s");
  result.set("check.trials_per_s_1worker", kTrials / one->measured.wall, "1/s");
  result.set("check.sweep_speedup", one->measured.wall / wall, "ratio");
  result.set("util.sweep_util", four->util, "ratio");
  result.set_coverage(wall, base.measured.wall, sum);
  result.attempted = kTrials;

  if (!options.trace_out.empty() && !log.write_chrome(options.trace_out)) {
    result.gate(false, "cannot write " + options.trace_out);
  }
}

}  // namespace

void run_check_explore(const Options& options, const Pins& pins,
                       Result& result) {
  if (options.trace) {
    run_traced(options, pins, result);
    return;
  }
  const ExplorerConfig config = explorer_config(options.seed, kWorkers);
  Samples samples;
  samples.setup = time_setup([&] { return setup_once(config); });
  std::vector<double> utils;
  std::optional<std::uint64_t> fp;
  repeat_for(options.seconds, 3, [&] {
    const Sweep s = sweep(config);
    gate_sweep(s, result);
    if (!fp) fp = s.report.fingerprint;
    result.gate(s.report.fingerprint == *fp,
                "explorer fingerprint changed between repetitions");
    samples.wall.push_back(s.measured.wall);
    samples.cpu.push_back(s.measured.cpu);
    samples.rate.push_back(kTrials / s.measured.wall);
    utils.push_back(s.util);
    result.attempted += kTrials;
  });
  result.gate_fingerprint(options, pins, "check-explore", *fp);
  result.set_end_to_end(samples);
  result.note("headline trials_per_s " + std::to_string(median(samples.rate)) +
              " 1/s at " + std::to_string(kWorkers) + " workers, sweep_util " +
              std::to_string(median(utils)) + " over " +
              std::to_string(samples.wall.size()) + " repetitions");
}

}  // namespace perfbench
