// svc-scale and svc-faults: the replicated-KV service (src/svc/) under a
// closed-loop client population, timed around KvService::run() + report().
//
// The traced run replays the run's own decided log through each layer's
// public entry point — KvStore::apply_decision per live replica,
// decode_command per decided command, RequestPlane submit/proposal, and
// build_repeated_consensus_system fed the recorded proposals — so each
// layer's share of the run is measured from the benchmark's side, without
// instrumenting the product.
#include <map>
#include <memory>
#include <optional>

#include "consensus/harness.h"
#include "harness.h"
#include "svc/service.h"

namespace perfbench {

namespace {

using namespace ftss;
using namespace ftss::svc;

bool cell_ok(const SvcReport& r) {
  return r.converged_full && r.converged_clean && r.clean_from.has_value() &&
         r.requests_completed > 0;
}

std::uint64_t fold(std::uint64_t fp, std::uint64_t cell) {
  return (fp ^ cell) * 0x100000001b3ULL;
}

// One pass over a grid of service configurations: each cell is built, run
// and reported (measured), then handed to `after` outside the measured
// interval.
struct GridRun {
  Interval measured;
  std::vector<SvcReport> reports;
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
};

template <typename After>
GridRun run_grid(const std::vector<SvcConfig>& grid, SpanLog* log,
                 After&& after) {
  GridRun g;
  for (const SvcConfig& config : grid) {
    KvService service(config);
    const Stopwatch measured;
    {
      const Scope span(log, "svc.run");
      service.run();
    }
    std::optional<SvcReport> report;
    {
      const Scope span(log, "svc.report");
      report = service.report();
    }
    const Interval iv = measured.elapsed();
    g.measured.wall += iv.wall;
    g.measured.cpu += iv.cpu;
    g.fingerprint = fold(g.fingerprint, report->fingerprint());
    after(service, config, *report);
    g.reports.push_back(std::move(*report));
  }
  return g;
}

GridRun run_grid(const std::vector<SvcConfig>& grid) {
  return run_grid(grid, nullptr,
                  [](const KvService&, const SvcConfig&, const SvcReport&) {});
}

// Set-up: every cell's service constructed.
double setup_only(const std::vector<SvcConfig>& grid) {
  double s = 0;
  for (const SvcConfig& config : grid) {
    const Stopwatch setup;
    const KvService service(config);
    s += setup.elapsed().wall;
  }
  return s;
}

std::int64_t served(const std::vector<SvcReport>& reports) {
  std::int64_t ops = 0;
  for (const SvcReport& r : reports) ops += r.requests_completed + r.reads_served;
  return ops;
}

// Deterministic, seed-dependent outcome of one grid: latency percentiles
// over every cell and the failed share (lease-rejected reads plus writes
// still outstanding at run end, over every op attempted).
struct Outcome {
  std::int64_t p50 = 0, p99 = 0, samples = 0;
  std::int64_t attempted = 0;
  double failed_ratio = 0;
  MetricsSnapshot merged;
};

Outcome outcome_of(const std::vector<SvcReport>& reports) {
  Outcome o;
  std::int64_t failed = 0;
  for (const SvcReport& r : reports) {
    o.merged.merge(r.metrics);
    o.attempted += r.requests_submitted + r.reads_served + r.reads_rejected_stale;
    failed += r.reads_rejected_stale + r.requests_outstanding;
  }
  auto it = o.merged.histograms.find("svc_request_latency");
  if (it != o.merged.histograms.end()) {
    o.p50 = it->second.percentile_upper(50);
    o.p99 = it->second.percentile_upper(99);
    o.samples = it->second.count;
  }
  o.failed_ratio = o.attempted > 0 ? static_cast<double>(failed) /
                                         static_cast<double>(o.attempted)
                                   : 0;
  return o;
}

void gate_cells(const GridRun& g, Result& result) {
  for (std::size_t i = 0; i < g.reports.size(); ++i) {
    const SvcReport& r = g.reports[i];
    result.gate(cell_ok(r), "svc cell " + std::to_string(i) +
                                " did not converge or complete: " + r.summary());
  }
}

// --- traced replays -----------------------------------------------------------

struct Layers {
  double store_apply_s = 0;
  double decode_s = 0;
  double plane_s = 0;
  double consensus_s = 0;
  std::int64_t cmds_applied = 0;  // summed over replicas
  std::int64_t messages_delivered = 0;
};

void for_each_command(const Value& decision, auto&& fn) {
  if (decision.is_array()) {
    for (const Value& cmd : decision.as_array()) fn(cmd);
  } else if (!decision.is_null()) {
    fn(decision);
  }
}

void replay_layers(const KvService& service, const SvcConfig& config,
                   const SvcReport& report, SpanLog& log, Layers& layers,
                   Result& result) {
  const EventSimulator& sim = service.sim();
  layers.messages_delivered += sim.messages_delivered();

  // The decided log as the service applies it: every instance any replica
  // logged, in instance order.
  std::map<std::int64_t, const Value*> decided;
  for (ProcessId p = 0; p < sim.process_count(); ++p) {
    for (const AsyncDecision& d : repeated_view(sim, p)->decisions()) {
      decided.emplace(d.instance, &d.value);
    }
  }

  // Store apply, once per live replica.
  for (ProcessId p = 0; p < sim.process_count(); ++p) {
    if (sim.crashed(p)) continue;
    KvStore store;
    const std::int64_t t0 = now_ns();
    for (const auto& [instance, value] : decided) store.apply_decision(*value);
    const std::int64_t t1 = now_ns();
    log.add("svc.store_apply", t0, t1, -1);
    layers.store_apply_s += static_cast<double>(t1 - t0) * 1e-9;
    layers.cmds_applied +=
        store.applied_total() + store.deduped_total() + store.garbage_total();
    if (report.instances_skipped == 0 && report.late_learns_dropped == 0 &&
        report.dirty_instances == 0) {
      // Nothing skipped, dropped or disputed: the replay must rebuild the
      // replica's serving store exactly.
      result.gate(store == service.store(p),
                  "store replay of replica " + std::to_string(p) +
                      " differs from its serving store");
    }
  }

  // Decode every decided command once.
  std::vector<Command> commands;
  {
    const std::int64_t t0 = now_ns();
    for (const auto& [instance, value] : decided) {
      for_each_command(*value, [&](const Value& cmd) {
        if (auto c = decode_command(cmd)) commands.push_back(std::move(*c));
      });
    }
    const std::int64_t t1 = now_ns();
    log.add("svc.decode", t0, t1, -1);
    layers.decode_s += static_cast<double>(t1 - t0) * 1e-9;
  }

  // Request plane: submit every decided command and drain it into
  // proposals with the window always open.
  {
    const std::int64_t t0 = now_ns();
    RequestPlane plane(config.batch, config.pipeline_depth);
    for (const Command& cmd : commands) plane.submit(cmd);
    for (std::int64_t k = 0; plane.pending_depth() > 0; ++k) {
      plane.set_applied_floor(k);
      (void)plane.proposal(k);
      plane.on_decided(k);
    }
    const std::int64_t t1 = now_ns();
    log.add("svc.plane", t0, t1, -1);
    layers.plane_s += static_cast<double>(t1 - t0) * 1e-9;
    result.gate(plane.drained(), "request-plane replay did not drain");
  }

  // Consensus, detector and event dispatch: the same node stack fed the
  // run's memoized proposals, with the plan's crashes, to the same time.
  // Mid-run corruption waves are not replayed (they are injected by the
  // service between simulator steps).
  {
    const std::int64_t t0 = now_ns();
    ConsensusSystemConfig sys;
    sys.n = config.n;
    sys.async = config.async;
    sys.async.seed = config.seed;
    const RequestPlane& recorded = service.plane();
    auto replay = build_repeated_consensus_system(
        sys, [&recorded](ProcessId, std::int64_t instance) {
          const Value* v = recorded.find_proposal(instance);
          return v != nullptr ? *v : Value();
        });
    for (const auto& crash : config.plan.crashes) {
      replay->schedule_crash(crash.process, crash.at);
    }
    replay->run_until(report.ran_until);
    const std::int64_t t1 = now_ns();
    log.add("consensus.replay", t0, t1, -1);
    layers.consensus_s += static_cast<double>(t1 - t0) * 1e-9;
  }
}

// --- the shared workload runner -------------------------------------------------

void run_svc(const Options& options, const Pins& pins, Result& result,
             const std::vector<SvcConfig>& grid, const std::string& name) {
  if (!options.trace) {
    Samples samples;
    samples.setup = time_setup([&] { return setup_only(grid); });
    std::optional<std::uint64_t> fp;
    std::optional<Outcome> outcome;
    repeat_for(options.seconds, 2, [&] {
      const GridRun g = run_grid(grid);
      gate_cells(g, result);
      if (!fp) {
        fp = g.fingerprint;
        outcome = outcome_of(g.reports);
      }
      result.gate(g.fingerprint == *fp,
                  name + " fingerprint changed between repetitions");
      samples.wall.push_back(g.measured.wall);
      samples.cpu.push_back(g.measured.cpu);
      samples.rate.push_back(static_cast<double>(served(g.reports)) /
                             g.measured.wall);
      result.attempted += outcome->attempted;
    });

    result.gate_fingerprint(options, pins, name, *fp);
    result.set_end_to_end(samples);
    result.note("headline req_per_s " + std::to_string(median(samples.rate)) +
                " 1/s over " + std::to_string(samples.wall.size()) +
                " repetitions");
    result.note("headline sim_latency_p50 " + std::to_string(outcome->p50) +
                " t, sim_latency_p99 " + std::to_string(outcome->p99) +
                " t, samples " + std::to_string(outcome->samples));
    result.note("headline ops_failed_ratio " +
                std::to_string(outcome->failed_ratio) +
                " (lease-rejected reads + writes in flight at run end)");
    return;
  }

  // Traced: a warm-up pass, an untraced pass (the overhead baseline), a
  // traced pass, and the layer replays after each traced cell.
  (void)run_grid(grid);
  const GridRun base = run_grid(grid);
  SpanLog log;
  Layers layers;
  const GridRun traced = run_grid(
      grid, &log,
      [&](const KvService& service, const SvcConfig& config,
          const SvcReport& report) {
        replay_layers(service, config, report, log, layers, result);
      });
  gate_cells(traced, result);
  result.gate(traced.fingerprint == base.fingerprint,
              name + " fingerprint differs between traced and untraced runs");
  result.gate_fingerprint(options, pins, name, traced.fingerprint);

  const Outcome o = outcome_of(traced.reports);
  std::int64_t instances = 0, commands = 0, retransmitted = 0, skipped = 0,
               late = 0, dirty = 0, rejected = 0;
  for (const SvcReport& r : traced.reports) {
    instances += r.instances_decided;
    commands += r.commands_decided;
    retransmitted += r.commands_retransmitted;
    skipped += r.instances_skipped;
    late += r.late_learns_dropped;
    dirty += r.dirty_instances;
    rejected += r.reads_rejected_stale;
  }
  auto gauge = [&o](const char* g) {
    auto it = o.merged.gauges.find(g);
    return it == o.merged.gauges.end() ? 0.0 : static_cast<double>(it->second);
  };

  const double wall = traced.measured.wall;
  const double run_s = log.total_s("svc.run");
  const double report_s = log.total_s("svc.report");
  // run() is store apply + request plane + consensus/detector/dispatch +
  // the pump's own bookkeeping; report() is measured directly.
  const double sum =
      layers.store_apply_s + layers.plane_s + layers.consensus_s + report_s;

  result.set("svc.run_s", run_s, "s");
  result.set("svc.report_s", report_s, "s");
  result.set("svc.store_apply_s", layers.store_apply_s, "s");
  result.set("svc.store_ns_per_cmd",
             layers.cmds_applied > 0 ? layers.store_apply_s * 1e9 /
                                           static_cast<double>(layers.cmds_applied)
                                     : 0,
             "ns");
  result.set("svc.decode_s", layers.decode_s, "s");
  result.set("svc.plane_s", layers.plane_s, "s");
  result.set("consensus.replay_s", layers.consensus_s, "s");
  result.set("svc.instances_decided", static_cast<double>(instances), "count");
  result.set("svc.cmds_per_instance",
             instances > 0 ? static_cast<double>(commands) /
                                 static_cast<double>(instances)
                           : 0,
             "ratio");
  result.set("svc.commands_retransmitted", static_cast<double>(retransmitted),
             "count");
  result.set("svc.instances_skipped", static_cast<double>(skipped), "count");
  result.set("svc.late_learns_dropped", static_cast<double>(late), "count");
  result.set("svc.dirty_instances", static_cast<double>(dirty), "count");
  result.set("svc.queue_depth_peak", gauge("svc_queue_depth_peak"), "count");
  result.set("svc.cmd_lag_peak", gauge("svc_cmd_lag_peak"), "count");
  result.set("svc.reads_rejected", static_cast<double>(rejected), "count");
  result.set("svc.sim_latency_p50", static_cast<double>(o.p50), "t");
  result.set("svc.sim_latency_p99", static_cast<double>(o.p99), "t");
  result.set("svc.latency_samples", static_cast<double>(o.samples), "count");
  result.set("svc.ops_failed_ratio", o.failed_ratio, "ratio");
  result.set("svc.req_per_s", static_cast<double>(served(traced.reports)) / wall,
             "1/s");
  result.set("async.messages_delivered",
             static_cast<double>(layers.messages_delivered), "count");
  result.set("async.msgs_per_cmd",
             commands > 0 ? static_cast<double>(layers.messages_delivered) /
                                static_cast<double>(commands)
                          : 0,
             "ratio");
  result.set_coverage(wall, base.measured.wall, sum);
  result.attempted = o.attempted;

  if (!options.trace_out.empty() && !log.write_chrome(options.trace_out)) {
    result.gate(false, "cannot write " + options.trace_out);
  }
}

}  // namespace

// n=5, 10^5 closed-loop clients, batch 1024, pipeline 32, horizon 12000,
// writes only, no faults: the ftss_svc headline cell.
void run_svc_scale(const Options& options, const Pins& pins, Result& result) {
  SvcConfig config;
  config.n = 5;
  config.seed = derive_seed(options.seed, 1);
  config.clients = 100000;
  config.batch = 1024;
  config.pipeline_depth = 32;
  config.horizon = 12000;
  config.read_permille = 0;
  run_svc(options, pins, result, {config}, "svc-scale");
}

// n=5, 2000 clients, batch 64, horizon 20000, 30% lease reads, over eight
// sampled fault plans (crashes and corruption waves), cells run one after
// another on one thread.
void run_svc_faults(const Options& options, const Pins& pins, Result& result) {
  // The grid is stratified: cell k takes the first sample_svc_plan plan
  // (over seeds derived from the benchmark seed) with the k-th shape —
  // crash count, wave size and corruption pattern.  Victims, times and
  // corruption draws still vary with the seed, but every seed runs the
  // same mix of shapes, so the grid's cost does not swing with the seed.
  struct Shape {
    std::size_t crashes;
    int wave;  // 0: no corruption, 1: some replicas, 2: every replica
    CorruptionPattern pattern;
  };
  static constexpr Shape kShapes[] = {
      {0, 0, CorruptionPattern::kNone},
      {0, 2, CorruptionPattern::kFull},
      {0, 1, CorruptionPattern::kPhaseFlags},
      {1, 0, CorruptionPattern::kNone},
      {1, 2, CorruptionPattern::kRoundCounters},
      {1, 1, CorruptionPattern::kDetector},
      {2, 2, CorruptionPattern::kFull},
      {2, 1, CorruptionPattern::kRoundCounters},
  };
  constexpr int kN = 5;
  constexpr Time kHorizon = 20000;
  auto has_shape = [](const SvcFaultPlan& plan, const Shape& shape) {
    if (plan.crashes.size() != shape.crashes) return false;
    if (shape.wave == 0) return plan.corruptions.empty();
    if (plan.corruptions.empty() ||
        plan.corruptions.front().pattern != shape.pattern) {
      return false;
    }
    return (plan.corruptions.size() == kN) == (shape.wave == 2);
  };

  std::vector<SvcConfig> grid;
  for (std::uint64_t k = 0; k < std::size(kShapes); ++k) {
    SvcConfig config;
    config.n = kN;
    config.seed = derive_seed(options.seed, 2);
    config.clients = 2000;
    config.batch = 64;
    config.horizon = kHorizon;
    config.read_permille = 300;
    bool found = false;
    for (std::uint64_t draw = 0; draw < 100000 && !found; ++draw) {
      config.plan = sample_svc_plan(derive_seed(options.seed, 1000000 + 1000 * k + draw),
                                    kN, kHorizon);
      found = has_shape(config.plan, kShapes[k]);
    }
    result.gate(found, "no sampled plan of shape " + std::to_string(k));
    grid.push_back(std::move(config));
  }
  run_svc(options, pins, result, grid, "svc-faults");
}

}  // namespace perfbench
