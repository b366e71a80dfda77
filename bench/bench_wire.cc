// EXP17 — wire codec throughput and socket-transport overhead.
//
// Two questions the transport leg raises:
//   1. what does the binary codec cost per byte, against the JSON text
//      codec (Value::to_string / Value::parse) as baseline on the same
//      payloads — and how much smaller are its frames;
//   2. what does running a full trial over loopback sockets with real
//      serialization cost against the same plan executed in memory by the
//      SyncSimulator — the price of the extra fidelity the transport
//      conformance leg buys.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "check/explorer.h"
#include "conform/diff.h"
#include "net/transport.h"
#include "sim/simulator.h"
#include "wire/codec.h"
#include "wire/frame.h"

namespace ftss {
namespace {

// A snapshot-like payload: the shape the transport leg actually ships
// (string-keyed maps with small ints, repeated keys across messages).
Value payload(int width) {
  Value body;
  body["type"] = Value("ROUND");
  body["c"] = Value(41);
  Value::Array seen;
  for (int i = 0; i < width; ++i) {
    Value entry;
    entry["p"] = Value(i);
    entry["c"] = Value(40 + i % 3);
    entry["suspect"] = Value(i % 4 == 0);
    seen.push_back(std::move(entry));
  }
  body["seen"] = Value(std::move(seen));
  return body;
}

void BM_WireEncode(benchmark::State& state) {
  const Value v = payload(static_cast<int>(state.range(0)));
  std::vector<std::uint8_t> bytes;
  std::int64_t total = 0;
  for (auto _ : state) {
    bytes.clear();
    wire::encode_value(v, bytes);
    benchmark::DoNotOptimize(bytes.data());
    total += static_cast<std::int64_t>(bytes.size());
  }
  state.SetBytesProcessed(total);
  state.counters["frame_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_WireEncode)->Arg(4)->Arg(32);

void BM_WireDecode(benchmark::State& state) {
  std::vector<std::uint8_t> bytes;
  wire::encode_value(payload(static_cast<int>(state.range(0))), bytes);
  std::int64_t total = 0;
  for (auto _ : state) {
    const wire::ValueDecodeResult r =
        wire::decode_value(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(r.value);
    total += static_cast<std::int64_t>(bytes.size());
  }
  state.SetBytesProcessed(total);
}
BENCHMARK(BM_WireDecode)->Arg(4)->Arg(32);

void BM_JsonEncode(benchmark::State& state) {
  const Value v = payload(static_cast<int>(state.range(0)));
  std::int64_t total = 0;
  std::string text;
  for (auto _ : state) {
    text = v.to_string();
    benchmark::DoNotOptimize(text.data());
    total += static_cast<std::int64_t>(text.size());
  }
  state.SetBytesProcessed(total);
  state.counters["frame_bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_JsonEncode)->Arg(4)->Arg(32);

void BM_JsonDecode(benchmark::State& state) {
  const std::string text = payload(static_cast<int>(state.range(0))).to_string();
  std::int64_t total = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Value::parse(text));
    total += static_cast<std::int64_t>(text.size());
  }
  state.SetBytesProcessed(total);
}
BENCHMARK(BM_JsonDecode)->Arg(4)->Arg(32);

void BM_WireFrameRoundTrip(benchmark::State& state) {
  const Value v = payload(8);
  std::vector<std::uint8_t> frame;
  for (auto _ : state) {
    frame.clear();
    wire::encode_frame(wire::FrameType::kMessage, v, frame);
    const wire::FrameDecodeResult r =
        wire::decode_frame_exact(frame.data(), frame.size());
    benchmark::DoNotOptimize(r.frame.body);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_WireFrameRoundTrip);

TrialPlan bench_plan(int n, int rounds) {
  TrialPlan plan;
  plan.trial_seed = 17;
  plan.mode = TrialMode::kRoundAgreementSync;
  plan.n = n;
  plan.rounds = rounds;
  return plan;
}

// The in-memory reference: one full audited trial, no serialization.
void BM_InMemoryTrial(benchmark::State& state) {
  const TrialPlan plan = bench_plan(static_cast<int>(state.range(0)), 20);
  for (auto _ : state) {
    TrialRunOptions options;
    options.record_states = true;
    benchmark::DoNotOptimize(run_trial(plan, options));
  }
}
BENCHMARK(BM_InMemoryTrial)->Arg(4)->Arg(8)->UseRealTime();

// The same plan over sockets: n threads, every message and snapshot
// encoded, shipped through a socketpair and decoded.  Includes the sync
// reference run the hub performs first, so the delta over 2x
// BM_InMemoryTrial is the serialization + scheduling overhead proper.
// The profiler's wall-clock histograms ride along as counters (merged
// across iterations), so --json baselines track latency percentiles, not
// just whole-trial throughput.
void BM_TransportTrial(benchmark::State& state) {
  const TrialPlan plan = bench_plan(static_cast<int>(state.range(0)), 20);
  std::int64_t bytes = 0;
  MetricsSnapshot timing;
  for (auto _ : state) {
    const TransportResult r = run_transport_trial(plan);
    benchmark::DoNotOptimize(r.transport_history);
    bytes += r.bytes_sent;
    timing.merge(r.timing);
  }
  state.SetBytesProcessed(bytes);
  for (const auto& [name, hist] : timing.histograms) {
    // e.g. hub_round_ns_p50, wire_encode_ns_p99: log-bucket upper bounds.
    state.counters[name + "_p50"] =
        static_cast<double>(hist.percentile_upper(50));
    state.counters[name + "_p99"] =
        static_cast<double>(hist.percentile_upper(99));
  }
}
BENCHMARK(BM_TransportTrial)->Arg(4)->Arg(8)->UseRealTime();

void print_codec_tables(bench::JsonEmitter& json) {
  bench::Table table("EXP17: encoded size, wire codec vs JSON text",
                     {"payload width", "wire bytes", "json bytes", "ratio"});
  bool wire_always_smaller = true;
  for (const int width : {1, 4, 16, 64}) {
    const Value v = payload(width);
    std::vector<std::uint8_t> bytes;
    wire::encode_value(v, bytes);
    const std::string text = v.to_string();
    wire_always_smaller &= bytes.size() < text.size();
    table.add_row({bench::fmt(static_cast<std::int64_t>(width)),
                   bench::fmt(static_cast<std::int64_t>(bytes.size())),
                   bench::fmt(static_cast<std::int64_t>(text.size())),
                   bench::fmt(static_cast<double>(bytes.size()) /
                              static_cast<double>(text.size()))});
  }
  table.print();
  json.add_check("wire_encoding_smaller_than_json", wire_always_smaller);

  // Transport fidelity on the bench plan: the socket leg reproduces the
  // in-memory history exactly (the conformance suite's property, spot-
  // checked here so the perf numbers are known to describe a correct run).
  const TransportResult r = run_transport_trial(bench_plan(4, 20));
  bench::Table traffic("EXP17: transport trial wire traffic (n=4, 20 rounds)",
                       {"frames", "bytes", "lock-step"});
  const bool lock_step =
      r.supported && r.divergences.empty() &&
      diff_histories(r.sync_history, r.transport_history).empty();
  traffic.add_row({bench::fmt(r.frames_sent), bench::fmt(r.bytes_sent),
                   bench::pass(lock_step)});
  traffic.print();
  json.add_check("transport_lock_steps_bench_plan", lock_step);
}

}  // namespace
}  // namespace ftss

int main(int argc, char** argv) {
  ftss::bench::JsonEmitter json("wire", &argc, argv);
  ftss::print_codec_tables(json);
  benchmark::Initialize(&argc, argv);
  json.run_benchmarks();
  return json.finish();
}
