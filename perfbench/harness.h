// Shared machinery of the repository benchmark: clocks, the in-memory span
// log used by traced runs, the per-run result (metrics, gates, counts) and
// the pinned-fingerprint table.
//
// A workload is a function `void run_X(const Options&, Result&)`.  It builds
// its inputs from Options::seed, measures for Options::seconds, checks the
// program's outputs through Result::gate, and records metrics by name.  An
// untraced run records the end-to-end metrics; a traced run (Options::trace)
// records the per-layer metrics.  main.cc prints the result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string pins_path;       // pinned fingerprints; empty: no pin gate
  std::string trace_out;       // traced runs: Chrome trace JSON of the spans
};

// The seed at which pinned fingerprints apply.
inline constexpr std::uint64_t kDefaultSeed = 1;

// Clocks, in seconds.
double wall_now();    // steady_clock
double cpu_now();     // CPU time of the whole process (all threads)
double peak_rss_mb(); // high-water resident set size of the process
std::int64_t now_ns();

// splitmix64: derives every workload input from the benchmark seed.
std::uint64_t mix64(std::uint64_t x);
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> values);
// "name v1 v2 ..." with each value to 4 significant digits.
std::string series(const std::string& name, const std::vector<double>& values);
// Nearest-rank percentile (pct in [0, 100]); 0 when empty.
double percentile(std::vector<double> values, double pct);

// Wall and CPU time of one measured interval.
struct Interval {
  double wall = 0;
  double cpu = 0;
};
class Stopwatch {
 public:
  Stopwatch() : wall0_(wall_now()), cpu0_(cpu_now()) {}
  Interval elapsed() const { return {wall_now() - wall0_, cpu_now() - cpu0_}; }

 private:
  double wall0_;
  double cpu0_;
};

// Set-up is timed kSetupSamples times per run, before the measured
// repetitions, and reported as the median.  setup_once() builds the
// workload's inputs once and returns the seconds that took; a sample
// averages as many builds as fill kSetupSampleSeconds, so that sub-
// millisecond set-ups are not timer noise.
inline constexpr int kSetupSamples = 15;
inline constexpr double kSetupSampleSeconds = 0.005;

template <typename Fn>
std::vector<double> time_setup(Fn&& setup_once) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    double total = 0;
    int builds = 0;
    while (total < kSetupSampleSeconds) {
      total += setup_once();
      ++builds;
    }
    samples.push_back(total / builds);
  }
  return samples;
}

// Calls rep() until `seconds` of wall time are spent, at least `min_reps`
// times.  A rep predicted (from the previous one) not to fit is not
// started, so a run overshoots its budget by little.
template <typename Fn>
void repeat_for(double seconds, int min_reps, Fn&& rep) {
  const double start = wall_now();
  double last = 0;
  int reps = 0;
  while (reps < min_reps || wall_now() - start + last <= seconds) {
    const double t0 = wall_now();
    rep();
    last = wall_now() - t0;
    ++reps;
  }
}

// Traced runs record one span per call into a layer: name, start, end and
// the enclosing span.  Spans stay in memory and are written once, at the
// end of the run, as Chrome trace JSON.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    int parent = -1;
    int tid = 0;  // display row in the written trace
  };

  int open(std::string name);
  void close(int id);
  // A span measured elsewhere (e.g. one lane phase of the round engine).
  // Returns its id.
  int add(std::string name, std::int64_t t0, std::int64_t t1, int parent,
          int tid = 0);

  // Total seconds of every span called `name`.
  double total_s(const std::string& name) const;

  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// Pinned fingerprints, one `name 0xHEX` per line.  Pins apply only at
// kDefaultSeed: other seeds make other inputs.
class Pins {
 public:
  bool load(const std::string& path, std::string* error);
  // nullptr when `name` is not pinned.
  const std::uint64_t* find(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> pins_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

// Per-repetition samples of an untraced run.
struct Samples {
  std::vector<double> setup;  // seconds, from time_setup
  std::vector<double> wall;   // seconds per measured phase
  std::vector<double> cpu;    // process CPU seconds per measured phase
  std::vector<double> rate;   // operations per wall second
};

class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  // The end-to-end metrics: medians of the samples, and the peak RSS.
  void set_end_to_end(const Samples& samples);
  // A traced run's residual and tracing overhead: its traced and untraced
  // walls of the same work, and the summed time of its layers.
  void set_coverage(double traced_wall, double untraced_wall,
                    double layers_sum);
  // A correctness gate: a failed gate makes the run print no metrics and
  // exit nonzero.
  void gate(bool ok, const std::string& what);
  // Gate a fingerprint against its pin (default seed only) and print it.
  void gate_fingerprint(const Options& options, const Pins& pins,
                        const std::string& name, std::uint64_t value);
  // A human-readable line printed before the result.
  void note(const std::string& line);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& gate_failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

std::string hex(std::uint64_t v);

// Median time of a fixed single-threaded work unit (hash fill, sort, tree
// map).
double calibration_ms();
// Host stamp: one JSON object describing the machine and the build, plus
// the calibration timing, so two results are compared only when they come
// from comparable hosts.
std::string host_stamp_json(double calibration_ms);

// Workloads.
void run_svc_scale(const Options& options, const Pins& pins, Result& result);
void run_svc_faults(const Options& options, const Pins& pins, Result& result);
void run_rounds_1024(const Options& options, const Pins& pins, Result& result);
void run_check_explore(const Options& options, const Pins& pins,
                       Result& result);

}  // namespace perfbench
