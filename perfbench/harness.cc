#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/flight.h"
#include "util/process_set_simd.h"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix64(mix64(seed) ^ (stream * 0x100000001b3ULL));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string series(const std::string& name, const std::vector<double>& values) {
  std::string out = name;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4g", v);
    out += buf;
  }
  return out;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[idx - 1];
}

// --- spans ------------------------------------------------------------------

int SpanLog::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), now_ns(), 0,
                        stack_.empty() ? -1 : stack_.back(), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].t1 = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int SpanLog::add(std::string name, std::int64_t t0, std::int64_t t1,
                 int parent, int tid) {
  spans_.push_back(Span{std::move(name), t0, t1, parent, tid});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.t1 - s.t0;
  }
  return static_cast<double>(ns) * 1e-9;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.tid,
                  static_cast<double>(s.t0 - base) / 1e3,
                  static_cast<double>(s.t1 - s.t0) / 1e3, i, s.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- pins -------------------------------------------------------------------

bool Pins::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read pins file " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, value;
    if (!(fields >> name >> value) || value.rfind("0x", 0) != 0) {
      *error = path + ":" + std::to_string(lineno) + ": expected `name 0xHEX`";
      return false;
    }
    pins_[name] = std::strtoull(value.c_str() + 2, nullptr, 16);
  }
  return true;
}

const std::uint64_t* Pins::find(const std::string& name) const {
  auto it = pins_.find(name);
  return it == pins_.end() ? nullptr : &it->second;
}

// --- result -----------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Result::set_end_to_end(const Samples& samples) {
  note(series("repetitions wall_s", samples.wall));
  note(series("repetitions setup_s", samples.setup));
  set("setup_s", median(samples.setup), "s");
  set("wall_s", median(samples.wall), "s");
  set("cpu_s", median(samples.cpu), "s");
  set("peak_rss_mb", peak_rss_mb(), "MB");
  set("ops_per_s", median(samples.rate), "1/s");
}

void Result::set_coverage(double traced_wall, double untraced_wall,
                          double layers_sum) {
  set("trace.wall_s", traced_wall, "s");
  set("trace.untraced_wall_s", untraced_wall, "s");
  set("trace.overhead_s", traced_wall - untraced_wall, "s");
  set("layers.sum_s", layers_sum, "s");
  set("layers.other_s", traced_wall - layers_sum, "s");
  set("layers.coverage", layers_sum / traced_wall, "ratio");
}

void Result::gate(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Result::gate_fingerprint(const Options& options, const Pins& pins,
                              const std::string& name, std::uint64_t value) {
  std::string line = "fingerprint " + name + " " + hex(value);
  if (options.seed == kDefaultSeed && !options.pins_path.empty()) {
    const std::uint64_t* pinned = pins.find(name);
    if (pinned == nullptr) {
      gate(false, "no pin for fingerprint " + name);
    } else {
      gate(*pinned == value, "fingerprint " + name + " is " + hex(value) +
                                 ", pinned " + hex(*pinned));
      line += *pinned == value ? " (matches pin)" : " (PIN MISMATCH)";
    }
  }
  note(line);
}

void Result::note(const std::string& line) { notes_.push_back(line); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- host stamp -------------------------------------------------------------

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model = model.c_str();  // stop at the first NUL
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

volatile std::uint64_t g_calibration_sink = 0;

}  // namespace

// Hash fill, sort and a tree map — the kinds of work the product does
// most.  Median of five.
double calibration_ms() {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = wall_now();
    std::vector<std::uint64_t> v(1 << 18);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = mix64(i);
    std::sort(v.begin(), v.end());
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::size_t i = 0; i < (1 << 15); ++i) m[v[i * 7 % v.size()]] = i;
    std::uint64_t sum = 0;
    for (const auto& [k, x] : m) sum += k ^ x;
    g_calibration_sink = sum;  // keeps the work observable
    samples.push_back((wall_now() - t0) * 1e3);
  }
  return median(samples);
}

std::string host_stamp_json(double calibration_ms) {
  const char* flight_env = std::getenv("FTSS_FLIGHT");
  std::ostringstream out;
  out << "{\"nproc\":" << affinity_cpus()
      << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":\"" << json_escape(cpu_model()) << "\""
      << ",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER) << "\""
      << ",\"compiler_version\":\"" << json_escape(__VERSION__) << "\""
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"avx2_compiled\":" << (FTSS_PS_HAVE_AVX2 ? "true" : "false")
      << ",\"avx2_dispatch\":"
      << (ftss::detail::kPsUseAvx2 ? "true" : "false")
      << ",\"FTSS_FLIGHT\":\""
      << json_escape(flight_env != nullptr ? flight_env : "unset") << "\""
      << ",\"flight_enabled\":"
      << (ftss::FlightRecorder::global().enabled() ? "true" : "false");
  char calib[64];
  std::snprintf(calib, sizeof calib, "%.4f", calibration_ms);
  out << ",\"calibration_ms\":" << calib << "}";
  return out.str();
}

}  // namespace perfbench
