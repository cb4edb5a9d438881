#include "bench_support.hpp"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "linalg/simd.hpp"
#include "obs/span.hpp"
#include "transport/subsolve.hpp"

namespace e2e {

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
        throw std::invalid_argument("--seconds must lie in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

double now_s() { return mg::obs::wall_clock_seconds(); }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double pid_cpu_s(int pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  double total = 0.0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    unsigned long long run_ns = 0;
    if (in >> run_ns) total += 1e-9 * static_cast<double>(run_ns);
  }
  closedir(d);
  return total;
}

namespace {

std::uint64_t status_field_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::stoull(line.substr(n));
  }
  return 0;
}

}  // namespace

std::uint64_t rss_kb() { return status_field_kb("VmRSS:"); }
std::uint64_t peak_rss_kb() { return status_field_kb("VmHWM:"); }
std::size_t thread_count() { return status_field_kb("Threads:"); }

std::size_t open_fd_count() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  std::size_t n = 0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n > 0 ? n - 1 : 0;  // minus the directory stream's own fd
}

void ProcPeaks::sample() {
  threads = std::max(threads, thread_count());
  fds = std::max(fds, open_fd_count());
}

PeakSampler::PeakSampler()
    : thread_([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          {
            const std::lock_guard<std::mutex> lock(mutex_);
            peaks_.sample();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

PeakSampler::~PeakSampler() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

ProcPeaks PeakSampler::peaks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peaks_;
}

CpuPin::CpuPin(std::size_t index) {
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  const int n = CPU_COUNT(&saved_);
  if (n <= 1) return;
  int want = static_cast<int>(index % static_cast<std::size_t>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Host probe_host() {
  Host host;
  host.cores = std::thread::hardware_concurrency();
  host.simd = mg::linalg::simd::isa_name();
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = MG_BENCH_BUILD_TYPE;
  // A fixed dependent chain of multiply-adds: single-threaded, no memory
  // traffic, so its time moves only with the core's speed and its share of
  // the host.  Median of three to skip a one-off preemption.
  std::vector<double> samples;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    double x = 1.0;
    for (int i = 0; i < 20'000'000; ++i) x = x * 0.999999 + 1e-7;
    sink = sink + x;
    samples.push_back(now_s() - t0);
  }
  host.probe_s = median(samples);
  return host;
}

void print_host(const Host& host, const Args& args) {
  std::printf(
      "host: {\"cores\": %u, \"simd\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"host.probe_s\": %.6f, \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}\n",
      host.cores, host.simd.c_str(), host.compiler.c_str(), host.build_type.c_str(),
      host.probe_s, args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0);
  std::fflush(stdout);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void flip_one_bit(std::vector<double>& data) {
  if (data.empty()) return;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &data[0], sizeof bits);
  bits ^= 1u;
  std::memcpy(&data[0], &bits, sizeof bits);
}

ErrorCheck check_against_exact(const transport::ProgramConfig& config,
                               const grid::Field& combined) {
  const auto& p = config.kernel.problem;
  const double t1 = config.kernel.t1;
  const auto exact = [&](double x, double y) { return p.exact(x, y, t1); };
  ErrorCheck check;
  check.max_error = combined.max_error(exact);
  check.l2_error = combined.l2_error(exact);
  check.within_bound =
      check.max_error <= 10.0 * config.le_tol && check.l2_error <= 2.5 * config.le_tol;
  return check;
}

transport::ProgramConfig level6_config() {
  transport::ProgramConfig config;
  config.root = 2;
  config.level = 6;
  config.le_tol = 1e-3;
  return config;
}

FactorWork measure_factor_work(const transport::ProgramConfig& config) {
  FactorWork work;
  const transport::SubsolveConfig kernel = config.kernel_config();
  double worst = -1.0;
  for (const auto& term : grid::combination_terms(config.root, config.level)) {
    const grid::Grid2D& g = term.grid;
    const mg::obs::MetricsSnapshot before = mg::obs::registry().snapshot();
    transport::subsolve(g, kernel);
    const mg::obs::MetricsSnapshot after = mg::obs::registry().snapshot();
    const double factorisations = counter_delta(before, after, "linalg.stage_cache.misses") +
                                  counter_delta(before, after, "linalg.stage_cache.refreshes");
    const double n = static_cast<double>(g.interior_count());
    const double hb = static_cast<double>(g.interior_x());
    work.flops += n * hb * hb * factorisations;
    if (n * hb * hb > worst) {
      worst = n * hb * hb;
      work.band_bytes = n * (2.0 * hb + 1.0) * sizeof(double);
    }
  }
  return work;
}

double hist_sum(const mg::obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

double counter_delta(const mg::obs::MetricsSnapshot& before, const mg::obs::MetricsSnapshot& after,
                     const std::string& name) {
  return static_cast<double>(after.counter_or(name) - before.counter_or(name));
}

double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::string write_chrome_trace(const Args& args) {
  // mkdir -p, one component at a time; existing components are fine.
  std::string partial(!args.trace_dir.empty() && args.trace_dir[0] == '/' ? 1 : 0, '/');
  std::stringstream parts(args.trace_dir);
  std::string part;
  while (std::getline(parts, part, '/')) {
    if (part.empty()) continue;
    partial += part + "/";
    mkdir(partial.c_str(), 0755);
  }
  const std::string path = partial + args.workload + "-seed" + std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  if (!out) return "";
  out << mg::obs::tracer().chrome_trace_json();
  return out ? path : "";
}

void print_layer_table(const std::string& workload, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "per-layer metrics, workload %s (traced run)\n", workload.c_str());
  std::fprintf(stderr, "  %-32s %14s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result_line(bool correct, const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit of the measured double.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace e2e
