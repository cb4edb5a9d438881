// Shared plumbing of the end-to-end benchmark: command line, clocks, process
// probes (/proc), order statistics, the host fingerprint, result checks and
// the one-line JSON result the runner prints last.
#pragma once

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "grid/field.hpp"
#include "obs/metrics.hpp"
#include "transport/seq_solver.hpp"

namespace e2e {

namespace grid = mg::grid;
namespace transport = mg::transport;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";  ///< Chrome traces of traced runs
  /// Self-check: flip one bit of one reference so its check must fail.
  bool corrupt_reference = false;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--trace-dir D]
/// [--corrupt-reference]`; throws std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// One named metric of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload hands back: operation counts plus metric values by name.
/// An untraced run fills `end_to_end`, a traced run `per_layer`; a per-layer
/// metric a workload leaves out is a layer that does no work there and reads 0.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< errored or mismatched operations
  std::uint64_t mismatched = 0;  ///< operations whose output failed a check
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

/// Seconds on the tracer's steady clock (obs::wall_clock_seconds), so bench
/// timestamps and program spans share one time base.
double now_s();
/// CPU seconds of every thread of this process.
double process_cpu_s();
/// CPU seconds of every thread of process `pid`, from /proc/<pid>/task/*/schedstat
/// (nanosecond run time); 0 if the process is gone.
double pid_cpu_s(int pid);
/// Resident set and its high-water mark, in kB, from /proc/self/status.
std::uint64_t rss_kb();
std::uint64_t peak_rss_kb();
std::size_t thread_count();
std::size_t open_fd_count();

/// Tracks the highest thread and fd counts seen at sample() calls.
struct ProcPeaks {
  std::size_t threads = 0;
  std::size_t fds = 0;
  void sample();
};

/// Samples thread and fd counts every 2 ms on a thread of its own.  Used in
/// traced runs only, since it adds one thread to the process under test.
class PeakSampler {
 public:
  PeakSampler();
  ~PeakSampler();
  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;

  ProcPeaks peaks() const;

 private:
  mutable std::mutex mutex_;
  ProcPeaks peaks_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Pins the calling thread to the `index % n`-th of the n CPUs it may run
/// on, and restores the previous mask on destruction.  Sequential solves
/// go round the cores one after another: on a guest whose vCPUs differ in
/// speed, an unpinned single thread keeps whichever vCPU it started on, and
/// the run's median moves with that draw.
class CpuPin {
 public:
  explicit CpuPin(std::size_t index);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

double median(std::vector<double> v);
/// Quantile q in [0,1] by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);

/// Host fingerprint plus the drift probe: a fixed single-thread loop whose
/// time explains drift between sets of runs.  Printed on every run.
struct Host {
  unsigned cores = 0;
  std::string simd;
  std::string compiler;
  std::string build_type;
  double probe_s = 0.0;
};
Host probe_host();
void print_host(const Host& host, const Args& args);

/// Bitwise equality of two nodal data vectors (NaN-safe, -0 != +0).
bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b);
/// Flips the lowest mantissa bit of data[0] (the corrupted-reference self-check).
void flip_one_bit(std::vector<double>& data);

/// Error of a combined field against TransportProblem::exact at t1 and the
/// bound the README derives from le_tol: max <= 10 le_tol, L2 <= 2.5 le_tol
/// (the time error dominates from level 5 up; see README "Checks").
struct ErrorCheck {
  double max_error = 0.0;
  double l2_error = 0.0;
  bool within_bound = false;
};
ErrorCheck check_against_exact(const transport::ProgramConfig& config,
                               const grid::Field& combined);

/// The level-6 problem every solve workload and the heavy svc tenant run,
/// with the program's defaults (banded LU, scalar kernels, one inner thread).
transport::ProgramConfig level6_config();

/// The banded LU's work on a problem: n*hb^2 summed over the factorisations
/// each grid actually does (stage-cache misses plus refreshes, counted by
/// subsolving every grid once), and the band storage of the grid with the
/// largest n*hb^2.  Both repeat exactly for a given program.
struct FactorWork {
  double flops = 0.0;
  double band_bytes = 0.0;
};
FactorWork measure_factor_work(const transport::ProgramConfig& config);

/// Sum of a histogram, or a counter, in a registry snapshot (0 if absent).
double hist_sum(const mg::obs::MetricsSnapshot& s, const std::string& name);
double counter_delta(const mg::obs::MetricsSnapshot& before, const mg::obs::MetricsSnapshot& after,
                     const std::string& name);

/// Length of the union of closed intervals.
double union_length(std::vector<std::pair<double, double>> intervals);

/// Writes the global tracer's Chrome trace to `<dir>/<workload>-seed<N>.json`
/// and returns the path ("" on failure).
std::string write_chrome_trace(const Args& args);

/// Prints the per-layer table of a traced run to stderr.
void print_layer_table(const std::string& workload, const std::vector<Metric>& metrics);

/// The last line of standard output.
void print_result_line(bool correct, const Outcome& outcome, const std::vector<Metric>& metrics);

}  // namespace e2e
