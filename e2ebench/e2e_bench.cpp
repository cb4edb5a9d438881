// e2e_bench — the end-to-end benchmark of the solver and the solve service.
//
//   e2e_bench --workload solve-l6|solve-l6-tcp|svc-mix --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR] [--corrupt-reference]
//
// Prints a `host:` line (fingerprint and drift probe) and, as the last line
// of standard output, one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload with
// the span tracer on, writes a Chrome trace under DIR, prints the per-layer
// table to stderr and reports the per-layer metrics.  README.md defines
// every metric.  Exits 2 on a usage error and 1 if the workload cannot run.
#include <cstdio>
#include <exception>
#include <set>

#include "workloads.hpp"

namespace {

using e2e::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json; selfcheck.py compares the two.
constexpr MetricSpec kEndToEnd[] = {
    {"solve_s", "s"},         {"seq_solve_s", "s"},     {"solve_cpu_s", "s"},
    {"jobs_per_s", "1/s"},    {"small_job_p50_s", "s"}, {"small_job_p90_s", "s"},
    {"heavy_job_p50_s", "s"}, {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"transport.critical_grid_s", "s"},
    {"transport.subsolve_s", "s"},
    {"linalg.assemble_s", "s"},
    {"linalg.factor_s", "s"},
    {"linalg.stage_solve_s", "s"},
    {"linalg.factor_flops", "count"},
    {"linalg.band_bytes", "B"},
    {"linalg.stage_cache_hits", "count"},
    {"linalg.stage_cache_refreshes", "count"},
    {"linalg.bicgstab_iterations", "count"},
    {"rosenbrock.steps_accepted", "count"},
    {"rosenbrock.steps_rejected", "count"},
    {"grid.combine_s", "s"},
    {"core.coordination_s", "s"},
    {"core.rendezvous_wait_s", "s"},
    {"core.marshal_s", "s"},
    {"net.round_trip_p50_s", "s"},
    {"net.wire_s", "s"},
    {"net.dispatch_stall_s", "s"},
    {"net.bytes_in", "count"},
    {"net.bytes_out", "count"},
    {"net.frames_in", "count"},
    {"net.frames_out", "count"},
    {"net.round_trips_failed", "count"},
    {"net.reconnects", "count"},
    {"fault.retries", "count"},
    {"fault.crash_events", "count"},
    {"fault.timeouts", "count"},
    {"fault.abandoned", "count"},
    {"fleet.duplicates", "count"},
    {"svc.queue_wait_p50_s", "s"},
    {"svc.run_p50_s", "s"},
    {"svc.heavy_run_p50_s", "s"},
    {"svc.client_overhead_s", "s"},
    {"svc.status_polls_per_job", "count"},
    {"svc.sched_pick_s", "s"},
    {"svc.retained_kb_per_job", "KB"},
    {"proc.threads_peak", "count"},
    {"proc.fds_peak", "count"},
    {"obs.unaccounted_s", "s"},
    {"obs.trace_overhead_s", "s"},
    {"host.probe_s", "s"},
};

/// Orders a workload's values by the table.  Every end-to-end metric must be
/// measured; a per-layer metric a workload leaves out reads 0 (its layer
/// does no work there).  A name outside the table is a bug.
template <std::size_t N>
std::vector<Metric> ordered(const MetricSpec (&table)[N], const std::map<std::string, double>& values,
                            bool all_required) {
  std::set<std::string> known;
  std::vector<Metric> out;
  for (const MetricSpec& spec : table) {
    known.insert(spec.name);
    const auto it = values.find(spec.name);
    if (it == values.end() && all_required) {
      throw std::logic_error(std::string("metric not measured: ") + spec.name);
    }
    out.push_back({spec.name, spec.unit, it == values.end() ? 0.0 : it->second});
  }
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) throw std::logic_error("metric not in the table: " + name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  try {
    args = e2e::parse_args(argc, argv);
    if (args.workload != "solve-l6" && args.workload != "solve-l6-tcp" &&
        args.workload != "svc-mix") {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
  try {
    const e2e::Host host = e2e::probe_host();
    e2e::print_host(host, args);
    const e2e::Outcome outcome = args.workload == "svc-mix"
                                     ? e2e::run_svc_workload(args, host)
                                     : e2e::run_solve_workload(args, host,
                                                               args.workload == "solve-l6-tcp");
    const std::vector<Metric> metrics = args.trace
                                            ? ordered(kPerLayer, outcome.per_layer, false)
                                            : ordered(kEndToEnd, outcome.end_to_end, true);
    if (args.trace) {
      const std::string path = e2e::write_chrome_trace(args);
      std::fprintf(stderr, "chrome trace: %s\n", path.empty() ? "(write failed)" : path.c_str());
      e2e::print_layer_table(args.workload, metrics);
    }
    e2e::print_result_line(outcome.mismatched == 0, outcome, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
