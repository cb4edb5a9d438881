// solve-l6 and solve-l6-tcp: closed-loop pairs of one solve_sequential and
// one solve_concurrent of root=2 level=6 le_tol=1e-3, on the threads pool or
// over four forked TCP worker processes on loopback.
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/concurrent_solver.hpp"
#include "core/marshal.hpp"
#include "core/remote_worker.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace mw = mg::mw;
namespace net = mg::net;
namespace obs = mg::obs;

constexpr std::size_t kTcpWorkers = 4;
/// Set-ups sampled for setup_s: the run's own, then kExtraSetupsPerRound
/// more before every round (each torn down at once), so the samples span
/// the whole run like the solves do; at least kMinSetups in all.
constexpr int kExtraSetupsPerRound = 2;
constexpr std::size_t kMinSetups = 9;
/// Concurrent solves per round, each checked against the round's sequential
/// solve: three, so solve_s rests on three times as many samples as
/// seq_solve_s (the concurrent time spreads more, see README).
constexpr int kConcurrentPerRound = 3;
/// The warm-up solve of each set-up: the same code paths as a level-6
/// solve (pool, marshal, wire, combine) at about a tenth of its cost.  A
/// level-4 warm-up (~12 ms) is mostly thread wake-ups, whose cost swings
/// with co-tenant load far more than a solve's does.
constexpr int kWarmupLevel = 5;

/// Four worker processes forked on loopback and the master's endpoint; the
/// set-up of solve-l6-tcp, reused by every solve of the run.
class TcpFleet {
 public:
  TcpFleet() {
    net::TcpListener listener("127.0.0.1", 0);
    std::fflush(stdout);  // children must not replay buffered output
    std::fflush(stderr);
    const std::string host = listener.host();
    const std::uint16_t port = listener.port();
    pids_ = net::fork_worker_processes(kTcpWorkers, [&listener, host, port] {
      listener.close();
      return mw::run_subsolve_worker(host, port);
    });
    endpoint_ = std::make_unique<net::RemoteEndpoint>(std::move(listener));
    if (!endpoint_->wait_for_workers(kTcpWorkers, std::chrono::seconds(15))) {
      stop();
      throw std::runtime_error("tcp workers did not connect within 15 s");
    }
  }
  ~TcpFleet() { stop(); }
  TcpFleet(const TcpFleet&) = delete;
  TcpFleet& operator=(const TcpFleet&) = delete;

  net::RemoteEndpoint& endpoint() { return *endpoint_; }

  double workers_cpu_s() const {
    double total = 0.0;
    for (const int pid : pids_) total += pid_cpu_s(pid);
    return total;
  }

  /// Shuts the endpoint down and reaps every worker; idempotent.
  void stop() {
    if (!endpoint_) return;
    endpoint_->shutdown();
    const int rc = net::wait_worker_processes(pids_);
    if (rc != 0) std::fprintf(stderr, "e2e_bench: tcp worker exit status %d\n", rc);
    endpoint_.reset();
    pids_.clear();
  }

 private:
  std::vector<int> pids_;
  std::unique_ptr<net::RemoteEndpoint> endpoint_;
};

/// The program's defaults for each substrate, as sparse_grid_solver sets
/// them: remote workers need the fault-tolerant pool.
mw::ConcurrentOptions options_for(TcpFleet* fleet) {
  mw::ConcurrentOptions options;
  if (fleet != nullptr) {
    options.remote = &fleet->endpoint();
    options.retry = mg::fault::RetryPolicy{};
  }
  return options;
}

/// One set-up: (TCP: fork the workers and connect) + a warm-up concurrent
/// solve, checked bitwise against its reference.  Returns its wall time.
double set_up(bool tcp, const transport::ProgramConfig& warmup,
              const transport::SolveResult& reference, std::unique_ptr<TcpFleet>& fleet) {
  fleet.reset();
  const double t0 = now_s();
  if (tcp) fleet = std::make_unique<TcpFleet>();
  const mw::ConcurrentResult warm = mw::solve_concurrent(warmup, options_for(fleet.get()));
  const double seconds = now_s() - t0;
  if (!bitwise_equal(warm.solve.combined.data(), reference.combined.data())) {
    throw std::runtime_error("warm-up solve differs from solve_sequential");
  }
  return seconds;
}

/// Marshal-ready copies of the solve's work and result units: the real
/// grid shapes and kernel config, each result sampled from the exact
/// solution (the codec's cost does not depend on the values).
struct MarshalUnits {
  std::vector<mw::WorkItem> work;
  std::vector<mw::ResultItem> results;
};

MarshalUnits marshal_units(const transport::ProgramConfig& config) {
  MarshalUnits s;
  const transport::SubsolveConfig kernel = config.kernel_config();
  const auto terms = grid::combination_terms(config.root, config.level);
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const grid::Grid2D& g = terms[i].grid;
    s.work.push_back({i, config.root, g.lx(), g.ly(), kernel});
    grid::Field exact(g);
    exact.sample([&](double x, double y) { return kernel.problem.exact(x, y, kernel.t1); });
    s.results.push_back({i, exact.data(), {}, 0.0});
  }
  return s;
}

/// Time of one encode+decode of every work and result unit of the solve.
double marshal_seconds(const MarshalUnits& s) {
  const double t0 = now_s();
  std::size_t sink = 0;
  for (const mw::WorkItem& w : s.work) sink += mw::decode_work_item(mw::encode_work_item(w)).index;
  for (const mw::ResultItem& r : s.results) {
    sink += mw::decode_result_item(mw::encode_result_item(r)).node_data.size();
  }
  const double dt = now_s() - t0;
  if (sink == 0) std::fprintf(stderr, "e2e_bench: empty marshal units\n");
  return dt;
}

/// Spans of the program's layers (subsolve, rendezvous, dispatch) that fall
/// inside [lo, hi], clipped to it.
std::vector<std::pair<double, double>> layer_spans(const std::vector<obs::SpanRecord>& spans,
                                                   double lo, double hi) {
  std::vector<std::pair<double, double>> out;
  for (const obs::SpanRecord& s : spans) {
    if (s.category != "transport" && s.category != "mw" && s.category != "net") continue;
    if (s.end < lo || s.start > hi) continue;
    out.emplace_back(std::max(s.start, lo), std::min(s.end, hi));
  }
  return out;
}

/// Everything the per-layer metrics need from one traced round.
struct LayerRound {
  double critical = 0.0, subsolve = 0.0, assemble = 0.0, factor = 0.0, stage_solve = 0.0;
  double cache_hits = 0.0, cache_refreshes = 0.0, bicgstab_iterations = 0.0;
  double steps_accepted = 0.0, steps_rejected = 0.0;
  double combine = 0.0, coordination = 0.0, rendezvous = 0.0, marshal = 0.0;
  double wire = 0.0, stall = 0.0, unaccounted = 0.0;
  double bytes_in = 0.0, bytes_out = 0.0, frames_in = 0.0, frames_out = 0.0;
  double trips_failed = 0.0, reconnects = 0.0;
  std::vector<double> round_trips;
};

}  // namespace

Outcome run_solve_workload(const Args& args, const Host& host, bool tcp) {
  const transport::ProgramConfig config = level6_config();
  transport::ProgramConfig warmup = config;
  warmup.level = kWarmupLevel;
  Outcome out;

  // The warm-up's reference, computed before any set-up is timed.
  const transport::SolveResult warmup_ref = transport::solve_sequential(warmup);

  // The run's set-up; its fleet serves every solve of the run.  The extra
  // set-ups below bring up a second one beside it and tear it down again.
  std::vector<double> setups;
  std::unique_ptr<TcpFleet> fleet;
  setups.push_back(set_up(tcp, warmup, warmup_ref, fleet));
  const mw::ConcurrentOptions options = options_for(fleet.get());
  const auto sample_extra_setup = [&] {
    std::unique_ptr<TcpFleet> extra;
    setups.push_back(set_up(tcp, warmup, warmup_ref, extra));
  };

  FactorWork factor_work;
  MarshalUnits units;
  std::unique_ptr<PeakSampler> sampler;
  if (args.trace) {
    factor_work = measure_factor_work(config);
    units = marshal_units(config);
    sampler = std::make_unique<PeakSampler>();
  }

  std::vector<double> seq_walls, conc_walls, conc_cpus;
  std::vector<double> traced_walls, untraced_walls;
  std::vector<LayerRound> layers;
  mg::fault::FaultCounters faults;
  std::size_t duplicates = 0;
  std::size_t round = 0;
  std::uint64_t first_round_peak_kb = 0;
  double setup_wall = 0.0;
  const double loop_start = now_s();
  do {
    // setup_s is reported by untraced runs only; their extra set-ups are
    // not part of the solve loop's time.
    if (!args.trace) {
      const double s0 = now_s();
      for (int i = 0; i < kExtraSetupsPerRound; ++i) sample_extra_setup();
      setup_wall += now_s() - s0;
    }
    // A traced run alternates traced and untraced rounds; the difference of
    // their concurrent solve times is obs.trace_overhead_s.
    const bool traced = args.trace && round % 2 == 0;
    if (traced) {
      obs::enable_wall_clock(obs::tracer());
    } else {
      obs::tracer().disable();
    }
    LayerRound layer;
    out.attempted += 1 + kConcurrentPerRound;

    // --- the sequential program (the paper's st), on the round's core ---
    std::optional<transport::SolveResult> seq_result;
    const obs::MetricsSnapshot reg0 = obs::registry().snapshot();
    double seq_wall = 0.0;
    try {
      const CpuPin pin(round);
      const obs::ScopedSpan span(&obs::tracer(), "solve_sequential", "bench", "bench");
      const double t0 = now_s();
      seq_result.emplace(transport::solve_sequential(config));
      seq_wall = now_s() - t0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2e_bench: solve_sequential failed: %s\n", e.what());
      out.failed += 1 + kConcurrentPerRound;  // nothing to check the round against
      ++round;
      continue;
    }
    seq_walls.push_back(seq_wall);
    const transport::SolveResult& seq = *seq_result;
    const obs::MetricsSnapshot reg1 = obs::registry().snapshot();
    if (!check_against_exact(config, seq.combined).within_bound) {
      out.failed += 1;
      out.mismatched += 1;
    }

    // --- the concurrent version (the paper's ct), checked against it ---
    for (int k = 0; k < kConcurrentPerRound; ++k) {
      const net::RemoteCounters net0 =
          fleet ? fleet->endpoint().counters() : net::RemoteCounters{};
      const double w0 = fleet ? fleet->workers_cpu_s() : 0.0;
      const double c0 = process_cpu_s();
      const double t2 = now_s();
      std::optional<mw::ConcurrentResult> conc_result;
      try {
        const obs::ScopedSpan span(&obs::tracer(), "solve_concurrent", "bench", "bench");
        conc_result.emplace(mw::solve_concurrent(config, options));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: solve_concurrent failed: %s\n", e.what());
        out.failed += 1;
        continue;
      }
      const double t3 = now_s();
      const mw::ConcurrentResult& conc = *conc_result;
      const double conc_wall = t3 - t2;
      conc_walls.push_back(conc_wall);
      conc_cpus.push_back(process_cpu_s() - c0 + (fleet ? fleet->workers_cpu_s() - w0 : 0.0));
      (traced ? traced_walls : untraced_walls).push_back(conc_wall);

      std::vector<double> reference = seq.combined.data();
      if (args.corrupt_reference && round == 0 && k == 0) flip_one_bit(reference);
      if (!bitwise_equal(conc.solve.combined.data(), reference) ||
          !check_against_exact(config, conc.solve.combined).within_bound) {
        out.failed += 1;
        out.mismatched += 1;
      }
      const net::RemoteCounters net1 =
          fleet ? fleet->endpoint().counters() : net::RemoteCounters{};
      faults += conc.protocol.faults;
      duplicates +=
          conc.protocol.fleet.duplicates + (net1.fleet_duplicates - net0.fleet_duplicates);
      if (!traced) continue;

      double critical = 0.0;
      double unit_sum = 0.0;
      for (const auto& r : conc.solve.records) {
        critical = std::max(critical, r.elapsed_seconds);
        unit_sum += r.elapsed_seconds;
      }
      layer.critical = critical;
      layer.subsolve = seq.subsolve_seconds;
      layer.assemble = hist_sum(reg1, "linalg.stage_assemble_seconds") -
                       hist_sum(reg0, "linalg.stage_assemble_seconds");
      layer.factor = hist_sum(reg1, "linalg.stage_factor_seconds") -
                     hist_sum(reg0, "linalg.stage_factor_seconds");
      layer.stage_solve = hist_sum(reg1, "linalg.stage_solve_seconds") -
                          hist_sum(reg0, "linalg.stage_solve_seconds");
      layer.cache_hits = counter_delta(reg0, reg1, "linalg.stage_cache.hits");
      layer.cache_refreshes = counter_delta(reg0, reg1, "linalg.stage_cache.refreshes");
      layer.bicgstab_iterations = counter_delta(reg0, reg1, "linalg.bicgstab_iterations");
      layer.steps_accepted = layer.steps_rejected = 0.0;
      for (const auto& r : seq.records) {
        layer.steps_accepted += static_cast<double>(r.stats.accepted);
        layer.steps_rejected += static_cast<double>(r.stats.rejected);
      }
      layer.combine = conc.solve.prolongation_seconds;
      layer.coordination = conc_wall - critical - layer.combine;
      layer.rendezvous = conc.protocol.rendezvous_wait_seconds;
      layer.marshal = tcp ? marshal_seconds(units) : 0.0;
      layer.stall = 1e-6 * static_cast<double>(net1.dispatch_stall_micros -
                                               net0.dispatch_stall_micros);
      layer.bytes_in = static_cast<double>(net1.bytes_received - net0.bytes_received);
      layer.bytes_out = static_cast<double>(net1.bytes_sent - net0.bytes_sent);
      layer.frames_in = static_cast<double>(net1.frames_received - net0.frames_received);
      layer.frames_out = static_cast<double>(net1.frames_sent - net0.frames_sent);
      layer.trips_failed =
          static_cast<double>(net1.round_trips_failed - net0.round_trips_failed);
      layer.reconnects = static_cast<double>(net1.reconnects - net0.reconnects);

      const std::vector<obs::SpanRecord> spans = obs::tracer().snapshot();
      double dispatch_sum = 0.0;
      layer.round_trips.clear();
      for (const obs::SpanRecord& sp : spans) {
        if (sp.name == "dispatch" && sp.category == "net" && sp.start >= t2 && sp.end <= t3) {
          layer.round_trips.push_back(sp.duration());
          dispatch_sum += sp.duration();
        }
      }
      layer.wire = tcp ? dispatch_sum - unit_sum : 0.0;
      // Combine runs last in the master; it has no span of its own, so its
      // measured length is placed at the end of the solve's window.
      std::vector<std::pair<double, double>> covered = layer_spans(spans, t2, t3);
      covered.emplace_back(t3 - layer.combine, t3);
      layer.unaccounted = conc_wall - union_length(covered);
      layers.push_back(layer);
    }
    if (round == 0) first_round_peak_kb = peak_rss_kb();
    ++round;
    // A traced run needs an untraced round too, for obs.trace_overhead_s.
  } while (now_s() - loop_start < args.seconds || (args.trace && round < 2));
  const double loop_wall = now_s() - loop_start - setup_wall;
  while (!args.trace && setups.size() < kMinSetups) sample_extra_setup();

  if (!args.trace) {
    out.end_to_end = {
        {"solve_s", median(conc_walls)},
        {"seq_solve_s", median(seq_walls)},
        {"solve_cpu_s", median(conc_cpus)},
        // Every operation of these workloads is a solve: the concurrent
        // solve is the small job, the sequential one the heavy job.
        {"jobs_per_s", static_cast<double>(seq_walls.size() + conc_walls.size()) / loop_wall},
        {"small_job_p50_s", median(conc_walls)},
        {"small_job_p90_s", quantile(conc_walls, 0.9)},
        {"heavy_job_p50_s", median(seq_walls)},
        {"setup_s", median(setups)},
        {"peak_rss_mb", static_cast<double>(first_round_peak_kb) / 1024.0},
    };
  } else {
    const auto med = [&](double LayerRound::*field) {
      std::vector<double> v;
      for (const LayerRound& l : layers) v.push_back(l.*field);
      return median(v);
    };
    std::vector<double> trips;
    for (const LayerRound& l : layers) trips.insert(trips.end(), l.round_trips.begin(), l.round_trips.end());
    const ProcPeaks peaks = sampler->peaks();
    const double rounds = static_cast<double>(std::max<std::size_t>(conc_walls.size(), 1));
    out.per_layer = {
        {"transport.critical_grid_s", med(&LayerRound::critical)},
        {"transport.subsolve_s", med(&LayerRound::subsolve)},
        {"linalg.assemble_s", med(&LayerRound::assemble)},
        {"linalg.factor_s", med(&LayerRound::factor)},
        {"linalg.stage_solve_s", med(&LayerRound::stage_solve)},
        {"linalg.factor_flops", factor_work.flops},
        {"linalg.band_bytes", factor_work.band_bytes},
        {"linalg.stage_cache_hits", med(&LayerRound::cache_hits)},
        {"linalg.stage_cache_refreshes", med(&LayerRound::cache_refreshes)},
        {"linalg.bicgstab_iterations", med(&LayerRound::bicgstab_iterations)},
        {"rosenbrock.steps_accepted", med(&LayerRound::steps_accepted)},
        {"rosenbrock.steps_rejected", med(&LayerRound::steps_rejected)},
        {"grid.combine_s", med(&LayerRound::combine)},
        {"core.coordination_s", med(&LayerRound::coordination)},
        {"core.rendezvous_wait_s", med(&LayerRound::rendezvous)},
        {"core.marshal_s", med(&LayerRound::marshal)},
        {"net.round_trip_p50_s", median(trips)},
        {"net.wire_s", med(&LayerRound::wire)},
        {"net.dispatch_stall_s", med(&LayerRound::stall)},
        {"net.bytes_in", med(&LayerRound::bytes_in)},
        {"net.bytes_out", med(&LayerRound::bytes_out)},
        {"net.frames_in", med(&LayerRound::frames_in)},
        {"net.frames_out", med(&LayerRound::frames_out)},
        {"net.round_trips_failed", med(&LayerRound::trips_failed)},
        {"net.reconnects", med(&LayerRound::reconnects)},
        {"fault.retries", static_cast<double>(faults.retries) / rounds},
        {"fault.crash_events", static_cast<double>(faults.crash_events) / rounds},
        {"fault.timeouts", static_cast<double>(faults.timeouts) / rounds},
        {"fault.abandoned", static_cast<double>(faults.abandoned) / rounds},
        {"fleet.duplicates", static_cast<double>(duplicates) / rounds},
        {"proc.threads_peak", static_cast<double>(peaks.threads)},
        {"proc.fds_peak", static_cast<double>(peaks.fds)},
        {"obs.unaccounted_s", med(&LayerRound::unaccounted)},
        {"obs.trace_overhead_s", median(traced_walls) - median(untraced_walls)},
        {"host.probe_s", host.probe_s},
    };
  }
  obs::tracer().disable();
  if (fleet) fleet->stop();
  return out;
}

}  // namespace e2e
