// svc-mix: a seeded batch of small and heavy jobs sent to an in-process
// JobServer (default engine: 4 local lanes) by four closed-loop JobClient
// connections over loopback.  Each batch gets a fresh server, so the
// engine's retention of terminal jobs is measured per batch instead of
// growing with the number of batches a run happens to fit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "svc/client.hpp"
#include "svc/job_server.hpp"
#include "svc/scheduler.hpp"
#include "transport/subsolve.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace obs = mg::obs;
namespace svc = mg::svc;

constexpr int kSmallTenants = 3;
constexpr int kClients = kSmallTenants + 1;  ///< the last client is the heavy tenant
/// Small jobs per small tenant in one batch.  3 x 100 small jobs outlast the
/// heavy tenant's jobs, so the batch's pace is set by the service tier, and
/// one batch alone puts thirty samples beyond the small-job p90.
constexpr int kSmallJobsPerTenant = 100;
constexpr int kHeavyJobs = 2;
/// Reference solves of the heavy spec: two per core (see CpuPin); their
/// median is this workload's seq_solve_s.
constexpr int kHeavyReferenceRuns = 8;
constexpr int kMinSetups = 7;
/// Status poll interval: a level-3 job runs ~4 ms, so 0.5 ms polls add at
/// most ~1/8 of its run time; JobClient::wait_terminal's 20 ms default
/// would quantise small-job latency to its period.
constexpr std::chrono::microseconds kPollInterval{500};

struct SpecKey {
  int level = 3;
  double le_tol = 1e-3;
  bool operator<(const SpecKey& o) const {
    return level != o.level ? level < o.level : le_tol < o.le_tol;
  }
};

struct JobPlan {
  svc::JobSpec spec;
  bool heavy = false;
};

/// The seeded batch: per client, the jobs it submits in order.  Every seed
/// gives the same multiset of specs (each small tenant runs a quarter of
/// each of the four small specs); the seed picks the order of each tenant's
/// jobs and which tenant gets which weight.
std::vector<std::vector<JobPlan>> make_batch(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> weights = {1.0, 2.0, 4.0};
  std::shuffle(weights.begin(), weights.end(), rng);
  const SpecKey small_specs[] = {{3, 1e-3}, {3, 1e-4}, {4, 1e-3}, {4, 1e-4}};
  std::vector<std::vector<JobPlan>> batch(kClients);
  for (int t = 0; t < kSmallTenants; ++t) {
    for (int j = 0; j < kSmallJobsPerTenant; ++j) {
      JobPlan plan;
      plan.spec.level = small_specs[j % 4].level;
      plan.spec.le_tol = small_specs[j % 4].le_tol;
      plan.spec.priority = 1;
      plan.spec.weight = weights[t];
      batch[t].push_back(plan);
    }
    std::shuffle(batch[t].begin(), batch[t].end(), rng);
    for (std::size_t j = 0; j < batch[t].size(); ++j) {
      char tag[32];
      std::snprintf(tag, sizeof tag, "t%d-j%zu", t, j);
      batch[t][j].spec.tag = tag;
    }
  }
  for (int j = 0; j < kHeavyJobs; ++j) {
    JobPlan plan;
    plan.spec.level = 6;
    plan.spec.le_tol = 1e-3;
    plan.heavy = true;
    plan.spec.tag = "heavy-j" + std::to_string(j);
    batch[kSmallTenants].push_back(plan);
  }
  return batch;
}

/// The warm-up job of every set-up: a level-5 job (~0.1 s) keeps the
/// set-up's time mostly solve work.  A level-4 warm-up (~10 ms) is mostly
/// polls and thread wake-ups, whose cost swings with co-tenant load.
JobPlan warmup_plan() {
  JobPlan warm;
  warm.spec.level = 5;
  warm.spec.tag = "warm-up";
  return warm;
}

struct Reference {
  transport::SolveResult solve;
  FactorWork factor;
};

/// What one client saw of one job.
struct JobRecord {
  bool heavy = false;
  bool ok = false;
  bool mismatched = false;
  double submitted_at = 0.0;
  double latency = 0.0;  ///< submit until the status reply showing it terminal
  double queue_wait = 0.0;
  double run = 0.0;
  double polls = 0.0;
  SpecKey key;
};

/// Submits, polls to terminal, fetches and checks one job.
JobRecord run_job(svc::JobClient& client, const JobPlan& plan,
                  const std::map<SpecKey, Reference>& refs, bool corrupt_reference,
                  const char* track) {
  JobRecord rec;
  rec.heavy = plan.heavy;
  rec.key = {plan.spec.level, plan.spec.le_tol};
  rec.submitted_at = now_s();
  svc::JobTicket ticket;
  {
    const obs::ScopedSpan span(&obs::tracer(), "submit", "bench", track);
    ticket = client.submit(plan.spec);
  }
  if (!ticket.accepted) {
    std::fprintf(stderr, "e2e_bench: job rejected: %s\n", ticket.reason.c_str());
    return rec;
  }
  svc::JobStatusInfo status;
  for (;;) {
    {
      const obs::ScopedSpan span(&obs::tracer(), "status", "bench", track);
      status = client.status(ticket.job_id);
    }
    rec.polls += 1.0;
    if (svc::is_terminal(status.state)) break;
    std::this_thread::sleep_for(kPollInterval);
  }
  rec.latency = now_s() - rec.submitted_at;
  rec.queue_wait = status.queue_wait_seconds;
  rec.run = status.run_seconds;
  svc::JobResultData result;
  {
    const obs::ScopedSpan span(&obs::tracer(), "result", "bench", track);
    result = client.result(ticket.job_id);
  }
  if (result.state != svc::JobState::Done) {
    std::fprintf(stderr, "e2e_bench: job %s ended %s: %s\n", plan.spec.tag.c_str(),
                 svc::to_string(result.state), result.error.c_str());
    return rec;
  }
  std::vector<double> reference = refs.at(rec.key).solve.combined.data();
  // The self-check corrupts the reference of one small spec.
  if (corrupt_reference && rec.key.level == 3 && rec.key.le_tol == 1e-3) flip_one_bit(reference);
  rec.mismatched = !bitwise_equal(result.combined_nodes, reference);
  rec.ok = !rec.mismatched;
  return rec;
}

/// One batch's server, clients and the time it took to bring them up.
struct Service {
  std::unique_ptr<svc::JobServer> server;
  std::vector<std::unique_ptr<svc::JobClient>> clients;
  double setup_s = 0.0;
};

/// Server bind and lanes, four client connections, and the warm-up job
/// checked against its reference.
Service set_up(const std::map<SpecKey, Reference>& refs) {
  Service s;
  const double t0 = now_s();
  s.server = std::make_unique<svc::JobServer>();
  for (int c = 0; c < kClients; ++c) {
    s.clients.push_back(std::make_unique<svc::JobClient>("127.0.0.1", s.server->port()));
  }
  const JobRecord rec = run_job(*s.clients[0], warmup_plan(), refs, false, "setup");
  s.setup_s = now_s() - t0;
  if (!rec.ok) throw std::runtime_error("svc warm-up job failed its check");
  return s;
}

void tear_down(Service& s) {
  for (auto& c : s.clients) c->close();
  s.clients.clear();
  s.server->shutdown();
  s.server.reset();
}

/// svc.sched_pick_s: a FairScheduler fed the batch's task mix (every term
/// of every job, charged subsolve_payload_bytes as the engine does), timed
/// per pick-plus-finish with every job admitted at once.
double sched_pick_seconds(const std::vector<std::vector<JobPlan>>& batch) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t jobs = 0;
    for (const auto& client : batch) jobs += client.size();
    svc::AdmissionConfig cfg;
    cfg.max_running = jobs;
    cfg.max_queued = jobs;
    svc::FairScheduler scheduler(cfg);
    std::uint64_t id = 1;
    std::size_t tasks = 0;
    for (const auto& client : batch) {
      for (const JobPlan& plan : client) {
        std::vector<svc::TaskRef> refs;
        const auto terms = grid::combination_terms(plan.spec.root, plan.spec.level);
        for (std::size_t k = 0; k < terms.size(); ++k) {
          refs.push_back({id, k, static_cast<double>(transport::subsolve_payload_bytes(terms[k].grid))});
        }
        tasks += refs.size();
        std::string reason;
        if (!scheduler.admit(id, plan.spec.priority, plan.spec.weight, std::move(refs), reason)) {
          throw std::runtime_error("scheduler rejected a job: " + reason);
        }
        ++id;
      }
    }
    const double t0 = now_s();
    for (std::size_t i = 0; i < tasks; ++i) {
      const std::optional<svc::TaskRef> task = scheduler.next_task();
      if (!task) throw std::runtime_error("scheduler ran dry");
      scheduler.task_finished(task->job);
    }
    samples.push_back((now_s() - t0) / static_cast<double>(tasks));
    scheduler.stop();
  }
  return median(samples);
}

/// Parses "G(2;l,m)" subsolve span names; -1 if not one.
int grid_level_of(const std::string& name) {
  int root = 0, l = 0, m = 0;
  if (std::sscanf(name.c_str(), "G(%d;%d,%d)", &root, &l, &m) != 3) return -1;
  return l + m;
}

}  // namespace

Outcome run_svc_workload(const Args& args, const Host& host) {
  Outcome out;
  const std::vector<std::vector<JobPlan>> batch = make_batch(args.seed);

  // References: one standalone solve_sequential per distinct spec of the
  // batch and the warm-up, before any timing; the heavy spec is solved
  // several times, which gives this workload's seq_solve_s and checks that
  // the reference repeats bitwise.
  std::map<SpecKey, Reference> refs;
  std::vector<double> heavy_seq_walls;
  std::vector<std::vector<JobPlan>> referenced = batch;
  referenced.push_back({warmup_plan()});
  for (const auto& client : referenced) {
    for (const JobPlan& plan : client) {
      const SpecKey key{plan.spec.level, plan.spec.le_tol};
      if (refs.count(key) != 0) continue;
      transport::ProgramConfig config;
      config.root = plan.spec.root;
      config.level = key.level;
      config.le_tol = key.le_tol;
      const int runs = plan.heavy ? kHeavyReferenceRuns : 1;
      std::optional<Reference> ref;
      for (int r = 0; r < runs; ++r) {
        const CpuPin pin(static_cast<std::size_t>(r));
        const double t0 = now_s();
        transport::SolveResult solve = transport::solve_sequential(config);
        if (plan.heavy) heavy_seq_walls.push_back(now_s() - t0);
        if (ref && !bitwise_equal(solve.combined.data(), ref->solve.combined.data())) {
          throw std::runtime_error("solve_sequential does not repeat bitwise");
        }
        ref.emplace(Reference{std::move(solve), {}});
      }
      if (plan.heavy && !check_against_exact(config, ref->solve.combined).within_bound) {
        throw std::runtime_error("level-6 reference outside the analytic error bound");
      }
      if (args.trace) ref->factor = measure_factor_work(config);
      refs.emplace(key, std::move(*ref));
    }
  }
  std::size_t jobs_per_batch = 0;
  for (const auto& client : batch) jobs_per_batch += client.size();

  std::unique_ptr<PeakSampler> sampler;
  if (args.trace) sampler = std::make_unique<PeakSampler>();

  std::vector<double> setups, small_latencies, heavy_latencies, heavy_runs;
  std::vector<double> small_queue, small_run, small_overhead, retained_kb;
  std::vector<double> traced_heavy_runs, untraced_heavy_runs, unaccounted;
  double batch_wall_total = 0.0, batch_cpu_total = 0.0, polls_total = 0.0;
  std::size_t jobs_done = 0, batches = 0;
  std::uint64_t first_batch_peak_kb = 0;
  obs::MetricsSnapshot traced_delta;  ///< registry deltas summed over traced batches
  std::size_t traced_jobs = 0;
  double traced_frames_in = 0.0, traced_frames_out = 0.0, traced_retries = 0.0;

  const double loop_start = now_s();
  do {
    const bool traced = args.trace && batches % 2 == 0;
    if (traced) {
      obs::enable_wall_clock(obs::tracer());
    } else {
      obs::tracer().disable();
    }
    Service service = set_up(refs);
    setups.push_back(service.setup_s);
    const obs::MetricsSnapshot reg0 = obs::registry().snapshot();
    const svc::JobServerCounters server0 = service.server->counters();
    const std::uint64_t rss0 = rss_kb();
    const double cpu0 = process_cpu_s();

    std::vector<std::vector<JobRecord>> records(kClients);
    const double t0 = now_s();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        static const char* const kTracks[] = {"tenant0", "tenant1", "tenant2", "heavy"};
        for (const JobPlan& plan : batch[c]) {
          try {
            records[c].push_back(
                run_job(*service.clients[c], plan, refs, args.corrupt_reference, kTracks[c]));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "e2e_bench: client %d: %s\n", c, e.what());
            JobRecord failed;
            failed.heavy = plan.heavy;
            records[c].push_back(failed);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double wall = now_s() - t0;
    const double cpu = process_cpu_s() - cpu0;
    const std::uint64_t rss1 = rss_kb();
    const obs::MetricsSnapshot reg1 = obs::registry().snapshot();
    const svc::JobServerCounters server1 = service.server->counters();
    const svc::EngineCounters engine = service.server->engine().counters();
    tear_down(service);
    if (batches == 0) first_batch_peak_kb = peak_rss_kb();

    batch_wall_total += wall;
    batch_cpu_total += cpu;
    ++batches;
    for (const auto& client : records) {
      for (const JobRecord& r : client) {
        out.attempted += 1;
        if (!r.ok) out.failed += 1;
        if (r.mismatched) out.mismatched += 1;
        if (!r.ok) continue;
        ++jobs_done;
        polls_total += r.polls;
        if (r.heavy) {
          heavy_latencies.push_back(r.latency);
          heavy_runs.push_back(r.run);
          (traced ? traced_heavy_runs : untraced_heavy_runs).push_back(r.run);
        } else {
          small_latencies.push_back(r.latency);
          small_queue.push_back(r.queue_wait);
          small_run.push_back(r.run);
          small_overhead.push_back(r.latency - r.queue_wait - r.run);
        }
      }
    }
    retained_kb.push_back((static_cast<double>(rss1) - static_cast<double>(rss0)) /
                          static_cast<double>(jobs_per_batch));

    if (traced) {
      // Registry deltas of traced batches only, summed.
      for (const auto& [name, value] : reg1.counters) {
        traced_delta.counters[name] += value - reg0.counter_or(name);
      }
      for (const auto& [name, h] : reg1.histograms) {
        const auto it = reg0.histograms.find(name);
        traced_delta.histograms[name].sum += h.sum - (it == reg0.histograms.end() ? 0.0 : it->second.sum);
      }
      traced_jobs += jobs_per_batch;
      traced_frames_in += static_cast<double>(server1.frames_received - server0.frames_received);
      traced_frames_out += static_cast<double>(server1.frames_sent - server0.frames_sent);
      traced_retries += static_cast<double>(engine.task_retries);
      // Heavy jobs: the part of their server-side run window that none of
      // their own subsolve spans (grids of level >= 5) covers.
      const std::vector<obs::SpanRecord> spans = obs::tracer().snapshot();
      for (const JobRecord& r : records[kSmallTenants]) {
        if (!r.ok) continue;
        const double lo = r.submitted_at + r.queue_wait;
        const double hi = lo + r.run;
        std::vector<std::pair<double, double>> covered;
        for (const obs::SpanRecord& s : spans) {
          if (s.category != "transport" || grid_level_of(s.name) < 5) continue;
          if (s.end < lo || s.start > hi) continue;
          covered.emplace_back(std::max(s.start, lo), std::min(s.end, hi));
        }
        unaccounted.push_back(r.run - union_length(covered));
      }
    }
    // A traced run needs an untraced batch too, for obs.trace_overhead_s.
  } while (now_s() - loop_start < args.seconds || (args.trace && batches < 2));
  obs::tracer().disable();

  // setup_s is a median of several set-ups; runs that fit fewer batches set
  // up (and tear down) extra services until there are enough samples.
  while (setups.size() < kMinSetups) {
    Service extra = set_up(refs);
    setups.push_back(extra.setup_s);
    tear_down(extra);
  }

  if (!args.trace) {
    out.end_to_end = {
        {"solve_s", median(heavy_runs)},
        {"seq_solve_s", median(heavy_seq_walls)},
        {"solve_cpu_s", batch_cpu_total / static_cast<double>(std::max<std::size_t>(jobs_done, 1))},
        {"jobs_per_s", static_cast<double>(jobs_done) / batch_wall_total},
        {"small_job_p50_s", quantile(small_latencies, 0.5)},
        {"small_job_p90_s", quantile(small_latencies, 0.9)},
        {"heavy_job_p50_s", median(heavy_latencies)},
        {"setup_s", median(setups)},
        {"peak_rss_mb", static_cast<double>(first_batch_peak_kb) / 1024.0},
    };
    return out;
  }

  // Per-layer figures per job, from the traced batches' registry deltas.
  const double per_job = 1.0 / static_cast<double>(std::max<std::size_t>(traced_jobs, 1));
  const auto counter = [&](const char* name) {
    return static_cast<double>(traced_delta.counter_or(name)) * per_job;
  };
  const auto hist = [&](const char* name) { return hist_sum(traced_delta, name) * per_job; };
  double flops = 0.0;
  std::vector<double> small_combine;
  for (const auto& client : batch) {
    for (const JobPlan& plan : client) {
      const Reference& ref = refs.at({plan.spec.level, plan.spec.le_tol});
      flops += ref.factor.flops;
      if (!plan.heavy) small_combine.push_back(ref.solve.prolongation_seconds);
    }
  }
  const Reference& heavy_ref = refs.at({6, 1e-3});
  std::vector<double> critical;
  for (const obs::SpanRecord& s : obs::tracer().snapshot()) {
    if (s.category == "transport" && s.name == "G(2;6,0)") critical.push_back(s.duration());
  }
  const ProcPeaks peaks = sampler->peaks();
  out.per_layer = {
      {"transport.critical_grid_s", median(critical)},
      {"transport.subsolve_s", hist("transport.subsolve_seconds")},
      {"linalg.assemble_s", hist("linalg.stage_assemble_seconds")},
      {"linalg.factor_s", hist("linalg.stage_factor_seconds")},
      {"linalg.stage_solve_s", hist("linalg.stage_solve_seconds")},
      {"linalg.factor_flops", flops / static_cast<double>(jobs_per_batch)},
      {"linalg.band_bytes", heavy_ref.factor.band_bytes},
      {"linalg.stage_cache_hits", counter("linalg.stage_cache.hits")},
      {"linalg.stage_cache_refreshes", counter("linalg.stage_cache.refreshes")},
      {"linalg.bicgstab_iterations", counter("linalg.bicgstab_iterations")},
      {"rosenbrock.steps_accepted", counter("transport.steps_accepted")},
      {"rosenbrock.steps_rejected", counter("transport.steps_rejected")},
      {"grid.combine_s", median(small_combine)},
      {"core.coordination_s",
       median(heavy_runs) - median(critical) - heavy_ref.solve.prolongation_seconds},
      {"net.frames_in", traced_frames_in * per_job},
      {"net.frames_out", traced_frames_out * per_job},
      {"fault.retries", traced_retries * per_job},
      {"svc.queue_wait_p50_s", median(small_queue)},
      {"svc.run_p50_s", median(small_run)},
      {"svc.heavy_run_p50_s", median(heavy_runs)},
      {"svc.client_overhead_s", median(small_overhead)},
      {"svc.status_polls_per_job", polls_total / static_cast<double>(std::max<std::size_t>(jobs_done, 1))},
      {"svc.sched_pick_s", sched_pick_seconds(batch)},
      {"svc.retained_kb_per_job", median(retained_kb)},
      {"proc.threads_peak", static_cast<double>(peaks.threads)},
      {"proc.fds_peak", static_cast<double>(peaks.fds)},
      {"obs.unaccounted_s", median(unaccounted)},
      {"obs.trace_overhead_s", median(traced_heavy_runs) - median(untraced_heavy_runs)},
      {"host.probe_s", host.probe_s},
  };
  return out;
}

}  // namespace e2e
