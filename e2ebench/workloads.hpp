// The benchmark's workloads.  Each runs whole rounds of its operations until
// `args.seconds` have passed, checks every output, and fills both metric
// families (README "Metrics" defines every name).
#pragma once

#include "bench_support.hpp"

namespace e2e {

/// solve-l6 (tcp = false) and solve-l6-tcp (tcp = true): closed-loop pairs of
/// one solve_sequential and one solve_concurrent of the level-6 problem.
Outcome run_solve_workload(const Args& args, const Host& host, bool tcp);

/// svc-mix: seeded batches of small and heavy jobs sent to a JobServer by
/// four closed-loop JobClient connections.
Outcome run_svc_workload(const Args& args, const Host& host);

}  // namespace e2e
