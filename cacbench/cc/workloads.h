// The three workloads (README.md describes each one's menu, mix, and
// which layers it exercises or bypasses).  Each fills `rep` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run, `tr.on`).
#pragma once

#include <functional>
#include <vector>

#include "bench.h"

namespace cacbench {

void run_check_explore(const Args& a, Report& rep, Tracer& tr);
void run_static_batch(const Args& a, Report& rep, Tracer& tr);
void run_serve_mix(const Args& a, Report& rep, Tracer& tr);

/// One closed-loop job: run job `k`, add the distinct states it
/// explored to `states`, return its time to verdict in ms.
using JobFn = std::function<double(std::size_t k, std::uint64_t& states)>;

/// The closed-loop measurement shared by check-explore and static-batch:
/// one client runs jobs [0, n_jobs) in order, in whole rounds of `round`
/// jobs, until --seconds have passed, then reports every end-to-end
/// metric; setup_s is the median of 25 further calls of `setup`.
void closed_loop(const Args& a, Report& rep,
                 const std::function<void()>& setup, std::size_t n_jobs,
                 std::size_t round, const JobFn& run, const char* what);

/// Report every per-layer metric this workload does not reach as 0, so
/// each traced run names the full per-layer set (a 0 reads "bypassed").
void fill_unreached_layers(Report& rep);
/// Per-layer self times and tracing accounting, from the span tree.
void report_self_times(Report& rep, const Tracer& tr, double untraced_ms,
                       double traced_ms);

}  // namespace cacbench
