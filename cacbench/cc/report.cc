// Reporting shared by the workloads: the closed-loop measurement, the
// per-layer metric set, and the traced run's self-time accounting.
#include <cstdio>
#include <exception>
#include <string>
#include <utility>

#include "workloads.h"

namespace cacbench {

namespace {

/// setup_s is the median of this many set-ups.
constexpr int kSetups = 25;

/// Every per-layer metric, with its unit (BENCHMARK.json's per_layer).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"ptx.parse_us_p50", "us"},
    {"ptx.lower_us_p50", "us"},
    {"ptx.calls", "count"},
    {"analysis.lint_us_p50", "us"},
    {"analysis.perf_us_p50", "us"},
    {"analysis.oracle_us_p50", "us"},
    {"analysis.findings", "count"},
    {"analysis.oracle_pcs", "count"},
    {"sem.eligible_ns_p50", "ns"},
    {"sem.apply_ns_p50", "ns"},
    {"sem.steps", "count"},
    {"sem.busy_share", "ratio"},
    {"sched.explore_ms_p50", "ms"},
    {"sched.states", "count"},
    {"sched.transitions", "count"},
    {"sched.serial.states_per_s", "1/s"},
    {"sched.parallel.states_per_s", "1/s"},
    {"sched.parallel.speedup", "x"},
    {"sched.parallel.threads", "count"},
    {"sched.scaling.serial_ms", "ms"},
    {"sched.store.intern_ns_p50", "ns"},
    {"sched.store.materialize_ns_p50", "ns"},
    {"sched.store.hash_ns_p50", "ns"},
    {"sched.store.dedup_hit_ratio", "ratio"},
    {"sched.store.resident_bytes_per_state", "B"},
    {"sched.store.dedup_ratio", "x"},
    {"sched.store.bloom_hit_rate", "ratio"},
    {"sched.store.busy_share", "ratio"},
    {"walk.jobs", "count"},
    {"walk.states", "count"},
    {"check.overhead_ms_p50", "ms"},
    {"check.replay_us_p50", "us"},
    {"check.refutations", "count"},
    {"dist.explore_ms_p50", "ms"},
    {"dist.speedup", "x"},
    {"dist.workers", "count"},
    {"dist.frontier_msgs", "count"},
    {"dist.bytes_sent", "B"},
    {"dist.skew", "x"},
    {"sym.exec_us_p50", "us"},
    {"sym.paths", "count"},
    {"equiv.run_ms_p50", "ms"},
    {"equiv.rewrites", "count"},
    {"equiv.cex_trials", "count"},
    {"equiv.cex_replay_ms_p50", "ms"},
    {"front.cache_key_us_p50", "us"},
    {"front.to_json_us_p50", "us"},
    {"front.cache.get_us_p50", "us"},
    {"front.cache.put_us_p50", "us"},
    {"front.serve.roundtrip_us_p50", "us"},
    {"front.serve.server_us_p50", "us"},
    {"front.serve.overhead_us_p50", "us"},
    {"front.serve.cold_ms_p50", "ms"},
    {"front.serve.cache_hit_ratio", "ratio"},
    {"front.serve.jobs_run", "count"},
    {"front.serve.jobs_deduped", "count"},
    {"front.serve.shed", "count"},
    {"loadgen.late_ms_p90", "ms"},
    {"self.ptx_ms", "ms"},
    {"self.analysis_ms", "ms"},
    {"self.sem_ms", "ms"},
    {"self.sched_ms", "ms"},
    {"self.sched.store_ms", "ms"},
    {"self.check_ms", "ms"},
    {"self.dist_ms", "ms"},
    {"self.sym_ms", "ms"},
    {"self.equiv_ms", "ms"},
    {"self.front_ms", "ms"},
    {"self.loadgen_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"trace.wall_ms", "ms"},
    {"trace.accounted_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.span_ns", "ns"},
    {"trace.spans", "count"},
};

}  // namespace

void fill_unreached_layers(Report& rep) {
  for (const auto& [name, unit] : kLayerMetrics) {
    if (!rep.has(name)) rep.metric(name, 0, unit);
  }
}

void report_self_times(Report& rep, const Tracer& tr, double untraced_ms,
                       double traced_ms) {
  const double wall = tr.root_ms();
  double accounted = 0;
  for (const auto& [layer, ms] : tr.self_ms_by_layer()) {
    const std::string name = "self." + layer + "_ms";
    rep.metric(name, ms, "ms");
    accounted += ms;
  }
  rep.metric("trace.wall_ms", wall, "ms");
  rep.metric("trace.accounted_share", wall > 0 ? accounted / wall : 0,
             "ratio");
  rep.metric("trace.overhead_share",
             untraced_ms > 0 ? (traced_ms - untraced_ms) / untraced_ms : 0,
             "ratio");
  // The tracer's own cost: one span opened and closed, on a scratch
  // tracer, times the spans this run recorded.
  Tracer probe;
  probe.on = true;
  constexpr int kProbeSpans = 20000;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kProbeSpans; ++i) Scope s(probe, "bench.probe", 0);
  const double span_ns = static_cast<double>(now_ns() - t0) / kProbeSpans;
  rep.metric("trace.span_ns", span_ns, "ns");
  rep.metric("trace.spans", static_cast<double>(tr.span_count()), "count");
  std::fprintf(stderr,
               "trace: %.1f ms wall in root spans, %.1f ms in layer self "
               "times; verifier calls %.1f ms traced vs %.1f ms untraced\n",
               wall, accounted, traced_ms, untraced_ms);
}

void closed_loop(const Args& a, Report& rep,
                 const std::function<void()>& setup, std::size_t n_jobs,
                 std::size_t round, const JobFn& run, const char* what) {
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline =
      t0 + static_cast<std::uint64_t>(a.seconds * 1e9);
  std::vector<double> ms;
  std::uint64_t states = 0;
  // Peak RSS of each round: the parallel engine's peak varies with its
  // threads' interleaving, so one round's spike should not set the run's
  // figure.  Without a resettable watermark it is the whole run's peak.
  std::vector<double> round_peak_mb;
  const bool per_round = reset_peak_rss();
  for (std::size_t k = 0; k < n_jobs; ++k) {
    rep.attempt();
    try {
      ms.push_back(run(k, states));
    } catch (const std::exception& e) {
      rep.fail(std::string(what) + " job " + std::to_string(k) + ": " +
               e.what());
    }
    if ((k + 1) % round == 0) {
      round_peak_mb.push_back(peak_rss_mb());
      // Whole rounds only, so every run carries the same menu mix.
      if (now_ns() >= deadline) break;
      if (per_round) reset_peak_rss();
    }
  }
  const double peak_mb = per_round ? median(round_peak_mb) : peak_rss_mb();
  const double wall = static_cast<double>(now_ns() - t0) / 1e9;
  const double cpu_ms = (cpu_seconds() - cpu0) * 1e3;  // before the set-ups
  const auto jobs = static_cast<double>(ms.size());
  // Set-up is timed after the jobs, on a warm CPU like them: timed at
  // process start it swung by 2x from run to run.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t s0 = now_ns();
    setup();
    setups.push_back(static_cast<double>(now_ns() - s0) / 1e9);
  }
  rep.metric("setup_s", median(setups), "s");
  rep.metric("verdict_ms_p50", pct(ms, 0.5), "ms");
  rep.metric("verdict_ms_p90", pct(ms, 0.9), "ms");
  rep.metric("jobs_per_s", jobs / wall, "1/s");
  rep.metric("states_per_s", static_cast<double>(states) / wall, "1/s");
  rep.metric("cpu_ms_per_job", cpu_ms / jobs, "ms");
  rep.metric("peak_rss_mb", peak_mb, "MiB");
  rep.metric("ok_ratio",
             static_cast<double>(rep.attempted() - rep.failed()) /
                 static_cast<double>(rep.attempted()),
             "ratio");
  // One closed-loop client: the rate it is served at is its capacity.
  rep.metric("max_rate_rps", jobs / wall, "1/s");
  std::fprintf(stderr, "%s: %zu verdicts (p90 over %zu samples) in %.2f s\n",
               what, ms.size(), ms.size(), wall);
}

}  // namespace cacbench
