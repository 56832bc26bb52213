// check-explore: closed loop, one client, front::run_check over the
// check menu with seeded engine / POR / store options.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <optional>

#include "analysis/disjoint.h"
#include "check/trace.h"
#include "dist/coordinator.h"
#include "front/front.h"
#include "menu.h"
#include "ptx/lower.h"
#include "ptx/parser.h"
#include "sched/state_store.h"
#include "sem/step.h"
#include "workloads.h"

namespace cacbench {

namespace {

enum class Engine { Serial, Parallel, Dist };
enum class Por { Off, On, Oracle };
enum class Store { Plain, Spill, Checkpoint };

const char* name_of(Engine e) {
  return e == Engine::Serial ? "serial"
         : e == Engine::Parallel ? "parallel" : "dist";
}

constexpr std::uint32_t kDistWorkers = 2;

struct Job {
  const CheckEntry* entry = nullptr;
  Engine engine = Engine::Serial;
  Por por = Por::Off;
  Store store = Store::Plain;
};

/// The job list: `rounds` rounds, each one every menu entry under every
/// engine x POR mode (a fixed multiset of jobs, so every run carries the
/// same mix whatever the seed), in a seeded order.  Store modes (plain /
/// spill / checkpoint) rotate over the POR modes from a seeded offset
/// that advances every round: each round gives every entry x engine
/// each store mode once, and every three rounds every job each store
/// mode once.
std::vector<Job> make_jobs(const std::vector<CheckEntry>& menu,
                           std::uint64_t seed, std::size_t rounds) {
  Rng rng(seed);
  const std::uint64_t os = rng.below(3);
  std::vector<Job> jobs;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<Job> round;
    for (std::size_t ei = 0; ei < menu.size(); ++ei) {
      for (int eng = 0; eng < 3; ++eng) {
        for (int por = 0; por < 3; ++por) {
          Job j;
          j.entry = &menu[ei];
          j.engine = static_cast<Engine>(eng);
          j.por = static_cast<Por>(por);
          j.store = static_cast<Store>((ei + eng + por + r + os) % 3);
          round.push_back(j);
        }
      }
    }
    rng.shuffle(round);
    jobs.insert(jobs.end(), round.begin(), round.end());
  }
  return jobs;
}

/// What the explorer hook saw: the engine's own statistics and the
/// first violation's schedule.
struct Capture {
  double explore_ms = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  sched::StateStore::Stats store;
  std::optional<dist::DistStats> dist;
  std::vector<sem::Choice> trace;
};

analysis::LaunchEnv launch_env(const ptx::Program& prg,
                               const sem::LaunchSpec& l) {
  analysis::LaunchEnv env;
  env.known = true;
  env.ntid[0] = l.block.x;
  env.ntid[1] = l.block.y;
  env.ntid[2] = l.block.z;
  env.nctaid[0] = l.grid.x;
  env.nctaid[1] = l.grid.y;
  env.nctaid[2] = l.grid.z;
  for (const auto& [name, value] : l.params) {
    for (const ptx::ParamSlot& slot : prg.params()) {
      if (slot.name != name) continue;
      const std::uint64_t mask =
          slot.type.width >= 64 ? ~0ull : (1ull << slot.type.width) - 1;
      env.params[slot.offset] = value & mask;
    }
  }
  return env;
}

class CheckExplore {
 public:
  CheckExplore(const Args& a, Report& rep, Tracer& tr)
      : a_(a), rep_(rep), tr_(tr), nproc_(static_cast<std::uint32_t>(
                                     sysconf(_SC_NPROCESSORS_ONLN))) {}

  /// Corpus load + job generation + one lowering of every menu entry
  /// (rejects a corpus the verifier cannot parse before timing starts).
  void setup(std::size_t rounds) {
    menu_ = check_menu(a_.root);
    jobs_ = make_jobs(menu_, a_.seed, rounds);
    for (const CheckEntry& e : menu_) (void)ptx::load_ptx(e.source);
  }

  /// Run one job through front::run_check; checks the verdict against
  /// the known answer and replays any counterexample.  Returns the
  /// verdict time in ms (the run_check call only).
  double run(const Job& j, std::uint64_t req, Capture& cap) {
    front::CheckRequest rq = make_check(*j.entry);
    rq.por_oracle = j.por == Por::Oracle;
    rq.explore.partial_order_reduction = j.por == Por::On;
    if (j.engine == Engine::Parallel) rq.explore.num_threads = nproc_;
    const std::string tag = std::to_string(req);
    if (j.store == Store::Spill) {
      rq.explore.store_spill_dir = a_.work_dir;
      rq.explore.store_resident_budget_bytes = 256 << 10;
    } else if (j.store == Store::Checkpoint && j.engine != Engine::Dist) {
      rq.explore.checkpoint_path = a_.work_dir + "/ckpt-" + tag;
      rq.explore.checkpoint_every_states = 4096;
    }
    if (tr_.on) probe_front_end(j, rq, req);
    // Serial jobs take the CPUs in turn (see CpuRotation); the parallel
    // and dist engines' threads and processes inherit every CPU.
    if (j.engine == Engine::Serial) {
      cpus_.pin(serial_jobs_++);
    } else {
      cpus_.unpin();
    }

    front::RunHooks hooks;
    hooks.explorer = [&](const ptx::Program& prg, const sem::KernelConfig& kc,
                         const sem::Machine& init,
                         const sched::ExploreOptions& eo) {
      const bool dist = j.engine == Engine::Dist;
      Scope s(tr_, dist ? "dist.explore" : "sched.explore", req);
      const std::uint64_t t0 = now_ns();
      sched::ExploreResult res;
      if (dist) {
        dist::DistOptions d;
        d.n_workers = kDistWorkers;
        dist::DistResult dr = dist::explore_distributed(prg, kc, init, eo, d);
        cap.dist = dr.stats;
        res = std::move(dr.result);
      } else {
        res = sched::explore(prg, kc, init, eo);
      }
      cap.explore_ms = static_cast<double>(now_ns() - t0) / 1e6;
      cap.states = res.states_visited;
      cap.transitions = res.transitions;
      cap.store = res.store_stats;
      if (!res.violations.empty()) cap.trace = res.violations.front().trace;
      return res;
    };

    front::Result r;
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tr_, "front.run_check", req);
      r = front::run_check(rq, hooks);
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (!rq.explore.checkpoint_path.empty()) {
      std::filesystem::remove(rq.explore.checkpoint_path);
    }
    verify(j, rq, r, cap, req);
    if (tr_.on) overhead_ms_.push_back(ms - cap.explore_ms);
    return ms;
  }

  /// The untraced run: the end-to-end metrics.
  void measure() {
    setup(kRounds);
    std::map<std::string, std::vector<double>> by_engine;  // engine/store
    closed_loop(
        a_, rep_,
        [&] {
          cpus_.pin(serial_jobs_++);
          setup(kRounds);
        },
        jobs_.size(), 9 * menu_.size(),
        [&](std::size_t k, std::uint64_t& states) {
          Capture cap;
          const double ms = run(jobs_[k], k, cap);
          states += cap.states;
          static const char* const kStores[] = {"plain", "spill", "checkpoint"};
          by_engine[std::string(name_of(jobs_[k].engine)) + "/" +
                    kStores[static_cast<int>(jobs_[k].store)]]
              .push_back(ms);
          return ms;
        },
        "check-explore");
    for (const auto& [engine, ms] : by_engine) {
      double sum = 0;
      for (const double m : ms) sum += m;
      std::fprintf(stderr,
                   "check-explore %s: %zu jobs, p50 %.2f p90 %.2f ms, %.0f ms "
                   "in all\n",
                   engine.c_str(), ms.size(), pct(ms, 0.5), pct(ms, 0.9), sum);
    }
  }

  /// The traced run: per-layer metrics (see README.md, "Traced run").
  void traced() {
    setup(kRounds);
    // Every job runs twice, untraced and traced (with layer probes and
    // spans), in alternating order so neither side gets the warm caches.
    const std::uint64_t budget = static_cast<std::uint64_t>(a_.seconds * 0.6e9);
    const std::uint64_t t0 = now_ns();
    double untraced_ms = 0;
    for (std::size_t k = 0; k < jobs_.size() &&
                            (k < menu_.size() || now_ns() - t0 < budget);
         ++k) {
      auto plain = [&] {
        Capture cap;
        rep_.attempt();
        tr_.on = false;
        untraced_ms += run(jobs_[k], k, cap);
      };
      auto traced = [&] {
        Capture cap;
        rep_.attempt();
        tr_.on = true;
        {
          Scope s(tr_, "bench.job", k);
          run(jobs_[k], k, cap);
        }
        account(cap);
      };
      if (k % 2 == 0) {
        plain();
        traced();
      } else {
        traced();
        plain();
      }
    }
    tr_.on = true;
    const double traced_ms = sum(tr_.durations("front.run_check")) / 1e6;
    const std::size_t n = jobs_.size();
    walks(n);
    scaling(n + menu_.size());
    report_layers(untraced_ms, traced_ms);
  }

 private:
  static constexpr std::size_t kRounds = 30;

  static double sum(const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return s;
  }

  /// Traced-only probes: the parse / lower / oracle calls run_check
  /// makes internally, made again from here on the same input so each
  /// layer's cost shows under its own name.
  void probe_front_end(const Job& j, const front::CheckRequest& rq,
                       std::uint64_t req) {
    ptx::AstModule ast;
    {
      Scope s(tr_, "ptx.parse", req);
      ast = ptx::parse_module(rq.source);
    }
    ptx::LoweredModule mod;
    {
      Scope s(tr_, "ptx.lower", req);
      mod = ptx::lower(ast);
    }
    ptx_calls_ += 2;
    if (j.por == Por::Oracle) {
      const ptx::Program& prg = mod.kernels.front();
      const analysis::LaunchEnv env = launch_env(prg, rq.launch);
      Scope s(tr_, "analysis.oracle", req);
      oracle_pcs_ += analysis::independent_access_pcs(prg, env).size();
    }
  }

  void verify(const Job& j, const front::CheckRequest& rq,
              const front::Result& r, const Capture& cap, std::uint64_t req) {
    const CheckEntry& e = *j.entry;
    const std::string who = e.name + " [" + name_of(j.engine) + "]";
    if (r.verdict != e.verdict) {
      rep_.fail(who + ": verdict " + r.verdict + ", expected " + e.verdict +
                " (" + r.detail + ")");
      return;
    }
    if (cap.states == 0) rep_.fail(who + ": explorer hook never ran");
    if (e.verdict != "refuted") return;
    if (tr_.on) ++refutations_;
    if (e.violation.empty()) return;
    if (r.findings.empty() || r.findings.front().pass != e.violation ||
        cap.trace.empty()) {
      rep_.fail(who + ": expected a " + e.violation + " counterexample");
      return;
    }
    // The refutation's schedule must replay through the trusted kernel.
    const ptx::LoweredModule mod = ptx::load_ptx(rq.source);
    const ptx::Program& prg = mod.kernels.front();
    const sem::Launch launch = rq.launch.to_launch(prg, mod.shared_bytes);
    check::ReplayResult rr;
    {
      Scope s(tr_, "check.replay", req);
      rr = check::replay(prg, launch.config(), launch.machine(), cap.trace);
    }
    const bool reached =
        e.violation == "stuck" ? rr.final_stuck : rr.faulted;
    if (!rr.valid || !reached) {
      rep_.fail(who + ": counterexample does not replay: " + rr.error);
    }
  }

  void account(const Capture& cap) {
    states_ += cap.states;
    transitions_ += cap.transitions;
    if (cap.dist) {
      dist_msgs_ += cap.dist->frontier_msgs;
      for (const auto& w : cap.dist->workers) dist_bytes_ += w.bytes_sent;
      dist_skew_.push_back(cap.dist->skew());
    } else if (cap.store.states != 0) {
      store_resident_ += cap.store.resident_bytes;
      store_states_ += cap.store.states;
      dedup_ratio_.push_back(cap.store.dedup_ratio());
      if (cap.store.bloom_negatives + cap.store.bloom_false_positives != 0) {
        bloom_hit_.push_back(cap.store.bloom_hit_rate());
      }
    }
  }

  /// The outside walk: every proved menu entry is explored once by the
  /// serial engine without POR, then walked again from here over the
  /// public sem / StateStore calls, each call timed.  The walk's
  /// distinct-state count must equal the engine's states_visited.
  void walks(std::size_t req0) {
    std::size_t req = req0;
    for (const CheckEntry& e : menu_) {
      if (e.verdict != "proved") continue;
      Job j;
      j.entry = &e;
      Capture cap;
      rep_.attempt();
      {
        Scope s(tr_, "bench.job", req);
        run(j, req, cap);
      }
      account(cap);
      const front::CheckRequest rq = make_check(e);
      const ptx::LoweredModule mod = ptx::load_ptx(rq.source);
      const ptx::Program& prg = mod.kernels.front();
      const sem::Launch launch = rq.launch.to_launch(prg, mod.shared_bytes);
      std::uint64_t walked;
      {
        Scope s(tr_, "bench.walk", req);
        walked = walk(prg, launch.config(), launch.machine());
      }
      ++walk_jobs_;
      walk_states_ += walked;
      if (walked != cap.states) {
        rep_.fail(e.name + ": outside walk found " + std::to_string(walked) +
                  " states, the explorer " + std::to_string(cap.states));
      }
      ++req;
    }
  }

  std::uint64_t walk(const ptx::Program& prg, const sem::KernelConfig& kc,
                     const sem::Machine& init) {
    sched::StateStore store;
    std::vector<sched::StateId> stack;
    auto timed = [&](const char* name, auto&& fn) {
      const std::uint64_t t0 = now_ns();
      fn();
      tr_.leaf(name, now_ns() - t0);
    };
    timed("sched.store.intern", [&] { stack.push_back(store.intern(init).id); });
    while (!stack.empty()) {
      const sched::StateId id = stack.back();
      stack.pop_back();
      sem::Machine m;
      timed("sched.store.materialize", [&] { m = store.materialize(id); });
      if (sem::terminated(prg, m.grid)) continue;
      std::vector<sem::Choice> choices;
      timed("sem.eligible", [&] { choices = sem::eligible_choices(prg, m.grid); });
      for (const sem::Choice& c : choices) {
        sem::Machine child;
        timed("sched.copy", [&] { child = m; });
        sem::StepResult sr;
        timed("sem.apply", [&] { sr = sem::apply_choice(prg, kc, child, c); });
        ++sem_steps_;
        if (!sr.ok()) continue;
        timed("sched.store.hash", [&] {
          child.invalidate_hash();
          (void)child.hash();
        });
        sched::StateStore::InternResult ir;
        timed("sched.store.intern",
              [&] { ir = store.intern(child, ~0ull, id); });
        ++interns_;
        if (ir.inserted) {
          stack.push_back(ir.id);
        } else {
          ++intern_hits_;
        }
      }
    }
    return store.size();
  }

  /// ROADMAP item 2's scaling numbers: one fixed job, larger than any
  /// menu entry, on all three engines, POR off.  A measurement only.
  void scaling(std::size_t req) {
    const CheckEntry scale = scaling_entry(a_.root);
    const CheckEntry* big = &scale;
    double ms[3] = {0, 0, 0};
    std::uint64_t states = 0;
    for (const Engine eng : {Engine::Serial, Engine::Parallel, Engine::Dist}) {
      Job j;
      j.entry = big;
      j.engine = eng;
      Capture cap;
      rep_.attempt();
      {
        Scope s(tr_, "bench.scaling", req);
        run(j, req, cap);
      }
      ms[static_cast<int>(eng)] = cap.explore_ms;
      states = cap.states;
      ++req;
    }
    scale_ms_[0] = ms[0];
    scale_ms_[1] = ms[1];
    scale_ms_[2] = ms[2];
    scale_states_ = states;
    std::fprintf(stderr,
                 "scaling base: job %s, serial %.1f ms, parallel(%u threads) "
                 "%.1f ms, dist(%u workers) %.1f ms, %llu states\n",
                 big->name.c_str(), ms[0], nproc_, ms[1], kDistWorkers, ms[2],
                 static_cast<unsigned long long>(states));
  }

  void report_layers(double untraced_ms, double traced_ms) {
    auto p50 = [&](const std::string& span, double div) {
      return pct(tr_.durations(span), 0.5) / div;
    };
    auto leaf50 = [&](const char* name) {
      const Tracer::Leaf* l = tr_.leaf_stats(name);
      return l == nullptr ? 0.0 : pct(l->sample_ns, 0.5);
    };
    auto leaf_ms = [&](const char* name) {
      const Tracer::Leaf* l = tr_.leaf_stats(name);
      return l == nullptr ? 0.0 : static_cast<double>(l->total_ns) / 1e6;
    };
    rep_.metric("ptx.parse_us_p50", p50("ptx.parse", 1e3), "us");
    rep_.metric("ptx.lower_us_p50", p50("ptx.lower", 1e3), "us");
    rep_.metric("ptx.calls", static_cast<double>(ptx_calls_), "count");
    rep_.metric("analysis.oracle_us_p50", p50("analysis.oracle", 1e3), "us");
    rep_.metric("analysis.oracle_pcs", static_cast<double>(oracle_pcs_), "count");

    const double walk_ms = sum(tr_.durations("bench.walk")) / 1e6;
    const double sem_ms = leaf_ms("sem.eligible") + leaf_ms("sem.apply");
    const double store_ms = leaf_ms("sched.store.intern") +
                            leaf_ms("sched.store.materialize") +
                            leaf_ms("sched.store.hash");
    rep_.metric("sem.eligible_ns_p50", leaf50("sem.eligible"), "ns");
    rep_.metric("sem.apply_ns_p50", leaf50("sem.apply"), "ns");
    rep_.metric("sem.steps", static_cast<double>(sem_steps_), "count");
    rep_.metric("sem.busy_share", walk_ms > 0 ? sem_ms / walk_ms : 0, "ratio");

    rep_.metric("sched.explore_ms_p50", p50("sched.explore", 1e6), "ms");
    rep_.metric("sched.states", static_cast<double>(states_), "count");
    rep_.metric("sched.transitions", static_cast<double>(transitions_), "count");
    const double st = static_cast<double>(scale_states_);
    rep_.metric("sched.serial.states_per_s", st / scale_ms_[0] * 1e3, "1/s");
    rep_.metric("sched.parallel.states_per_s", st / scale_ms_[1] * 1e3, "1/s");
    rep_.metric("sched.parallel.speedup", scale_ms_[0] / scale_ms_[1], "x");
    rep_.metric("sched.parallel.threads", nproc_, "count");
    rep_.metric("sched.scaling.serial_ms", scale_ms_[0], "ms");

    rep_.metric("sched.store.intern_ns_p50", leaf50("sched.store.intern"), "ns");
    rep_.metric("sched.store.materialize_ns_p50",
                leaf50("sched.store.materialize"), "ns");
    rep_.metric("sched.store.hash_ns_p50", leaf50("sched.store.hash"), "ns");
    rep_.metric("sched.store.dedup_hit_ratio",
                interns_ == 0 ? 0
                              : static_cast<double>(intern_hits_) /
                                    static_cast<double>(interns_),
                "ratio");
    rep_.metric("sched.store.resident_bytes_per_state",
                store_states_ == 0 ? 0
                                   : static_cast<double>(store_resident_) /
                                         static_cast<double>(store_states_),
                "B");
    rep_.metric("sched.store.dedup_ratio", median(dedup_ratio_), "x");
    rep_.metric("sched.store.bloom_hit_rate", median(bloom_hit_), "ratio");
    rep_.metric("sched.store.busy_share", walk_ms > 0 ? store_ms / walk_ms : 0,
                "ratio");
    rep_.metric("walk.jobs", static_cast<double>(walk_jobs_), "count");
    rep_.metric("walk.states", static_cast<double>(walk_states_), "count");

    rep_.metric("check.overhead_ms_p50", pct(overhead_ms_, 0.5), "ms");
    rep_.metric("check.replay_us_p50", p50("check.replay", 1e3), "us");
    rep_.metric("check.refutations", static_cast<double>(refutations_), "count");

    rep_.metric("dist.explore_ms_p50", p50("dist.explore", 1e6), "ms");
    rep_.metric("dist.speedup", scale_ms_[0] / scale_ms_[2], "x");
    rep_.metric("dist.workers", kDistWorkers, "count");
    rep_.metric("dist.frontier_msgs", static_cast<double>(dist_msgs_), "count");
    rep_.metric("dist.bytes_sent", static_cast<double>(dist_bytes_), "B");
    rep_.metric("dist.skew", median(dist_skew_), "x");
    report_self_times(rep_, tr_, untraced_ms, traced_ms);
  }

  const Args& a_;
  Report& rep_;
  Tracer& tr_;
  const std::uint32_t nproc_;
  const CpuRotation cpus_;
  std::size_t serial_jobs_ = 0;
  std::vector<CheckEntry> menu_;
  std::vector<Job> jobs_;

  // traced-run accounting
  std::vector<double> overhead_ms_;
  std::uint64_t ptx_calls_ = 0, oracle_pcs_ = 0;
  std::uint64_t states_ = 0, transitions_ = 0, refutations_ = 0;
  std::uint64_t dist_msgs_ = 0, dist_bytes_ = 0;
  std::vector<double> dist_skew_, dedup_ratio_, bloom_hit_;
  std::uint64_t store_resident_ = 0, store_states_ = 0;
  std::uint64_t sem_steps_ = 0, interns_ = 0, intern_hits_ = 0;
  std::uint64_t walk_jobs_ = 0, walk_states_ = 0;
  double scale_ms_[3] = {0, 0, 0};
  std::uint64_t scale_states_ = 0;
};

}  // namespace

void run_check_explore(const Args& a, Report& rep, Tracer& tr) {
  CheckExplore w(a, rep, tr);
  if (tr.on) {
    w.traced();
  } else {
    w.measure();
  }
}

}  // namespace cacbench
