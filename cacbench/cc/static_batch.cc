// static-batch: closed loop, one client, front::run_lint (races + perf)
// over every PTX file of the corpus interleaved with front::run_equiv
// over the equivalence pairs and self-pairs.
#include <filesystem>
#include <optional>
#include <set>

#include "analysis/lint.h"
#include "analysis/perf.h"
#include "check/trace.h"
#include "equiv/check.h"
#include "front/front.h"
#include "menu.h"
#include "ptx/lower.h"
#include "ptx/parser.h"
#include "sem/step.h"
#include "sym/exec.h"
#include "workloads.h"

namespace cacbench {

namespace {

/// One explorer call made by the equivalence checker's counterexample
/// search (a concrete replay of one kernel under one valuation).
struct ExploreCall {
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;
};

/// Drive `init` to termination along the first eligible choice at each
/// step, then replay that schedule through check::replay (the trusted
/// kernel) and return the Global word at `addr` of its final state.
std::optional<std::uint32_t> replayed_word(const ExploreCall& c,
                                           std::uint64_t addr) {
  std::vector<sem::Choice> schedule;
  sem::Machine m = c.init;
  while (!sem::terminated(c.prg, m.grid)) {
    const std::vector<sem::Choice> ch = sem::eligible_choices(c.prg, m.grid);
    if (ch.empty() || schedule.size() > (1u << 20)) return std::nullopt;
    if (!sem::apply_choice(c.prg, c.kc, m, ch.front()).ok()) {
      return std::nullopt;
    }
    schedule.push_back(ch.front());
  }
  const check::ReplayResult rr = check::replay(c.prg, c.kc, c.init, schedule);
  if (!rr.valid || !rr.final_terminated) return std::nullopt;
  return static_cast<std::uint32_t>(
      rr.final.memory.load(mem::Space::Global, addr, 4));
}

class StaticBatch {
 public:
  StaticBatch(const Args& a, Report& rep, Tracer& tr)
      : a_(a), rep_(rep), tr_(tr) {}

  /// Corpus load + job generation.  Every PTX file of examples/ and
  /// tests/data/ must have a known answer in the lint menu.
  void setup(std::size_t rounds) {
    lint_ = lint_menu(a_.root);
    equiv_ = equiv_menu(a_.root);
    std::set<std::string> known;
    for (const LintEntry& e : lint_) known.insert(e.name);
    for (const char* dir : {"examples", "tests/data"}) {
      for (const std::string& f : ptx_files(a_.root + "/" + dir)) {
        const std::string rel =
            std::filesystem::relative(f, a_.root).string();
        if (known.count(rel) == 0) {
          throw std::runtime_error("no known lint answer for " + rel);
        }
      }
    }
    Rng rng(a_.seed);
    jobs_.clear();
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<int> round;
      for (std::size_t i = 0; i < lint_.size(); ++i) {
        round.push_back(static_cast<int>(i));
      }
      for (std::size_t i = 0; i < equiv_.size(); ++i) {
        round.push_back(-1 - static_cast<int>(i));
      }
      rng.shuffle(round);
      jobs_.insert(jobs_.end(), round.begin(), round.end());
    }
  }

  [[nodiscard]] std::size_t round() const {
    return lint_.size() + equiv_.size();
  }

  /// Run job `k`; returns its time to verdict in ms.
  double run(std::size_t k, std::uint64_t& states) {
    const int j = jobs_[k];
    return j >= 0 ? run_lint(lint_[static_cast<std::size_t>(j)], k)
                  : run_equiv(equiv_[static_cast<std::size_t>(-1 - j)], k,
                              states);
  }

  void measure() {
    setup(kRounds);
    const CpuRotation cpus;
    std::size_t setups = 0;
    closed_loop(
        a_, rep_,
        [&] {
          cpus.pin(setups++);
          setup(kRounds);
        },
        jobs_.size(), round(),
        [&](std::size_t k, std::uint64_t& states) {
          if (k % round() == 0) cpus.pin(k / round());  // a CPU per round
          return run(k, states);
        },
        "static-batch");
  }

  void traced() {
    setup(kRounds);
    // Every job runs twice, untraced and traced (with layer probes and
    // spans), in alternating order so neither side gets the warm caches.
    const std::uint64_t budget =
        static_cast<std::uint64_t>(a_.seconds * 0.6e9);
    const std::uint64_t t0 = now_ns();
    std::uint64_t states = 0, untraced_states = 0;
    double untraced_ms = 0;
    for (std::size_t k = 0;
         k < jobs_.size() && (k < round() || now_ns() - t0 < budget); ++k) {
      auto plain = [&] {
        rep_.attempt();
        tr_.on = false;
        untraced_ms += run(k, untraced_states);
      };
      auto traced = [&] {
        rep_.attempt();
        tr_.on = true;
        Scope s(tr_, "bench.job", k);
        run(k, states);
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
    const double traced_ms = sum_ms("front.run_lint") + sum_ms("front.run_equiv");
    auto p50 = [&](const std::string& span, double div) {
      return pct(tr_.durations(span), 0.5) / div;
    };
    rep_.metric("ptx.parse_us_p50", p50("ptx.parse", 1e3), "us");
    rep_.metric("ptx.lower_us_p50", p50("ptx.lower", 1e3), "us");
    rep_.metric("ptx.calls", static_cast<double>(ptx_calls_), "count");
    rep_.metric("analysis.lint_us_p50", p50("analysis.lint", 1e3), "us");
    rep_.metric("analysis.perf_us_p50", p50("analysis.perf", 1e3), "us");
    rep_.metric("analysis.findings", static_cast<double>(findings_), "count");
    rep_.metric("sym.exec_us_p50", p50("sym.exec", 1e3), "us");
    rep_.metric("sym.paths", static_cast<double>(sym_paths_), "count");
    rep_.metric("equiv.run_ms_p50", p50("equiv.run", 1e6), "ms");
    rep_.metric("equiv.rewrites", static_cast<double>(rewrites_), "count");
    rep_.metric("equiv.cex_trials", static_cast<double>(cex_trials_), "count");
    rep_.metric("equiv.cex_replay_ms_p50", p50("equiv.cex_replay", 1e6), "ms");
    rep_.metric("sched.states", static_cast<double>(states), "count");
    rep_.metric("check.replay_us_p50", p50("check.replay", 1e3), "us");
    rep_.metric("check.refutations", static_cast<double>(refutations_),
                "count");
    rep_.metric("front.to_json_us_p50", p50("front.to_json", 1e3), "us");
    report_self_times(rep_, tr_, untraced_ms, traced_ms);
  }

 private:
  static constexpr std::size_t kRounds = 8000;

  double sum_ms(const std::string& span) const {
    double ns = 0;
    for (const double d : tr_.durations(span)) ns += d;
    return ns / 1e6;
  }

  /// Traced-only probe: parse + lower from here, as the runner does.
  ptx::LoweredModule probe_lower(const std::string& source, std::uint64_t req) {
    ptx::AstModule ast;
    {
      Scope s(tr_, "ptx.parse", req);
      ast = ptx::parse_module(source);
    }
    ptx_calls_ += 2;
    Scope s(tr_, "ptx.lower", req);
    return ptx::lower(ast);
  }

  double run_lint(const LintEntry& e, std::uint64_t req) {
    const front::LintRequest rq = make_lint(e);
    if (tr_.on) {
      const ptx::LoweredModule mod = probe_lower(rq.source, req);
      for (const ptx::Program& k : mod.kernels) {
        analysis::LintOptions lo;
        lo.shared_bytes = mod.shared_bytes;
        {
          Scope s(tr_, "analysis.lint", req);
          (void)analysis::lint_kernel(k, mod.locs_for(k), lo);
        }
        Scope s(tr_, "analysis.perf", req);
        (void)analysis::analyze_perf(k, mod.locs_for(k));
      }
    }
    std::vector<front::Result> rs;
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tr_, "front.run_lint", req);
      rs = front::run_lint(rq);
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (tr_.on) {
      Scope s(tr_, "front.to_json", req);
      (void)front::to_json(rs);
      for (const front::Result& r : rs) findings_ += r.findings.size();
    }
    const std::string bad = lint_mismatch(e, rs);
    if (!bad.empty()) rep_.fail("lint " + e.name + ": " + bad);
    return ms;
  }

  double run_equiv(const EquivEntry& e, std::uint64_t req,
                   std::uint64_t& states) {
    const front::EquivRequest rq = make_equiv(e);
    std::vector<ExploreCall> calls;
    const check::ModelCheckOptions::explorer_type explorer =
        [&](const ptx::Program& prg, const sem::KernelConfig& kc,
            const sem::Machine& init, const sched::ExploreOptions& eo) {
          Scope s(tr_, "equiv.cex_replay", req);
          sched::ExploreResult res = sched::explore(prg, kc, init, eo);
          states += res.states_visited;
          calls.push_back({prg, kc, init});
          return res;
        };
    if (tr_.on) probe_equiv(rq, explorer, req);
    calls.clear();
    front::RunHooks hooks;
    hooks.explorer = explorer;
    front::Result r;
    const std::uint64_t t0 = now_ns();
    {
      Scope s(tr_, "front.run_equiv", req);
      r = front::run_equiv(rq, hooks);
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (tr_.on) {
      Scope s(tr_, "front.to_json", req);
      (void)front::to_json(r);
      rewrites_ += r.stats.rewrites;
      cex_trials_ += r.stats.cex_trials;
    }
    if (r.verdict != e.verdict) {
      rep_.fail("equiv " + e.name + ": " + r.verdict + ", expected " +
                e.verdict + " (" + r.detail + ")");
    } else if (e.verdict == "not-equivalent") {
      verify_cex(e, r, calls, req);
    }
    return ms;
  }

  /// The refutation's counterexample, re-checked outside the tool: the
  /// last two explorer calls ran kernels A and B under the reported
  /// valuation; one concrete schedule of each, replayed through
  /// check::replay, must store value_a and value_b at the address.
  void verify_cex(const EquivEntry& e, const front::Result& r,
                  const std::vector<ExploreCall>& calls, std::uint64_t req) {
    if (tr_.on) ++refutations_;
    const front::EquivCex& cex = r.equiv_cex;
    if (!cex.present || !cex.replay_validated || calls.size() < 2) {
      rep_.fail("equiv " + e.name + ": refutation without a validated cex");
      return;
    }
    Scope s(tr_, "check.replay", req);
    const auto va = replayed_word(calls[calls.size() - 2], cex.addr);
    const auto vb = replayed_word(calls.back(), cex.addr);
    if (!va || !vb || *va != cex.value_a || *vb != cex.value_b) {
      rep_.fail("equiv " + e.name + ": counterexample does not replay");
    }
  }

  /// Traced-only probes for an equiv job: parse/lower both modules, run
  /// the symbolic engine per thread of kernel A, and the equivalence
  /// checker itself, each from here and under its own span.
  void probe_equiv(const front::EquivRequest& rq,
                   const check::ModelCheckOptions::explorer_type& explorer,
                   std::uint64_t req) {
    const ptx::LoweredModule ma = probe_lower(rq.source, req);
    const ptx::LoweredModule mb = probe_lower(rq.source_b, req);
    const ptx::Program& a = ma.kernels.front();
    const ptx::Program& b = mb.kernels.front();
    const sem::KernelConfig kc = rq.launch.to_config();
    sym::TermArena arena;
    const sym::SymEnv env = equiv::make_union_env(arena, a, b);
    for (std::uint32_t tid = 0; tid < kc.total_threads(); ++tid) {
      Scope s(tr_, "sym.exec", req);
      sym_paths_ += sym::sym_execute_thread(a, kc, tid, env, rq.sym).paths.size();
    }
    equiv::EquivOptions opts;
    opts.sym = rq.sym;
    opts.cex.max_trials = rq.cex_inputs;
    sym::TermArena arena2;
    const sym::SymEnv env2 = equiv::make_union_env(arena2, a, b);
    Scope s(tr_, "equiv.run", req);
    (void)equiv::check_equivalence(a, b, kc, env2, opts, explorer);
  }

  const Args& a_;
  Report& rep_;
  Tracer& tr_;
  std::vector<LintEntry> lint_;
  std::vector<EquivEntry> equiv_;
  std::vector<int> jobs_;  // >= 0: lint entry; < 0: equiv entry -1-j

  std::uint64_t ptx_calls_ = 0, findings_ = 0, sym_paths_ = 0;
  std::uint64_t rewrites_ = 0, cex_trials_ = 0, refutations_ = 0;
};

}  // namespace

void run_static_batch(const Args& a, Report& rep, Tracer& tr) {
  StaticBatch w(a, rep, tr);
  if (tr.on) {
    w.traced();
  } else {
    w.measure();
  }
}

}  // namespace cacbench
