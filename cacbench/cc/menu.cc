#include "menu.h"

#include <algorithm>
#include <array>

#include "bench.h"
#include "programs/corpus.h"

namespace cacbench {

namespace {

using Inits = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

sem::LaunchSpec launch(sem::Dim3 grid, std::uint32_t block,
                       std::uint32_t warp, std::uint64_t global,
                       std::vector<std::pair<std::string, std::uint64_t>> params,
                       Inits inits = {}) {
  sem::LaunchSpec l;
  l.grid = grid;
  l.block = {block, 1, 1};
  l.warp_size = warp;
  l.global_bytes = global;
  l.params = std::move(params);
  l.inits = std::move(inits);
  return l;
}

/// Vector add with A[i] = i+1, B[i] = 10(i+1) at 0x100/0x200; the
/// paper's functional spec (§IV) gives C[i] = 11(i+1) at 0x300.
CheckEntry vecadd(std::string name, std::string file, std::string source,
                  sem::Dim3 grid, std::uint32_t block, std::uint32_t warp,
                  std::uint32_t size) {
  CheckEntry e;
  e.name = std::move(name);
  e.file = std::move(file);
  e.source = std::move(source);
  Inits inits;
  for (std::uint32_t i = 0; i < size; ++i) {
    inits.push_back({0x100 + 4 * i, i + 1});
    inits.push_back({0x200 + 4 * i, 10 * (i + 1)});
    e.expects.push_back({0x300 + 4 * i, 11 * (i + 1)});
  }
  e.launch = launch(grid, block, warp, 1024,
                    {{"arr_A", 0x100}, {"arr_B", 0x200}, {"arr_C", 0x300},
                     {"size", size}},
                    inits);
  e.independent = true;
  e.verdict = "proved";
  e.why = "paper §IV vector-sum theorem (C = A + B for every schedule); "
          "pinned at block 4 by the cacval_check_vecadd smoke test";
  return e;
}

}  // namespace

std::vector<CheckEntry> check_menu(const std::string& root) {
  const std::string vecadd_ptx = read_file(root + "/tests/data/vecadd.ptx");
  std::vector<CheckEntry> m;
  // The smoke test's 4-element vectors; threads past size take the
  // guard's early exit.
  m.push_back(vecadd("vecadd-b6w2", "tests/data/vecadd.ptx", vecadd_ptx,
                     {1, 1, 1}, 6, 2, 4));
  m.push_back(vecadd("listing1-g3b2w2", "corpus:vector_add",
                     programs::vector_add_ptx(), {3, 1, 1}, 2, 2, 4));

  {  // Histogram of "abcabb" into 4 bins (byte & 3): a=1, b=2, c=3.
    CheckEntry e;
    e.name = "histogram-g3b2w2";
    e.file = "corpus:histogram";
    e.source = programs::histogram_ptx();
    e.launch = launch({3, 1, 1}, 2, 2, 0x200,
                      {{"data", 0}, {"hist", 0x100}, {"size", 6}, {"mask", 3}},
                      {{0x0, 0x61636261}, {0x4, 0x6262},
                       {0x100, 0}, {0x104, 0}, {0x108, 0}, {0x10c, 0}});
    e.expects = {{0x100, 0}, {0x104, 2}, {0x108, 3}, {0x10c, 1}};
    e.verdict = "proved";
    e.why = "examples/histogram_atomic.cpp all-schedules proof (bins of "
            "\"abcabb\" are order-invariant under atom.add)";
    m.push_back(std::move(e));
  }
  {  // Shared-memory tree reduction, sum of i*i+1 for i < 8 = 148.
    CheckEntry e;
    e.name = "reduce-b8w4";
    e.file = "corpus:reduce_shared";
    e.source = programs::reduce_shared_ptx();
    Inits inits;
    for (std::uint32_t i = 0; i < 8; ++i) inits.push_back({4 * i, i * i + 1});
    e.launch = launch({1, 1, 1}, 8, 4, 128, {{"arr_A", 0}, {"out", 64}},
                      inits);
    e.expects = {{64, 148}};
    e.independent = true;
    e.verdict = "proved";
    e.why = "ReduceShared.ComputesBlockSum pin; barriers commit Shared "
            "(paper §III-2)";
    m.push_back(std::move(e));
  }
  {  // Grid-wide atom.add of 1..6 = 21.
    CheckEntry e;
    e.name = "atomic_sum-g3b2w2";
    e.file = "corpus:atomic_sum";
    e.source = programs::atomic_sum_ptx();
    Inits inits;
    for (std::uint32_t i = 0; i < 6; ++i) inits.push_back({4 * i, i + 1});
    inits.push_back({64, 0});
    e.launch = launch({3, 1, 1}, 2, 2, 128,
                      {{"arr_A", 0}, {"out", 64}, {"size", 6}}, inits);
    e.expects = {{64, 21}};
    e.verdict = "proved";
    e.why = "AtomicSum.OrderInvariantTotal (atom.add totals are "
            "order-invariant; here 1+...+6)";
    m.push_back(std::move(e));
  }

  // --- known refutations ---------------------------------------------
  {
    CheckEntry e;
    e.name = "racy-g2b1w1";
    e.file = "tests/data/racy.ptx";
    e.source = read_file(root + "/tests/data/racy.ptx");
    e.launch = launch({2, 1, 1}, 1, 1, 64, {{"out", 0}});
    e.expects = {{0, 99}};
    e.verdict = "refuted";
    e.why = "cacval_exit_1_finding smoke pin (no schedule stores 99)";
    m.push_back(std::move(e));
  }
  {
    CheckEntry e;
    e.name = "race_store-b4w2";
    e.file = "corpus:race_store";
    e.source = programs::race_store_ptx();
    e.launch = launch({1, 1, 1}, 4, 2, 16, {{"out", 0}});
    e.independent = true;
    e.verdict = "refuted";
    e.why = "RaceStore pin: the last writer of out[0] depends on the "
            "schedule, so the result is not schedule-independent";
    m.push_back(std::move(e));
  }
  {
    CheckEntry e;
    e.name = "reduce_nobar-b8w4";
    e.file = "corpus:reduce_shared_nobar";
    e.source = programs::reduce_shared_nobar_ptx();
    Inits inits;
    for (std::uint32_t i = 0; i < 8; ++i) inits.push_back({4 * i, i * i + 1});
    e.launch = launch({1, 1, 1}, 8, 4, 128, {{"arr_A", 0}, {"out", 64}},
                      inits);
    e.expects = {{64, 148}};
    e.verdict = "refuted";
    e.why = "ReduceShared.MissingBarrierReadsInvalidBytesAndMiscomputes pin";
    m.push_back(std::move(e));
  }
  {
    CheckEntry e;
    e.name = "barrier_divergence-b4w4";
    e.file = "corpus:barrier_divergence";
    e.source = programs::barrier_divergence_ptx();
    e.launch = launch({1, 1, 1}, 4, 4, 64, {});
    e.verdict = "refuted";
    e.violation = "stuck";
    e.why = "Deadlock.BarrierDivergenceIsDetected pin (paper §III-8)";
    m.push_back(std::move(e));
  }
  {  // C[7] lands at 48 + 28 = 76, past the 64-byte Global space.
    CheckEntry e;
    e.name = "vecadd_oob-b8w4";
    e.file = "tests/data/vecadd.ptx";
    e.source = vecadd_ptx;
    e.launch = launch({1, 1, 1}, 8, 4, 64,
                      {{"arr_A", 0}, {"arr_B", 16}, {"arr_C", 48}, {"size", 8}});
    e.verdict = "refuted";
    e.violation = "fault";
    e.why = "Fault.OutOfBoundsKernelFaults pin (access past Global)";
    m.push_back(std::move(e));
  }
  return m;
}

CheckEntry scaling_entry(const std::string& root) {
  return vecadd("vecadd-b8w2", "tests/data/vecadd.ptx",
                read_file(root + "/tests/data/vecadd.ptx"), {1, 1, 1}, 8, 2,
                4);
}

std::vector<LintEntry> lint_menu(const std::string& root) {
  std::vector<LintEntry> m;
  auto file = [&](const std::string& rel, std::map<std::string, int> errors,
                  std::map<std::string, int> warnings, bool pinned,
                  std::string why) {
    m.push_back({rel, read_file(root + "/" + rel), std::move(errors),
                 std::move(warnings), pinned, std::move(why)});
  };
  const std::string readme = "examples/buggy/README.md + LintBuggy pins";
  file("examples/buggy/divergent_barrier.ptx", {{"barrier-divergence", 1}},
       {}, false, readme);
  file("examples/buggy/global_race.ptx", {{"race-candidate", 3}}, {}, false,
       readme);
  file("examples/buggy/shared_overflow.ptx", {{"shared-overflow", 1}}, {},
       false, readme);
  file("examples/buggy/shared_overlap.ptx", {{"race-candidate", 1}}, {},
       false, readme);
  file("examples/buggy/uninit_register.ptx", {{"uninit-register", 1}}, {},
       false, readme);
  const std::string perf = "examples/buggy/README.md perf table + PerfCorpus";
  file("examples/buggy/perf/coalesced_copy.ptx", {}, {}, true, perf);
  file("examples/buggy/perf/divergent_reduce.ptx", {},
       {{"divergent-region", 1}}, true, perf);
  file("examples/buggy/perf/pitch_pow2.ptx", {},
       {{"shared-bank-conflict", 1}}, true, perf);
  file("examples/buggy/perf/strided_vecadd.ptx", {},
       {{"uncoalesced-global", 3}}, true, perf);
  file("examples/buggy/perf/transpose_colmajor.ptx", {},
       {{"shared-bank-conflict", 1}}, true, perf);
  // The equivalence corpus: per-thread data-parallel kernels (each
  // thread touches only its own elements, no Shared memory, no
  // barriers); their defects are value bugs lint does not model.
  for (const char* f :
       {"guard_offbyone", "guard_ref", "mask_ref", "mask_wrongacc",
        "saxpy_ref", "saxpy_reordered", "scale_ref", "scale_strength",
        "vecadd_ref", "vecadd_ref4", "vecadd_unroll2", "vecadd_unroll4"}) {
    file(std::string("examples/equiv/") + f + ".ptx", {}, {}, false,
         "examples/equiv/README.md: disjoint per-thread accesses");
  }
  file("tests/data/racy.ptx", {{"race-candidate", 1}}, {}, false,
       "LintBuggy.CorpusRaceStoreIsFlagged (same kernel)");
  file("tests/data/vecadd.ptx", {}, {}, true,
       "cacval_lint_clean_vecadd + PerfClean.CoalescedCorpusKernels");

  auto corpus = [&](const std::string& name, std::string text,
                    std::map<std::string, int> errors, bool perf_clean,
                    std::string why) {
    m.push_back({"corpus:" + name, std::move(text), std::move(errors), {},
                 perf_clean, std::move(why)});
  };
  const std::string clean = "LintClean.AllCorpusKernels";
  const std::string coalesced =
      "LintClean.AllCorpusKernels + PerfClean.CoalescedCorpusKernels";
  corpus("vector_add", programs::vector_add_ptx(), {}, true, coalesced);
  corpus("saxpy", programs::saxpy_ptx(), {}, true, coalesced);
  corpus("copy_v2", programs::copy_v2_ptx(), {}, true, coalesced);
  corpus("xor_cipher", programs::xor_cipher_ptx(), {}, false, clean);
  corpus("scan_signature", programs::scan_signature_ptx(), {}, false, clean);
  corpus("reduce_shared", programs::reduce_shared_ptx(), {}, false, clean);
  corpus("atomic_sum", programs::atomic_sum_ptx(), {}, false, clean);
  corpus("histogram", programs::histogram_ptx(), {}, false, clean);
  corpus("warp_reduce_shfl", programs::warp_reduce_shfl_ptx(), {}, false,
         clean);
  corpus("scan_prefix", programs::scan_prefix_ptx(), {}, false, clean);
  corpus("race_store", programs::race_store_ptx(), {{"race-candidate", 1}},
         false, "LintBuggy.CorpusRaceStoreIsFlagged");
  return m;
}

std::vector<EquivEntry> equiv_menu(const std::string& root) {
  const sem::LaunchSpec b4w4 = launch({1, 1, 1}, 4, 4, 4096, {});
  std::vector<EquivEntry> m;
  auto pair = [&](const std::string& a, const std::string& b,
                  const sem::LaunchSpec& l, std::string verdict,
                  std::string why) {
    m.push_back({a == b ? "self:" + a : a + "~" + b, a,
                 read_file(root + "/" + a), b, read_file(root + "/" + b), l,
                 std::move(verdict), std::move(why)});
  };
  const std::string pinned = "examples/equiv/README.md pinned verdicts";
  const std::string dir = "examples/equiv/";
  for (const auto& [a, b, v] :
       std::vector<std::array<const char*, 3>>{
           {"vecadd_ref", "vecadd_unroll2", "equivalent"},
           {"vecadd_ref4", "vecadd_unroll4", "equivalent"},
           {"scale_ref", "scale_strength", "equivalent"},
           {"saxpy_ref", "saxpy_reordered", "equivalent"},
           {"guard_ref", "guard_offbyone", "not-equivalent"},
           {"mask_ref", "mask_wrongacc", "not-equivalent"}}) {
    pair(dir + a + ".ptx", dir + b + ".ptx", b4w4, v, pinned);
  }
  for (const char* f :
       {"guard_offbyone", "guard_ref", "mask_ref", "mask_wrongacc",
        "saxpy_ref", "saxpy_reordered", "scale_ref", "scale_strength",
        "vecadd_ref", "vecadd_ref4", "vecadd_unroll2", "vecadd_unroll4"}) {
    pair(dir + f + ".ptx", dir + f + ".ptx", b4w4, "equivalent",
         "reflexivity: every kernel is equivalent to itself");
  }
  pair("tests/data/vecadd.ptx", "tests/data/vecadd.ptx",
       launch({1, 1, 1}, 8, 8, 4096, {}), "equivalent",
       "cacval_equiv_self smoke pin");
  return m;
}

front::CheckRequest make_check(const CheckEntry& e) {
  front::CheckRequest r;
  r.file = e.file;
  r.source = e.source;
  r.launch = e.launch;
  r.expects = e.expects;
  r.require_independence = e.independent;
  return r;
}

front::LintRequest make_lint(const LintEntry& e) {
  front::LintRequest r;
  r.file = e.name;
  r.source = e.source;
  r.races = true;
  r.perf = true;
  return r;
}

front::EquivRequest make_equiv(const EquivEntry& e) {
  front::EquivRequest r;
  r.file = e.file_a;
  r.source = e.source_a;
  r.file_b = e.file_b;
  r.source_b = e.source_b;
  r.launch = e.launch;
  return r;
}

std::string lint_mismatch(const LintEntry& e,
                          const std::vector<front::Result>& rs) {
  std::map<std::string, int> errors, warnings;
  int exit = 0;
  for (const front::Result& r : rs) {
    exit = std::max(exit, r.exit_code);
    for (const front::Diagnostic& d : r.findings) {
      ++(d.severity == "error" ? errors : warnings)[d.pass];
    }
  }
  auto show = [](const std::map<std::string, int>& m) {
    std::string s = "{";
    for (const auto& [k, v] : m) s += k + ":" + std::to_string(v) + " ";
    return s + "}";
  };
  if (errors != e.errors) return "errors " + show(errors);
  if (exit != (e.errors.empty() ? 0 : 1)) {
    return "exit code " + std::to_string(exit);
  }
  if (e.warnings_pinned && warnings != e.warnings) {
    return "warnings " + show(warnings);
  }
  return "";
}

}  // namespace cacbench
