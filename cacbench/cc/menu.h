// The fixed job menus of the three workloads and their known answers.
//
// Every expected verdict below is written by hand from a source outside
// the tool under test: the paper's theorems, examples/buggy/README.md,
// examples/equiv/README.md + pairs.txt, and the verdicts the repository's
// own tests pin.  The `why` of each entry names that source.  A seed
// only draws from these menus (order, engine, options, salts); it never
// changes what the right answer is.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "front/request.h"

namespace cacbench {

/// One check-explore menu entry: kernel x launch, plus its answer.
struct CheckEntry {
  std::string name;
  std::string file;    // display name / corpus path
  std::string source;  // PTX text
  sem::LaunchSpec launch;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expects;
  bool independent = false;
  // --- known answer ---
  std::string verdict;    // "proved" | "refuted"
  /// For refutations: "stuck" / "fault" when the refutation is a
  /// violation and so carries a replayable schedule; "" when it is a
  /// postcondition / schedule-dependence refutation (no schedule).
  std::string violation;
  std::string why;
};

/// One lint menu entry: a PTX file (or corpus text) and its answer.
struct LintEntry {
  std::string name;
  std::string source;
  /// Error findings expected, by pass name and count.  Exit code 1
  /// iff nonempty.
  std::map<std::string, int> errors;
  /// Perf warnings expected (pass -> count) when a test pins them;
  /// `warnings_pinned` false leaves warnings unchecked.
  std::map<std::string, int> warnings;
  bool warnings_pinned = false;
  std::string why;
};

/// One equiv menu entry.
struct EquivEntry {
  std::string name;
  std::string file_a, source_a, file_b, source_b;
  sem::LaunchSpec launch;
  std::string verdict;  // "equivalent" | "not-equivalent"
  std::string why;
};

/// Corpus paths are relative to the checkout root `root`.
std::vector<CheckEntry> check_menu(const std::string& root);
/// The traced run's engine-scaling job: larger than any menu entry
/// (vector add, block 8, warp 2: four warps).
CheckEntry scaling_entry(const std::string& root);
std::vector<LintEntry> lint_menu(const std::string& root);
std::vector<EquivEntry> equiv_menu(const std::string& root);

front::CheckRequest make_check(const CheckEntry& e);
front::LintRequest make_lint(const LintEntry& e);
front::EquivRequest make_equiv(const EquivEntry& e);

/// Compare a lint result set (one Result per kernel) with the entry's
/// answer; returns "" when it matches, else what differs.
std::string lint_mismatch(const LintEntry& e,
                          const std::vector<front::Result>& rs);

}  // namespace cacbench
