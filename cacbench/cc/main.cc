// cacbench: the end-to-end verdict benchmark of the cacval verifier.
//
//   cacbench --workload check-explore|static-batch|serve-mix --seed N
//            --seconds S --trace 0|1 [--root DIR] [--work-dir DIR]
//            [--rev REV]
//
// Prints a stamp line, then (last line) one JSON object with `correct`,
// `attempted`, `failed` and `metrics`.  README.md documents the
// workloads and every metric.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "workloads.h"

namespace cacbench {

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cacbench --workload check-explore|static-batch|"
               "serve-mix --seed N --seconds S --trace 0|1 [--root DIR] "
               "[--work-dir DIR] [--rev REV]\n");
  return 2;
}

}  // namespace

}  // namespace cacbench

int main(int argc, char** argv) {
  using namespace cacbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--root") a.root = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--rev") a.rev = v;
    else return usage();
  }
  if (argc % 2 != 1 || a.seconds <= 0) return usage();
  if (a.work_dir.empty()) a.work_dir = a.root + "/.bench_build/run";
  std::filesystem::create_directories(a.work_dir);
  const std::string stamp = stamp_json(a);
  std::printf("{\"stamp\": %s}\n", stamp.c_str());

  Report rep;
  Tracer tr;
  tr.on = a.trace;
  try {
    if (a.workload == "check-explore") {
      run_check_explore(a, rep, tr);
    } else if (a.workload == "static-batch") {
      run_static_batch(a, rep, tr);
    } else if (a.workload == "serve-mix") {
      run_serve_mix(a, rep, tr);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cacbench: %s\n", e.what());
    return 1;
  }
  if (a.trace) {
    fill_unreached_layers(rep);
    // Beside the (temporary) work dir, so the spans outlive the run.
    const std::string dir =
        (std::filesystem::path(a.work_dir).parent_path() / "traces").string();
    std::filesystem::create_directories(dir);
    tr.write(dir + "/" + a.workload + "-" + std::to_string(a.seed) + ".jsonl",
             stamp);
  }
  rep.print();
  return 0;
}
