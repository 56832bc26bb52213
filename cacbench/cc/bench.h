// Shared plumbing of the cacbench program: arguments, clocks, sample
// sets, the result report, the in-memory span tracer, and rusage.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cac {}

namespace cacbench {

// The benchmark speaks the verifier's own vocabulary (sem::, front::, ...).
using namespace cac;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";        // checkout root (corpus files live here)
  std::string work_dir;          // scratch for sockets, spills, traces
  std::string rev = "unknown";   // stamp: source revision
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the only randomness source; every draw derives from the
/// --seed argument, so a seed fixes the inputs.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <class It>
  void shuffle(It first, It last) {
    for (auto i = last - first; i > 1; --i) {
      std::swap(first[i - 1], first[below(static_cast<std::uint64_t>(i))]);
    }
  }
  template <class T>
  void shuffle(std::vector<T>& v) {
    shuffle(v.begin(), v.end());
  }
};

/// Nearest-rank percentile (q in [0,1]) of a sample set; 0 when empty.
double pct(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Spreads single-threaded work evenly over the CPUs this process may
/// use.  The vCPUs of a virtual machine can differ in speed by 20% and
/// more, and a thread left to the scheduler tends to stay on one of them
/// for a whole run, so without rotation a run's timings depend on which
/// CPU it happened to land on.
class CpuRotation {
 public:
  CpuRotation();
  /// Pin the calling thread to the i-th allowed CPU (mod their count).
  void pin(std::size_t i) const;
  /// Let the calling thread run on every allowed CPU again (before
  /// starting threads or processes, which inherit the affinity).
  void unpin() const;

 private:
  std::vector<int> cpus_;
};

/// Process CPU seconds (self + reaped children) and peak RSS (MiB).
double cpu_seconds();
/// CPU seconds of the calling thread alone.
double thread_cpu_seconds();
double peak_rss_mb();
/// Restart the process's peak-RSS watermark (Linux clear_refs "5"), so
/// peak_rss_mb() afterwards reports the peak since this call.  Returns
/// false where the kernel does not allow it.
bool reset_peak_rss();

/// The run's outcome: what the last stdout line reports.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  /// A wrong verdict, failed replay, error or timeout: counted in
  /// `failed`, and the run is no longer correct.
  void fail(const std::string& why);
  /// A condition that voids the measurement without being a wrong
  /// verdict (e.g. the open-loop generator fell behind).
  void invalid(const std::string& why);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  // attempt() and fail() may be called from several client threads.
  /// Print diagnostics to stderr and the result object to stdout.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::mutex mu_;  // guards problems_
  std::vector<std::string> problems_;
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<bool> invalid_{false};
};

/// In-memory span tracer for the traced run.  Spans are opened and
/// closed around calls the benchmark makes into the verifier's public
/// functions; each records its name, start, end, parent and request id.
/// Very short, very frequent calls (the state walk's per-transition
/// sem/store calls) are folded into per-name aggregates instead, and
/// the covered time is charged to the enclosing span so self times
/// still partition the traced wall time.  Off, every call is a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t start = 0, end = 0;
    std::int64_t parent = -1;
    std::uint64_t req = 0;
    std::uint64_t leaf_ns = 0;  // aggregated leaf time inside this span
  };
  struct Leaf {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::vector<double> sample_ns;  // every 16th call, for percentiles
  };

  bool on = false;

  std::int64_t open(std::string name, std::uint64_t req);
  void close(std::int64_t id);
  /// Record a folded leaf call of `ns` inside the innermost open span.
  void leaf(const char* name, std::uint64_t ns);

  /// Durations (ns) of every closed span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] const Leaf* leaf_stats(const std::string& name) const;

  /// Self time per layer (ms): a span's duration minus its children's
  /// and folded leaves'.  The layer is the span name's first component
  /// ("ptx.parse" -> "ptx"), with "sched.store.*" kept apart as
  /// "sched.store".
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Sum of root-span durations (ms).
  [[nodiscard]] double root_ms() const;
  [[nodiscard]] std::size_t span_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Write every span (one JSON object a line) and the leaf aggregates.
  void write(const std::string& path, const std::string& stamp) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, Leaf> leaves_;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, std::string name, std::uint64_t req = 0)
      : t_(t), id_(t.on ? t.open(std::move(name), req) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int64_t id_;
};

std::string read_file(const std::string& path);
/// Every *.ptx file under `dir` (recursively), sorted.
std::vector<std::string> ptx_files(const std::string& dir);

/// The stamp every output carries: revision, build type, nproc, seed.
std::string stamp_json(const Args& a);

}  // namespace cacbench
