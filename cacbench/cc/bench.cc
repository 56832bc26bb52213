#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#ifndef CACBENCH_BUILD_TYPE
#define CACBENCH_BUILD_TYPE "unknown"
#endif

namespace cacbench {

double pct(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
}

void CpuRotation::pin(std::size_t i) const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[i % cpus_.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void CpuRotation::unpin() const {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double cpu_seconds() {
  double s = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    s += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  }
  return s;
}

double thread_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  // VmHWM rather than ru_maxrss: only the former follows reset_peak_rss.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// --- Report ----------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [n, vu] : metrics_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

bool Report::has(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.first == name) return true;
  }
  return false;
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::lock_guard<std::mutex> lk(mu_);
  if (problems_.size() < 50) problems_.push_back("FAIL " + why);
}

void Report::invalid(const std::string& why) {
  invalid_ = true;
  std::lock_guard<std::mutex> lk(mu_);
  problems_.push_back("INVALID " + why);
}

void Report::print() const {
  for (const std::string& p : problems_) std::fprintf(stderr, "%s\n", p.c_str());
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && !invalid_ && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_.load());
  out += ", \"failed\": " + std::to_string(failed_.load());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- Tracer ----------------------------------------------------------

namespace {
thread_local std::vector<std::int64_t> tl_stack;

/// The layer a span belongs to: its first name component, except that
/// the state store is reported apart from the rest of sched.
std::string layer_of(const std::string& name) {
  if (name.rfind("sched.store.", 0) == 0) return "sched.store";
  return name.substr(0, name.find('.'));
}
}  // namespace

std::int64_t Tracer::open(std::string name, std::uint64_t req) {
  Span s;
  s.name = std::move(name);
  s.parent = tl_stack.empty() ? -1 : tl_stack.back();
  s.req = req;
  std::int64_t id;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
  }
  tl_stack.push_back(id);
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].start = t;
  return id;
}

void Tracer::close(std::int64_t id) {
  const std::uint64_t t = now_ns();
  if (!tl_stack.empty() && tl_stack.back() == id) tl_stack.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

void Tracer::leaf(const char* name, std::uint64_t ns) {
  std::lock_guard<std::mutex> lk(mu_);
  Leaf& l = leaves_[name];
  if (l.count % 16 == 0) l.sample_ns.push_back(static_cast<double>(ns));
  ++l.count;
  l.total_ns += ns;
  if (!tl_stack.empty()) {
    spans_[static_cast<std::size_t>(tl_stack.back())].leaf_ns += ns;
  }
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end != 0) {
      out.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return out;
}

const Tracer::Leaf* Tracer::leaf_stats(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = leaves_.find(name);
  return it == leaves_.end() ? nullptr : &it->second;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self = static_cast<double>(s.end - s.start) - child[i] -
                        static_cast<double>(s.leaf_ns);
    out[layer_of(s.name)] += self / 1e6;
  }
  for (const auto& [name, l] : leaves_) {
    out[layer_of(name)] += static_cast<double>(l.total_ns) / 1e6;
  }
  return out;
}

double Tracer::root_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  double ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += static_cast<double>(s.end - s.start);
  }
  return ns / 1e6;
}

void Tracer::write(const std::string& path, const std::string& stamp) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream f(path);
  f << "{\"stamp\":" << stamp << "}\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
      << s.start << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
      << ",\"req\":" << s.req << ",\"leaf_ns\":" << s.leaf_ns << "}\n";
  }
  for (const auto& [name, l] : leaves_) {
    f << "{\"leaf\":\"" << name << "\",\"count\":" << l.count
      << ",\"total_ns\":" << l.total_ns << "}\n";
  }
}

// --- files and stamp -------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::vector<std::string> ptx_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".ptx") {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string stamp_json(const Args& a) {
  return "{\"rev\":\"" + a.rev + "\",\"build_type\":\"" CACBENCH_BUILD_TYPE
         "\",\"nproc\":" +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"seed\":" + std::to_string(a.seed) + ",\"workload\":\"" +
         a.workload + "\",\"trace\":" + (a.trace ? "1" : "0") +
         ",\"seconds\":" + std::to_string(a.seconds) + "}";
}

}  // namespace cacbench
