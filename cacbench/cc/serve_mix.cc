// serve-mix: one in-process front::Server (unix socket, state dir, 2
// workers) fed open loop from this process by two streams: resubmissions
// of a warm working set (cache reads) at a ladder of rates on 2
// front::Client connections, and salted cold check / lint / equiv
// requests (parse, small run, cache put, journal and persist writes) at
// a fixed rate on a third.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "front/cache.h"
#include "front/front.h"
#include "front/serve.h"
#include "menu.h"
#include "workloads.h"

namespace cacbench {

namespace {

/// The ladder of offered resubmission rates (requests/s).  A rung keeps
/// up when its p90 meets kLimitMs and the latency of its last tenth (the
/// backlog) meets it too.  The latency metrics are read at the named
/// middle rung, 500/s; jobs_per_s at the top rung, where the server is
/// saturated.
/// The rates, the limit and the mix below are assumptions about how a
/// verification service is used, not observed traffic (README.md).
constexpr double kLadder[] = {250,  500,  1000,  2000,  4000,  6000,
                              8000, 9000, 10000, 11000, 12000, 16000};
constexpr std::size_t kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr std::size_t kMiddleRung = 1;
constexpr double kLimitMs = 10;
/// The server's CPU per request (cpu_ms_per_job, states_per_s) is taken
/// over every rung up to this rate: those the server kept up with on the
/// machine this was tuned on.  The middle rung alone gave twice the
/// run-to-run spread.
constexpr double kCpuRateMax = 8000;
/// The run is this many passes, each the middle rung then the whole
/// ladder; per-rung figures are medians over the passes, so a slow
/// second of the machine spoils one pass, not the run.
constexpr int kPasses = 5;
/// A request whose due time is this far past is abandoned: the rung has
/// fallen behind, and sending it would only stretch the run.
constexpr double kAbandonMs = 500;
/// Generator lateness (ms, p90) beyond which a run is void.
constexpr double kMaxLateMs = 2;
/// Salted cold submissions (new kernels) arrive at this fixed rate on a
/// connection of their own, beside the ladder's resubmissions.
constexpr double kColdRate = 50;
/// Connections carrying the resubmissions (the cold one comes on top;
/// together at most nproc).
constexpr unsigned kClients = 2;

/// One working-set member: the request and its known answer.
struct Item {
  std::string name;
  front::Request req;
  int exit_code = 0;       // expected
  std::string verdict;     // expected verdict of results[0]; "" = any
  std::string cold_results;  // results bytes of the first (cold) reply
};

/// Salt a module so it lowers to a different canonical form (fresh cache
/// key) without changing any verdict: rename its entry kernel.
std::string salted(std::string ptx, std::uint64_t salt) {
  const std::size_t at = ptx.find(".entry ");
  if (at == std::string::npos) return ptx;
  std::size_t end = at + 7;
  while (end < ptx.size() && (std::isalnum(static_cast<unsigned char>(ptx[end])) ||
                              ptx[end] == '_')) {
    ++end;
  }
  ptx.insert(end, "_s" + std::to_string(salt));
  return ptx;
}

front::Request salt_request(const front::Request& req, std::uint64_t salt) {
  if (const auto* c = std::get_if<front::CheckRequest>(&req)) {
    front::CheckRequest r = *c;
    r.source = salted(r.source, salt);
    return r;
  }
  if (const auto* l = std::get_if<front::LintRequest>(&req)) {
    front::LintRequest r = *l;
    r.source = salted(r.source, salt);
    return r;
  }
  front::EquivRequest r = std::get<front::EquivRequest>(req);
  r.source = salted(r.source, salt);
  r.source_b = salted(r.source_b, salt);
  return r;
}

/// The `results` array of a response envelope, verbatim.
std::string results_of(const std::string& raw) {
  const std::size_t at = raw.find("\"results\":");
  if (at == std::string::npos || raw.size() < at + 11) return "";
  return raw.substr(at + 10, raw.size() - at - 11);
}

/// One scheduled request of a rung.
struct Slot {
  std::size_t item = 0;
  bool cold = false;
  std::uint64_t salt = 0;
};

/// What happened to one request.
struct Sample {
  double latency_ms = 0;  // from its due time to the reply
  double late_ms = 0;     // generator lateness: send - max(due, picked up)
  double call_us = 0;     // round trip
  double server_us = 0;   // envelope elapsed_us
  std::uint64_t states = 0;
  bool ok = false;
  bool cached = false;
  bool abandoned = false;  // due too long ago to send (rung fell behind)
};

class ServeMix {
 public:
  ServeMix(const Args& a, Report& rep, Tracer& tr)
      : a_(a), rep_(rep), tr_(tr),
        clients_(std::max<unsigned>(
            1, std::min<unsigned>(kClients,
                                  static_cast<unsigned>(
                                      sysconf(_SC_NPROCESSORS_ONLN)) -
                                      1))) {}

  ~ServeMix() { stop(); }

  /// Server start + working-set load + cache warm-up: every member is
  /// submitted once cold; its reply must equal a local front:: run of
  /// the same request byte for byte, and that local run must match the
  /// known answer.
  void setup(int generation) {
    stop();
    dir_ = a_.work_dir + "/serve" + std::to_string(generation);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    front::ServeOptions so;
    so.unix_path = dir_ + "/sock";
    so.state_dir = dir_ + "/state";
    so.workers = 2;
    server_ = std::make_unique<front::Server>(so);
    server_->start();
    items_.clear();
    for (const CheckEntry& e : check_menu(a_.root)) {
      if (!kSmallChecks.count(e.name)) continue;
      items_.push_back({e.name, make_check(e), e.verdict == "proved" ? 0 : 1,
                        e.verdict, ""});
    }
    for (const LintEntry& e : lint_menu(a_.root)) {
      items_.push_back({e.name, make_lint(e), e.errors.empty() ? 0 : 1, "", ""});
      lint_answers_[items_.size() - 1] = e;
    }
    for (const EquivEntry& e : equiv_menu(a_.root)) {
      items_.push_back({e.name, make_equiv(e),
                        e.verdict == "equivalent" ? 0 : 1, e.verdict, ""});
    }
    // Requests that lower to the same canonical content share one cache
    // entry (and its first file name); keep one of each.
    std::set<std::string> keys;
    std::vector<Item> unique;
    std::map<std::size_t, LintEntry> answers;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (!keys.insert(front::cache_key(items_[i].req).hex()).second) continue;
      if (const auto l = lint_answers_.find(i); l != lint_answers_.end()) {
        answers[unique.size()] = l->second;
      }
      unique.push_back(std::move(items_[i]));
    }
    items_ = std::move(unique);
    lint_answers_ = std::move(answers);
    front::Client c = front::Client::connect(so.unix_path);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      Item& it = items_[i];
      const front::Client::Reply r = c.call(front::to_json(it.req), {}, 30000);
      it.cold_results = results_of(r.raw);
      const std::vector<front::Result> local = front::run(it.req);
      if (front::to_json(local) != it.cold_results) {
        throw std::runtime_error(it.name + ": serve reply differs from a "
                                 "local run of the same request:\n" +
                                 it.cold_results + "\n" +
                                 front::to_json(local));
      }
      if (const auto l = lint_answers_.find(i); l != lint_answers_.end()) {
        const std::string bad = lint_mismatch(l->second, local);
        if (!bad.empty()) throw std::runtime_error(it.name + ": " + bad);
      } else if (local.front().verdict != it.verdict) {
        throw std::runtime_error(it.name + ": verdict " +
                                 local.front().verdict);
      }
    }
  }

  void measure() {
    std::vector<double> setups;
    for (int g = 0; g < 7; ++g) {
      const std::uint64_t t0 = now_ns();
      setup(g);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    settle_disk();
    Rng rng(a_.seed);
    // The middle rung gets 40% of the run, the rest of the ladder shares
    // the remainder; each pass takes a fifth of both.
    auto rung_s = [&](std::size_t k) {
      return a_.seconds / kPasses *
             (k == kMiddleRung ? 0.4
                               : 0.6 / static_cast<double>(kRungs - 1));
    };
    std::vector<double> late;
    std::vector<std::vector<double>> rung_p90(kRungs);  // per pass
    std::vector<double> mid_p50, mid_p90, top_rps;
    double cpu_states = 0, cpu_s = 0;
    std::size_t mid_n = 0, cpu_n = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t k = 0; k < kRungs; ++k) {
        // The middle rung opens each pass, ahead of the overloaded rungs.
        const std::size_t rk =
            k == 0 ? kMiddleRung : k <= kMiddleRung ? k - 1 : k;
        const double cpu0 = cpu_seconds();
        const Rung r = rung(rng, kLadder[rk], rung_s(rk));
        const double server_cpu_s = cpu_seconds() - cpu0 - r.client_cpu_s;
        const std::vector<double> lat = latencies(r.warm.samples);
        const std::vector<double> tail(lat.begin() + lat.size() * 9 / 10,
                                       lat.end());
        rung_p90[rk].push_back(std::max(pct(lat, 0.9), median(tail)));
        for (const Stream* st : {&r.warm, &r.cold}) {
          for (const Sample& s : st->samples) {
            if (!s.abandoned) late.push_back(s.late_ms);
          }
        }
        if (kLadder[rk] <= kCpuRateMax) {
          for (const Sample& s : r.cold.samples) {
            cpu_states += static_cast<double>(s.states);
          }
          cpu_s += server_cpu_s;
          cpu_n += r.warm.samples.size() + r.cold.samples.size();
        }
        if (rk == kMiddleRung) {
          const std::vector<double> cold = latencies(r.cold.samples);
          mid_p50.push_back(pct(lat, 0.5));
          mid_p90.push_back(pct(lat, 0.9));
          mid_n += r.warm.samples.size();
          std::fprintf(stderr,
                       "serve-mix pass %d at %.0f/s: cached p50 %.3f p90 "
                       "%.3f ms; cold (%.0f/s) p50 %.3f p90 %.3f ms\n",
                       pass, kLadder[rk], pct(lat, 0.5), pct(lat, 0.9),
                       kColdRate, pct(cold, 0.5), pct(cold, 0.9));
        }
        if (rk == kRungs - 1) {
          top_rps.push_back(r.warm.completed_per_s + r.cold.completed_per_s);
        }
      }
    }
    std::vector<std::pair<double, double>> ladder;  // (rate, effective p90)
    for (std::size_t k = 0; k < kRungs; ++k) {
      const double p90 = median(rung_p90[k]);
      ladder.push_back({kLadder[k], p90});
      std::fprintf(stderr, "serve-mix rung %.0f/s: effective p90 %.2f ms%s\n",
                   kLadder[k], p90, p90 <= kLimitMs ? "" : "  (falls behind)");
    }
    rep_.metric("setup_s", median(setups), "s");
    rep_.metric("verdict_ms_p50", median(mid_p50), "ms");
    rep_.metric("verdict_ms_p90", median(mid_p90), "ms");
    rep_.metric("jobs_per_s", median(top_rps), "1/s");
    rep_.metric("states_per_s", cpu_s > 0 ? cpu_states / cpu_s : 0, "1/s");
    rep_.metric("cpu_ms_per_job",
                cpu_s * 1e3 /
                    static_cast<double>(std::max<std::size_t>(cpu_n, 1)),
                "ms");
    rep_.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    rep_.metric("ok_ratio",
                static_cast<double>(rep_.attempted() - rep_.failed()) /
                    static_cast<double>(rep_.attempted()),
                "ratio");
    rep_.metric("max_rate_rps", max_rate(ladder), "1/s");
    check_generator(late);
    const front::ServeStats st = server_->stats();
    std::fprintf(stderr,
                 "serve stats: requests %llu, jobs_run %llu, jobs_deduped "
                 "%llu, shed %llu, errors %llu, cache hits %llu misses %llu; "
                 "middle rung %.0f/s, %zu samples in %d passes\n",
                 static_cast<unsigned long long>(st.requests),
                 static_cast<unsigned long long>(st.jobs_run),
                 static_cast<unsigned long long>(st.jobs_deduped),
                 static_cast<unsigned long long>(st.shed_requests),
                 static_cast<unsigned long long>(st.errors),
                 static_cast<unsigned long long>(st.cache.hits),
                 static_cast<unsigned long long>(st.cache.misses),
                 kLadder[kMiddleRung], mid_n, kPasses);
    stop();
    settle_disk();
  }

  void traced() {
    setup(0);
    Rng rng(a_.seed);
    const double rate = kLadder[kMiddleRung];
    const double phase_s = a_.seconds * 0.4;
    // Pass 1 untraced, pass 2 traced, both at the middle rung.
    tr_.on = false;
    const std::vector<Sample> plain = rung(rng, rate, phase_s).all();
    tr_.on = true;
    const Rung tr = rung(rng, rate, phase_s);
    const std::vector<Sample> traced = tr.all();
    double plain_us = 0;
    for (const Sample& s : plain) plain_us += s.call_us;
    const double untraced_ms = plain_us / 1e3 /
                               static_cast<double>(plain.size()) *
                               static_cast<double>(traced.size());
    double traced_ns = 0;
    for (const double d : tr_.durations("front.serve.roundtrip")) traced_ns += d;

    std::vector<double> server_us, overhead_us, late;
    for (const Sample& s : traced) {
      server_us.push_back(s.server_us);
      overhead_us.push_back(s.call_us - s.server_us);
      late.push_back(s.late_ms);
    }
    auto p50 = [&](const std::string& span) {
      return pct(tr_.durations(span), 0.5) / 1e3;
    };
    rep_.metric("front.cache_key_us_p50", p50("front.cache_key"), "us");
    rep_.metric("front.to_json_us_p50", p50("front.to_json"), "us");
    rep_.metric("front.cache.get_us_p50", p50("front.cache.get"), "us");
    rep_.metric("front.cache.put_us_p50", p50("front.cache.put"), "us");
    rep_.metric("front.serve.roundtrip_us_p50", p50("front.serve.roundtrip"),
                "us");
    rep_.metric("front.serve.server_us_p50", pct(server_us, 0.5), "us");
    rep_.metric("front.serve.overhead_us_p50", pct(overhead_us, 0.5), "us");
    rep_.metric("front.serve.cold_ms_p50",
                pct(latencies(tr.cold.samples), 0.5), "ms");
    const front::ServeStats st = server_->stats();
    const double lookups = static_cast<double>(st.cache.hits + st.cache.misses);
    rep_.metric("front.serve.cache_hit_ratio",
                lookups == 0 ? 0 : static_cast<double>(st.cache.hits) / lookups,
                "ratio");
    rep_.metric("front.serve.jobs_run", static_cast<double>(st.jobs_run), "count");
    rep_.metric("front.serve.jobs_deduped", static_cast<double>(st.jobs_deduped),
                "count");
    rep_.metric("front.serve.shed", static_cast<double>(st.shed_requests),
                "count");
    rep_.metric("loadgen.late_ms_p90", pct(late, 0.9), "ms");
    check_generator(late);
    report_self_times(rep_, tr_, untraced_ms, traced_ns / 1e6);
    stop();
  }

 private:
  /// Small check entries only: a cold check is a short run (<1k states).
  inline static const std::set<std::string> kSmallChecks = {
      "racy-g2b1w1", "race_store-b4w2", "barrier_divergence-b4w4",
      "vecadd_oob-b8w4", "reduce_nobar-b8w4"};

  /// Flush the file system's dirty data and pending deletions, so the
  /// write-back of earlier runs (and of set-up) does not land inside the
  /// measured time.
  void settle_disk() const {
    const int fd = ::open(a_.work_dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
  }

  void stop() {
    if (!server_) return;
    server_->stop();
    server_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void check_generator(const std::vector<double>& late) {
    const double p90 = pct(late, 0.9);
    std::fprintf(stderr, "serve-mix: generator late p90 %.3f ms\n", p90);
    if (p90 > kMaxLateMs) {
      rep_.invalid("open-loop generator fell behind: late p90 " +
                   std::to_string(p90) + " ms");
    }
  }

  /// The rate at which the ladder's effective p90 crosses kLimitMs,
  /// interpolated log-log between the last rung that met the limit and
  /// the first that did not (the top rate when every rung met it).
  static double max_rate(const std::vector<std::pair<double, double>>& l) {
    for (std::size_t k = 0; k < l.size(); ++k) {
      if (l[k].second <= kLimitMs) continue;
      if (k == 0) return l[0].first * kLimitMs / l[0].second;
      const auto [r0, p0] = l[k - 1];
      const auto [r1, p1] = l[k];
      const double t = std::log(kLimitMs / p0) / std::log(p1 / p0);
      return r0 * std::pow(r1 / r0, std::clamp(t, 0.0, 1.0));
    }
    return l.back().first;
  }

  /// Latency of each sample; a failed or abandoned request misses every
  /// latency limit.
  static std::vector<double> latencies(const std::vector<Sample>& samples) {
    std::vector<double> out;
    for (const Sample& s : samples) {
      out.push_back(s.ok ? s.latency_ms : kAbandonMs);
    }
    return out;
  }

  /// `n` resubmissions, cycling through a seeded order of the working
  /// set.
  std::vector<Slot> warm_schedule(Rng& rng, std::size_t n) {
    std::vector<std::size_t> order(items_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    std::vector<Slot> slots(n);
    for (std::size_t i = 0; i < n; ++i) slots[i].item = order[i % order.size()];
    return slots;
  }

  /// `n` salted cold submissions, cycling through a seeded order of the
  /// working set that starts with the check items (setup lists them
  /// first), so a rung's cold stream runs the same checks whatever the
  /// seed, even when it ends mid-cycle.
  std::vector<Slot> cold_schedule(Rng& rng, std::size_t n) {
    std::vector<std::size_t> order(items_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const auto checks = std::count_if(items_.begin(), items_.end(),
                                      [](const Item& it) {
                                        return std::holds_alternative<
                                            front::CheckRequest>(it.req);
                                      });
    rng.shuffle(order.begin(), order.begin() + checks);
    rng.shuffle(order.begin() + checks, order.end());
    std::vector<Slot> slots(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots[i] = {order[i % order.size()], true, ++salt_};
    }
    return slots;
  }

  struct Stream {
    std::vector<Sample> samples;
    double completed_per_s = 0;  // replies over first due .. last reply
  };

  struct Rung {
    Stream warm, cold;
    double client_cpu_s = 0;  // CPU of the client threads (not the server)
    [[nodiscard]] std::vector<Sample> all() const {
      std::vector<Sample> out = warm.samples;
      out.insert(out.end(), cold.samples.begin(), cold.samples.end());
      return out;
    }
  };

  /// One open-loop request stream: slot i is due at t0 + i * gap.
  struct Feed {
    const std::vector<Slot>& slots;
    std::uint64_t t0;
    double gap_ns;
    std::vector<Sample> out;
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> last;

    Feed(const std::vector<Slot>& s, std::uint64_t start, double rate)
        : slots(s), t0(start), gap_ns(1e9 / rate), out(s.size()), last(start) {}

    Stream result() {
      Stream st;
      std::size_t ok = 0;
      for (const Sample& s : out) ok += s.ok ? 1 : 0;
      st.completed_per_s = static_cast<double>(ok) /
                           (static_cast<double>(last.load() - t0) / 1e9);
      st.samples = std::move(out);
      return st;
    }
  };

  /// One rung: resubmissions due every 1/rate seconds for `secs`, sent by
  /// `clients_` connections, and cold submissions due every 1/kColdRate
  /// seconds on one more connection; each sample is timed from its due
  /// time.
  Rung rung(Rng& rng, double rate, double secs) {
    const std::vector<Slot> warm =
        warm_schedule(rng, static_cast<std::size_t>(rate * secs));
    const std::vector<Slot> cold =
        cold_schedule(rng, static_cast<std::size_t>(kColdRate * secs));
    const std::uint64_t t0 = now_ns() + 2'000'000;  // 2 ms to start up
    Feed wf(warm, t0, rate), cf(cold, t0, kColdRate);
    std::vector<double> client_cpu(clients_ + 1, 0.0);
    auto client = [&](unsigned k, Feed& f) {
      const double cpu0 = thread_cpu_seconds();
      try {
        client_loop(k, f);
      } catch (const std::exception& e) {
        rep_.fail(std::string("serve client: ") + e.what());
      }
      client_cpu[k] = thread_cpu_seconds() - cpu0;
    };
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < clients_; ++k) {
      threads.emplace_back(client, k, std::ref(wf));
    }
    threads.emplace_back(client, clients_, std::ref(cf));
    for (std::thread& t : threads) t.join();
    Rung r;
    for (const double c : client_cpu) r.client_cpu_s += c;
    r.warm = wf.result();
    r.cold = cf.result();
    return r;
  }

  /// One client connection: take the feed's next due request, wait for
  /// its due time, send it, record the sample.
  void client_loop(unsigned k, Feed& f) {
    front::Client c = front::Client::connect(dir_ + "/sock");
    // Traced-only cache-layer probe, persisting like the server's cache.
    front::VerdictCache::Options co;
    co.dir = dir_ + "/probe" + std::to_string(k);
    front::VerdictCache local(co);
    const std::size_t n = f.slots.size();
    for (std::size_t i; (i = f.next.fetch_add(1)) < n;) {
      const std::uint64_t due =
          f.t0 + static_cast<std::uint64_t>(f.gap_ns * static_cast<double>(i));
      const std::uint64_t picked = now_ns();
      // Sleep to 50 us short of the due time, then spin the rest.
      if (due > picked + 50'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - picked - 50'000));
      }
      while (now_ns() < due) {
      }
      const std::uint64_t sent = now_ns();
      Sample& out = f.out[i];
      if (static_cast<double>(sent - due) > kAbandonMs * 1e6) {
        out.abandoned = true;
        continue;
      }
      out = send(c, local, f.slots[i], i);
      const std::uint64_t done = now_ns();
      out.latency_ms = static_cast<double>(done - due) / 1e6;
      out.late_ms = static_cast<double>(sent - std::max(due, picked)) / 1e6;
      std::uint64_t seen = f.last.load();
      while (done > seen && !f.last.compare_exchange_weak(seen, done)) {
      }
    }
  }

  /// Send one request and check its reply against the known answer.
  Sample send(front::Client& c, front::VerdictCache& local, const Slot& slot,
              std::uint64_t req) {
    Sample s;
    const Item& it = items_[slot.item];
    rep_.attempt();
    Scope root(tr_, "loadgen.request", req);
    const front::Request rq =
        slot.cold ? salt_request(it.req, slot.salt) : it.req;
    std::string payload;
    {
      Scope sp(tr_, "front.to_json", req);
      payload = front::to_json(rq);
    }
    front::CacheKey key;
    if (tr_.on) {
      Scope sp(tr_, "front.cache_key", req);
      key = front::cache_key(rq);
    }
    front::Client::Reply r;
    const std::uint64_t t0 = now_ns();
    try {
      Scope sp(tr_, "front.serve.roundtrip", req);
      r = c.call(payload, {}, 30000);
    } catch (const std::exception& e) {
      fail(it, std::string("call failed: ") + e.what());
      return s;
    }
    s.call_us = static_cast<double>(now_ns() - t0) / 1e3;
    const std::string status = r.doc.str_or("status", "");
    if (status != "ok") {
      fail(it, "status " + status + ": " + r.raw.substr(0, 200));
      return s;
    }
    s.cached = r.doc.bool_or("cached", false);
    s.server_us = static_cast<double>(r.doc.u64_or("elapsed_us", 0));
    const std::string results = results_of(r.raw);
    if (tr_.on) {
      {
        Scope sp(tr_, "front.cache.get", req);
        if (local.get(key)) return finish(s, it, r, results, slot);
      }
      Scope sp(tr_, "front.cache.put", req);
      local.put(key, {static_cast<int>(r.doc.u64_or("exit_code", 0)), results});
    }
    return finish(s, it, r, results, slot);
  }

  Sample finish(Sample s, const Item& it, const front::Client::Reply& r,
                const std::string& results, const Slot& slot) {
    if (static_cast<int>(r.doc.u64_or("exit_code", 99)) != it.exit_code) {
      fail(it, "exit code " + std::to_string(r.doc.u64_or("exit_code", 99)));
      return s;
    }
    if (!slot.cold) {
      // Every resubmission is a cache hit replaying the cold bytes.
      if (!s.cached || results != it.cold_results) {
        fail(it, s.cached ? "cached reply differs from the cold reply"
                          : "resubmission was not served from the cache");
        return s;
      }
    } else {
      if (s.cached) {
        fail(it, "salted request hit the cache");
        return s;
      }
      const front::JsonValue* arr = r.doc.get("results");
      if (arr == nullptr || !arr->is_arr() || arr->arr.empty()) {
        fail(it, "reply without results");
        return s;
      }
      const front::JsonValue& first = arr->arr.front();
      if (!it.verdict.empty() && first.str_or("verdict", "") != it.verdict) {
        fail(it, "verdict " + first.str_or("verdict", ""));
        return s;
      }
      if (const front::JsonValue* st = first.get("stats")) {
        if (const front::JsonValue* ex = st->get("explore")) {
          s.states = ex->u64_or("states", 0);
        }
      }
    }
    s.ok = true;
    return s;
  }

  void fail(const Item& it, const std::string& why) {
    rep_.fail("serve " + it.name + ": " + why);
  }

  const Args& a_;
  Report& rep_;
  Tracer& tr_;
  const unsigned clients_;
  std::string dir_;
  std::unique_ptr<front::Server> server_;
  std::vector<Item> items_;
  std::map<std::size_t, LintEntry> lint_answers_;
  std::uint64_t salt_ = 0;
};

}  // namespace

void run_serve_mix(const Args& a, Report& rep, Tracer& tr) {
  ServeMix w(a, rep, tr);
  if (tr.on) {
    w.traced();
  } else {
    w.measure();
  }
}

}  // namespace cacbench
