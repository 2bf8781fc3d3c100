// macro_day: one simulated day of the paper's deployment on the sharded
// macro-sim engine — bench::paper_config() with the peak scaled down to
// kPeak and kShards shards. Exactly one day is timed, on one worker thread:
// kParallelThreads workers gain little at this size and their wall time
// swings far more. An op is one simulated event. No crypto, codec or
// transport runs here: the engine, the workload generator and the registry
// histograms do all the work.
//
// Checks: a shorter day hashes identically at one thread and at
// kParallelThreads, and median round latency stays flat between peak and
// off-peak hours (the paper's Fig. 5). The traced section runs the day at
// kParallelThreads so the engine's barrier and imbalance costs show.
#include <cmath>
#include <cstdio>

#include "analysis/stats.h"
#include "bench_common.h"
#include "sim/macro_engine.h"
#include "workloads.h"

namespace perfbench {

using namespace p2pdrm;

namespace {

constexpr double kPeak = 20000;
constexpr std::size_t kShards = 8;
constexpr std::size_t kTimedThreads = 1;
constexpr std::size_t kParallelThreads = 3;
/// The thread-count determinism check runs at this smaller peak.
constexpr double kCheckPeak = 1500;
/// Largest ratio between a round's peak-hours (18:00-24:00) and off-peak
/// median latency for which the round still counts as flat under load.
constexpr double kMaxPeakRatio = 1.2;

sim::MacroSimConfig day_config(std::uint64_t seed, double peak, std::size_t threads) {
  sim::MacroSimConfig cfg = bench::paper_config();
  cfg.days = 1;
  cfg.peak_concurrent = peak;
  cfg.shards = kShards;
  cfg.threads = threads;
  cfg.seed = mix_seed(seed, 0xda7);
  return cfg;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, T v) {
  return fnv1a(h, &v, sizeof(v));
}

/// Digest over every output of a run that must not depend on threads.
std::uint64_t digest(const sim::MacroSimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const std::string reg = r.registry->to_string();
  h = fnv1a(h, reg.data(), reg.size());
  for (const sim::RoundTrace& t : r.rounds) {
    h = fnv1a_value(h, t.count);
    for (const analysis::Reservoir* res : {&t.peak, &t.offpeak}) {
      h = fnv1a_value(h, res->seen());
      for (const double v : res->samples()) h = fnv1a_value(h, v);
    }
    for (const analysis::Reservoir& res : t.hourly) {
      h = fnv1a_value(h, res.seen());
      for (const double v : res.samples()) h = fnv1a_value(h, v);
    }
  }
  for (const double c : r.hourly_concurrency) h = fnv1a_value(h, c);
  for (const std::uint64_t v : {r.sessions, r.channel_switches, r.ct_renewals, r.ut_renewals,
                                r.join_retries, r.logins_shed, r.busy_retries,
                                r.busy_abandoned, r.events}) {
    h = fnv1a_value(h, v);
  }
  for (const double v : {r.peak_observed_concurrency, r.um_utilization, r.cm_utilization}) {
    h = fnv1a_value(h, v);
  }
  return h;
}

struct Day {
  sim::MacroSimResult result;
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;
};

Day run_day(const sim::MacroSimConfig& cfg) {
  Day day;
  const double t0 = now_s();
  sim::MacroEngine engine(cfg);
  day.setup_s = now_s() - t0;
  const double cpu0 = cpu_seconds();
  const double t1 = now_s();
  day.result = engine.run();
  day.run_s = now_s() - t1;
  day.cpu_s = cpu_seconds() - cpu0;
  return day;
}

/// Fig. 5's property, flat latency under the diurnal load swing: per
/// round, the median at the evening peak (18:00-24:00) against the median
/// off-peak, plus the hourly-median/concurrency correlation as a note.
void check_load_independence(const sim::MacroSimResult& r, Result& out) {
  for (std::size_t i = 0; i < sim::kNumRounds; ++i) {
    const auto round = static_cast<sim::ProtocolRound>(i);
    const std::string name(sim::to_string(round));
    const sim::RoundTrace& t = r.round(round);
    const std::vector<double> med = t.hourly_median();
    std::vector<double> x, y;
    for (std::size_t h = 0; h < med.size() && h < r.hourly_concurrency.size(); ++h) {
      if (med[h] <= 0) continue;
      x.push_back(r.hourly_concurrency[h]);
      y.push_back(med[h]);
    }
    const double corr = analysis::pearson(x, y).value_or(0);
    const double peak = median(t.peak.samples());
    const double offpeak = median(t.offpeak.samples());
    const double ratio = offpeak > 0 ? peak / offpeak : 0;
    out.note(format("%-7s median %.1f ms at peak, %.1f ms off-peak (x%.3f); hourly "
                    "median vs load r = %+.3f over %zu hours",
                    name.c_str(), peak * 1e3, offpeak * 1e3, ratio, corr, x.size()));
    if (!(ratio <= kMaxPeakRatio && ratio >= 1 / kMaxPeakRatio)) {
      out.violation(format("%s median latency moves with load: x%.3f at peak", name.c_str(),
                           ratio));
    }
  }
}

}  // namespace

Result macro_day(const Options& opts) {
  Result out;
  const sim::MacroSimConfig cfg = day_config(opts.seed, kPeak, kTimedThreads);
  // One day whatever --seconds says: each engine run in a process leaves
  // memory resident, so repeating days would tie peak_rss_mb to speed.
  const Day day = run_day(cfg);
  const std::uint64_t events = day.result.events;
  check_load_independence(day.result, out);
  std::vector<double> latency_ms;
  for (const sim::RoundTrace& t : day.result.rounds) {
    for (const analysis::Reservoir* res : {&t.peak, &t.offpeak}) {
      for (const double v : res->samples()) latency_ms.push_back(v * 1e3);
    }
  }
  // Engine construction takes milliseconds: the median rests on thirty.
  std::vector<double> setup_s{day.setup_s};
  while (setup_s.size() < 30) {
    const double t0 = now_s();
    { sim::MacroEngine engine(cfg); }
    setup_s.push_back(now_s() - t0);
  }

  out.ops.attempted = events;
  out.metric("setup_s", median(setup_s), "s");
  out.metric("ops_per_s", static_cast<double>(events) / day.run_s, "1/s");
  out.metric("cpu_us_per_op", day.cpu_s * 1e6 / static_cast<double>(events), "us");
  out.metric("op_p50_ms", median(latency_ms), "ms");
  if (const std::optional<double> p90 = supported_quantile(latency_ms, 0.9)) {
    out.metric("op_p90_ms", *p90, "ms");
  }
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.note(format("1 simulated day at peak %.0f, %zu shards, %zu thread(s): %llu events in "
                  "%.2f s; op_p50_ms/op_p90_ms are the simulated protocol-round latencies "
                  "(%zu samples)",
                  kPeak, kShards, kTimedThreads, static_cast<unsigned long long>(events),
                  day.run_s, latency_ms.size()));

  // Thread-count determinism on a shorter day, outside the timed region.
  const std::uint64_t one = digest(run_day(day_config(opts.seed, kCheckPeak, 1)).result);
  const std::uint64_t many =
      digest(run_day(day_config(opts.seed, kCheckPeak, kParallelThreads)).result);
  if (one != many) {
    out.violation(format("outputs differ between 1 and %zu threads (%016llx vs %016llx)",
                         kParallelThreads, static_cast<unsigned long long>(one),
                         static_cast<unsigned long long>(many)));
  }
  return out;
}

Result macro_day_layers(const Options& opts, double seconds) {
  (void)seconds;  // one traced day: the engine's counters are per day
  Result out;
  profiler().reset();
  profiler().enable();
  profiler().attach_thread("bench-main");
  obs::Tracer tracer;
  sim::MacroSimConfig cfg = day_config(opts.seed, kPeak, kParallelThreads);
  cfg.obs.tracer = &tracer;
  cfg.obs.trace_session_every = 1000;
  Day day;
  {
    Span s(profiler(), "bench.sim.day");
    day = run_day(cfg);
  }
  profiler().disable();
  const sim::MacroRuntimeStats& rt = day.result.runtime;
  double busy = 0;
  for (const double b : rt.worker_busy_seconds) busy += b;
  out.ops.attempted = day.result.events;
  out.metric("sim.events", static_cast<double>(day.result.events), "count");
  out.metric("sim.worker_busy_s", busy, "s");
  out.metric("sim.barrier_wait_share", rt.barrier_wait_fraction, "ratio");
  out.metric("sim.imbalance_mean", rt.imbalance_mean, "ratio");
  out.metric("sim.coordinator_s", rt.coordinator_wall_seconds, "s");
  out.metric("sim.windows", static_cast<double>(rt.windows), "count");
  const std::string trace_path = opts.out_dir + "/trace_macro_day.json";
  obs::write_text_file(trace_path, obs::merged_chrome_trace(tracer, profiler()));
  out.artifact("chrome_trace_macro_day", trace_path);
  return out;
}

}  // namespace perfbench
