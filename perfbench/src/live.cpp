#include "live.h"

#include <algorithm>
#include <cstring>

#include "transport/thread_transport.h"

namespace perfbench {

using namespace p2pdrm;

net::DeploymentConfig live_config(bool traced) {
  net::DeploymentConfig cfg;
  cfg.seed = kDeploymentSeed;
  cfg.key_bits = kKeyBits;
  cfg.transport = net::TransportKind::kThread;
  cfg.transport_threads = kLoops;
  // Zero link latency and no loss: every microsecond measured is the
  // program's own work or its queueing, never an injected sleep.
  cfg.default_link.latency.floor = 0;
  cfg.default_link.latency.median = 0;
  cfg.default_link.latency.sigma = 0;
  cfg.default_link.loss = 0;
  cfg.tracing = traced;
  return cfg;
}

net::SendInterceptor::Verdict WireTap::on_send(const net::SendContext& ctx) {
  const std::uint64_t n = messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(ctx.bytes, std::memory_order_relaxed);
  if (!canary_.empty() && ctx.data != nullptr && n % kScanEvery == 0) {
    scanned_.fetch_add(1, std::memory_order_relaxed);
    const util::Bytes& data = *ctx.data;
    if (data.size() >= canary_.size() &&
        std::search(data.begin(), data.end(), canary_.begin(), canary_.end()) !=
            data.end()) {
      leaks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return {};
}

void ExchangeTap::on_packet_fate(const net::SendContext& ctx, net::PacketFate fate,
                                 util::SimTime delay) {
  if ((fate != net::PacketFate::kInFlight && fate != net::PacketFate::kDelivered) ||
      ctx.data == nullptr) {
    return;
  }
  const std::optional<net::Envelope> env = net::Envelope::decode(*ctx.data);
  if (!env) return;
  const auto kind = static_cast<std::uint8_t>(env->kind);
  // Request kinds are odd up to the JOIN request; each response is kind+1.
  if (kind > static_cast<std::uint8_t>(net::MsgKind::kJoinResponse)) return;
  const bool request = kind % 2 == 1;
  const util::NodeId client = request ? ctx.from : ctx.to;
  const bool sent = fate == net::PacketFate::kInFlight;
  // Request ids are per client and per protocol path (overlay JOINs
  // count separately), so the request kind is part of the key.
  const auto request_kind = static_cast<net::MsgKind>(request ? kind : kind - 1);
  std::lock_guard<std::mutex> lk(mu_);
  Exchange& x = open_[{client, request_kind, env->request_id}];
  if (request) {
    (sent ? x.s1 : x.a1) = ctx.now;
    if (sent) x.d1 = delay;
  } else {
    (sent ? x.s2 : x.a2) = ctx.now;
    if (sent) x.d2 = delay;
  }
}

std::vector<ExchangeTap::Exchange> ExchangeTap::completed(util::NodeId client,
                                                         net::MsgKind request) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Exchange> out;
  for (auto it = open_.lower_bound({client, request, 0});
       it != open_.end() && std::get<0>(it->first) == client &&
       std::get<1>(it->first) == request;
       ++it) {
    if (it->second.complete()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end(),
            [](const Exchange& a, const Exchange& b) { return a.s1 < b.s1; });
  return out;
}

std::vector<obs::LoopStats> loop_stats(net::Deployment& d) {
  const auto* threaded =
      dynamic_cast<const transport::ThreadTransport*>(&d.transport());
  return threaded == nullptr ? std::vector<obs::LoopStats>{}
                             : threaded->loop_stats();
}

namespace {

/// Quantile of a log-bucketed histogram, interpolated linearly inside the
/// bucket that holds the rank (the histogram's own quantile() returns the
/// bucket midpoint, which reads identically across most runs).
double interpolated_quantile(const obs::LatencyHistogram& h, double q) {
  const std::vector<std::uint64_t>& buckets = h.buckets();
  const double rank = q * static_cast<double>(h.count());
  double below = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double n = static_cast<double>(buckets[i]);
    if (n > 0 && below + n >= rank) {
      const double lo = static_cast<double>(obs::LatencyHistogram::bucket_lower(i));
      const double hi = static_cast<double>(obs::LatencyHistogram::bucket_upper(i));
      return lo + (hi - lo) * (rank - below) / n;
    }
    below += n;
  }
  return static_cast<double>(h.max());
}

}  // namespace

void transport_metrics(net::Deployment& d, const std::vector<obs::LoopStats>& before,
                       const std::vector<obs::LoopStats>& after, double wall_s,
                       std::uint64_t ops, Result& out) {
  const auto* threaded =
      dynamic_cast<const transport::ThreadTransport*>(&d.transport());
  if (threaded == nullptr || after.size() != before.size() || after.empty()) {
    out.violation("transport telemetry unavailable");
    return;
  }
  std::uint64_t tasks = 0;
  double busy_max = 0;
  std::int64_t ready_peak = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    tasks += after[i].tasks - before[i].tasks;
    const double busy = static_cast<double>(after[i].busy_us - before[i].busy_us) * 1e-6;
    busy_max = std::max(busy_max, busy);
    ready_peak = std::max(ready_peak, after[i].ready_peak);
  }
  const obs::LatencyHistogram sched = threaded->sched_latency();
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  out.metric("transport.tasks_per_op", static_cast<double>(tasks) / n, "count");
  out.metric("transport.busy_max_share", wall_s > 0 ? busy_max / wall_s : 0, "ratio");
  out.metric("transport.sched_wait_p50_us", interpolated_quantile(sched, 0.50), "us");
  out.metric("transport.sched_wait_p99_us", interpolated_quantile(sched, 0.99), "us");
  out.metric("transport.ready_peak", static_cast<double>(ready_peak), "count");
}

void slice_metrics(const std::vector<Completion>& done, std::int64_t start_ns,
                   std::int64_t end_ns, double ops_each, const char* what, Result& out) {
  const double slice_ns = static_cast<double>(end_ns - start_ns) / kSlices;
  std::vector<std::vector<double>> slices(kSlices);
  std::vector<double> all;
  for (const Completion& c : done) {
    if (c.done_ns < start_ns || c.done_ns >= end_ns) continue;
    const auto i = static_cast<std::size_t>(static_cast<double>(c.done_ns - start_ns) / slice_ns);
    slices[std::min(i, kSlices - 1)].push_back(c.latency_ms);
    all.push_back(c.latency_ms);
  }
  std::vector<double> rate, p50, p90;
  std::size_t fewest = all.size();
  for (const std::vector<double>& s : slices) {
    rate.push_back(static_cast<double>(s.size()) * ops_each / (slice_ns * 1e-9));
    p50.push_back(median(s));
    if (const std::optional<double> q = supported_quantile(s, 0.9)) p90.push_back(*q);
    fewest = std::min(fewest, s.size());
  }
  out.metric("ops_per_s", median(rate), "1/s");
  out.metric("op_p50_ms", median(p50), "ms");
  if (p90.size() == kSlices) out.metric("op_p90_ms", median(p90), "ms");
  const std::optional<double> p99 = supported_quantile(all, 0.99);
  const auto range = [](const std::vector<double>& v, const char* fmt) {
    return v.empty() ? std::string("-")
                     : format(fmt, *std::min_element(v.begin(), v.end()),
                              *std::max_element(v.begin(), v.end()));
  };
  out.note(format("%s: medians over %zu slices of %.2f s, fewest %zu samples in a slice; "
                  "rate %s/s, p50 %s ms, p90 %s ms; whole-window p99 %s",
                  what, kSlices, slice_ns * 1e-9, fewest, range(rate, "%.0f..%.0f").c_str(),
                  range(p50, "%.3f..%.3f").c_str(), range(p90, "%.3f..%.3f").c_str(),
                  p99 ? format("%.3f ms (not a metric: it tracks host stalls)", *p99).c_str()
                      : "withheld (fewer than 1000 samples)"));
}

}  // namespace perfbench
