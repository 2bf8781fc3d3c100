// session_churn: the DRM control plane at saturation.
//
// A closed loop of kClients clients on the live ThreadTransport (zero link
// latency, no loss), each repeating one tune-in back to back: a fresh
// LOGIN1/LOGIN2 on the first tune-in of each modelled viewing session
// (tune_ins_per_login()), then SWITCH1/SWITCH2 to a channel drawn
// Zipf-wise, then JOIN. One tune-in in kRefuseEvery targets a channel the
// user is not entitled to; the Channel Manager must refuse it, and a
// refusal that matches the benchmark's entitlement table counts as a
// success. Farms are durable, with two UM and two CM instances over two
// channel partitions. After the timed phase a second client of one account
// tunes in to the channel the first is watching, and the single-session
// rule must evict the first.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>

#include "analysis/critical_path.h"
#include "live.h"
#include "probes.h"
#include "store/journal.h"
#include "workload/workload.h"
#include "workloads.h"

namespace perfbench {

using namespace p2pdrm;

namespace {

constexpr std::size_t kClients = 12;
// Client i's k-th tune-in logs in afresh when it starts a new modelled
// session (starts_session(k + i)) and targets a channel it is not entitled
// to when (k + i) % kRefuseEvery == kRefuseSlot: the offset by i keeps the
// clients' heavy tune-ins out of step, so the mix in flight stays the same
// over the run. The refusal share is an assumption, not a measured figure.
constexpr std::uint64_t kRefuseEvery = 8;
constexpr std::uint64_t kRefuseSlot = 5;
constexpr double kZipfExponent = 0.9;
constexpr std::size_t kTicketSamplesPerClient = 8;
constexpr const char* kPackage = "gold";

/// The channel line-up and the entitlement table the benchmark judges
/// admissions against. Regions are indices into the deployment's geo plan.
struct ChannelSpec {
  util::ChannelId id;
  bool subscription;  // needs kPackage on top of the region
  int region;
  std::uint32_t partition;
};
constexpr ChannelSpec kChannels[] = {
    {1, false, 0, 0}, {2, false, 0, 1}, {3, true, 0, 0},
    {4, false, 1, 1}, {5, true, 1, 0},  {6, false, 1, 1},
};

/// Tune-ins per login, from the viewing-session model the macro-sim draws
/// its viewers from: a session lasts E[D] = median * exp(sigma^2 / 2)
/// (lognormal) and switches channel at Poisson rate 1 / mean switch
/// interval, so it holds 1 + E[D] / interval tune-ins. With the model's
/// defaults (25 min, sigma 1, 12 min): 1 + 41.2 / 12 = 4.43.
double tune_ins_per_login() {
  const workload::SessionModel m;
  const double mean_duration = static_cast<double>(m.median_duration) *
                               std::exp(m.duration_sigma * m.duration_sigma / 2);
  return 1 + mean_duration / static_cast<double>(m.mean_switch_interval);
}

/// Whether tune-in k starts a session: the k-th of a run of sessions, each
/// tune_ins_per_login() tune-ins long on average, in a fixed pattern.
bool starts_session(std::uint64_t k) {
  static const double per_login = tune_ins_per_login();
  return std::floor(static_cast<double>(k + 1) / per_login) >
         std::floor(static_cast<double>(k) / per_login);
}

struct Account {
  std::string email;
  int region = 0;
  bool subscribed = false;
};

Account account_for(std::size_t i) {
  return {"viewer" + std::to_string(i) + "@churn.example", static_cast<int>(i % 2),
          i % 3 == 0};
}

bool entitled(const Account& a, const ChannelSpec& c) {
  return c.region == a.region && (!c.subscription || a.subscribed);
}

struct TicketSample {
  core::SignedUserTicket user;
  core::SignedChannelTicket channel;
  std::uint32_t partition = 0;
};

/// One closed-loop client. All fields are confined to the client's event
/// loop while the run is live and read by the main thread only after it.
struct LoopClient {
  net::AsyncClient* client = nullptr;
  Account account;
  std::vector<const ChannelSpec*> allowed, denied;
  std::vector<double> allowed_cdf, denied_cdf;
  crypto::SecureRandom rng{1};
  std::uint64_t k = 0;  // tune-ins started, offset by the client index

  // The tune-in in flight.
  std::int64_t t0 = 0;
  const ChannelSpec* target = nullptr;
  bool expect_admit = true;

  // Outcomes.
  OpCount ops;
  std::uint64_t admitted = 0, refused = 0;
  std::uint64_t wrong_admits = 0, wrong_refusals = 0, wrong_ticket = 0;
  std::array<std::uint64_t, 2> admitted_in_partition{};
  std::map<std::string, std::uint64_t> errors;
  std::vector<Completion> done;
  std::vector<TicketSample> samples;
};

std::vector<double> zipf_cdf(std::size_t n) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

const ChannelSpec* draw(crypto::SecureRandom& rng,
                        const std::vector<const ChannelSpec*>& list,
                        const std::vector<double>& cdf) {
  const double u = rng.uniform_real();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return list[std::min<std::size_t>(it - cdf.begin(), list.size() - 1)];
}

/// A provisioned deployment plus its closed-loop clients.
class Rig {
 public:
  Rig(std::uint64_t seed, bool traced) {
    net::DeploymentConfig cfg = live_config(traced);
    // Renewal is timely at any point of a ticket's life, so the
    // single-session probe is decided by that rule alone.
    cfg.cm.renewal_window = cfg.cm.ticket_lifetime;
    cfg.partitions = 2;
    cfg.um_instances = 2;
    cfg.cm_instances = 2;
    cfg.durability.enabled = true;
    d_ = std::make_unique<net::Deployment>(cfg);
    d_->network().add_interceptor(&tap_);

    const geo::RegionId regions[2] = {d_->geo().region_at(0), d_->geo().region_at(1)};
    for (const ChannelSpec& c : kChannels) {
      const std::string name = "ch" + std::to_string(c.id);
      if (c.subscription) {
        d_->add_subscription_channel(c.id, name, regions[c.region], kPackage,
                                     c.partition);
      } else {
        d_->add_regional_channel(c.id, name, regions[c.region], c.partition);
      }
      d_->start_channel_server(c.id);
    }
    clients_.resize(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      LoopClient& dr = clients_[i];
      dr.account = account_for(i);
      d_->add_user(dr.account.email, "pw");
      if (dr.account.subscribed) {
        d_->accounts().subscribe(dr.account.email, {kPackage});
      }
      dr.client = &d_->add_client(dr.account.email, "pw", regions[dr.account.region]);
      for (const ChannelSpec& c : kChannels) {
        (entitled(dr.account, c) ? dr.allowed : dr.denied).push_back(&c);
      }
      dr.allowed_cdf = zipf_cdf(dr.allowed.size());
      dr.denied_cdf = zipf_cdf(dr.denied.size());
      dr.rng = crypto::SecureRandom(mix_seed(seed, 100 + i));
      dr.k = i;
    }
    // A second machine on client 0's account; idle until the probe.
    twin_ = &d_->add_client(clients_[0].account.email, "pw",
                            regions[clients_[0].account.region]);
  }

  /// Stops the loops first: client hooks and posted tasks point into this
  /// rig's members, which are destroyed before the deployment.
  ~Rig() {
    d_->transport().shutdown();
    d_->network().remove_interceptor(&tap_);
  }

  net::Deployment& deployment() { return *d_; }
  const std::vector<LoopClient>& clients() const { return clients_; }
  const WireTap& tap() const { return tap_; }
  const net::AsyncClient& twin() const { return *twin_; }

  std::int64_t start_ns() const { return start_ns_; }
  std::int64_t deadline_ns() const { return deadline_ns_; }

  /// Run the closed loop for `seconds`: no tune-in starts after the
  /// deadline. Returns wall seconds from kickoff to the last completion.
  double run(double seconds) {
    const std::int64_t start = start_ns_ = now_ns();
    deadline_ns_ = start + static_cast<std::int64_t>(seconds * 1e9);
    for (LoopClient& dr : clients_) {
      d_->network().post(dr.client->config().node, 0, [this, &dr] { start_tune_in(dr); });
    }
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return finished_ == clients_.size(); });
    return static_cast<double>(last_done_ns_ - start) * 1e-9;
  }

  /// The single-session rule, after run() and before the transport stops:
  /// client 0 tunes in to its favourite channel, the twin on the same
  /// account then tunes in to it too, and only the twin may renew. Returns
  /// the channel, or nullptr after recording what went wrong.
  const ChannelSpec* single_session_probe(Result& out) {
    net::AsyncClient& owner = *clients_[0].client;
    const ChannelSpec* channel = clients_[0].allowed.front();
    const auto expect = [&out](const char* step, core::DrmError got, core::DrmError want) {
      if (got == want) return true;
      out.violation(format("single-session probe: %s returned %s, expected %s", step,
                           std::string(core::to_string(got)).c_str(),
                           std::string(core::to_string(want)).c_str()));
      return false;
    };
    const auto login = [](net::AsyncClient& c, net::AsyncClient::Callback cb) {
      c.login(std::move(cb));
    };
    const auto watch = [channel](net::AsyncClient& c, net::AsyncClient::Callback cb) {
      c.switch_channel(channel->id, std::move(cb));
    };
    const auto renew = [](net::AsyncClient& c, net::AsyncClient::Callback cb) {
      c.renew_channel_ticket(std::move(cb));
    };
    const core::DrmError ok = core::DrmError::kOk;
    if (!expect("first session login", call(owner, login), ok) ||
        !expect("first session tune-in", call(owner, watch), ok) ||
        !expect("second session login", call(*twin_, login), ok) ||
        !expect("second session tune-in", call(*twin_, watch), ok)) {
      return nullptr;
    }
    const bool evicted =
        expect("first session renewal", call(owner, renew), core::DrmError::kRenewalRefused);
    const bool kept = expect("second session renewal", call(*twin_, renew), ok);
    return evicted && kept ? channel : nullptr;
  }

 private:
  /// Runs one client operation on the client's loop and waits for it.
  core::DrmError call(net::AsyncClient& c,
                      const std::function<void(net::AsyncClient&, net::AsyncClient::Callback)>& op) {
    std::promise<core::DrmError> done;
    d_->network().post(c.config().node, 0, [&] {
      op(c, [&done](core::DrmError e) { done.set_value(e); });
    });
    return done.get_future().get();
  }

  void start_tune_in(LoopClient& dr) {
    const bool login = starts_session(dr.k) || !dr.client->logged_in();
    dr.expect_admit = dr.k % kRefuseEvery != kRefuseSlot;
    dr.target = dr.expect_admit ? draw(dr.rng, dr.allowed, dr.allowed_cdf)
                                : draw(dr.rng, dr.denied, dr.denied_cdf);
    ++dr.k;
    ++dr.ops.attempted;
    dr.t0 = now_ns();
    net::AsyncClient* c = dr.client;
    const auto tune = [this, &dr, c] {
      Span s(profiler(), "bench.net.switch_channel");
      c->switch_channel(dr.target->id, [this, &dr](core::DrmError e) { finish(dr, e); });
    };
    if (login) {
      Span s(profiler(), "bench.net.login");
      c->login([this, &dr, tune](core::DrmError e) {
        if (e != core::DrmError::kOk) {
          finish(dr, e);
        } else {
          tune();
        }
      });
    } else {
      tune();
    }
  }

  void finish(LoopClient& dr, core::DrmError e) {
    const std::int64_t t = now_ns();
    const bool ok_admit = e == core::DrmError::kOk && dr.expect_admit;
    const bool ok_refuse = e == core::DrmError::kAccessDenied && !dr.expect_admit;
    if (ok_admit || ok_refuse) {
      dr.done.push_back({t, static_cast<double>(t - dr.t0) * 1e-6});
    } else {
      ++dr.ops.failed;
      if (e == core::DrmError::kOk) ++dr.wrong_admits;
      else if (e == core::DrmError::kAccessDenied) ++dr.wrong_refusals;
      else ++dr.errors[std::string(core::to_string(e))];
    }
    if (ok_refuse) ++dr.refused;
    if (ok_admit) {
      ++dr.admitted;
      ++dr.admitted_in_partition[dr.target->partition];
      const auto& ct = dr.client->channel_ticket();
      if (!ct || ct->ticket.channel_id != dr.target->id ||
          !dr.client->user_ticket() ||
          ct->ticket.user_in != dr.client->user_ticket()->ticket.user_in) {
        ++dr.wrong_ticket;
      } else if (dr.admitted % 16 == 1 && dr.samples.size() < kTicketSamplesPerClient) {
        dr.samples.push_back({*dr.client->user_ticket(), *ct, dr.target->partition});
      }
    }
    if (t < deadline_ns_) {
      // Next tune-in as its own task, so it never runs inside the client's
      // completion path.
      d_->network().post(dr.client->config().node, 0, [this, &dr] { start_tune_in(dr); });
      return;
    }
    std::lock_guard<std::mutex> lk(mu_);
    last_done_ns_ = std::max(last_done_ns_, t);
    if (++finished_ == clients_.size()) cv_.notify_all();
  }

  WireTap tap_;
  std::unique_ptr<net::Deployment> d_;
  std::vector<LoopClient> clients_;
  net::AsyncClient* twin_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::int64_t deadline_ns_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t finished_ = 0;
  std::int64_t last_done_ns_ = 0;
};

struct Totals {
  OpCount ops;
  std::uint64_t admitted = 0, refused = 0;
  std::array<std::uint64_t, 2> admitted_in_partition{};
  std::vector<Completion> done;
};

Totals totals(const Rig& rig) {
  Totals t;
  for (const LoopClient& dr : rig.clients()) {
    t.ops.attempted += dr.ops.attempted;
    t.ops.failed += dr.ops.failed;
    t.admitted += dr.admitted;
    t.refused += dr.refused;
    for (std::size_t p = 0; p < 2; ++p) t.admitted_in_partition[p] += dr.admitted_in_partition[p];
    t.done.insert(t.done.end(), dr.done.begin(), dr.done.end());
  }
  return t;
}

/// Output checks that need the transport stopped: outcomes against the
/// entitlement table, the issued tickets, and the CM viewing logs.
/// `probed` is the channel of a passed single-session probe, or nullptr.
void check_outputs(Rig& rig, const Totals& t, const ChannelSpec* probed, Result& out) {
  std::map<util::UserIN, std::set<util::NetAddr>> addrs_of_user;
  for (const LoopClient& dr : rig.clients()) {
    if (dr.wrong_admits > 0) {
      out.violation(format("%s admitted to %llu tune-in(s) it is not entitled to",
                           dr.account.email.c_str(),
                           static_cast<unsigned long long>(dr.wrong_admits)));
    }
    if (dr.wrong_refusals > 0) {
      out.violation(format("%s refused on %llu entitled tune-in(s)",
                           dr.account.email.c_str(),
                           static_cast<unsigned long long>(dr.wrong_refusals)));
    }
    if (dr.wrong_ticket > 0) {
      out.violation(format("%s holds a ticket for the wrong channel or user",
                           dr.account.email.c_str()));
    }
    for (const auto& [err, n] : dr.errors) {
      out.note(format("%s: %llu tune-in(s) failed with %s", dr.account.email.c_str(),
                      static_cast<unsigned long long>(n), err.c_str()));
    }
    if (dr.client->user_ticket()) {
      addrs_of_user[dr.client->user_ticket()->ticket.user_in].insert(dr.client->config().addr);
    }
  }
  const net::AsyncClient& twin = rig.twin();
  if (twin.user_ticket()) {
    addrs_of_user[twin.user_ticket()->ticket.user_in].insert(twin.config().addr);
  }

  // Viewing logs: every fresh issue in any CM replica was made at a
  // machine of that account, and each partition's replicas hold exactly
  // the admissions it made (the probe's two included). After the probe the
  // latest fresh issue of its account and channel, the one renewal is
  // judged by, names the second machine: the first session is evicted.
  net::Deployment& d = rig.deployment();
  for (std::uint32_t p = 0; p < d.partition_count(); ++p) {
    std::set<std::tuple<util::UserIN, util::ChannelId, util::SimTime>> fresh;
    const bool probed_here = probed != nullptr && probed->partition == p;
    const services::ViewingLog::Entry* latest = nullptr;
    for (std::size_t i = 0; i < d.cm_instance_count(p); ++i) {
      const services::ViewingLog* log = d.cm_viewing_log(p, i);
      if (log == nullptr) {
        out.violation("durable deployment has no viewing log replica");
        continue;
      }
      if (probed_here && twin.user_ticket()) {
        const services::ViewingLog::Entry* e =
            log->latest(twin.user_ticket()->ticket.user_in, probed->id);
        if (e != nullptr && (latest == nullptr || e->time > latest->time)) latest = e;
      }
      for (const services::ViewingLog::Entry& e : log->audit_trail()) {
        if (e.renewal) continue;
        const auto it = addrs_of_user.find(e.user_in);
        if (it == addrs_of_user.end() || it->second.count(e.addr) == 0) {
          out.violation(format("partition %u replica %zu: user %llu has a session at "
                               "an address that is not its clients'", p, i,
                               static_cast<unsigned long long>(e.user_in)));
          break;
        }
        fresh.emplace(e.user_in, e.channel, e.time);
      }
    }
    const std::uint64_t admissions = t.admitted_in_partition[p] + (probed_here ? 2 : 0);
    if (probed != nullptr && fresh.size() != admissions) {
      out.violation(format("partition %u: viewing logs hold %zu fresh issues, %llu "
                           "admissions were made", p, fresh.size(),
                           static_cast<unsigned long long>(admissions)));
    }
    if (probed_here && (latest == nullptr || latest->addr != twin.config().addr)) {
      out.violation(format("partition %u: the latest session of the probed account on "
                           "channel %u is not the second machine's", p,
                           static_cast<unsigned>(probed->id)));
    }
  }
}

/// Ticket samples and the managers' public keys, for the Python verifier.
void write_ticket_samples(Rig& rig, const Options& opts, const std::string& tag,
                          Result& out) {
  net::Deployment& d = rig.deployment();
  const std::string path = opts.out_dir + "/tickets_" + tag + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    out.violation("cannot write " + path);
    return;
  }
  const auto line = [f](const char* kind, const crypto::RsaPublicKey& key,
                        const util::Bytes& body, const util::Bytes& sig) {
    std::fprintf(f, "{\"kind\": \"%s\", \"n\": \"%s\", \"e\": \"%s\", \"body\": \"%s\", "
                    "\"sig\": \"%s\"}\n",
                 kind, hex(key.n.to_bytes_be()).c_str(), hex(key.e.to_bytes_be()).c_str(),
                 hex(body).c_str(), hex(sig).c_str());
  };
  std::size_t n = 0;
  for (const LoopClient& dr : rig.clients()) {
    for (const TicketSample& s : dr.samples) {
      line("user", d.um_domain().keys.pub, s.user.body, s.user.signature);
      line("channel", d.cm_partition(s.partition).keys.pub, s.channel.body,
           s.channel.signature);
      n += 2;
    }
  }
  std::fclose(f);
  if (n == 0) out.violation("no tickets were sampled for verification");
  out.artifact("tickets", path);
  out.note(format("%zu issued ticket signatures sampled for independent verification", n));
}

}  // namespace

Result session_churn(const Options& opts) {
  Result out;
  // Set-up three times, report the median; the last rig runs.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < 3; ++rep) {
    rig.reset();
    const double t0 = now_s();
    rig = std::make_unique<Rig>(opts.seed, false);
    setup_s.push_back(now_s() - t0);
  }
  net::Deployment& d = rig->deployment();
  const double cpu0 = cpu_seconds();
  const double wall = rig->run(opts.seconds);
  const double cpu = cpu_seconds() - cpu0;
  const ChannelSpec* probed = rig->single_session_probe(out);
  d.transport().shutdown();

  const Totals t = totals(*rig);
  out.ops = t.ops;
  const double ok = static_cast<double>(std::max<std::uint64_t>(t.ops.ok(), 1));
  out.metric("setup_s", median(setup_s), "s");
  slice_metrics(t.done, rig->start_ns(), rig->deadline_ns(), 1, "tune-ins", out);
  out.metric("cpu_us_per_op", cpu * 1e6 / ok, "us");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.note(format("%llu tune-ins in %.2f s on %zu loops: %llu admitted, %llu refused as "
                  "the entitlement table requires, %llu failed",
                  static_cast<unsigned long long>(t.ops.attempted), wall, kLoops,
                  static_cast<unsigned long long>(t.admitted),
                  static_cast<unsigned long long>(t.refused),
                  static_cast<unsigned long long>(t.ops.failed)));
  check_outputs(*rig, t, probed, out);
  write_ticket_samples(*rig, opts, "session_churn", out);
  return out;
}

Result session_churn_layers(const Options& opts, double seconds) {
  Result out;
  // Untraced half: the baseline of the tracing overhead.
  double untraced_cpu_per_op = 0;
  {
    Rig rig(opts.seed, false);
    const double cpu0 = cpu_seconds();
    rig.run(seconds / 2);
    const double cpu = cpu_seconds() - cpu0;
    rig.deployment().transport().shutdown();
    untraced_cpu_per_op = cpu / static_cast<double>(std::max<std::uint64_t>(totals(rig).ops.ok(), 1));
  }

  profiler().reset();
  profiler().enable();
  profiler().attach_thread("bench-main");
  ExchangeTap xtap;  // outlives the rig: removed only after the transport stops
  Rig rig(opts.seed, true);
  net::Deployment& d = rig.deployment();
  d.network().add_interceptor(&xtap);
  const std::uint64_t samples0 = d.registry().counter("tracker.samples").value();
  const std::uint64_t repl0 = d.registry().counter("store.replication.rounds").value();
  const std::vector<obs::LoopStats> before = loop_stats(d);
  const double cpu0 = cpu_seconds();
  const double wall = rig.run(seconds / 2);
  const double cpu = cpu_seconds() - cpu0;
  const std::vector<obs::LoopStats> after = loop_stats(d);
  const std::uint64_t samples = d.registry().counter("tracker.samples").value() - samples0;
  const std::uint64_t repl = d.registry().counter("store.replication.rounds").value() - repl0;
  d.transport().shutdown();
  d.network().remove_interceptor(&xtap);
  profiler().disable();

  const Totals t = totals(rig);
  out.ops = t.ops;
  const double ops = static_cast<double>(std::max<std::uint64_t>(t.ops.ok(), 1));
  out.metric("obs.trace_overhead", untraced_cpu_per_op > 0 ? (cpu / ops) / untraced_cpu_per_op : 0,
             "ratio");
  transport_metrics(d, before, after, wall, t.ops.ok(), out);
  out.metric("net.msgs_per_op", static_cast<double>(rig.tap().messages()) / ops, "count");
  out.metric("net.wire_bytes_per_op", static_cast<double>(rig.tap().bytes()) / ops, "B");
  std::uint64_t retransmits = 0;
  for (const LoopClient& dr : rig.clients()) retransmits += dr.client->retransmits();
  out.metric("net.retransmits", static_cast<double>(retransmits), "count");
  if (retransmits != 0) out.violation("retransmissions on a lossless zero-latency link");
  out.metric("p2p.tracker_samples_per_op", static_cast<double>(samples) / ops, "count");

  // Store: journal records appended per tune-in (all UM and CM replicas),
  // and journal bytes at the replicas' mean record size.
  std::vector<store::FarmStore*> stores;
  for (std::size_t i = 0; i < d.um_instance_count(); ++i) stores.push_back(d.um_store(i));
  for (std::uint32_t p = 0; p < d.partition_count(); ++p) {
    for (std::size_t i = 0; i < d.cm_instance_count(p); ++i) stores.push_back(d.cm_store(p, i));
  }
  double records = 0, held_records = 0, held_bytes = 0;
  for (const store::FarmStore* st : stores) {
    if (st == nullptr) continue;
    const store::Journal& j = st->journal();
    records += static_cast<double>(j.next_seq() - 1);
    held_records += static_cast<double>(store::Journal::replay(j.durable()).records.size() +
                                        j.unsynced_records());
    held_bytes += static_cast<double>(j.durable_bytes() + j.staged_bytes());
  }
  out.metric("store.ops_per_op", records / ops, "count");
  out.metric("store.journal_bytes_per_op",
             held_records > 0 ? held_bytes / held_records * records / ops : 0, "B");
  out.metric("store.replication_rounds", static_cast<double>(repl), "count");

  // Round decomposition, per measured round: its latency comes from the
  // client's feedback log, network, queue and service time from the wire
  // exchange it sent (the first one of that kind sent within the round),
  // and the client's own work is the residual, so the parts sum to the
  // total. The deployment's spans give a second measure of each total.
  const analysis::CriticalPathReport cp = analysis::analyze_critical_path(d.tracer());
  struct Parts {
    std::uint64_t rounds = 0, unmatched = 0;
    double total = 0, network = 0, queue = 0, service = 0;
  };
  // The client files its redirect under LOGIN1 and its channel-list fetch
  // under LOGIN2, so those rounds draw on two request kinds.
  const std::pair<client::Round, std::vector<net::MsgKind>> kinds[] = {
      {client::Round::kLogin1, {net::MsgKind::kLogin1Request, net::MsgKind::kRedirectRequest}},
      {client::Round::kLogin2,
       {net::MsgKind::kLogin2Request, net::MsgKind::kChannelListRequest}},
      {client::Round::kSwitch1, {net::MsgKind::kSwitch1Request}},
      {client::Round::kSwitch2, {net::MsgKind::kSwitch2Request}},
      {client::Round::kJoin, {net::MsgKind::kJoinRequest}}};
  for (const auto& [round, requests] : kinds) {
    const std::string name(client::to_string(round));
    Parts p;
    for (const LoopClient& dr : rig.clients()) {
      std::vector<ExchangeTap::Exchange> wire;
      for (const net::MsgKind request : requests) {
        const std::vector<ExchangeTap::Exchange> some =
            xtap.completed(dr.client->config().node, request);
        wire.insert(wire.end(), some.begin(), some.end());
      }
      std::sort(wire.begin(), wire.end(),
                [](const ExchangeTap::Exchange& a, const ExchangeTap::Exchange& b) {
                  return a.s1 < b.s1;
                });
      for (const client::LatencySample& s : dr.client->feedback_log()) {
        if (!s.success || s.round != round) continue;
        const auto x = std::lower_bound(
            wire.begin(), wire.end(), s.started,
            [](const ExchangeTap::Exchange& e, util::SimTime t) { return e.s1 < t; });
        if (x == wire.end() || x->s1 > s.started + s.latency) {
          ++p.unmatched;
          continue;
        }
        ++p.rounds;
        p.total += static_cast<double>(s.latency);
        p.network += x->network_us();
        p.queue += x->queue_us();
        p.service += x->service_us();
      }
    }
    const auto traced = cp.rounds.find(name);
    if (p.rounds == 0 || traced == cp.rounds.end() || traced->second.rounds == 0) {
      out.violation("no measured, wire-timed and traced " + name + " rounds");
      continue;
    }
    if (p.unmatched > 0) {
      out.violation(format("%s: %llu measured rounds have no wire exchange", name.c_str(),
                           static_cast<unsigned long long>(p.unmatched)));
    }
    const double n = static_cast<double>(p.rounds);
    const double total = p.total / n, network = p.network / n, queue = p.queue / n,
                 service = p.service / n;
    const double client = total - network - queue - service;
    // Links have zero modelled delay here, so the network part is zero by
    // construction and not reported; anything else is a fault.
    const std::string prefix = "round." + name;
    out.metric(prefix + ".total_us", total, "us");
    out.metric(prefix + ".service_us", service, "us");
    out.metric(prefix + ".client_us", client, "us");
    out.metric(prefix + ".queue_us", queue, "us");
    if (network != 0) {
      out.violation(format("%s: %.1f us of modelled link delay on zero-latency links",
                           name.c_str(), network));
    }
    if (client < 0) {
      out.violation(format("%s: wire-timed parts (%.1f us) exceed the measured round "
                           "(%.1f us)", name.c_str(), network + queue + service, total));
    }
    const analysis::RoundBreakdown& b = traced->second;
    const double traced_mean = static_cast<double>(b.total_us) / static_cast<double>(b.rounds);
    if (std::fabs(traced_mean - total) > 0.05 * total + 5) {
      out.violation(format("%s traced mean %.1f us differs from the measured %.1f us",
                           name.c_str(), traced_mean, total));
    }
    out.note(format("%-7s %6llu rounds, %.1f us = service %.1f + queue %.1f + network "
                    "%.1f + client %.1f; spans: %.1f us, %.0f%% of it client residual",
                    name.c_str(), static_cast<unsigned long long>(p.rounds), total, service,
                    queue, network, client, traced_mean,
                    b.total_us > 0 ? 100.0 * static_cast<double>(b.client_us) /
                                         static_cast<double>(b.total_us)
                                   : 0.0));
  }

  const std::string trace_path = opts.out_dir + "/trace_session_churn.json";
  obs::write_text_file(trace_path, obs::merged_chrome_trace(d.tracer(), profiler()));
  out.artifact("chrome_trace_session_churn", trace_path);

  ProbeInputs in;
  in.key_bits = kKeyBits;
  in.binary_bytes = 16 * 1024;
  for (std::uint32_t p = 0; p < d.partition_count(); ++p) {
    for (const auto& [id, rec] : d.cm_partition(p).channels) in.channels.push_back(rec);
  }
  for (const LoopClient& dr : rig.clients()) {
    for (const TicketSample& s : dr.samples) {
      in.user_tickets.push_back(s.user);
      in.channel_tickets.push_back(s.channel);
    }
  }
  run_probes(in, opts.seed, out);
  return out;
}

}  // namespace perfbench
