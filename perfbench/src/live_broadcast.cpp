// live_broadcast: the encrypted data plane.
//
// Set-up logs in and joins kViewers viewers into one channel's overlay,
// announcing each so the tree grows past the root (root and peers each
// take kFanout children). The channel server then pushes content packets
// through Deployment::broadcast on the root's loop, keeping kWindow packets
// in flight: each packet's arrival at the last viewer posts the next one.
// One packet in kSmallEvery carries a single 188-byte TS packet, the rest
// the usual 1316 bytes (7 TS packets per datagram). The small-packet share
// is an assumption, not a measured figure. Keys rotate every kRekey.
//
// Every viewer checks every packet on arrival: in sequence, decrypted, and
// byte-identical to the payload the benchmark generated. A wire tap scans
// sent datagrams for the payloads' plaintext marker, and a sample of
// packets with their keys is written out for re-decryption by openssl.
#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "live.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

using namespace p2pdrm;

namespace {

constexpr std::size_t kViewers = 48;
constexpr std::size_t kFanout = 4;
constexpr std::size_t kWindow = 16;              // packets in flight
constexpr std::size_t kRing = 4 * kWindow;       // per-packet slots
constexpr std::size_t kSmallEvery = 4;           // 1 in 4 packets is 188 B (assumed)
constexpr std::size_t kSmallBytes = 188;
constexpr std::size_t kLargeBytes = 1316;
constexpr std::size_t kPoolPerSize = 32;         // distinct payloads per size
constexpr std::size_t kCanaryBytes = 16;
constexpr util::SimTime kRekey = 250 * util::kMillisecond;
constexpr util::SimTime kAnnounceLead = 100 * util::kMillisecond;
constexpr util::ChannelId kChannel = 1;
constexpr std::size_t kContentSamples = 24;

/// The payload stream: MPEG-TS-shaped random payloads (sync byte 0x47 at
/// every 188-byte boundary) carrying a per-run plaintext canary right after
/// the first TS header.
class Payloads {
 public:
  explicit Payloads(std::uint64_t seed) {
    crypto::SecureRandom rng(mix_seed(seed, 0xc0de));
    const util::Bytes c = rng.bytes(kCanaryBytes);
    canary_.assign(c.begin(), c.end());
    for (const std::size_t size : {kSmallBytes, kLargeBytes}) {
      auto& pool = size == kSmallBytes ? small_ : large_;
      for (std::size_t i = 0; i < kPoolPerSize; ++i) {
        util::Bytes p = rng.bytes(size);
        for (std::size_t off = 0; off < size; off += 188) p[off] = 0x47;
        std::memcpy(p.data() + 4, canary_.data(), kCanaryBytes);
        pool.push_back(std::move(p));
      }
    }
  }
  const util::Bytes& for_seq(std::uint64_t seq) const {
    const std::size_t slot = static_cast<std::size_t>((seq / kSmallEvery) % kPoolPerSize);
    return seq % kSmallEvery == 0 ? small_[slot] : large_[slot];
  }
  const std::string& canary() const { return canary_; }
  /// One period of the mix (probe input).
  std::vector<util::Bytes> mix() const {
    std::vector<util::Bytes> out;
    for (std::uint64_t s = 0; s < kSmallEvery * 8; ++s) out.push_back(for_seq(s));
    return out;
  }

 private:
  std::string canary_;
  std::vector<util::Bytes> small_, large_;
};

struct ContentSample {
  core::ContentPacket packet;
  core::ContentKey key;
};

/// Per-viewer state; written on the viewer's loop, read by the main thread
/// under `mu` (key installs) or after the transport stops.
struct Viewer {
  net::AsyncClient* client = nullptr;
  std::uint64_t next_seq = 0;  // first packet it must see: set at kickoff
  std::uint64_t verified = 0;
  std::uint64_t bad = 0;       // out of order, undecryptable or wrong bytes
  std::uint64_t join_serial = 0;
  std::mutex mu;
  std::vector<std::uint64_t> installs;  // unwrapped serials, install order
  std::map<std::uint8_t, core::ContentKey> keys;  // for content samples
  std::vector<ContentSample> samples;
};

std::uint64_t unwrap(std::uint64_t prev, std::uint8_t serial) {
  return prev + static_cast<std::uint8_t>(serial - static_cast<std::uint8_t>(prev));
}

class Rig {
 public:
  Rig(std::uint64_t seed, bool traced)
      : payloads_(seed), tap_(payloads_.canary()), viewers_(kViewers) {
    net::DeploymentConfig cfg = live_config(traced);
    cfg.root_peer_capacity = kFanout;
    d_ = std::make_unique<net::Deployment>(cfg);
    d_->network().add_interceptor(&tap_);
    const geo::RegionId region = d_->geo().region_at(0);
    d_->add_regional_channel(kChannel, "live", region);
    services::ChannelServerConfig sc;
    sc.rekey_interval = kRekey;
    sc.announce_lead = kAnnounceLead;
    d_->start_channel_server(kChannel, sc);
    root_ = net::Deployment::kChannelRootBase + kChannel;

    for (std::size_t i = 0; i < kViewers; ++i) {
      const std::string email = "viewer" + std::to_string(i) + "@live.example";
      d_->add_user(email, "pw");
      Viewer& v = viewers_[i];
      v.client = &d_->add_client(email, "pw", region);
      v.client->set_key_delivery_hook(
          [&v](const core::ContentKey& key, util::SimTime) {
            std::lock_guard<std::mutex> lk(v.mu);
            v.installs.push_back(unwrap(v.installs.empty() ? v.join_serial : v.installs.back(),
                                        key.serial));
            v.keys[key.serial] = key;
          });
    }
    // Bring the audience online in one chain on the loop: the main thread
    // waits once, not once per viewer.
    std::promise<core::DrmError> joined;
    d_->network().post(viewers_.front().client->config().node, 0,
                       [this, &joined] { join_from(0, &joined); });
    const core::DrmError e = joined.get_future().get();
    if (e != core::DrmError::kOk) {
      d_->transport().shutdown();  // no destructor runs for a throwing constructor
      throw std::runtime_error("a viewer failed to join: " + std::string(core::to_string(e)));
    }
  }

  /// Stops the loops first: client hooks and posted tasks point into this
  /// rig's members, which are destroyed before the deployment.
  ~Rig() {
    d_->transport().shutdown();
    d_->network().remove_interceptor(&tap_);
  }

  net::Deployment& deployment() { return *d_; }
  const std::vector<Viewer>& viewers() const { return viewers_; }
  const WireTap& tap() const { return tap_; }
  std::uint64_t packets() const { return completed_; }
  const std::vector<Completion>& done() const { return done_; }
  std::int64_t start_ns() const { return start_ns_; }
  std::int64_t deadline_ns() const { return deadline_ns_; }
  std::uint64_t rotations() const {
    return d_->registry().counter("keys.rotations_issued").value();
  }

  /// Broadcast with kWindow packets in flight for `seconds`, wait for every
  /// posted packet to reach every viewer, and return the wall seconds.
  double run(double seconds) {
    for (Viewer& v : viewers_) {
      std::promise<void> armed;
      d_->network().post(v.client->config().node, 0, [this, &v, &armed] {
        v.next_seq = seq_base_;
        v.client->peer_node()->set_content_sink(
            [this, &v](const core::ContentPacket& p, const std::optional<util::Bytes>& plain) {
              on_content(v, p, plain);
            });
        armed.set_value();
      });
      armed.get_future().wait();
    }
    const std::int64_t start = start_ns_ = now_ns();
    deadline_ns_ = start + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t i = 0; i < kWindow; ++i) post_packet();
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return in_flight_ == 0 && stopped_; });
    return static_cast<double>(last_done_ns_ - start) * 1e-9;
  }

  /// After run(): wait until every viewer holds every epoch issued so far,
  /// then return that rotation count (rotations keep running meanwhile).
  std::uint64_t settle_rotations() {
    const std::uint64_t issued = rotations();
    const std::int64_t give_up = now_ns() + 5'000'000'000;
    for (Viewer& v : viewers_) {
      while (now_ns() < give_up) {
        {
          std::lock_guard<std::mutex> lk(v.mu);
          const std::uint64_t last = v.installs.empty() ? v.join_serial : v.installs.back();
          if (last >= issued) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    return issued;
  }

 private:
  /// Log in, switch to the channel and announce viewers i, i+1, ... one
  /// after another on the loop, so the overlay grows in the same order on
  /// every run; `done` is fulfilled once all are in (or one fails).
  void join_from(std::size_t i, std::promise<core::DrmError>* done) {
    if (i == viewers_.size()) {
      done->set_value(core::DrmError::kOk);
      return;
    }
    Viewer& v = viewers_[i];
    net::AsyncClient* c = v.client;
    c->login([this, i, c, &v, done](core::DrmError e) {
      if (e != core::DrmError::kOk) {
        done->set_value(e);
        return;
      }
      c->switch_channel(kChannel, [this, i, c, &v, done](core::DrmError e2) {
        if (e2 != core::DrmError::kOk) {
          done->set_value(e2);
          return;
        }
        // The key delivered by the JOIN handshake: epochs after it arrive
        // over the fan-out and fire the install hook. Serials are minted
        // from 0 and have not wrapped during set-up.
        for (int s = 0; s < 256; ++s) {
          if (c->peer_node()->peer().knows_serial(static_cast<std::uint8_t>(s))) {
            v.join_serial = static_cast<std::uint64_t>(s);
          }
        }
        d_->announce(*c);
        d_->network().post(c->config().node, 0, [this, i, done] { join_from(i + 1, done); });
      });
    });
  }

  /// Count one more packet in flight and post it to the root's loop; the
  /// root assigns the sequence number, so packets keep the order in which
  /// the root runs them.
  void post_packet() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++in_flight_;
    }
    send(now_ns());
  }

  void send(std::int64_t posted) {
    d_->network().post(root_, 0, [this, posted] {
      const std::uint64_t seq = seq_base_ + sent_++;
      Slot& slot = slots_[seq % kRing];
      slot.posted_ns = posted;
      slot.arrivals.store(0, std::memory_order_relaxed);
      Span s(profiler(), "bench.net.broadcast");
      d_->broadcast(kChannel, payloads_.for_seq(seq));
    });
  }

  void on_content(Viewer& v, const core::ContentPacket& p,
                  const std::optional<util::Bytes>& plain) {
    if (p.seq != v.next_seq || !plain || *plain != payloads_.for_seq(p.seq)) {
      ++v.bad;
    } else {
      ++v.verified;
      if (&v == &viewers_.front() && p.seq % 61 == 0 &&
          v.samples.size() < kContentSamples) {
        std::lock_guard<std::mutex> lk(v.mu);
        const auto key = v.keys.find(p.key_serial);
        if (key != v.keys.end()) v.samples.push_back({p, key->second});
      }
    }
    v.next_seq = p.seq + 1;
    Slot& slot = slots_[p.seq % kRing];
    if (slot.arrivals.fetch_add(1, std::memory_order_acq_rel) + 1 != kViewers) return;
    // Last viewer: the packet is complete.
    const std::int64_t t = now_ns();
    const bool more = t < deadline_ns_;
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_.push_back({t, static_cast<double>(t - slot.posted_ns) * 1e-6});
      ++completed_;
      last_done_ns_ = std::max(last_done_ns_, t);
      if (!more) {
        --in_flight_;
        stopped_ = true;
        if (in_flight_ == 0) cv_.notify_all();
        return;
      }
    }
    send(now_ns());  // the next packet takes this one's place in flight
  }

  struct Slot {
    std::int64_t posted_ns = 0;
    std::atomic<std::size_t> arrivals{0};
  };

  Payloads payloads_;
  WireTap tap_;
  std::unique_ptr<net::Deployment> d_;
  util::NodeId root_ = 0;
  std::vector<Viewer> viewers_;
  std::array<Slot, kRing> slots_{};
  const std::uint64_t seq_base_ = 0;  // the channel server's first seq
  std::uint64_t sent_ = 0;            // root loop only
  std::int64_t start_ns_ = 0;
  std::int64_t deadline_ns_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t in_flight_ = 0;
  bool stopped_ = false;
  std::uint64_t completed_ = 0;
  std::int64_t last_done_ns_ = 0;
  std::vector<Completion> done_;
};

/// Returns the mean number of key epochs a viewer installed.
double check_outputs(Rig& rig, std::uint64_t issued, Result& out) {
  const std::uint64_t packets = rig.packets();
  std::uint64_t verified = 0, bad = 0;
  double epochs = 0;
  for (const Viewer& v : rig.viewers()) {
    verified += v.verified;
    bad += v.bad;
    if (v.verified != packets) {
      out.violation(format("a viewer verified %llu of %llu packets",
                           static_cast<unsigned long long>(v.verified),
                           static_cast<unsigned long long>(packets)));
    }
    // Epochs installed over the fan-out up to `issued` must be exactly the
    // rotations issued after this viewer joined, each once, in order.
    std::uint64_t expect = v.join_serial + 1, installed = 0;
    bool in_order = true;
    for (const std::uint64_t s : v.installs) {
      if (s > issued) break;
      in_order = in_order && s == expect;
      ++expect;
      ++installed;
    }
    if (!in_order || installed != issued - v.join_serial) {
      out.violation(format("a viewer installed %llu key epochs, %llu were issued after "
                           "it joined", static_cast<unsigned long long>(installed),
                           static_cast<unsigned long long>(issued - v.join_serial)));
    }
    epochs += static_cast<double>(installed);
  }
  if (bad != 0) {
    out.violation(format("%llu packet deliveries out of order, undecryptable or with "
                         "wrong bytes", static_cast<unsigned long long>(bad)));
  }
  if (rig.tap().leaks() != 0) {
    out.violation(format("payload plaintext seen on the wire in %llu datagrams",
                         static_cast<unsigned long long>(rig.tap().leaks())));
  }
  if (rig.tap().scanned() == 0) out.violation("the wire tap scanned no datagram");
  out.note(format("%llu packets x %zu viewers verified byte-exact; %llu datagrams "
                  "scanned for plaintext; %llu key rotations issued",
                  static_cast<unsigned long long>(packets), kViewers,
                  static_cast<unsigned long long>(rig.tap().scanned()),
                  static_cast<unsigned long long>(issued)));
  return epochs / static_cast<double>(kViewers);
}

void write_content_samples(const Rig& rig, const Options& opts, Result& out) {
  const std::string path = opts.out_dir + "/content_live_broadcast.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    out.violation("cannot write " + path);
    return;
  }
  // The plaintext is the payload the benchmark generated for that seq.
  const Payloads payloads(opts.seed);
  std::size_t n = 0;
  for (const ContentSample& s : rig.viewers().front().samples) {
    std::fprintf(f, "{\"seq\": %llu, \"key\": \"%s\", \"nonce\": %llu, "
                    "\"ciphertext\": \"%s\", \"plaintext\": \"%s\"}\n",
                 static_cast<unsigned long long>(s.packet.seq), hex({s.key.key.begin(), s.key.key.end()}).c_str(),
                 static_cast<unsigned long long>(s.key.nonce), hex(s.packet.payload).c_str(),
                 hex(payloads.for_seq(s.packet.seq)).c_str());
    ++n;
  }
  std::fclose(f);
  if (n == 0) out.violation("no content packets were sampled for verification");
  out.artifact("content", path);
}

double goodput_mb(std::uint64_t packets) {
  const std::uint64_t small = (packets + kSmallEvery - 1) / kSmallEvery;
  return static_cast<double>(small * kSmallBytes + (packets - small) * kLargeBytes) *
         static_cast<double>(kViewers) / (1024.0 * 1024.0);
}

}  // namespace

Result live_broadcast(const Options& opts) {
  Result out;
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < 3; ++rep) {
    rig.reset();
    const double t0 = now_s();
    rig = std::make_unique<Rig>(opts.seed, false);
    setup_s.push_back(now_s() - t0);
  }
  const double cpu0 = cpu_seconds();
  const double wall = rig->run(opts.seconds);
  const double cpu = cpu_seconds() - cpu0;
  const std::uint64_t issued = rig->settle_rotations();
  rig->deployment().transport().shutdown();

  const std::uint64_t deliveries = rig->packets() * kViewers;
  out.ops.attempted = deliveries;
  std::uint64_t verified = 0;
  for (const Viewer& v : rig->viewers()) verified += v.verified;
  out.ops.failed = deliveries - std::min(deliveries, verified);
  const double ok = static_cast<double>(std::max<std::uint64_t>(out.ops.ok(), 1));
  out.metric("setup_s", median(setup_s), "s");
  slice_metrics(rig->done(), rig->start_ns(), rig->deadline_ns(), kViewers,
                "packets (post to last viewer)", out);
  out.metric("cpu_us_per_op", cpu * 1e6 / ok, "us");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.note(format("goodput_mb_per_s %.3f MB/s (payload bytes decrypted by viewers)",
                  goodput_mb(rig->packets()) / wall));
  check_outputs(*rig, issued, out);
  write_content_samples(*rig, opts, out);
  return out;
}

Result live_broadcast_layers(const Options& opts, double seconds) {
  Result out;
  double untraced_cpu_per_op = 0;
  {
    Rig rig(opts.seed, false);
    const double cpu0 = cpu_seconds();
    rig.run(seconds / 2);
    const double cpu = cpu_seconds() - cpu0;
    rig.deployment().transport().shutdown();
    untraced_cpu_per_op =
        cpu / static_cast<double>(std::max<std::uint64_t>(rig.packets() * kViewers, 1));
  }

  profiler().reset();
  profiler().enable();
  profiler().attach_thread("bench-main");
  Rig rig(opts.seed, true);
  net::Deployment& d = rig.deployment();

  // Tree shape, walked through each viewer's parent.
  std::map<util::NodeId, util::NodeId> parent;
  for (const Viewer& v : rig.viewers()) {
    if (v.client->parent()) parent[v.client->config().node] = *v.client->parent();
  }
  std::map<util::NodeId, std::size_t> children;
  std::size_t depth_max = 0;
  for (const auto& [node, up] : parent) {
    ++children[up];
    std::size_t depth = 1;
    for (util::NodeId at = up; parent.count(at) != 0 && depth <= kViewers; at = parent[at]) {
      ++depth;
    }
    depth_max = std::max(depth_max, depth);
  }
  if (parent.size() != kViewers) out.violation("a viewer has no overlay parent");
  out.metric("p2p.tree_depth_max", static_cast<double>(depth_max), "count");
  out.metric("p2p.fanout_mean",
             children.empty() ? 0
                              : static_cast<double>(parent.size()) /
                                    static_cast<double>(children.size()),
             "count");

  const std::uint64_t msgs0 = rig.tap().messages();
  const std::uint64_t bytes0 = rig.tap().bytes();
  const std::vector<obs::LoopStats> before = loop_stats(d);
  const double cpu0 = cpu_seconds();
  const double wall = rig.run(seconds / 2);
  const double cpu = cpu_seconds() - cpu0;
  const std::vector<obs::LoopStats> after = loop_stats(d);
  const std::uint64_t msgs = rig.tap().messages() - msgs0;
  const std::uint64_t bytes = rig.tap().bytes() - bytes0;
  const std::uint64_t issued = rig.settle_rotations();
  d.transport().shutdown();
  profiler().disable();

  const std::uint64_t deliveries = rig.packets() * kViewers;
  out.ops.attempted = deliveries;
  const double ops = static_cast<double>(std::max<std::uint64_t>(deliveries, 1));
  out.metric("obs.trace_overhead",
             untraced_cpu_per_op > 0 ? (cpu / ops) / untraced_cpu_per_op : 0, "ratio");
  transport_metrics(d, before, after, wall, deliveries, out);
  out.metric("net.msgs_per_op", static_cast<double>(msgs) / ops, "count");
  out.metric("net.wire_bytes_per_op", static_cast<double>(bytes) / ops, "B");
  std::uint64_t retransmits = 0;
  for (const Viewer& v : rig.viewers()) retransmits += v.client->retransmits();
  out.metric("net.retransmits", static_cast<double>(retransmits), "count");
  if (retransmits != 0) out.violation("retransmissions on a lossless zero-latency link");
  out.metric("p2p.key_epochs_per_viewer", check_outputs(rig, issued, out), "count");

  const std::string trace_path = opts.out_dir + "/trace_live_broadcast.json";
  obs::write_text_file(trace_path, obs::merged_chrome_trace(d.tracer(), profiler()));
  out.artifact("chrome_trace_live_broadcast", trace_path);

  ProbeInputs in;
  in.payloads = Payloads(opts.seed).mix();
  run_probes(in, opts.seed, out);
  return out;
}

}  // namespace perfbench
