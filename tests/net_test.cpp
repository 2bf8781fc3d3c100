// Network substrate: envelope codec, delivery/latency/loss semantics.
#include <gtest/gtest.h>

#include <optional>

#include "net/deployment.h"
#include "net/envelope.h"
#include "net/network.h"
#include "net/service_nodes.h"

namespace p2pdrm::net {
namespace {

using util::Bytes;
using util::bytes_of;
using util::kMillisecond;

TEST(EnvelopeTest, RoundTrip) {
  Envelope e;
  e.kind = MsgKind::kSwitch2Request;
  e.request_id = 0xdeadbeefcafeull;
  e.payload = bytes_of("payload");
  const auto d = Envelope::decode(e.encode());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, e.kind);
  EXPECT_EQ(d->request_id, e.request_id);
  EXPECT_EQ(d->payload, e.payload);
}

TEST(EnvelopeTest, MalformedRejected) {
  EXPECT_FALSE(Envelope::decode({}).has_value());
  EXPECT_FALSE(Envelope::decode(bytes_of("x")).has_value());
  // Bad kind byte.
  Envelope e;
  e.kind = MsgKind::kContent;
  Bytes wire = e.encode();
  wire[0] = 200;
  EXPECT_FALSE(Envelope::decode(wire).has_value());
  wire[0] = 0;
  EXPECT_FALSE(Envelope::decode(wire).has_value());
  // Trailing junk.
  Bytes trailing = e.encode();
  trailing.push_back(0);
  EXPECT_FALSE(Envelope::decode(trailing).has_value());
}

TEST(EnvelopeTest, KindNames) {
  EXPECT_EQ(to_string(MsgKind::kLogin1Request), "login1-req");
  EXPECT_EQ(to_string(MsgKind::kContent), "content");
}

class RecordingNode final : public Node {
 public:
  void on_packet(const Packet& packet) override { received.push_back(packet); }
  std::vector<Packet> received;
};

LinkConfig fast_link() {
  LinkConfig link;
  link.latency.floor = 10 * kMillisecond;
  link.latency.median = 20 * kMillisecond;
  link.latency.sigma = 0.2;
  return link;
}

TEST(NetworkTest, DeliversWithLatency) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(1));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);

  net.send(1, 2, bytes_of("hello"));
  EXPECT_TRUE(b.received.empty());  // nothing until events run
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, 1u);
  EXPECT_EQ(b.received[0].from_addr, util::parse_netaddr("10.0.0.1"));
  EXPECT_EQ(b.received[0].data, bytes_of("hello"));
  EXPECT_GE(sim.now(), 10 * kMillisecond);  // at least the floor
}

TEST(NetworkTest, UnknownDestinationVanishes) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(2));
  RecordingNode a;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.send(1, 99, bytes_of("void"));
  sim.run();
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(NetworkTest, DetachDropsInFlight) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(3));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
  net.send(1, 2, bytes_of("late"));
  net.detach(2);
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(NetworkTest, LossDropsProbabilistically) {
  sim::Simulation sim;
  LinkConfig lossy = fast_link();
  lossy.loss = 0.5;
  Network net(sim, lossy, crypto::SecureRandom(4));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
  for (int i = 0; i < 1000; ++i) net.send(1, 2, bytes_of("x"));
  sim.run();
  // Both endpoints lossy: delivery probability (1-0.5)^2 = 0.25.
  EXPECT_NEAR(static_cast<double>(b.received.size()), 250.0, 60.0);
  EXPECT_EQ(net.packets_sent(), 1000u);
  EXPECT_EQ(net.packets_delivered(), b.received.size());
}

TEST(NetworkTest, PerNodeLinkOverride) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(5));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
  LinkConfig broken = fast_link();
  broken.loss = 1.0;
  net.set_link(2, broken);
  for (int i = 0; i < 20; ++i) net.send(1, 2, bytes_of("x"));
  sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(NetworkTest, AddressLookup) {
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(6));
  RecordingNode a;
  net.attach(7, util::parse_netaddr("10.1.1.1"), &a);
  EXPECT_EQ(net.addr_of(7), util::parse_netaddr("10.1.1.1"));
  EXPECT_EQ(net.node_at(util::parse_netaddr("10.1.1.1")), 7u);
  EXPECT_FALSE(net.addr_of(9).has_value());
  EXPECT_FALSE(net.node_at(util::parse_netaddr("10.9.9.9")).has_value());
  net.detach(7);
  EXPECT_FALSE(net.node_at(util::parse_netaddr("10.1.1.1")).has_value());
}

TEST(NetworkTest, DeterministicForSeed) {
  const auto run = [] {
    sim::Simulation sim;
    LinkConfig lossy = fast_link();
    lossy.loss = 0.3;
    Network net(sim, lossy, crypto::SecureRandom(42));
    RecordingNode a, b;
    net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
    net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
    for (int i = 0; i < 100; ++i) net.send(1, 2, {static_cast<std::uint8_t>(i)});
    sim.run();
    std::vector<std::uint8_t> order;
    for (const Packet& p : b.received) order.push_back(p.data[0]);
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(ServiceNodeTest, MalformedPacketsSilentlyDropped) {
  // Garbage at a manager node elicits no response at all (no error replies
  // an attacker could use as an oracle or amplifier).
  sim::Simulation sim;
  Network net(sim, fast_link(), crypto::SecureRandom(8));
  crypto::SecureRandom rng(9);
  auto domain = std::make_shared<services::UserManagerDomain>(
      services::UserManagerConfig{}, crypto::generate_rsa_keypair(rng, 512),
      rng.bytes(32));
  services::UserManager um(domain, nullptr, rng.fork());
  UserManagerNode um_node(um, net, 2);
  RecordingNode client;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &client);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &um_node);

  net.send(1, 2, util::bytes_of("not an envelope"));
  Envelope wrong_kind;
  wrong_kind.kind = MsgKind::kJoinRequest;  // not a UM message
  wrong_kind.payload = util::bytes_of("x");
  net.send(1, 2, wrong_kind.encode());
  Envelope bad_payload;
  bad_payload.kind = MsgKind::kLogin1Request;
  bad_payload.payload = util::bytes_of("truncated");
  net.send(1, 2, bad_payload.encode());
  sim.run();
  EXPECT_TRUE(client.received.empty());
}

TEST(ServiceNodeTest, ProcessingDelayDefersResponse) {
  sim::Simulation sim;
  LinkConfig instant;
  instant.latency.floor = 0;
  instant.latency.median = 1;  // ~zero network
  instant.latency.sigma = 0.01;
  Network net(sim, instant, crypto::SecureRandom(10));
  services::RedirectionManager rm;
  rm.register_domain(0, {util::parse_netaddr("10.0.0.9"), {}});
  rm.assign_user("a@x.com", 0);
  ProcessingModel slow;
  slow.light = 500 * kMillisecond;
  RedirectionNode node(rm, net, 2, slow);
  RecordingNode client;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &client);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &node);

  Envelope req;
  req.kind = MsgKind::kRedirectRequest;
  req.request_id = 1;
  req.payload = services::RedirectRequest{"a@x.com"}.encode();
  net.send(1, 2, req.encode());
  sim.run();
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_GE(sim.now(), 500 * kMillisecond);  // the light processing delay
}

TEST(NetworkTest, LatencyCanReorderDatagrams) {
  // High-jitter link: packets may arrive out of send order (the substrate
  // must be order-agnostic; higher layers handle it).
  sim::Simulation sim;
  LinkConfig jittery = fast_link();
  jittery.latency.sigma = 1.5;
  Network net(sim, jittery, crypto::SecureRandom(7));
  RecordingNode a, b;
  net.attach(1, util::parse_netaddr("10.0.0.1"), &a);
  net.attach(2, util::parse_netaddr("10.0.0.2"), &b);
  for (int i = 0; i < 200; ++i) net.send(1, 2, {static_cast<std::uint8_t>(i)});
  sim.run();
  ASSERT_EQ(b.received.size(), 200u);
  bool reordered = false;
  for (std::size_t i = 1; i < b.received.size(); ++i) {
    if (b.received[i].data[0] < b.received[i - 1].data[0]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

// --- client timer lifetimes across ungraceful departure ---

DeploymentConfig lifetime_config() {
  DeploymentConfig cfg;
  cfg.seed = 99;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.processing.light = 1 * kMillisecond;
  cfg.processing.heavy = 8 * kMillisecond;
  return cfg;
}

TEST(ClientLifetimeTest, CrashMidLoginFiresNoRetransmitTimers) {
  // Regression: a client crashed with a request in flight must not keep
  // retransmitting from beyond the grave. The retransmit-timeout closure
  // keys off pending_, which leave() clears — so the timer finds nothing.
  Deployment d(lifetime_config());
  d.add_user("a@example.com", "pw");
  AsyncClient& c = d.add_client("a@example.com", "pw", d.geo().region_at(0));
  c.login([](core::DrmError) { FAIL() << "callback fired for a dead session"; });
  d.crash_client(c);  // the login-1 request is still pending

  d.run_for(60 * util::kSecond);  // far past every timeout and retry backoff
  EXPECT_EQ(c.retransmits(), 0u);
}

TEST(ClientLifetimeTest, DestroyedClientTimersAreInert) {
  // Harsher variant: the AsyncClient object itself is destroyed while its
  // auto-renewal timer is armed in the simulation queue. The alive-flag
  // guard must make the orphaned closure a no-op, not a use-after-free.
  Deployment d(lifetime_config());
  d.add_user("a@example.com", "pw");
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "news", region);
  d.start_channel_server(1);

  AsyncClient& c = d.add_client("a@example.com", "pw", region);
  const core::DrmError joined = d.await(
      [&](AsyncClient::Callback done) {
        c.login([&c, done](core::DrmError err) {
          if (err != core::DrmError::kOk) {
            done(err);
            return;
          }
          c.switch_channel(1, done);
        });
      },
      10 * util::kMinute);
  ASSERT_EQ(joined, core::DrmError::kOk);
  c.enable_auto_renewal();  // arms a timer minutes in the future

  d.remove_client(c);                // destroys the client object
  d.run_for(30 * util::kMinute);     // the orphaned timers come due: no UAF
}

}  // namespace
}  // namespace p2pdrm::net
