// Distributed end-to-end tests: the full protocol over the lossy simulated
// network with asynchronous clients, retransmission, concurrent protocol
// interleaving, and content/key delivery as real network events.
#include <gtest/gtest.h>

#include <array>

#include "net/deployment.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::kMillisecond;
using util::kMinute;
using util::kSecond;

DeploymentConfig base_config() {
  DeploymentConfig cfg;
  cfg.seed = 2024;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.processing.light = 1 * kMillisecond;
  cfg.processing.heavy = 8 * kMillisecond;
  return cfg;
}

class DistributedTest : public ::testing::Test {
 protected:
  explicit DistributedTest(DeploymentConfig cfg = base_config()) : d_(cfg) {
    d_.add_user("alice@example.com", "pw-a");
    d_.add_user("bob@example.com", "pw-b");
    region_ = d_.geo().region_at(0);
    d_.add_regional_channel(1, "news", region_);
    d_.start_channel_server(1);
  }

  /// Run an operation to completion inside the simulation (rotation timers
  /// keep the queue non-empty forever, so bound it by a virtual deadline).
  DrmError wait(const std::function<void(AsyncClient::Callback)>& op) {
    return d_.await(op, 10 * kMinute);
  }

  Deployment d_;
  geo::RegionId region_ = 0;
};

TEST_F(DistributedTest, LoginOverTheWire) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  EXPECT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_TRUE(alice.user_ticket().has_value());
  EXPECT_GT(d_.network().packets_delivered(), 4u);  // 3 request/response pairs
}

TEST_F(DistributedTest, WrongPasswordFailsOverTheWire) {
  AsyncClient& mallory = d_.add_client("alice@example.com", "wrong", region_);
  EXPECT_EQ(wait([&](auto cb) { mallory.login(cb); }), DrmError::kBadCredentials);
}

TEST_F(DistributedTest, FullWatchSequence) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  ASSERT_TRUE(alice.channel_ticket().has_value());
  ASSERT_TRUE(alice.parent().has_value());

  // Content pushed at the server arrives (as events) and decrypts.
  d_.broadcast(1, util::bytes_of("frame"));
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 1u);
  EXPECT_EQ(alice.content_undecryptable(), 0u);
}

TEST_F(DistributedTest, FeedbackLatenciesReflectNetworkAndProcessing) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  for (const client::LatencySample& s : alice.feedback_log()) {
    EXPECT_TRUE(s.success);
    EXPECT_GE(s.latency, 20 * kMillisecond) << to_string(s.round);  // 2x floor/2 ways
  }
}

TEST_F(DistributedTest, RelayTreeOverTheWire) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  d_.announce(alice);
  // Saturate the root so Bob must attach under Alice... instead, simply
  // verify Bob can join *someone* and the tree delivers to both.
  AsyncClient& bob = d_.add_client("bob@example.com", "pw-b", region_);
  ASSERT_EQ(wait([&](auto cb) { bob.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { bob.switch_channel(1, cb); }), DrmError::kOk);

  d_.broadcast(1, util::bytes_of("both"));
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 1u);
  EXPECT_EQ(bob.content_decrypted(), 1u);
}

TEST_F(DistributedTest, KeyRotationPropagatesThroughNetworkTree) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);

  // Cross two rotation intervals; the new keys travel as kKeyBlob packets.
  d_.run_for(2 * kMinute + 10 * kSecond);
  d_.broadcast(1, util::bytes_of("rotated"));
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 1u);
  EXPECT_EQ(alice.content_undecryptable(), 0u);
  EXPECT_GE(alice.peer_node()->peer().known_key_count(), 2u);
}

/// Protocol rounds under injected link latency and server processing time:
/// the client's feedback log becomes a small-scale analogue of the paper's
/// production measurements.
class ClientLatencyTest : public DistributedTest {
 protected:
  static DeploymentConfig latency_config() {
    DeploymentConfig cfg = base_config();
    cfg.seed = 77;
    cfg.default_link.latency.floor = 40 * kMillisecond;
    cfg.default_link.latency.median = 100 * kMillisecond;
    cfg.default_link.latency.sigma = 0.4;
    cfg.processing.light = 1 * kMillisecond;   // redirect, LOGIN1, SWITCH1
    cfg.processing.heavy = 40 * kMillisecond;  // LOGIN2, SWITCH2, JOIN (RSA)
    return cfg;
  }
  ClientLatencyTest() : DistributedTest(latency_config()) {}
};

TEST_F(ClientLatencyTest, FeedbackLogRecordsPositiveLatencies) {
  AsyncClient& c = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { c.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { c.switch_channel(1, cb); }), DrmError::kOk);

  std::array<int, 5> rounds{};
  for (const client::LatencySample& s : c.feedback_log()) {
    ++rounds[static_cast<std::size_t>(s.round)];
    EXPECT_TRUE(s.success);
    // Every round crossed the network floor at least once (out and back).
    EXPECT_GE(s.latency, 40 * kMillisecond) << to_string(s.round);
    EXPECT_LT(s.latency, 10 * kSecond);
  }
  for (std::size_t r = 0; r < rounds.size(); ++r) EXPECT_GE(rounds[r], 1) << r;
}

TEST_F(ClientLatencyTest, Login2CostsMoreThanLogin1) {
  // Aggregate over several logins: LOGIN2 carries the RSA-heavy service
  // cost, so its mean must exceed LOGIN1's (the paper's Fig. 5a ordering).
  AsyncClient& c = d_.add_client("alice@example.com", "pw-a", region_);
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(wait([&](auto cb) { c.login(cb); }), DrmError::kOk);
  }
  double login1_total = 0, login2_total = 0;
  int n1 = 0, n2 = 0;
  for (const client::LatencySample& s : c.feedback_log()) {
    if (s.round == client::Round::kLogin1) {
      login1_total += static_cast<double>(s.latency);
      ++n1;
    } else if (s.round == client::Round::kLogin2) {
      login2_total += static_cast<double>(s.latency);
      ++n2;
    }
  }
  ASSERT_GT(n1, 0);
  ASSERT_GT(n2, 0);
  EXPECT_GT(login2_total / n2, login1_total / n1);
}

TEST_F(ClientLatencyTest, RoundsOrderedInTime) {
  AsyncClient& c = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { c.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { c.switch_channel(1, cb); }), DrmError::kOk);
  for (std::size_t i = 1; i < c.feedback_log().size(); ++i) {
    EXPECT_GE(c.feedback_log()[i].started, c.feedback_log()[i - 1].started);
  }
}

TEST_F(ClientLatencyTest, ClockAdvancesWithTraffic) {
  AsyncClient& c = d_.add_client("alice@example.com", "pw-a", region_);
  const util::SimTime before = d_.now();
  ASSERT_EQ(wait([&](auto cb) { c.login(cb); }), DrmError::kOk);
  EXPECT_GT(d_.now(), before);
}

TEST_F(ClientLatencyTest, ProtocolStillCorrectUnderLatency) {
  // Latency must not break any protocol invariant: challenges are still
  // fresh (2-minute budget vs sub-second RTTs), tickets verify, renewal
  // works.
  AsyncClient& c = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { c.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { c.switch_channel(1, cb); }), DrmError::kOk);
  EXPECT_TRUE(c.user_ticket()->verify(d_.um_domain().keys.pub));
  EXPECT_TRUE(c.channel_ticket()->verify(d_.channel_manager().public_key()));

  d_.run_for(8 * kMinute);
  EXPECT_EQ(wait([&](auto cb) { c.renew_channel_ticket(cb); }), DrmError::kOk);
  EXPECT_TRUE(c.channel_ticket()->ticket.renewal);
}

class StripedDistributedTest : public DistributedTest {
 protected:
  static DeploymentConfig striped_config() {
    DeploymentConfig cfg = base_config();
    cfg.substreams = 2;
    return cfg;
  }
  StripedDistributedTest() : DistributedTest(striped_config()) {}
};

TEST_F(StripedDistributedTest, StripesAcrossTwoParents) {
  // Alice (single parent: the root) announces; Bob stripes sub-stream 0
  // and 1 across {root, alice}.
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  d_.announce(alice);

  AsyncClient& bob = d_.add_client("bob@example.com", "pw-b", region_);
  ASSERT_EQ(wait([&](auto cb) { bob.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { bob.switch_channel(1, cb); }), DrmError::kOk);

  ASSERT_NE(bob.router(), nullptr);
  ASSERT_TRUE(bob.router()->parent_of(0).has_value());
  ASSERT_TRUE(bob.router()->parent_of(1).has_value());
  EXPECT_TRUE(bob.router()->unassigned().empty());

  // Feed a run of packets: Bob must receive every one exactly once and
  // reassemble them in order.
  for (int i = 0; i < 20; ++i) {
    d_.broadcast(1, util::bytes_of("pkt " + std::to_string(i)));
    d_.run_for(200 * kMillisecond);
  }
  d_.run_for(5 * kSecond);
  EXPECT_EQ(bob.content_decrypted(), 20u);   // no duplicates
  EXPECT_EQ(bob.content_in_order(), 20u);    // reassembled in order
  EXPECT_EQ(bob.content_undecryptable(), 0u);
}

TEST_F(StripedDistributedTest, SingleParentStillCarriesBothSubstreams) {
  // With only the root available, both sub-streams land on one parent —
  // the mask union path.
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  ASSERT_NE(alice.router(), nullptr);
  EXPECT_EQ(alice.router()->parents().size(), 1u);

  for (int i = 0; i < 10; ++i) {
    d_.broadcast(1, util::bytes_of("pkt"));
    d_.run_for(200 * kMillisecond);
  }
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 10u);
  EXPECT_EQ(alice.content_in_order(), 10u);
}

TEST_F(StripedDistributedTest, LosingOneParentHalvesTheFeed) {
  // Kill the parent carrying one sub-stream: only the other sub-stream's
  // packets keep arriving (exactly the failure PDM was built to survive —
  // the receiver re-joins for the missing sub-streams).
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  d_.announce(alice);
  AsyncClient& bob = d_.add_client("bob@example.com", "pw-b", region_);
  ASSERT_EQ(wait([&](auto cb) { bob.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { bob.switch_channel(1, cb); }), DrmError::kOk);
  ASSERT_NE(bob.router(), nullptr);
  if (bob.router()->parents().size() < 2) {
    GTEST_SKIP() << "both sub-streams landed on one parent";
  }

  d_.remove_client(alice);  // alice carried one of bob's sub-streams
  const std::uint64_t before = bob.content_decrypted();
  for (int i = 0; i < 10; ++i) {
    d_.broadcast(1, util::bytes_of("pkt"));
    d_.run_for(200 * kMillisecond);
  }
  d_.run_for(3 * kSecond);
  const std::uint64_t delivered = bob.content_decrypted() - before;
  EXPECT_GE(delivered, 4u);  // the surviving sub-stream
  EXPECT_LE(delivered, 6u);  // but not the dead one
}

class LossyDistributedTest : public DistributedTest {
 protected:
  static DeploymentConfig lossy_config() {
    DeploymentConfig cfg = base_config();
    cfg.default_link.loss = 0.08;  // ~15% per round trip
    cfg.request_timeout = 500 * kMillisecond;
    cfg.max_retries = 8;
    return cfg;
  }
  LossyDistributedTest() : DistributedTest(lossy_config()) {}
};

TEST_F(LossyDistributedTest, RetransmissionDefeatsLoss) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  EXPECT_GT(d_.network().packets_dropped(), 0u);  // loss actually happened
  ASSERT_TRUE(alice.channel_ticket().has_value());
  EXPECT_TRUE(alice.channel_ticket()->verify(d_.channel_manager().public_key()));
}

TEST_F(LossyDistributedTest, DuplicatedResponsesIgnored) {
  // Retransmitted requests can produce duplicate responses (the server
  // answers every copy); the request-id match must consume exactly one.
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  // One ticket, no crash, consistent state.
  ASSERT_TRUE(alice.user_ticket().has_value());
  const std::size_t login2_samples = static_cast<std::size_t>(std::count_if(
      alice.feedback_log().begin(), alice.feedback_log().end(),
      [](const client::LatencySample& s) {
        return s.round == client::Round::kLogin2;
      }));
  EXPECT_GE(login2_samples, 1u);
}

TEST_F(DistributedTest, OperationsBeforeLoginFailCleanly) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  EXPECT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kBadTicket);
  EXPECT_EQ(wait([&](auto cb) { alice.renew_channel_ticket(cb); }),
            DrmError::kBadTicket);
}

TEST_F(DistributedTest, SwitchToUnknownChannelDenied) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  // Channel 99 is not in the catalog: partition defaults to 0, the Channel
  // Manager knows no such channel.
  EXPECT_EQ(wait([&](auto cb) { alice.switch_channel(99, cb); }),
            DrmError::kUnknownChannel);
}

TEST_F(DistributedTest, UnknownUserRejectedOverTheWire) {
  AsyncClient& ghost = d_.add_client("ghost@example.com", "pw", region_);
  EXPECT_EQ(wait([&](auto cb) { ghost.login(cb); }), DrmError::kUnknownUser);
}

TEST_F(DistributedTest, TotalServiceOutageTimesOutCleanly) {
  // Kill every backend node: the client's retries exhaust and the operation
  // fails instead of hanging the simulation.
  d_.network().detach(Deployment::kRedirectionNode);
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  std::optional<DrmError> result;
  alice.login([&](DrmError err) { result = err; });
  d_.await([&] { return result.has_value(); }, 10 * kMinute);
  ASSERT_TRUE(result.has_value());
  EXPECT_NE(*result, DrmError::kOk);
  // The failed round was recorded as such in the feedback log.
  ASSERT_FALSE(alice.feedback_log().empty());
  EXPECT_FALSE(alice.feedback_log().back().success);
}

TEST_F(DistributedTest, ConcurrentClientsInterleave) {
  // Many clients in flight at once against the same stateless managers;
  // every protocol completes despite interleaved processing.
  std::vector<AsyncClient*> clients;
  std::vector<std::optional<DrmError>> done(8);
  for (int i = 0; i < 8; ++i) {
    const std::string email = "user" + std::to_string(i) + "@example.com";
    d_.add_user(email, "pw");
    clients.push_back(&d_.add_client(email, "pw", region_));
  }
  for (int i = 0; i < 8; ++i) {
    AsyncClient* c = clients[static_cast<std::size_t>(i)];
    auto* slot = &done[static_cast<std::size_t>(i)];
    c->login([c, slot](DrmError err) {
      if (err != DrmError::kOk) {
        *slot = err;
        return;
      }
      c->switch_channel(1, [slot](DrmError err2) { *slot = err2; });
    });
  }
  d_.await(
      [&] {
        return std::all_of(done.begin(), done.end(),
                           [](const auto& o) { return o.has_value(); });
      },
      10 * kMinute);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(done[static_cast<std::size_t>(i)].has_value()) << i;
    EXPECT_EQ(*done[static_cast<std::size_t>(i)], DrmError::kOk) << i;
  }

  d_.broadcast(1, util::bytes_of("to all"));
  d_.run_for(10 * kSecond);
  std::size_t received = 0;
  for (AsyncClient* c : clients) received += c->content_decrypted();
  EXPECT_EQ(received, clients.size());
}

TEST_F(DistributedTest, AutoRenewalSurvivesMultipleLifetimes) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  alice.enable_auto_renewal();
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);

  // 45 minutes: ~4 channel-ticket renewals and at least one fresh login,
  // all self-driven. The root's minute-by-minute eviction sweep must never
  // catch an expired ticket.
  d_.run_for(45 * kMinute);
  ASSERT_TRUE(alice.channel_ticket().has_value());
  EXPECT_TRUE(alice.channel_ticket()->ticket.renewal);
  EXPECT_GT(alice.channel_ticket()->ticket.expiry_time, d_.sim().now());

  PeerNode* root = d_.root_node(1);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->peer().child_count(), 1u);
  d_.broadcast(1, util::bytes_of("still watching"));
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 1u);
}

TEST_F(DistributedTest, WithoutRenewalRootSeversAtExpiry) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  PeerNode* root = d_.root_node(1);
  EXPECT_EQ(root->peer().child_count(), 1u);

  // No auto-renewal: the periodic eviction sweep severs at ticket expiry
  // (10 min lifetime + 1 min sweep granularity).
  d_.run_for(12 * kMinute);
  EXPECT_EQ(root->peer().child_count(), 0u);
  d_.broadcast(1, util::bytes_of("gone"));
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 0u);
}

TEST_F(DistributedTest, ClientDepartureDetachesCleanly) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  d_.announce(alice);
  EXPECT_EQ(d_.tracker().peer_count(1), 2u);  // root + alice

  d_.remove_client(alice);  // alice is now dangling-free and detached
  EXPECT_EQ(d_.tracker().peer_count(1), 1u);
  // Content to the departed node vanishes without faulting the network.
  d_.broadcast(1, util::bytes_of("into the void"));
  d_.run_for(5 * kSecond);
  EXPECT_GT(d_.network().packets_dropped(), 0u);
}

/// A malicious node that answers every request with garbage bytes.
class GarbagePeer final : public Node {
 public:
  GarbagePeer(Network& network, util::NodeId self) : network_(network), self_(self) {}
  void on_packet(const Packet& packet) override {
    ++requests_seen;
    const auto env = Envelope::decode(packet.data);
    if (!env) return;
    Envelope reply;
    reply.kind = MsgKind::kJoinResponse;
    reply.request_id = env->request_id;
    reply.payload = util::bytes_of("utter garbage, not a JoinResponse");
    network_.send(self_, packet.from, reply.encode());
  }
  int requests_seen = 0;

 private:
  Network& network_;
  util::NodeId self_;
};

TEST_F(DistributedTest, GarbageSpeakingPeerSkipped) {
  // Poison the tracker with a malicious peer that will be sampled first.
  GarbagePeer evil(d_.network(), 666);
  d_.network().attach(666, util::parse_netaddr("10.66.66.66"), &evil);
  for (int i = 0; i < 4; ++i) {
    // Register several times under distinct ids mapping to the same node to
    // crowd the peer list.
    d_.tracker().register_peer(1, {666, util::parse_netaddr("10.66.66.66")}, 8);
  }

  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  // The join succeeded against an honest peer despite the poisoned list...
  ASSERT_TRUE(alice.parent().has_value());
  EXPECT_NE(*alice.parent(), 666u);
  d_.broadcast(1, util::bytes_of("works anyway"));
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 1u);
}

TEST_F(DistributedTest, StarvationRecoveryAfterParentChurn) {
  // Bob attaches under Alice (the root is hidden from the tracker so the
  // topology is deterministic); Alice departs; Bob's starvation watchdog
  // notices the dead feed and re-switches onto a live parent.
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);
  d_.announce(alice);

  PeerNode* root = d_.root_node(1);
  d_.tracker().unregister_peer(1, root->id());  // only Alice remains listed

  AsyncClient& bob = d_.add_client("bob@example.com", "pw-b", region_);
  bob.enable_starvation_recovery(8 * kSecond);
  ASSERT_EQ(wait([&](auto cb) { bob.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { bob.switch_channel(1, cb); }), DrmError::kOk);
  ASSERT_EQ(bob.parent(), alice.config().node);

  // Restore the root as a parent candidate, then kill Bob's parent.
  d_.tracker().register_peer(
      1, core::PeerInfo{root->id(), *d_.network().addr_of(root->id())}, 64);
  const util::NodeId alice_node = alice.config().node;
  d_.remove_client(alice);  // destroys alice; only alice_node survives

  // Feed content; Bob misses it until the watchdog fires, then recovers.
  for (int i = 0; i < 30; ++i) {
    d_.broadcast(1, util::bytes_of("tick"));
    d_.run_for(1 * kSecond);
  }
  EXPECT_GE(bob.starvation_recoveries(), 1u);
  ASSERT_TRUE(bob.parent().has_value());
  EXPECT_NE(*bob.parent(), alice_node);
  EXPECT_GT(bob.content_decrypted(), 0u);
}

TEST_F(DistributedTest, ForwardSecrecyAfterEvictionOverTheWire) {
  // An evicted (unrenewed) client keeps its old content keys but stops
  // receiving rotations: fresh traffic is beyond its key material — the
  // §IV-E forward-secrecy property, end to end.
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);

  d_.broadcast(1, util::bytes_of("while authorized"));
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 1u);

  // No renewal: the root's eviction sweep severs alice at ticket expiry
  // (10 min) and the minute-by-minute key rotation continues without her.
  d_.run_for(13 * kMinute);
  ASSERT_EQ(d_.root_node(1)->peer().child_count(), 0u);

  d_.broadcast(1, util::bytes_of("after eviction"));
  d_.run_for(5 * kSecond);
  // Severed: nothing new arrived, nothing new decrypted…
  EXPECT_EQ(alice.content_decrypted(), 1u);
  // …and her key ring ends at the serial in use when she was cut off; the
  // currently active key (serial ~13 after 13 minutes) never reached her.
  EXPECT_FALSE(alice.peer_node()->peer().knows_serial(13));
}

TEST_F(DistributedTest, RenewalOverTheWireKeepsPeering) {
  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(1, cb); }), DrmError::kOk);

  // Advance near ticket expiry (10 min lifetime, renewal window 3 min).
  d_.run_for(8 * kMinute);
  ASSERT_EQ(wait([&](auto cb) { alice.renew_channel_ticket(cb); }), DrmError::kOk);
  EXPECT_TRUE(alice.channel_ticket()->ticket.renewal);

  // Past the original expiry the root peer must still keep Alice attached.
  d_.run_for(4 * kMinute);
  PeerNode* root = d_.root_node(1);
  ASSERT_NE(root, nullptr);
  EXPECT_TRUE(root->peer().evict_expired(d_.sim().now()).empty());
  d_.broadcast(1, util::bytes_of("still here"));
  d_.run_for(5 * kSecond);
  EXPECT_EQ(alice.content_decrypted(), 1u);
}

TEST_F(DistributedTest, KeyEpochGapAfterParentCrashIsBoundedByWatchdog) {
  // A subtree parent crashing between rotations opens a key-epoch gap for
  // its children: the root keeps issuing rotations nobody delivers. The
  // gap window is bounded by the starvation watchdog — once it fires, the
  // child re-switches and epoch delivery resumes.
  services::ChannelServerConfig fast;
  fast.rekey_interval = 10 * kSecond;
  fast.announce_lead = 2 * kSecond;
  d_.add_regional_channel(2, "sports", region_);
  d_.start_channel_server(2, fast);

  AsyncClient& alice = d_.add_client("alice@example.com", "pw-a", region_);
  ASSERT_EQ(wait([&](auto cb) { alice.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { alice.switch_channel(2, cb); }), DrmError::kOk);
  d_.announce(alice);

  PeerNode* root = d_.root_node(2);
  d_.tracker().unregister_peer(2, root->id());  // force Bob under Alice

  AsyncClient& bob = d_.add_client("bob@example.com", "pw-b", region_);
  bob.enable_starvation_recovery(12 * kSecond);
  ASSERT_EQ(wait([&](auto cb) { bob.login(cb); }), DrmError::kOk);
  ASSERT_EQ(wait([&](auto cb) { bob.switch_channel(2, cb); }), DrmError::kOk);
  ASSERT_EQ(bob.parent(), alice.config().node);
  d_.tracker().register_peer(
      2, core::PeerInfo{root->id(), *d_.network().addr_of(root->id())}, 64);

  // Crash the parent between rotations; the tracker still lists the corpse,
  // so model the stale sweep that would eventually retire it.
  d_.crash_client(alice);
  d_.tracker().unregister_peer(2, alice.config().node);
  const std::uint64_t rotations_at_crash =
      d_.registry().counter("keys.rotations_issued").value();
  const std::uint64_t epochs_at_crash =
      d_.registry().counter("keys.epochs_delivered").value();
  const std::uint64_t decrypted_at_crash = bob.content_decrypted();

  // Inside the gap window (one rotation passes, watchdog not yet due):
  // rotations are issued but none reach the orphaned child.
  d_.run_for(11 * kSecond);
  EXPECT_GT(d_.registry().counter("keys.rotations_issued").value(),
            rotations_at_crash);
  EXPECT_EQ(d_.registry().counter("keys.epochs_delivered").value(),
            epochs_at_crash);
  d_.broadcast(2, util::bytes_of("into the gap"));
  d_.run_for(2 * kSecond);
  EXPECT_EQ(bob.content_decrypted(), decrypted_at_crash);  // dark window

  // Past the watchdog: Bob re-switches onto the root and the gap closes.
  d_.run_for(20 * kSecond);
  EXPECT_GE(bob.starvation_recoveries(), 1u);
  ASSERT_TRUE(bob.parent().has_value());
  EXPECT_NE(*bob.parent(), alice.config().node);
  d_.broadcast(2, util::bytes_of("after recovery"));
  d_.run_for(5 * kSecond);
  EXPECT_GT(bob.content_decrypted(), decrypted_at_crash);
  EXPECT_GT(d_.registry().counter("keys.epochs_delivered").value(),
            epochs_at_crash);
}

}  // namespace
}  // namespace p2pdrm::net
