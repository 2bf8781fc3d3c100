// End-to-end integration tests: the full service stack and real clients
// exchanging real protocol bytes over a zero-latency simulated network.
#include <gtest/gtest.h>

#include "deployment_harness.h"

namespace p2pdrm::net {
namespace {

using client::LatencySample;
using client::Round;
using core::DrmError;
using util::kMinute;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : h_(make_config()), d_(h_.d) {
    d_.add_user("alice@example.com", "alices-password");
    d_.add_user("bob@example.com", "bobs-password");
    region0_ = d_.geo().region_at(0);
    region1_ = d_.geo().region_at(1);
    d_.add_regional_channel(1, "news", region0_);
    d_.add_regional_channel(2, "weather", region1_);
    d_.add_subscription_channel(3, "premium-sports", region0_, "101");
    d_.start_channel_server(1);
    d_.start_channel_server(2);
    d_.start_channel_server(3);
  }

  static DeploymentConfig make_config() {
    DeploymentConfig cfg = zero_latency(42);
    cfg.geo_plan.num_regions = 2;
    return cfg;
  }

  AsyncClient& alice() { return h_.add_client("alice@example.com", "alices-password", region0_); }
  AsyncClient& bob() { return h_.add_client("bob@example.com", "bobs-password", region0_); }

  Harness h_;
  Deployment& d_;
  geo::RegionId region0_ = 0;
  geo::RegionId region1_ = 0;
};

TEST_F(IntegrationTest, LoginIssuesTicketAndChannelList) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  EXPECT_TRUE(a.logged_in());
  ASSERT_TRUE(a.user_ticket().has_value());
  EXPECT_TRUE(a.user_ticket()->verify(d_.um_domain().keys.pub));
  EXPECT_EQ(a.cached_channels().size(), 3u);
}

TEST_F(IntegrationTest, WrongPasswordFailsLogin) {
  AsyncClient& mallory = h_.add_client("alice@example.com", "wrong-password", region0_);
  EXPECT_NE(h_.login(mallory), DrmError::kOk);
  EXPECT_FALSE(mallory.logged_in());
}

TEST_F(IntegrationTest, UnknownUserFailsLogin) {
  AsyncClient& ghost = h_.add_client("ghost@example.com", "pw", region0_);
  EXPECT_EQ(h_.login(ghost), DrmError::kUnknownUser);
}

TEST_F(IntegrationTest, ViewableChannelsFollowRegion) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  // Region 0: free channel 1 yes, channel 2 (region 1) no, channel 3 needs
  // a subscription alice does not have.
  EXPECT_EQ(a.viewable_channels(), std::vector<util::ChannelId>{1});
}

TEST_F(IntegrationTest, WatchFreeChannelEndToEnd) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  ASSERT_TRUE(a.channel_ticket().has_value());
  EXPECT_EQ(a.channel_ticket()->ticket.channel_id, 1u);

  // Content produced at the Channel Server arrives decryptable.
  const auto received = h_.broadcast(1, "live frame 0");
  ASSERT_TRUE(received.contains(a.config().node));
  EXPECT_EQ(received.at(a.config().node), util::bytes_of("live frame 0"));
}

TEST_F(IntegrationTest, ForeignRegionChannelDenied) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  EXPECT_EQ(h_.switch_channel(a, 2), DrmError::kAccessDenied);
  EXPECT_FALSE(a.channel_ticket().has_value());
}

TEST_F(IntegrationTest, SubscriptionGatesPremiumChannel) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  EXPECT_EQ(h_.switch_channel(a, 3), DrmError::kAccessDenied);

  // Subscribe out-of-band at the Account Manager; a fresh login picks up
  // the new attribute and access follows.
  d_.accounts().subscribe("alice@example.com", {"101", util::kNullTime, util::kNullTime});
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  EXPECT_EQ(h_.switch_channel(a, 3), DrmError::kOk);
}

TEST_F(IntegrationTest, ChannelSwitchingTransparentAfterLogin) {
  // §II "Viewing Experience": after sign-on, switching needs no further
  // user-visible verification (no new login rounds).
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  d_.add_regional_channel(4, "news-2", region0_);
  d_.start_channel_server(4);
  ASSERT_EQ(h_.login(a), DrmError::kOk);  // refresh list with channel 4

  const auto logins = [&a] {
    return std::count_if(a.feedback_log().begin(), a.feedback_log().end(),
                         [](const LatencySample& s) { return s.round == Round::kLogin1; });
  };
  const auto logins_before = logins();
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 4), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  EXPECT_EQ(logins(), logins_before);
}

TEST_F(IntegrationTest, PeerToPeerRelayDistribution) {
  // Alice joins the server; Bob joins Alice (after she announces herself).
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  d_.announce(a);

  AsyncClient& b = bob();
  ASSERT_EQ(h_.login(b), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(b, 1), DrmError::kOk);

  const auto received = h_.broadcast(1, "frame");
  EXPECT_TRUE(received.contains(a.config().node));
  EXPECT_TRUE(received.contains(b.config().node));
}

TEST_F(IntegrationTest, KeyRotationReachesWholeTree) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  d_.announce(a);
  AsyncClient& b = bob();
  ASSERT_EQ(h_.login(b), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(b, 1), DrmError::kOk);

  // Advance past a rotation; both clients must decrypt new-key content.
  d_.run_for(2 * kMinute);
  const auto received = h_.broadcast(1, "rotated");
  EXPECT_EQ(received.size(), 2u);
  for (const auto& [node, payload] : received) {
    EXPECT_EQ(payload, util::bytes_of("rotated"));
  }
}

TEST_F(IntegrationTest, SameAccountSecondLocationSupersedesFirst) {
  // §IV-D: an account can watch a channel from one location at a time;
  // moving locations wins, and the old location's renewal is refused.
  AsyncClient& home = alice();
  ASSERT_EQ(h_.login(home), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(home, 1), DrmError::kOk);

  AsyncClient& office = alice();
  ASSERT_EQ(h_.login(office), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(office, 1), DrmError::kOk);

  // Renewal window opens near expiry (10 min lifetime, 3 min window).
  d_.run_for(8 * kMinute);
  EXPECT_EQ(h_.renew(home), DrmError::kRenewalRefused);
  EXPECT_EQ(h_.renew(office), DrmError::kOk);
}

TEST_F(IntegrationTest, RenewalKeepsPeeringAlive) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);

  d_.run_for(8 * kMinute);
  ASSERT_EQ(h_.renew(a), DrmError::kOk);
  EXPECT_TRUE(a.channel_ticket()->ticket.renewal);

  // Past the original expiry the root's eviction sweeps have run, and the
  // peering survived them thanks to the renewal.
  d_.run_for(4 * kMinute);  // t = 12 min > original 10 min expiry
  EXPECT_EQ(d_.root_node(1)->peer().child_count(), 1u);
  EXPECT_TRUE(h_.broadcast(1, "still here").contains(a.config().node));
}

TEST_F(IntegrationTest, WithoutRenewalPeerSeversAtExpiry) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  ASSERT_EQ(d_.root_node(1)->peer().child_count(), 1u);
  d_.run_for(11 * kMinute);
  EXPECT_EQ(d_.root_node(1)->peer().child_count(), 0u);
  // Severed: new content no longer reaches alice.
  EXPECT_FALSE(h_.broadcast(1, "gone").contains(a.config().node));
}

TEST_F(IntegrationTest, BlackoutDeniesDuringWindowOnly) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);

  const util::SimTime now = d_.now();
  d_.policy_manager().blackout(1, now + 5 * kMinute, now + 65 * kMinute, now);

  // Refresh list (utime advanced). Before the window, access still granted.
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  EXPECT_EQ(h_.switch_channel(a, 1), DrmError::kOk);

  d_.run_for(6 * kMinute);  // inside the blackout window
  EXPECT_EQ(h_.switch_channel(a, 1), DrmError::kAccessDenied);

  d_.run_for(60 * kMinute);  // past the window
  ASSERT_EQ(h_.login(a), DrmError::kOk);  // user ticket expired meanwhile
  EXPECT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
}

TEST_F(IntegrationTest, FeedbackLogRecordsAllFiveRounds) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  std::array<int, 5> counts{};
  for (const LatencySample& s : a.feedback_log()) {
    ++counts[static_cast<std::size_t>(s.round)];
    EXPECT_TRUE(s.success);
  }
  // The redirect lookup is logged as part of LOGIN1 and the channel-list
  // fetch as part of LOGIN2: one exchange each on a first login.
  EXPECT_EQ(counts[0], 2);  // LOGIN1 (+ redirect)
  EXPECT_EQ(counts[1], 2);  // LOGIN2 (+ channel list)
  EXPECT_EQ(counts[2], 1);  // SWITCH1
  EXPECT_EQ(counts[3], 1);  // SWITCH2
  EXPECT_EQ(counts[4], 1);  // JOIN
}

TEST_F(IntegrationTest, UserTicketAutoRenewal) {
  // Auto-renewal re-logs in ahead of a Channel Ticket renewal once the User
  // Ticket is about to lapse, so a watching session never holds an expired
  // User Ticket.
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  a.enable_auto_renewal();
  const util::SimTime first_expiry = a.user_ticket()->ticket.expiry_time;
  d_.run_for(29 * kMinute);  // within the slack of the 30-minute lifetime
  EXPECT_GT(a.user_ticket()->ticket.expiry_time, first_expiry);
  EXPECT_FALSE(a.user_ticket()->ticket.expired_at(d_.now()));
}

TEST_F(IntegrationTest, PartitionedChannelManagers) {
  DeploymentConfig cfg = make_config();
  cfg.partitions = 2;
  Harness h(cfg);
  Deployment& d = h.d;
  d.add_user("carol@example.com", "pw");
  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(1, "pop", region, /*partition=*/0);
  d.add_regional_channel(2, "niche", region, /*partition=*/1);
  d.start_channel_server(1);
  d.start_channel_server(2);

  AsyncClient& carol = h.add_client("carol@example.com", "pw", region);
  ASSERT_EQ(h.login(carol), DrmError::kOk);
  ASSERT_EQ(h.switch_channel(carol, 1), DrmError::kOk);
  EXPECT_TRUE(carol.channel_ticket()->verify(d.channel_manager(0).public_key()));
  ASSERT_EQ(h.switch_channel(carol, 2), DrmError::kOk);
  EXPECT_TRUE(carol.channel_ticket()->verify(d.channel_manager(1).public_key()));
  // Each partition's log saw exactly its own channel.
  EXPECT_EQ(d.channel_manager(0).log().views_per_channel().count(2), 0u);
  EXPECT_EQ(d.channel_manager(1).log().views_per_channel().count(1), 0u);
}

TEST_F(IntegrationTest, ViewingLogSupportsRoyaltyReporting) {
  AsyncClient& a = alice();
  AsyncClient& b = bob();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.login(b), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(b, 1), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);  // watch again

  const auto views = d_.channel_manager().log().views_per_channel();
  EXPECT_EQ(views.at(1), 3u);
}

TEST_F(IntegrationTest, ParentDepartureRecoverableByRejoining) {
  // Churn: Bob's parent (Alice) leaves; Bob re-runs the switch (fresh
  // ticket + fresh peer list) and reattaches elsewhere.
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  d_.announce(a);

  AsyncClient& b = bob();
  ASSERT_EQ(h_.login(b), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(b, 1), DrmError::kOk);

  // Alice departs: her peer leaves the overlay and the tracker.
  const util::NodeId alice_node = a.config().node;
  d_.remove_client(a);
  if (b.parent() == alice_node) {
    // Bob notices the dead parent and rejoins.
    ASSERT_EQ(h_.switch_channel(b, 1), DrmError::kOk);
  }
  EXPECT_NE(b.parent(), alice_node);
  EXPECT_TRUE(h_.broadcast(1, "after churn").contains(b.config().node));
}

TEST_F(IntegrationTest, AsNumberPolicyGatesByNetwork) {
  // Table I lists "AS Number: the network the user connects from" — e.g. an
  // ISP-partnered channel available only to that ISP's customers. Build a
  // channel gated on alice's own AS and verify the gate.
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  const core::Attribute* as_attr = a.user_ticket()->ticket.attributes.find(core::kAttrAs);
  ASSERT_NE(as_attr, nullptr);
  const std::string alice_as = as_attr->value.value();

  core::ChannelRecord isp_channel;
  isp_channel.id = 50;
  isp_channel.name = "isp-exclusive";
  core::Attribute gate;
  gate.name = core::kAttrAs;
  gate.value = core::AttrValue::of(alice_as);
  isp_channel.attributes.add(gate);
  core::Policy accept;
  accept.priority = 50;
  accept.terms.push_back({core::kAttrAs, core::AttrValue::of(alice_as)});
  accept.action = core::PolicyAction::kAccept;
  isp_channel.policies.push_back(accept);
  d_.run_for(kMinute);  // the lineup change happens strictly later in time
  d_.policy_manager().add_channel(isp_channel, d_.now());
  d_.start_channel_server(50);

  ASSERT_EQ(h_.login(a), DrmError::kOk);  // refresh list
  EXPECT_EQ(h_.switch_channel(a, 50), DrmError::kOk);

  // A viewer from the other region is on a different AS block: denied.
  AsyncClient& b = h_.add_client("bob@example.com", "bobs-password", region1_);
  ASSERT_EQ(h_.login(b), DrmError::kOk);
  EXPECT_EQ(h_.switch_channel(b, 50), DrmError::kAccessDenied);
}

TEST_F(IntegrationTest, CatalogDeploymentEndToEnd) {
  // Deploy a lineup from operator config text and watch it (the full path:
  // parse -> CPM -> channel list push -> policy evaluation -> tickets).
  Harness h(make_config());
  Deployment& d = h.d;
  d.add_user("op@example.com", "pw");
  const std::string region = std::to_string(d.geo().region_at(0));
  const std::string catalog = "channel 10 \"from-config\" partition 0\n"
                              "  attribute Region=" + region + "\n" +
                              "  policy Priority 50: Region=" + region +
                              ", Return ACCEPT\n";
  ASSERT_EQ(d.load_catalog(catalog), "");
  d.start_channel_server(10);

  AsyncClient& op = h.add_client("op@example.com", "pw", d.geo().region_at(0));
  ASSERT_EQ(h.login(op), DrmError::kOk);
  EXPECT_EQ(h.switch_channel(op, 10), DrmError::kOk);

  EXPECT_NE(d.load_catalog("garbage"), "");  // errors surface, nothing deployed
}

TEST_F(IntegrationTest, OpsCountersAggregateAcrossProtocol) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 2), DrmError::kAccessDenied);

  const services::UserManagerDomain& domain = d_.um_domain();
  EXPECT_EQ(domain.login1_stats.successes(), 1u);
  EXPECT_EQ(domain.login2_stats.successes(), 1u);

  const services::ChannelManagerPartition& partition = d_.cm_partition(0);
  EXPECT_EQ(partition.switch1_stats.total(), 2u);
  EXPECT_EQ(partition.switch2_stats.count(DrmError::kAccessDenied), 1u);
  EXPECT_EQ(partition.switch2_stats.successes(), 1u);
  EXPECT_DOUBLE_EQ(partition.switch2_stats.success_rate(), 0.5);
}

TEST_F(IntegrationTest, PpvEndToEnd) {
  const util::SimTime start = d_.now() + 5 * kMinute;
  const util::SimTime end = start + 60 * kMinute;
  d_.policy_manager().add_ppv_program(1, "ppv-77", start, end, d_.now());
  d_.accounts().subscribe("alice@example.com", {"ppv-77", start, end});

  AsyncClient& a = alice();
  AsyncClient& b = bob();
  d_.run_for(10 * kMinute);  // inside the program window
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.login(b), DrmError::kOk);
  EXPECT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  EXPECT_EQ(h_.switch_channel(b, 1), DrmError::kAccessDenied);
}

TEST_F(IntegrationTest, EavesdropperWithoutKeysReadsNothing) {
  AsyncClient& a = alice();
  ASSERT_EQ(h_.login(a), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(a, 1), DrmError::kOk);
  const auto received = h_.broadcast(1, "pay-per-view content");
  ASSERT_TRUE(received.contains(a.config().node));
  // Only authorized peers decrypt: nobody else on the network got plaintext.
  EXPECT_EQ(received.size(), 1u);
}

}  // namespace
}  // namespace p2pdrm::net
