// Unit tests for the protocol client's local logic (cache handling, state
// transitions, the feedback log) — the integration suite covers the
// protocol; these pin the client-side behaviors around it.
#include <gtest/gtest.h>

#include "deployment_harness.h"

namespace p2pdrm::net {
namespace {

using client::LatencySample;
using client::Round;
using core::DrmError;
using util::kMinute;

class ClientUnitTest : public ::testing::Test {
 protected:
  ClientUnitTest() : h_(zero_latency(4242)), d_(h_.d) {
    d_.add_user("u@example.com", "pw");
    region_ = d_.geo().region_at(0);
    d_.add_regional_channel(1, "one", region_);
    d_.add_regional_channel(2, "two", region_);
    d_.start_channel_server(1);
    d_.start_channel_server(2);
  }

  AsyncClient& user() { return h_.add_client("u@example.com", "pw", region_); }

  static std::size_t rounds_of(const AsyncClient& c, Round round) {
    return static_cast<std::size_t>(
        std::count_if(c.feedback_log().begin(), c.feedback_log().end(),
                      [&](const LatencySample& s) { return s.round == round; }));
  }

  Harness h_;
  Deployment& d_;
  geo::RegionId region_ = 0;
};

TEST_F(ClientUnitTest, FreshClientHasNoState) {
  AsyncClient& c = user();
  EXPECT_FALSE(c.logged_in());
  EXPECT_FALSE(c.user_ticket().has_value());
  EXPECT_FALSE(c.channel_ticket().has_value());
  EXPECT_TRUE(c.viewable_channels().empty());
  EXPECT_TRUE(c.cached_channels().empty());
  EXPECT_EQ(c.peer_node(), nullptr);
  EXPECT_FALSE(c.parent().has_value());
  EXPECT_TRUE(c.feedback_log().empty());
}

TEST_F(ClientUnitTest, SwitchBeforeLoginFailsWithBadTicket) {
  // Switching needs a User Ticket; without one the client refuses locally
  // and sends nothing (it does not log in on the caller's behalf).
  AsyncClient& c = user();
  EXPECT_EQ(h_.switch_channel(c, 1), DrmError::kBadTicket);
  EXPECT_FALSE(c.logged_in());
  EXPECT_TRUE(c.feedback_log().empty());
}

// With auto-renewal on, the client keeps its User Ticket fresh by itself:
// it re-logs in ahead of a Channel Ticket renewal only once the User Ticket
// is inside the slack (twice the renewal margin) of its expiry.
TEST_F(ClientUnitTest, EnsureUserTicketNoopWhenFresh) {
  AsyncClient& c = user();
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(c, 1), DrmError::kOk);
  c.enable_auto_renewal();
  d_.run_for(9 * kMinute);  // first renewal at 8 min; User Ticket good to 30
  ASSERT_TRUE(c.channel_ticket()->ticket.renewal);
  EXPECT_EQ(rounds_of(c, Round::kLogin1), 2u);  // redirect + LOGIN1: no re-login
}

TEST_F(ClientUnitTest, EnsureUserTicketRenewsInsideSlack) {
  AsyncClient& c = user();
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(c, 1), DrmError::kOk);
  c.enable_auto_renewal();
  const util::SimTime first_expiry = c.user_ticket()->ticket.expiry_time;
  d_.run_for(29 * kMinute);  // the renewal at 28 min finds 2 min left
  EXPECT_EQ(rounds_of(c, Round::kLogin1), 3u);  // exactly one re-login
  EXPECT_GT(c.user_ticket()->ticket.expiry_time, first_expiry);
}

TEST_F(ClientUnitTest, ViewableChannelsReflectPolicies) {
  AsyncClient& c = user();
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  EXPECT_EQ(c.viewable_channels(), (std::vector<util::ChannelId>{1, 2}));

  // Blacking out channel 2 removes it from the evaluation. The admin action
  // happens strictly later than the original deployment so the Region
  // attribute's utime visibly advances (same-instant changes would compare
  // equal and skip the refetch).
  d_.run_for(kMinute);
  const util::SimTime now = d_.now();
  d_.policy_manager().blackout(2, now, now + util::kHour, now);
  ASSERT_EQ(h_.login(c), DrmError::kOk);  // refresh cache via utimes
  EXPECT_EQ(c.viewable_channels(), (std::vector<util::ChannelId>{1}));
}

TEST_F(ClientUnitTest, CachedChannelListSurvivesQuietRelogins) {
  AsyncClient& c = user();
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  const std::size_t size_before = c.cached_channels().size();
  const std::size_t lists_before = rounds_of(c, Round::kLogin2);
  // No admin changes: re-login must keep (not refetch or corrupt) the cache.
  d_.run_for(5 * kMinute);
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  EXPECT_EQ(c.cached_channels().size(), size_before);
  // Only the LOGIN2 exchange itself was logged: no channel-list refetch.
  EXPECT_EQ(rounds_of(c, Round::kLogin2), lists_before + 1);
}

TEST_F(ClientUnitTest, PartialRefreshMergesNewChannels) {
  AsyncClient& c = user();
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  EXPECT_EQ(c.cached_channels().size(), 2u);

  d_.run_for(kMinute);  // the lineup change happens later in time
  d_.add_regional_channel(3, "three", region_);
  d_.start_channel_server(3);
  ASSERT_EQ(h_.login(c), DrmError::kOk);  // stale Region utime -> partial fetch
  EXPECT_EQ(c.cached_channels().size(), 3u);
  EXPECT_EQ(h_.switch_channel(c, 3), DrmError::kOk);
}

TEST_F(ClientUnitTest, SwitchingReplacesChannelTicket) {
  AsyncClient& c = user();
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  ASSERT_EQ(h_.switch_channel(c, 1), DrmError::kOk);
  const util::Bytes first = c.channel_ticket()->encode();
  ASSERT_EQ(h_.switch_channel(c, 2), DrmError::kOk);
  EXPECT_EQ(c.channel_ticket()->ticket.channel_id, 2u);
  EXPECT_NE(c.channel_ticket()->encode(), first);
  // A client is a member of one P2P network at a time (§III): the peer is
  // rebuilt for the new channel.
  ASSERT_NE(c.peer_node(), nullptr);
  EXPECT_EQ(c.peer_node()->peer().config().channel, 2u);
}

TEST_F(ClientUnitTest, RenewWithoutChannelTicketFails) {
  AsyncClient& c = user();
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  EXPECT_EQ(h_.renew(c), DrmError::kBadTicket);
}

TEST_F(ClientUnitTest, ReceiveWithoutPeerReturnsNothing) {
  // A client that never joined has no overlay half: content flowing on the
  // channel never reaches it, so nothing is decrypted or handed on.
  AsyncClient& c = user();
  ASSERT_EQ(h_.login(c), DrmError::kOk);
  EXPECT_TRUE(h_.broadcast(1, "frame").empty());
  EXPECT_EQ(c.peer_node(), nullptr);
  EXPECT_EQ(c.content_decrypted(), 0u);
  EXPECT_EQ(c.content_undecryptable(), 0u);
}

TEST_F(ClientUnitTest, FailedRoundsRecordedAsFailures) {
  AsyncClient& c = h_.add_client("u@example.com", "wrong-password", region_);
  EXPECT_NE(h_.login(c), DrmError::kOk);
  // LOGIN1 succeeded at the transport level (server answered) but the flow
  // aborted before LOGIN2 — no LOGIN2 sample, nothing marked success=false
  // spuriously.
  EXPECT_EQ(rounds_of(c, Round::kLogin1), 2u);  // redirect + LOGIN1
  EXPECT_EQ(rounds_of(c, Round::kLogin2), 0u);
  for (const LatencySample& s : c.feedback_log()) EXPECT_TRUE(s.success);
}

}  // namespace
}  // namespace p2pdrm::net
