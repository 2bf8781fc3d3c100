// Scripted protocol sessions, table-driven: each step drives one client
// operation on a zero-latency Deployment and states the DrmError it must
// end with and the Channel Ticket the client must hold afterwards. These
// scripts were first checked round by round against the retired
// direct-call client, so the table pins the protocol behaviour both
// clients agreed on — plus the one place they differed (switching without
// a User Ticket answers kBadTicket instead of logging in on demand).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "deployment_harness.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::kMinute;

struct Step {
  enum Kind { kLogin, kSwitch, kRenew, kAdvance, kSubscribe } kind;
  std::size_t client = 0;       // which scripted client acts
  util::ChannelId channel = 0;  // kSwitch
  util::SimTime dt = 0;         // kAdvance
  DrmError expect = DrmError::kOk;
  /// Channel Ticket the acting client holds after the step (0 = none) and
  /// its renewal bit.
  util::ChannelId holds = 0;
  bool renewal = false;
};

struct ClientSpec {
  std::string email;
  std::string password;
};

struct Session {
  std::string name;
  std::vector<ClientSpec> clients;
  std::vector<Step> steps;
};

// Test listings show the session name, not the object's bytes.
void PrintTo(const Session& session, std::ostream* os) { *os << session.name; }

Step login(std::size_t c, DrmError e, util::ChannelId holds = 0, bool renewal = false) {
  return {Step::kLogin, c, 0, 0, e, holds, renewal};
}
Step switch_to(std::size_t c, util::ChannelId ch, DrmError e, util::ChannelId holds,
               bool renewal = false) {
  return {Step::kSwitch, c, ch, 0, e, holds, renewal};
}
Step renew(std::size_t c, DrmError e, util::ChannelId holds, bool renewal) {
  return {Step::kRenew, c, 0, 0, e, holds, renewal};
}
Step advance(util::SimTime dt) { return {Step::kAdvance, 0, 0, dt, DrmError::kOk, 0, false}; }
Step subscribe(std::size_t c) { return {Step::kSubscribe, c, 0, 0, DrmError::kOk, 0, false}; }

constexpr DrmError kOk = DrmError::kOk;
const ClientSpec kAlice{"alice@example.com", "pw-a"};

// World: region 0 carries free channel 1 and subscription channel 3
// (package "101"); region 1 carries free channel 2. Every client sits in
// region 0. Channel Tickets live 10 minutes, renewable in the last 3.
std::vector<Session> sessions() {
  return {
      {"login", {kAlice}, {login(0, kOk), login(0, kOk)}},
      {"bad_password",
       {{"alice@example.com", "not-her-password"}},
       {login(0, DrmError::kBadCredentials)}},
      {"unknown_user", {{"ghost@example.com", "pw"}}, {login(0, DrmError::kUnknownUser)}},
      {"switch_without_login", {kAlice}, {switch_to(0, 1, DrmError::kBadTicket, 0)}},
      {"foreign_region_denied",
       {kAlice},
       {login(0, kOk), switch_to(0, 2, DrmError::kAccessDenied, 0)}},
      {"subscription_gating",
       {kAlice},
       {login(0, kOk), switch_to(0, 3, DrmError::kAccessDenied, 0), subscribe(0),
        login(0, kOk), switch_to(0, 3, kOk, 3)}},
      {"switch",
       {kAlice},
       {login(0, kOk), switch_to(0, 1, kOk, 1), switch_to(0, 3, DrmError::kAccessDenied, 1),
        switch_to(0, 1, kOk, 1)}},
      {"renewal",
       {kAlice},
       {login(0, kOk), switch_to(0, 1, kOk, 1),
        renew(0, DrmError::kRenewalRefused, 1, false),  // window not open yet
        advance(8 * kMinute), renew(0, kOk, 1, true), advance(2 * kMinute),
        renew(0, DrmError::kRenewalRefused, 1, true),  // renewed ticket not near expiry
        advance(8 * kMinute), login(0, kOk, 1, true), renew(0, kOk, 1, true)}},
      {"second_location_supersedes",
       {kAlice, kAlice},
       {login(0, kOk), switch_to(0, 1, kOk, 1), login(1, kOk), switch_to(1, 1, kOk, 1),
        advance(8 * kMinute), renew(0, DrmError::kRenewalRefused, 1, false),
        renew(1, kOk, 1, true)}},
  };
}

class ProtocolSessionTest : public ::testing::TestWithParam<Session> {};

TEST_P(ProtocolSessionTest, RoundsEndAsScripted) {
  const Session& session = GetParam();
  DeploymentConfig cfg = zero_latency(2011);
  cfg.geo_plan.num_regions = 2;
  Harness h(cfg);
  Deployment& d = h.d;
  d.add_user("alice@example.com", "pw-a");
  const geo::RegionId r0 = d.geo().region_at(0);
  d.add_regional_channel(1, "news", r0);
  d.add_regional_channel(2, "weather", d.geo().region_at(1));
  d.add_subscription_channel(3, "premium-sports", r0, "101");
  for (util::ChannelId id : {1u, 2u, 3u}) d.start_channel_server(id);

  std::vector<AsyncClient*> clients;
  for (const ClientSpec& spec : session.clients) {
    clients.push_back(&h.add_client(spec.email, spec.password, r0));
  }
  for (std::size_t i = 0; i < session.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const Step& step = session.steps[i];
    AsyncClient& c = *clients[step.client];
    DrmError err = kOk;
    switch (step.kind) {
      case Step::kLogin: err = h.login(c); break;
      case Step::kSwitch: err = h.switch_channel(c, step.channel); break;
      case Step::kRenew: err = h.renew(c); break;
      case Step::kAdvance: d.run_for(step.dt); continue;
      case Step::kSubscribe:
        d.accounts().subscribe(c.config().email, {"101", util::kNullTime, util::kNullTime});
        continue;
    }
    EXPECT_EQ(err, step.expect) << to_string(err);

    if (c.user_ticket()) {
      // A User Ticket carries the full attribute set and lives 30 minutes.
      const core::UserTicket& ut = c.user_ticket()->ticket;
      EXPECT_EQ(ut.expiry_time - ut.start_time, 30 * kMinute);
      for (const char* name : {core::kAttrNetAddr, core::kAttrVersion, core::kAttrRegion,
                               core::kAttrAs}) {
        EXPECT_NE(ut.attributes.find(name), nullptr) << name;
      }
      EXPECT_EQ(ut.attributes.find(core::kAttrRegion)->value,
                core::AttrValue::of_number(r0));
    }
    ASSERT_EQ(c.channel_ticket().has_value(), step.holds != 0);
    if (!c.channel_ticket()) continue;
    const core::ChannelTicket& ct = c.channel_ticket()->ticket;
    EXPECT_EQ(ct.channel_id, step.holds);
    EXPECT_EQ(ct.renewal, step.renewal);
    // A fresh issue lives 10 minutes; no ticket outlives the User Ticket it
    // was issued against.
    if (!ct.renewal) {
      EXPECT_EQ(ct.expiry_time - ct.start_time, 10 * kMinute);
    }
    EXPECT_LE(ct.expiry_time, c.user_ticket()->ticket.expiry_time);
  }
}

INSTANTIATE_TEST_SUITE_P(Scripted, ProtocolSessionTest, ::testing::ValuesIn(sessions()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace p2pdrm::net
