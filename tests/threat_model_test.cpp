// Threat-model scenarios (§IV-G): ticket capture and replay, peer-list
// substitution, stolen credentials, and compromised-client boundaries —
// each exercised end-to-end against the real service stack. Forged
// requests go straight to the service objects the deployment exposes, or
// onto the wire as raw envelopes.
#include <gtest/gtest.h>

#include "deployment_harness.h"

namespace p2pdrm::net {
namespace {

using core::DrmError;
using util::kMinute;

/// A bare network endpoint: sends raw envelopes and keeps every reply.
class Probe final : public Node {
 public:
  Probe(Network& network, util::NodeId id, util::NetAddr addr)
      : network_(network), id_(id) {
    network_.attach(id_, addr, this);
  }
  ~Probe() override { network_.detach(id_); }

  void send(util::NodeId to, MsgKind kind, util::Bytes payload) {
    Envelope env;
    env.kind = kind;
    env.request_id = ++next_request_;
    env.payload = std::move(payload);
    network_.send(id_, to, env.encode());
  }
  void on_packet(const Packet& packet) override {
    if (auto env = Envelope::decode(packet.data)) replies.push_back(std::move(*env));
  }

  std::vector<Envelope> replies;

 private:
  Network& network_;
  util::NodeId id_;
  std::uint64_t next_request_ = 0;
};

constexpr util::NodeId kProbeNode = 4000;

class ThreatModelTest : public ::testing::Test {
 protected:
  ThreatModelTest() : h_(zero_latency(1337)), d_(h_.d) {
    d_.add_user("victim@example.com", "victims-password");
    d_.add_user("attacker@example.com", "attackers-password");
    region_ = d_.geo().region_at(0);
    d_.add_regional_channel(1, "news", region_);
    d_.start_channel_server(1);
  }

  /// The victim, logged in (and tuned to channel 1 when `watch`).
  AsyncClient& victim(bool watch) {
    AsyncClient& v = h_.add_client("victim@example.com", "victims-password", region_);
    EXPECT_EQ(h_.login(v), DrmError::kOk);
    if (watch) {
      EXPECT_EQ(h_.switch_channel(v, 1), DrmError::kOk);
    }
    return v;
  }

  p2p::Peer& root_peer() { return d_.root_node(1)->peer(); }

  Harness h_;
  Deployment& d_;
  geo::RegionId region_ = 0;
};

// §IV-G1: "an attacker that has a client's User Ticket but not the client's
// private key cannot do much with the ticket."
TEST_F(ThreatModelTest, StolenUserTicketUselessWithoutPrivateKey) {
  AsyncClient& v = victim(false);

  // Attacker captures the victim's User Ticket bytes off the wire and
  // presents them from the victim's own address (strongest position).
  const util::Bytes stolen = v.user_ticket()->encode();
  core::Switch1Request r1;
  r1.user_ticket = stolen;
  r1.channel_id = 1;
  const core::Switch1Response resp1 =
      d_.channel_manager(0).handle_switch1(r1, v.config().addr, d_.now());
  ASSERT_EQ(resp1.error, DrmError::kOk);  // challenge is issued...

  // ...but SWITCH2 requires a signature with the private key certified in
  // the ticket, which the attacker does not hold.
  crypto::SecureRandom rng(1);
  const crypto::RsaKeyPair attacker_keys = crypto::generate_rsa_keypair(rng, 512);
  core::Switch2Request r2;
  r2.user_ticket = stolen;
  r2.channel_id = 1;
  r2.challenge = resp1.challenge;
  r2.proof = crypto::rsa_sign(attacker_keys.priv, resp1.challenge.nonce);
  EXPECT_EQ(d_.channel_manager(0).handle_switch2(r2, v.config().addr, d_.now()).error,
            DrmError::kBadCredentials);
}

// §IV-G1: a Channel Ticket captured during the join procedure cannot yield
// content keys without the victim's private key.
TEST_F(ThreatModelTest, CapturedChannelTicketYieldsNoKeys) {
  AsyncClient& v = victim(true);

  // The attacker captured the ticket bytes (peers see them during join) and
  // replays the join at the channel's root — even spoofing the victim's
  // network address.
  core::JoinRequest req;
  req.channel_ticket = v.channel_ticket()->encode();
  const core::JoinResponse resp =
      root_peer().handle_join(req, v.config().addr, /*self=*/4242, d_.now());
  // The peer accepts (it cannot distinguish), but the session key is
  // encrypted under the *victim's* certified public key.
  ASSERT_EQ(resp.error, DrmError::kOk);
  crypto::SecureRandom rng(2);
  const crypto::RsaKeyPair attacker_keys = crypto::generate_rsa_keypair(rng, 512);
  EXPECT_FALSE(crypto::rsa_decrypt(attacker_keys.priv, resp.encrypted_session_key)
                   .has_value());
}

// §IV-G1: the peer list is deliberately unsigned; an attacker who controls
// the victim's traffic substitutes itself. The damage is bounded: it can
// capture the (useless, see above) ticket or deny service — it cannot mint
// decryptable keys without being an authorized peer itself.
TEST_F(ThreatModelTest, SubstitutedPeerListBoundedDamage) {
  AsyncClient& v = victim(true);

  // A fake "peer" (a node id that maps to nothing in the overlay) is what a
  // substituted list would point the client at: the join gets no answer
  // and the client can fall back to other peers — denial, not compromise.
  crypto::SecureRandom rng(5);
  Probe probe(d_.network(), kProbeNode, d_.geo().sample_address(rng, region_));
  core::JoinRequest req;
  req.channel_ticket = v.channel_ticket()->encode();
  probe.send(/*to=*/999999, MsgKind::kJoinRequest, req.encode());
  d_.run_for(util::kSecond);
  EXPECT_FALSE(d_.network().attached(999999));
  EXPECT_TRUE(probe.replies.empty());
}

// Replaying a whole captured LOGIN2 gets the attacker a ticket bound to the
// victim's public key — which it cannot use (no private key). Verified via
// the ticket's certified key.
TEST_F(ThreatModelTest, ReplayedLogin2YieldsUnusableTicket) {
  AsyncClient& v = victim(false);
  // The replayed response would carry the same certified key.
  EXPECT_EQ(v.user_ticket()->ticket.client_public_key, v.public_key());
}

// An eavesdropper on LOGIN1 cannot recover the nonce (password-encrypted),
// so it cannot complete the login as the victim even with captured traffic.
TEST_F(ThreatModelTest, Login1EavesdropperLearnsNoNonce) {
  crypto::SecureRandom rng(3);
  const crypto::RsaKeyPair attacker_keys = crypto::generate_rsa_keypair(rng, 512);
  core::Login1Request req;
  req.email = "victim@example.com";
  req.client_public_key = attacker_keys.pub;
  req.client_version = 1;
  Probe probe(d_.network(), kProbeNode, d_.geo().sample_address(rng, region_));
  probe.send(Deployment::kUserManagerNode, MsgKind::kLogin1Request, req.encode());
  d_.run_for(util::kSecond);
  ASSERT_EQ(probe.replies.size(), 1u);
  const core::Login1Response resp = core::Login1Response::decode(probe.replies[0].payload);
  ASSERT_EQ(resp.error, DrmError::kOk);
  // The clear part of the response carries no nonce...
  EXPECT_TRUE(resp.challenge.nonce.empty());
  // ...and the encrypted part does not open without the password.
  EXPECT_FALSE(core::decrypt_with_shp(core::password_hash("guess1"),
                                      resp.encrypted_params)
                   .has_value());
}

// Account sharing across regions: credentials shared with someone in
// another region do not unlock region-locked channels there.
TEST_F(ThreatModelTest, SharedCredentialsDontCrossRegions) {
  DeploymentConfig cfg = zero_latency(1337);
  cfg.geo_plan.num_regions = 2;
  Harness h(cfg);
  h.d.add_user("victim@example.com", "pw");
  h.d.add_regional_channel(1, "region0-only", h.d.geo().region_at(0));
  h.d.start_channel_server(1);

  AsyncClient& foreign = h.add_client("victim@example.com", "pw", h.d.geo().region_at(1));
  ASSERT_EQ(h.login(foreign), DrmError::kOk);
  EXPECT_EQ(h.switch_channel(foreign, 1), DrmError::kAccessDenied);
}

// A client whose binary was patched fails attestation at the next login —
// the per-login random window makes precomputed checksums useless.
TEST_F(ThreatModelTest, PatchedClientEventuallyCaughtByRandomWindows) {
  victim(false);

  // Attacker runs a patched binary under the victim's credentials.
  AsyncClient::Config cc =
      d_.make_client_config("victim@example.com", "victims-password", region_);
  cc.client_binary[cc.client_binary.size() / 2] ^= 0xff;  // one patched byte
  AsyncClient patched(cc, d_.network(), crypto::SecureRandom(4));

  // A single-byte patch escapes some windows; repeated logins (fresh random
  // windows each time) catch it with overwhelming probability.
  int failures = 0;
  for (int i = 0; i < 30; ++i) {
    if (d_.await([&](auto cb) { patched.login(cb); }, kMinute) ==
        DrmError::kAttestationFailed) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 0);
}

// Ticket lifetimes bound how long any captured ticket is worth anything.
TEST_F(ThreatModelTest, ExpiredTicketsRejectedEverywhere) {
  AsyncClient& v = victim(true);
  const util::Bytes user_ticket = v.user_ticket()->encode();
  const util::Bytes channel_ticket = v.channel_ticket()->encode();

  d_.run_for(31 * kMinute);  // past both lifetimes

  core::Switch1Request r1;
  r1.user_ticket = user_ticket;
  r1.channel_id = 1;
  EXPECT_EQ(d_.channel_manager(0).handle_switch1(r1, v.config().addr, d_.now()).error,
            DrmError::kTicketExpired);

  core::JoinRequest jr;
  jr.channel_ticket = channel_ticket;
  EXPECT_EQ(root_peer().handle_join(jr, v.config().addr, v.config().node, d_.now()).error,
            DrmError::kTicketExpired);
}

}  // namespace
}  // namespace p2pdrm::net
