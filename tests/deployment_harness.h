// Blocking drivers over a zero-latency SimTransport Deployment, shared by
// the in-process scenario tests (integration, client, threat model, ticket
// properties, scripted sessions).
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "net/deployment.h"

namespace p2pdrm::net {

inline DeploymentConfig zero_latency(std::uint64_t seed) {
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.default_link.latency.floor = 0;
  cfg.default_link.latency.median = 0;
  return cfg;
}

/// A deployment plus blocking drivers and a record of decrypted content.
class Harness {
 public:
  explicit Harness(DeploymentConfig cfg) : d(cfg) {}

  AsyncClient& add_client(const std::string& email, const std::string& password,
                          geo::RegionId region) {
    AsyncClient& c = d.add_client(email, password, region);
    c.set_content_hook([this, node = c.config().node](const core::ContentPacket&,
                                                      const util::Bytes& plain) {
      received_[node] = plain;
    });
    return c;
  }

  core::DrmError login(AsyncClient& c) {
    return d.await([&](auto cb) { c.login(cb); }, util::kMinute);
  }
  core::DrmError switch_channel(AsyncClient& c, util::ChannelId channel) {
    return d.await([&](auto cb) { c.switch_channel(channel, cb); }, util::kMinute);
  }
  core::DrmError renew(AsyncClient& c) {
    return d.await([&](auto cb) { c.renew_channel_ticket(cb); }, util::kMinute);
  }

  /// Produce one packet at the channel server and let it cross the tree;
  /// returns the plaintext each client decrypted.
  std::map<util::NodeId, util::Bytes> broadcast(util::ChannelId channel,
                                                std::string_view text) {
    received_.clear();
    d.broadcast(channel, util::bytes_of(text));
    d.run_for(util::kSecond);
    return received_;
  }

  Deployment d;

 private:
  std::map<util::NodeId, util::Bytes> received_;
};

}  // namespace p2pdrm::net
