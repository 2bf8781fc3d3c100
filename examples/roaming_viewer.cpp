// Roaming + single-session enforcement (§II, §III, §IV-D).
//
// A subscriber travels between regions: the channel lineup follows the
// region inferred from the connection address (a roaming user "sees only
// the channels offered in that geographic region"), subscriptions gate
// premium channels, and when the same account starts watching from a
// second machine, the first machine's Channel Ticket renewal is refused
// and its peering is severed at expiry.
//
//   ./roaming_viewer
#include <cstdio>

#include "net/deployment.h"

using namespace p2pdrm;

namespace {

void show_lineup(const char* label, const net::AsyncClient& c) {
  std::printf("%s sees channels: ", label);
  for (util::ChannelId id : c.viewable_channels()) std::printf("%u ", id);
  std::printf("\n");
}

}  // namespace

int main() {
  net::DeploymentConfig config;
  config.seed = 11;
  config.geo_plan.num_regions = 2;
  net::Deployment provider(config);

  const geo::RegionId home = provider.geo().region_at(0);    // "Region 100"
  const geo::RegionId abroad = provider.geo().region_at(1);  // "Region 101"

  provider.add_user("traveler@example.com", "pw");
  provider.accounts().subscribe("traveler@example.com",
                                {"101", util::kNullTime, util::kNullTime});

  provider.add_regional_channel(1, "home-news", home);
  provider.add_subscription_channel(2, "home-premium", home, "101");
  provider.add_regional_channel(3, "abroad-news", abroad);
  for (util::ChannelId id : {1u, 2u, 3u}) provider.start_channel_server(id);

  const auto login = [&](net::AsyncClient& c) {
    return provider.await([&](auto done) { c.login(done); }, util::kMinute);
  };
  const auto watch = [&](net::AsyncClient& c, util::ChannelId channel) {
    return to_string(provider.await([&](auto done) { c.switch_channel(channel, done); },
                                    util::kMinute))
        .data();
  };
  const auto renew = [&](net::AsyncClient& c) {
    return to_string(provider.await([&](auto done) { c.renew_channel_ticket(done); },
                                    util::kMinute))
        .data();
  };

  // At home: the home lineup, including the subscribed premium channel.
  net::AsyncClient& at_home = provider.add_client("traveler@example.com", "pw", home);
  if (login(at_home) != core::DrmError::kOk) return 1;
  show_lineup("at home   ", at_home);
  std::printf("premium channel 2 -> %s\n", watch(at_home, 2));

  // Traveling: same account connects from a region-101 address. The User
  // Manager infers the new region from the connection; the lineup flips.
  net::AsyncClient& abroad_client =
      provider.add_client("traveler@example.com", "pw", abroad);
  if (login(abroad_client) != core::DrmError::kOk) return 1;
  show_lineup("abroad    ", abroad_client);
  std::printf("home channel 1 from abroad -> %s (regional rights)\n",
              watch(abroad_client, 1));
  std::printf("abroad channel 3 -> %s\n", watch(abroad_client, 3));

  // Single-session rule: the abroad machine also tunes to premium channel
  // 2? It cannot (wrong region). But watch what happens when a second
  // machine at home takes over channel 2.
  net::AsyncClient& second_home = provider.add_client("traveler@example.com", "pw", home);
  if (login(second_home) != core::DrmError::kOk) return 1;
  std::printf("\nsecond home machine joins channel 2 -> %s\n", watch(second_home, 2));

  // Near ticket expiry both machines try to renew: the log's latest entry
  // points at the second machine, so only it succeeds (§IV-D).
  provider.run_for(8 * util::kMinute);
  std::printf("first  machine renewal -> %s\n", renew(at_home));
  std::printf("second machine renewal -> %s\n", renew(second_home));

  // Past expiry, the channel roots' eviction sweeps sever every unrenewed
  // child: the first home machine and the abroad machine on channel 3.
  const auto children = [&] {
    std::size_t n = 0;
    for (util::ChannelId id : {1u, 2u, 3u}) n += provider.root_node(id)->peer().child_count();
    return n;
  };
  const std::size_t before = children();
  provider.run_for(3 * util::kMinute);
  std::printf("peering severed at expiry for %zu client(s)\n", before - children());
  std::printf("\nthe account was never able to watch one channel from two "
              "places at once,\nand the user never re-entered credentials "
              "after the initial sign-on.\n");
  return 0;
}
