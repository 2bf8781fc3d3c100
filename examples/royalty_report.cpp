// Pay-per-view and reporting (§II "Unique User Count", §IV-C logging).
//
// The DRM system must "comply with regulations concerning payment of
// television licensing fees and copyright royalties, enforce per-view
// payment of paid contents, and track viewing rate for advertisement
// purposes". This example sells a pay-per-view boxing match, enforces it
// during the program window only, and then prints the reports an operator
// derives from the Channel Manager's viewing-activity log.
//
//   ./royalty_report
#include <cstdio>

#include "net/deployment.h"

using namespace p2pdrm;

int main() {
  net::DeploymentConfig config;
  config.seed = 99;
  net::Deployment provider(config);
  const geo::RegionId region = provider.geo().region_at(0);

  provider.add_regional_channel(1, "fight-night", region);
  provider.add_regional_channel(2, "free-movies", region);
  provider.start_channel_server(1);
  provider.start_channel_server(2);

  // Tonight 21:00-23:00 on channel 1 is a PPV event sold as package
  // "ppv-main-event".
  const util::SimTime start = 21 * util::kHour;
  const util::SimTime end = 23 * util::kHour;
  provider.policy_manager().add_ppv_program(1, "ppv-main-event", start, end, 0);
  std::printf("channel 1 carries PPV program 21:00-23:00 (package "
              "ppv-main-event)\n\n");

  // Three subscribers; only Paula buys the fight (an Account Manager
  // purchase = a Subscription grant covering the program window).
  for (const char* email : {"paula@example.com", "fred@example.com",
                            "ad-watcher@example.com"}) {
    provider.add_user(email, "pw");
  }
  provider.accounts().subscribe("paula@example.com", {"ppv-main-event", start, end});

  net::AsyncClient& paula = provider.add_client("paula@example.com", "pw", region);
  net::AsyncClient& fred = provider.add_client("fred@example.com", "pw", region);
  net::AsyncClient& casual = provider.add_client("ad-watcher@example.com", "pw", region);
  const auto login_all = [&] {
    bool ok = true;
    for (net::AsyncClient* c : {&paula, &fred, &casual}) {
      ok &= provider.await([&](auto done) { c->login(done); }, util::kMinute) ==
            core::DrmError::kOk;
    }
    return ok;
  };
  const auto watch = [&](net::AsyncClient& c, util::ChannelId channel) {
    return to_string(provider.await([&](auto done) { c.switch_channel(channel, done); },
                                    util::kMinute))
        .data();
  };
  const auto watch_all = [&](const char* label) {
    const char* p = watch(paula, 1);
    const char* f = watch(fred, 1);
    const char* c = watch(casual, 1);
    std::printf("%s: paula=%s fred=%s casual=%s\n", label, p, f, c);
  };

  // 20:00 — pre-show: everyone can watch channel 1.
  provider.run_until(20 * util::kHour);
  if (!login_all()) return 1;
  watch_all("20:00 pre-show");

  // 21:05 — the main event: only the purchaser stays.
  provider.run_until(21 * util::kHour + 5 * util::kMinute);
  if (!login_all()) return 1;
  watch_all("21:05 main event");
  std::printf("      fred retreats to channel 2: %s\n", watch(fred, 2));

  // 23:05 — after the program, free viewing resumes.
  provider.run_until(23 * util::kHour + 5 * util::kMinute);
  if (!login_all()) return 1;
  watch_all("23:05 post-show");
  std::printf("\n");

  // --- operator reports from the viewing-activity log ---
  const services::ViewingLog& log = provider.channel_manager().log();

  std::printf("=== royalty / advertising report (from the viewing log) ===\n");
  std::printf("%-10s %s\n", "channel", "fresh ticket issues (views)");
  for (const auto& [channel, views] : log.views_per_channel()) {
    std::printf("%-10u %zu\n", channel, views);
  }

  // Per-view billing for the PPV window: fresh issues on channel 1 inside
  // [start, end] are billable events.
  std::printf("\nbillable PPV views on channel 1 (21:00-23:00):\n");
  std::size_t billable = 0;
  for (const services::ViewingLog::Entry& e : log.audit_trail()) {
    if (e.channel != 1 || e.renewal || e.time < start || e.time > end) continue;
    ++billable;
    std::printf("  UserIN %llu from %s at %s\n",
                static_cast<unsigned long long>(e.user_in),
                util::to_string(e.addr).c_str(), util::format_time(e.time).c_str());
  }
  std::printf("total billable views: %zu (exactly the purchasers)\n", billable);

  std::printf("\naudit entries total: %zu — each records (UserIN, channel, "
              "NetAddr, time, renewal),\nwhich is also what the §IV-D "
              "single-session rule checks against.\n", log.size());
  return 0;
}
