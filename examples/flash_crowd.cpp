// Flash crowd at a live-event start (§I's motivating scenario).
//
// "Live events' having well-defined start and end times leads to highly
// correlated service request arrivals" — the case where P2P distribution
// is the advantage rather than the problem. This example floods a channel
// with joiners in a burst: the distribution tree fans out peer-to-peer
// (every accepted viewer becomes a parent candidate), the managers only
// ever do cheap stateless ticket work, and every viewer ends up decrypting
// the stream.
//
//   ./flash_crowd [viewers]                    (default 120, virtual clock)
//   ./flash_crowd --transport=thread [viewers] (default 64; the stampede
//       arrives from real driver threads against an overload-protected
//       deployment on the multithreaded transport — joins are admitted or
//       shed with BUSY, and the kickoff packet crosses the overlay live)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/deployment.h"
#include "obs/flight_recorder.h"

using namespace p2pdrm;

namespace {

constexpr util::ChannelId kChannel = 1;

/// The stampede on the live transport: `viewers` brand-new sessions arrive
/// from 8 driver threads at once. The farm runs with bounded worker queues
/// and admission control, so the burst is either absorbed or shed with
/// BUSY (never silently); BUSY-deferred resends land the stragglers.
int run_live(std::size_t viewers) {
  std::printf("flash crowd (threaded transport): %zu viewers stampeding\n",
              viewers);

  // Crash post-mortem opt-in (P2PDRM_FLIGHT_OUT): a clean stampede writes
  // no dump; a crash leaves the per-thread event rings behind.
  if (obs::FlightRecorder::global().arm_from_env()) {
    std::printf("flight recorder armed -> %s\n",
                obs::FlightRecorder::global().dump_path());
  }

  net::DeploymentConfig cfg;
  cfg.seed = 23;
  cfg.transport = net::TransportKind::kThread;
  cfg.transport_threads = 4;
  cfg.default_link.latency.floor = 1 * util::kMillisecond;
  cfg.default_link.latency.median = 3 * util::kMillisecond;
  cfg.default_link.latency.sigma = 0.3;
  cfg.default_link.loss = 0.0;
  cfg.request_timeout = 500 * util::kMillisecond;
  cfg.cm.peer_list_size = 12;
  // Finite manager capacity makes the burst mean something: one worker,
  // 10 ms per heavy round, shedding past a shallow queue high-water mark.
  cfg.processing.light = 1 * util::kMillisecond;
  cfg.processing.heavy = 10 * util::kMillisecond;
  cfg.overload.workers = 1;
  cfg.overload.queue_capacity = 64;
  cfg.overload.high_water = 4;
  cfg.overload.busy_retry_after = 100 * util::kMillisecond;
  cfg.root_peer_capacity = viewers + 8;
  net::Deployment d(cfg);

  const geo::RegionId region = d.geo().region_at(0);
  d.add_regional_channel(kChannel, "the-big-game", region);
  d.start_channel_server(kChannel);

  // Accounts and clients exist before the event (control plane, main
  // thread only); the stampede is purely protocol traffic.
  std::vector<net::AsyncClient*> crowd;
  crowd.reserve(viewers);
  for (std::size_t i = 0; i < viewers; ++i) {
    const std::string email = "fan" + std::to_string(i) + "@example.com";
    d.add_user(email, "pw");
    crowd.push_back(&d.add_client(email, "pw", region));
  }

  std::atomic<std::size_t> joined{0}, denied{0};
  const std::size_t drivers = 8;
  const auto stampede = [&](std::size_t start) {
    for (std::size_t i = start; i < viewers; i += drivers) {
      net::AsyncClient* c = crowd[i];
      auto done = std::make_shared<std::promise<core::DrmError>>();
      std::future<core::DrmError> fut = done->get_future();
      net::Deployment* dp = &d;
      d.network().post(c->config().node, 0, [c, dp, done] {
        c->login([c, dp, done](core::DrmError err) {
          if (err != core::DrmError::kOk) {
            done->set_value(err);
            return;
          }
          c->switch_channel(kChannel, [c, dp, done](core::DrmError err2) {
            if (err2 == core::DrmError::kOk) dp->announce(*c);
            done->set_value(err2);
          });
        });
      });
      if (fut.get() == core::DrmError::kOk) {
        joined.fetch_add(1, std::memory_order_relaxed);
      } else {
        denied.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < drivers; ++t) pool.emplace_back(stampede, t);
  for (std::thread& t : pool) t.join();

  // Kickoff: one content packet, produced on the root's own loop (the
  // channel server's rotation state lives there) and fanned out live.
  d.network().post(net::Deployment::kChannelRootBase + kChannel, 0,
                   [&d] { d.broadcast(kChannel, util::bytes_of("KICKOFF!")); });
  d.run_for(500 * util::kMillisecond);  // let the packet cross the tree
  d.transport().shutdown();             // quiesce before reading client state

  std::printf("flash crowd: %zu joined, %zu failed out of %zu\n",
              joined.load(), denied.load(), viewers);
  std::printf("tracker now lists %zu peers on the channel (utilization %.2f)\n",
              d.tracker().peer_count(kChannel), d.tracker().utilization(kChannel));

  std::uint64_t busy_received = 0, busy_resends = 0;
  std::size_t reached = 0;
  for (const auto& c : d.clients()) {
    busy_received += c->busy_received();
    busy_resends += c->busy_deferred_resends();
    if (c->content_decrypted() > 0) ++reached;
  }
  const obs::Counter* busy_sent = d.registry().find_counter("server.busy_sent");
  std::printf("overload: server sent %llu BUSY; clients absorbed %llu "
              "(%llu deferred resends)\n",
              static_cast<unsigned long long>(
                  busy_sent != nullptr ? busy_sent->value() : 0),
              static_cast<unsigned long long>(busy_received),
              static_cast<unsigned long long>(busy_resends));
  std::printf("content reached %zu/%zu viewers through the live overlay\n",
              reached, joined.load());
  std::printf("\nkeys and content flowed peer-to-peer; the managers only "
              "issued %zu tickets'\nworth of stateless signing work.\n",
              joined.load() * 2);

  if (joined.load() == 0 || reached == 0) {
    std::fprintf(stderr, "FAIL: the stampede never landed\n");
    return 1;
  }
  return 0;
}

/// The virtual-clock stampede: one arrival every 50 ms, each logging in
/// and tuning in as soon as it arrives, all protocol exchanges interleaved
/// on the simulated network.
int run_sim(std::size_t viewers) {
  net::DeploymentConfig config;
  config.seed = 23;
  config.cm.peer_list_size = 12;
  net::Deployment provider(config);
  const geo::RegionId region = provider.geo().region_at(0);
  provider.add_regional_channel(kChannel, "the-big-game", region);
  provider.start_channel_server(kChannel);

  // Pre-register the audience (accounts exist before the event).
  std::vector<net::AsyncClient*> crowd;
  for (std::size_t i = 0; i < viewers; ++i) {
    const std::string email = "fan" + std::to_string(i) + "@example.com";
    provider.add_user(email, "pw");
    crowd.push_back(&provider.add_client(email, "pw", region));
  }

  // Kick-off: everyone logs in and tunes to channel 1 within seconds.
  std::size_t joined = 0, denied = 0;
  for (std::size_t i = 0; i < crowd.size(); ++i) {
    net::AsyncClient* fan = crowd[i];
    provider.post(static_cast<util::SimTime>(i + 1) * 50 * util::kMillisecond, [&, fan] {
      fan->login([&, fan](core::DrmError err) {
        if (err != core::DrmError::kOk) {
          ++denied;
          return;
        }
        fan->switch_channel(kChannel, [&, fan](core::DrmError err2) {
          if (err2 != core::DrmError::kOk) {
            ++denied;
            return;
          }
          ++joined;
          provider.announce(*fan);  // becomes a parent candidate immediately
        });
      });
    });
  }
  provider.await([&] { return joined + denied == viewers; }, 10 * util::kMinute);
  std::printf("flash crowd: %zu joined, %zu failed out of %zu\n", joined, denied,
              viewers);
  std::printf("tracker now lists %zu peers on the channel (utilization %.2f)\n",
              provider.tracker().peer_count(kChannel),
              provider.tracker().utilization(kChannel));

  // The whole tree really decrypts the stream.
  provider.broadcast(kChannel, util::bytes_of("KICKOFF!"));
  provider.run_for(5 * util::kSecond);
  std::size_t reached = 0;
  for (net::AsyncClient* fan : crowd) reached += fan->content_decrypted() > 0 ? 1 : 0;
  std::printf("content reached %zu/%zu viewers through the overlay\n", reached, joined);

  // Depth distribution of the resulting tree: the crowd absorbed itself —
  // the Channel Server's own upload budget did not grow.
  std::map<util::NodeId, const net::AsyncClient*> by_node;
  for (const net::AsyncClient* fan : crowd) by_node[fan->config().node] = fan;
  std::map<std::size_t, std::size_t> depth_histogram;
  for (const net::AsyncClient* fan : crowd) {
    if (!fan->parent()) continue;
    // Walk up via recorded parents until the channel root (not a client).
    std::size_t depth = 1;
    for (auto up = by_node.find(*fan->parent()); up != by_node.end() && up->second->parent();
         up = by_node.find(*up->second->parent())) {
      ++depth;
    }
    ++depth_histogram[depth];
  }
  std::printf("\ntree depth histogram (hops from the Channel Server):\n");
  for (const auto& [depth, count] : depth_histogram) {
    std::printf("  depth %zu: %zu viewers\n", depth, count);
  }
  std::printf("\nkeys and content flowed peer-to-peer; the managers only "
              "issued %zu tickets'\nworth of stateless signing work.\n",
              joined * 2);
  return joined == viewers && reached == joined ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string transport = "sim";
  std::size_t viewers = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--transport=", 0) == 0) {
      transport = arg.substr(std::string("--transport=").size());
    } else {
      viewers = std::strtoul(arg.c_str(), nullptr, 10);
    }
  }
  if (transport == "thread") return run_live(viewers != 0 ? viewers : 64);
  if (transport != "sim") {
    std::fprintf(stderr, "flash_crowd: unknown --transport=%s (want sim|thread)\n",
                 transport.c_str());
    return 1;
  }
  return run_sim(viewers != 0 ? viewers : 120);
}
