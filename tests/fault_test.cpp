// Fault subsystem tests: plan parsing, overlay semantics, client
// resilience under injected faults, and the headline determinism
// guarantee — the same (seed, plan) pair must reproduce a byte-identical
// ResilienceReport.
#include <gtest/gtest.h>

#include <set>

#include "fault/fault_engine.h"
#include "fault/fault_plan.h"
#include "fault/report.h"
#include "net/deployment.h"

namespace p2pdrm::fault {
namespace {

using core::DrmError;
using util::kMillisecond;
using util::kMinute;
using util::kSecond;

// --- plan & schedule format ---

TEST(FaultPlanTest, DurationParsing) {
  EXPECT_EQ(parse_duration("500ms"), 500 * kMillisecond);
  EXPECT_EQ(parse_duration("90s"), 90 * kSecond);
  EXPECT_EQ(parse_duration("10m"), 10 * kMinute);
  EXPECT_EQ(parse_duration("2h"), 2 * util::kHour);
  EXPECT_EQ(parse_duration("1.5s"), 1500 * kMillisecond);
  EXPECT_EQ(parse_duration("42"), 42);  // raw microseconds
  EXPECT_THROW(parse_duration(""), std::invalid_argument);
  EXPECT_THROW(parse_duration("10x"), std::invalid_argument);
  EXPECT_THROW(parse_duration("fast"), std::invalid_argument);
}

TEST(FaultPlanTest, DurationFormattingRoundTrips) {
  for (const util::SimTime t : {500 * kMillisecond, 90 * kSecond, 10 * kMinute,
                                2 * util::kHour, util::SimTime{42}, 30 * kSecond}) {
    EXPECT_EQ(parse_duration(format_duration(t)), t) << format_duration(t);
  }
}

TEST(FaultPlanTest, AddrBlockMatching) {
  const AddrBlock block = AddrBlock::parse("10.254.0.0/16");
  EXPECT_TRUE(block.contains(util::parse_netaddr("10.254.0.2")));
  EXPECT_TRUE(block.contains(util::parse_netaddr("10.254.255.255")));
  EXPECT_FALSE(block.contains(util::parse_netaddr("10.253.0.1")));
  EXPECT_TRUE(AddrBlock::parse("*").contains(util::parse_netaddr("1.2.3.4")));
  EXPECT_TRUE(AddrBlock::parse("0.0.0.0/0").contains(util::parse_netaddr("9.9.9.9")));
  EXPECT_THROW(AddrBlock::parse("10.0.0.0/33"), std::invalid_argument);
  EXPECT_THROW(AddrBlock::parse("10.0.0.0"), std::invalid_argument);
}

TEST(FaultPlanTest, ParsesScheduleText) {
  const FaultPlan plan = FaultPlan::parse(
      "# a chaos scenario\n"
      "10m crash-um 1\n"
      "12m restart-um 1\n"
      "15m crash-cm 0 1   # instance 1 of partition 0\n"
      "20m partition * 10.254.0.0/16 30s\n"
      "25m loss 0.0.0.0/0 0.9 20s\n"
      "26m delay 10.1.0.0/16 250ms 30s\n"
      "30m churn 1 40 25\n"
      "35m skew 2 90s\n"
      "40m flash-crowd 1 120 30s\n");
  ASSERT_EQ(plan.size(), 9u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrashUm);
  EXPECT_EQ(plan.events()[0].at, 10 * kMinute);
  EXPECT_EQ(plan.events()[0].instance, 1u);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kPartition);
  EXPECT_EQ(plan.events()[3].duration, 30 * kSecond);
  EXPECT_EQ(plan.events()[4].rate, 0.9);
  EXPECT_EQ(plan.events()[5].delay, 250 * kMillisecond);
  EXPECT_EQ(plan.events()[6].departures, 40u);
  EXPECT_EQ(plan.events()[6].arrivals, 25u);
  EXPECT_EQ(plan.events()[7].kind, FaultKind::kClockSkew);
  EXPECT_EQ(plan.events()[7].node, 2u);
  EXPECT_EQ(plan.events()[8].kind, FaultKind::kFlashCrowd);
  EXPECT_EQ(plan.events()[8].channel, 1u);
  EXPECT_EQ(plan.events()[8].arrivals, 120u);
  EXPECT_EQ(plan.events()[8].duration, 30 * kSecond);
}

TEST(FaultPlanTest, ParsesDurableStateVerbs) {
  const FaultPlan plan = FaultPlan::parse(
      "45m wipe-state cm 0 1   # durable media gone too\n"
      "48m wipe-state um 1\n"
      "50m crash-unsynced um 1\n"
      "52m crash-unsynced cm 2 3\n"
      "55m replication-lag 5s\n"
      "58m replication-lag 0\n");
  ASSERT_EQ(plan.size(), 6u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kWipeState);
  EXPECT_EQ(plan.events()[0].farm, FarmKind::kCm);
  EXPECT_EQ(plan.events()[0].partition, 0u);
  EXPECT_EQ(plan.events()[0].instance, 1u);
  EXPECT_EQ(plan.events()[1].farm, FarmKind::kUm);
  EXPECT_EQ(plan.events()[1].instance, 1u);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kCrashUnsynced);
  EXPECT_EQ(plan.events()[2].farm, FarmKind::kUm);
  EXPECT_EQ(plan.events()[3].farm, FarmKind::kCm);
  EXPECT_EQ(plan.events()[3].partition, 2u);
  EXPECT_EQ(plan.events()[3].instance, 3u);
  EXPECT_EQ(plan.events()[4].kind, FaultKind::kReplicationLag);
  EXPECT_EQ(plan.events()[4].delay, 5 * kSecond);
  EXPECT_EQ(plan.events()[5].delay, 0);  // 0 = freeze the ticker
}

TEST(FaultPlanTest, DurableStateVerbErrors) {
  // Unknown farm, missing instance, missing partition, missing interval.
  EXPECT_THROW(FaultPlan::parse("10m wipe-state tracker 1\n"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("10m wipe-state um\n"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("10m wipe-state cm 0\n"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("10m crash-unsynced\n"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("10m crash-unsynced cm 0\n"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("10m replication-lag\n"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("10m replication-lag soon\n"),
               std::invalid_argument);
}

TEST(FaultPlanTest, ToStringParsesBack) {
  FaultPlan plan;
  plan.crash_um(10 * kMinute, 0)
      .partition(20 * kMinute, 30 * kSecond, AddrBlock{}, AddrBlock::parse("10.254.0.0/16"))
      .loss_burst(25 * kMinute, 20 * kSecond, AddrBlock{}, 0.5)
      .churn_storm(30 * kMinute, 1, 4, 2)
      .clock_skew(35 * kMinute, 2, 90 * kSecond)
      .flash_crowd(40 * kMinute, 1, 120, 30 * kSecond)
      .wipe_state_um(45 * kMinute, 1)
      .wipe_state_cm(46 * kMinute, 0, 1)
      .crash_unsynced_um(50 * kMinute, 0)
      .crash_unsynced_cm(51 * kMinute, 2, 3)
      .replication_lag(55 * kMinute, 5 * kSecond);
  const FaultPlan reparsed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(reparsed.to_string(), plan.to_string());
  EXPECT_EQ(reparsed.size(), plan.size());
}

TEST(FaultPlanTest, MalformedLinesReportLineNumber) {
  try {
    FaultPlan::parse("10m crash-um 1\n20m explode 3\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  EXPECT_THROW(FaultPlan::parse("10m crash-um\n"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("10m loss * 1.5 20s\n"), std::invalid_argument);
}

TEST(FaultPlanTest, EventsSortedStably) {
  FaultPlan plan;
  plan.churn_storm(20 * kMinute, 1, 1, 0)
      .crash_um(10 * kMinute, 0)
      .restart_um(10 * kMinute, 1);  // same time: insertion order preserved
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrashUm);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kRestartUm);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kChurnStorm);
}

// --- deployment-backed scenarios ---

net::DeploymentConfig chaos_config() {
  net::DeploymentConfig cfg;
  cfg.seed = 7;
  cfg.default_link.latency.floor = 10 * kMillisecond;
  cfg.default_link.latency.median = 40 * kMillisecond;
  cfg.default_link.latency.sigma = 0.4;
  cfg.processing.light = 1 * kMillisecond;
  cfg.processing.heavy = 8 * kMillisecond;
  return cfg;
}

class FaultScenarioTest : public ::testing::Test {
 public:  // helpers reused by the free-standing determinism test
  static constexpr util::ChannelId kChannel = 1;

  /// Build a provisioned deployment with `viewers` clients watching channel
  /// 1; each client is logged in, joined, announced, and auto-renewing.
  static std::unique_ptr<net::Deployment> make_deployment(net::DeploymentConfig cfg,
                                                          std::size_t viewers) {
    auto dep = std::make_unique<net::Deployment>(cfg);
    const geo::RegionId region = dep->geo().region_at(0);
    dep->add_regional_channel(kChannel, "news", region);
    dep->start_channel_server(kChannel);
    for (std::size_t i = 0; i < viewers; ++i) {
      const std::string email = "viewer-" + std::to_string(i) + "@example.com";
      dep->add_user(email, "pw");
      // All in the channel's own region: it is regional, and the point of
      // these tests is fault recovery, not policy denial.
      net::AsyncClient& client = dep->add_client(email, "pw", region);
      wait(*dep, [&client](net::AsyncClient::Callback cb) { client.login(cb); });
      wait(*dep, [&client](net::AsyncClient::Callback cb) {
        client.switch_channel(kChannel, cb);
      });
      dep->announce(client);
      client.enable_auto_renewal();
    }
    return dep;
  }

  static DrmError wait(net::Deployment& dep,
                       const std::function<void(net::AsyncClient::Callback)>& op) {
    return dep.await(op, 10 * kMinute);
  }
};

TEST_F(FaultScenarioTest, PartitionBlocksAndHealsOverTheWire) {
  net::DeploymentConfig cfg = chaos_config();
  auto dep = make_deployment(cfg, 1);

  FaultPlan plan;
  // Cut every client off from the whole backend subnet, far longer than the
  // retry budget (3+6+12+24+30s ≈ 75s of backoff, with the 30s cap).
  plan.partition(dep->sim().now(), 10 * kMinute, AddrBlock{},
                 AddrBlock::parse("10.254.0.0/16"));
  FaultEngine engine(*dep, plan);
  engine.arm();
  dep->run_for(1 * kMillisecond);  // let the fault event activate

  net::AsyncClient& fresh = dep->add_client("viewer-0@example.com", "pw",
                                            dep->geo().region_at(0));
  EXPECT_EQ(wait(*dep, [&](auto cb) { fresh.login(cb); }), DrmError::kNoCapacity);
  EXPECT_GE(fresh.timeout_exhaustions(), 1u);
  EXPECT_GT(engine.packets_dropped(), 0u);
}

TEST_F(FaultScenarioTest, LatencySpikeDelaysButDelivers) {
  net::DeploymentConfig cfg = chaos_config();
  auto dep = make_deployment(cfg, 0);

  FaultPlan plan;
  plan.latency_spike(0, 10 * kMinute, AddrBlock{}, 400 * kMillisecond);
  FaultEngine engine(*dep, plan);
  engine.arm();
  dep->run_for(1 * kMillisecond);  // let the t=0 fault event activate

  dep->add_user("late@example.com", "pw");
  net::AsyncClient& late = dep->add_client("late@example.com", "pw",
                                           dep->geo().region_at(0));
  EXPECT_EQ(wait(*dep, [&](auto cb) { late.login(cb); }), DrmError::kOk);
  EXPECT_GT(engine.packets_delayed(), 0u);
  // Every round now pays >= 2 * 400ms of injected one-way delay.
  for (const client::LatencySample& s : late.feedback_log()) {
    EXPECT_GE(s.latency, 800 * kMillisecond) << client::to_string(s.round);
  }
}

TEST_F(FaultScenarioTest, ClockSkewOnManagerBreaksLogins) {
  net::DeploymentConfig cfg = chaos_config();
  auto dep = make_deployment(cfg, 0);
  dep->add_user("victim@example.com", "pw");

  // A User Manager whose clock runs a day fast issues tickets stamped in
  // the (client's) future and rejects fresh nonce windows — logins stop
  // succeeding cleanly while the skew lasts.
  FaultPlan plan;
  plan.clock_skew(0, net::Deployment::kUserManagerNode, util::kDay);
  FaultEngine engine(*dep, plan);
  engine.arm();
  dep->run_for(1 * kSecond);

  net::AsyncClient& victim = dep->add_client("victim@example.com", "pw",
                                             dep->geo().region_at(0));
  const DrmError err = wait(*dep, [&](auto cb) { victim.login(cb); });
  // Heal the clock: the same client can then log in.
  dep->network().set_clock_skew(net::Deployment::kUserManagerNode, 0);
  if (err == DrmError::kOk) {
    // Skew may still produce a ticket (expiry windows are generous); what
    // must hold is that the ticket's stamps came from the skewed clock.
    ASSERT_TRUE(victim.user_ticket().has_value());
    EXPECT_GE(victim.user_ticket()->ticket.start_time, util::kDay);
  } else {
    EXPECT_EQ(wait(*dep, [&](auto cb) { victim.login(cb); }), DrmError::kOk);
  }
}

// --- satellite: AsyncClient retry exhaustion ---

TEST_F(FaultScenarioTest, RetryBudgetExhaustsUnderTotalLoss) {
  net::DeploymentConfig cfg = chaos_config();
  auto dep = make_deployment(cfg, 0);
  dep->add_user("lost@example.com", "pw");

  FaultPlan plan;
  plan.loss_burst(0, 10 * kMinute, AddrBlock{}, 1.0);  // 100% loss, everywhere
  FaultEngine engine(*dep, plan);
  engine.arm();
  dep->run_for(1 * kMillisecond);  // let the t=0 fault event activate

  net::AsyncClient& lost = dep->add_client("lost@example.com", "pw",
                                           dep->geo().region_at(0));
  const util::SimTime start = dep->sim().now();
  EXPECT_EQ(wait(*dep, [&](auto cb) { lost.login(cb); }), DrmError::kNoCapacity);
  EXPECT_EQ(lost.timeout_exhaustions(), 1u);  // first round died; chain stopped
  EXPECT_EQ(lost.retransmits(), static_cast<std::uint64_t>(cfg.max_retries));
  // Exhaustion must walk the whole backoff ladder — 3+6+12+24 seconds of
  // waits plus the final timeout, capped at max_timeout (30s) — and jitter.
  EXPECT_GE(dep->sim().now() - start, 75 * kSecond);
  EXPECT_LE(dep->sim().now() - start, 85 * kSecond);
  EXPECT_FALSE(lost.logged_in());
}

TEST_F(FaultScenarioTest, LossBurstEndingMidBudgetIsSurvived) {
  net::DeploymentConfig cfg = chaos_config();
  auto dep = make_deployment(cfg, 0);
  dep->add_user("survivor@example.com", "pw");

  FaultPlan plan;
  plan.loss_burst(0, 8 * kSecond, AddrBlock{}, 1.0);  // ends inside the budget
  FaultEngine engine(*dep, plan);
  engine.arm();
  dep->run_for(1 * kMillisecond);  // let the fault event activate

  net::AsyncClient& survivor = dep->add_client("survivor@example.com", "pw",
                                               dep->geo().region_at(0));
  EXPECT_EQ(wait(*dep, [&](auto cb) { survivor.login(cb); }), DrmError::kOk);
  // The first request and its ~3s retransmit fell inside the burst; the
  // ~9s retransmit got through.
  EXPECT_GE(survivor.retransmits(), 2u);
  EXPECT_EQ(survivor.timeout_exhaustions(), 0u);
  EXPECT_TRUE(survivor.logged_in());
}

// --- satellite: tracker under churn (deployment-level) ---

TEST_F(FaultScenarioTest, SamplingNeverReturnsCrashedPeersAfterSweep) {
  net::DeploymentConfig cfg = chaos_config();
  cfg.tracker_stale_age = 2 * kMinute;
  cfg.client_resilience = true;
  auto dep = make_deployment(cfg, 6);

  // Crash half the fleet ungracefully: the tracker is NOT told.
  FaultPlan plan;
  plan.churn_storm(dep->sim().now() + 1 * kSecond, kChannel, 3, 0);
  FaultEngine engine(*dep, plan);
  engine.arm();
  EXPECT_GT(dep->tracker().peer_count(kChannel), 1u);

  // After the stale age plus a sweep, every dead peer is evicted and
  // sampling only ever returns live nodes.
  dep->run_for(4 * kMinute);
  EXPECT_EQ(engine.churn_departures(), 3u);
  std::set<util::NodeId> live;
  live.insert(dep->root_node(kChannel)->id());
  for (const auto& client : dep->clients()) {
    if (!client->departed()) live.insert(client->config().node);
  }
  for (int trial = 0; trial < 20; ++trial) {
    for (const core::PeerInfo& peer :
         dep->tracker().sample_peers(kChannel, 4, util::NetAddr{})) {
      EXPECT_TRUE(live.contains(peer.node)) << "sampled dead node " << peer.node;
    }
  }
  const double utilization = dep->tracker().utilization(kChannel);
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
}

// --- satellite: flash crowds (deployment-level) ---

TEST_F(FaultScenarioTest, FlashCrowdSpawnsViewersThatAllJoin) {
  net::DeploymentConfig cfg = chaos_config();
  auto dep = make_deployment(cfg, 1);

  FaultPlan plan;
  plan.flash_crowd(dep->sim().now() + kSecond, kChannel, 6, 2 * kSecond);
  FaultEngineConfig engine_cfg;
  engine_cfg.arrival_region = dep->geo().region_at(0);  // the channel is regional
  FaultEngine engine(*dep, plan, engine_cfg);
  engine.arm();

  const std::size_t before = dep->clients().size();
  dep->run_for(2 * kMinute);
  EXPECT_EQ(engine.flash_crowd_arrivals(), 6u);
  ASSERT_EQ(dep->clients().size(), before + 6);
  // With no overload protection configured and a healthy farm, every
  // arrival completes the full login -> switch -> join sequence.
  for (const auto& client : dep->clients()) {
    EXPECT_TRUE(client->logged_in()) << client->config().email;
    EXPECT_TRUE(client->channel_ticket().has_value()) << client->config().email;
  }
}

// --- the headline determinism guarantee ---

struct ChaosOutcome {
  std::string report;
  std::string fault_log;
  std::size_t live_clients = 0;
  std::size_t live_logged_in = 0;
  std::size_t live_joined = 0;
};

ChaosOutcome run_scripted_chaos() {
  net::DeploymentConfig cfg = chaos_config();
  cfg.um_instances = 2;
  cfg.cm_instances = 2;
  cfg.tracker_stale_age = 2 * kMinute;
  cfg.client_resilience = true;
  auto dep = FaultScenarioTest::make_deployment(cfg, 8);

  // The scripted plan from the acceptance scenario: a manager crash at
  // t=10min, a 30s backend partition at t=20min, a churn storm at t=30min.
  const FaultPlan plan = FaultPlan::parse(
      "10m crash-um 0\n"
      "10m crash-cm 0 0\n"
      "20m partition * 10.254.0.0/16 30s\n"
      "30m churn 1 3 3\n");
  FaultEngineConfig engine_cfg;
  engine_cfg.arrival_region = dep->geo().region_at(0);  // the channel is regional
  FaultEngine engine(*dep, plan, engine_cfg);
  engine.arm();
  dep->run_until(40 * kMinute);

  ChaosOutcome outcome;
  const ResilienceReport report = ResilienceReport::collect(*dep);
  outcome.report = report.to_string();
  for (const std::string& line : engine.log()) {
    outcome.fault_log += line + "\n";
  }
  for (const auto& client : dep->clients()) {
    if (client->departed()) continue;
    ++outcome.live_clients;
    if (client->logged_in()) ++outcome.live_logged_in;
    // Require an *unexpired* ticket: a dead session still holds its last
    // (stale) ticket object, so has_value() alone would miss decay.
    if (client->channel_ticket() &&
        !client->channel_ticket()->ticket.expired_at(dep->now())) {
      ++outcome.live_joined;
    }
  }
  return outcome;
}

TEST(FaultDeterminismTest, ScriptedChaosIsByteIdenticalAcrossRuns) {
  const ChaosOutcome first = run_scripted_chaos();
  const ChaosOutcome second = run_scripted_chaos();
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.fault_log, second.fault_log);

  // Resilience held: every client still present ends the run
  // re-authenticated and re-joined despite the crash + partition + storm.
  EXPECT_EQ(first.live_clients, 8u);  // 8 - 3 churned + 3 arrivals
  EXPECT_EQ(first.live_logged_in, first.live_clients);
  EXPECT_EQ(first.live_joined, first.live_clients);

  // The faults actually happened.
  EXPECT_NE(first.fault_log.find("crash-um"), std::string::npos);
  EXPECT_NE(first.fault_log.find("partition"), std::string::npos);
  EXPECT_NE(first.fault_log.find("churn"), std::string::npos);
  EXPECT_NE(first.report.find("rejoins="), std::string::npos);
}

}  // namespace
}  // namespace p2pdrm::fault
