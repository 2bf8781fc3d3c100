// The protocol client: redirect → LOGIN1/2 → channel list → SWITCH1/2 →
// JOIN → renewals (§III–IV), run asynchronously over the lossy datagram
// network. Every request carries a request id, is timed out and
// retransmitted up to a retry budget, and completes via a callback on the
// client's own transport loop. Peer-side duties (serving joins, relaying
// keys, forwarding content) are delegated to an embedded PeerNode, so a
// fleet of AsyncClients forms a real working overlay. Deployment::await is
// the blocking facade for drivers that want one operation at a time.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string_view>

#include "net/service_nodes.h"
#include "obs/registry.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "p2p/substream.h"

namespace p2pdrm::client {

/// Protocol rounds, named as in the paper's evaluation.
enum class Round : std::uint8_t { kLogin1, kLogin2, kSwitch1, kSwitch2, kJoin };
std::string_view to_string(Round r);

/// True for failures no amount of retrying, failover, or re-login can fix
/// (bad credentials, access denied, ...). Infrastructure errors — timeouts,
/// capacity, wrong-partition — are recoverable and return false.
bool is_permanent_failure(core::DrmError err);

/// One timed protocol round in the client's feedback log — the measurement
/// instrument behind the paper's Figs. 5 and 6.
struct LatencySample {
  Round round;
  util::SimTime started = 0;
  util::SimTime latency = 0;
  bool success = false;
};

}  // namespace p2pdrm::client

namespace p2pdrm::net {

class AsyncClient final : public Node {
 public:
  struct Config {
    std::string email;
    std::string password;
    std::uint32_t client_version = 1;
    util::Bytes client_binary;
    util::NetAddr addr;
    util::NodeId node = util::kInvalidNode;
    std::size_t peer_capacity = 4;
    std::size_t key_bits = 512;
    /// Peer-division multiplexing: how many sub-streams the channel is
    /// delivered as (1..32; the JOIN mask is 32 bits wide). With k > 1 the
    /// client stripes its subscription across up to k distinct parents
    /// (redundancy against churn and loss, §III).
    std::size_t substreams = 1;
    /// Retransmission policy: every retransmission waits `backoff_factor`×
    /// longer than the previous one (capped at `max_timeout`), stretched by
    /// up to a `jitter` fraction so a fleet of clients recovering from the
    /// same outage does not retry in lockstep.
    util::SimTime request_timeout = 3 * util::kSecond;
    int max_retries = 4;
    double backoff_factor = 2.0;
    double jitter = 0.1;
    util::SimTime max_timeout = 30 * util::kSecond;
    /// Operation-level resilience: when true, failed protocol rounds fail
    /// over to an alternate manager instance (fresh redirect + channel-list
    /// refetch) and a lost session re-logins and re-joins automatically.
    bool resilience = false;
    int max_recovery_attempts = 6;  // per operation; recover_session is unbounded
    util::SimTime recovery_delay = 1 * util::kSecond;  // base, doubles per attempt
    util::SimTime max_recovery_delay = 30 * util::kSecond;
    /// Well-known bootstrap (baked into the client binary, §V).
    util::NodeId redirection_node = util::kInvalidNode;
    /// Per-operation retry budget (token bucket, one bucket per protocol
    /// round). Both timeout retransmissions and BUSY-deferred resends spend
    /// a token; an empty bucket fails the request instead of retrying, so a
    /// saturated server cannot turn the client fleet into a retry storm.
    /// 0 = unlimited (legacy behavior).
    double retry_budget = 0;
    double retry_budget_refill_per_second = 0.5;
    /// How many BUSY responses one request tolerates before giving up.
    int busy_max_defers = 8;
    /// Per-destination circuit breaker: after this many consecutive
    /// timeout exhaustions to one node, requests to it fast-fail for
    /// `breaker_cooldown`, then a single probe decides. 0 = disabled.
    int breaker_failure_threshold = 0;
    util::SimTime breaker_cooldown = 10 * util::kSecond;
  };

  using Callback = std::function<void(core::DrmError)>;

  /// Attaches itself to the network at (config.node, config.addr).
  AsyncClient(Config config, Network& network, crypto::SecureRandom rng);
  ~AsyncClient() override;

  AsyncClient(const AsyncClient&) = delete;
  AsyncClient& operator=(const AsyncClient&) = delete;

  // --- protocol drivers (complete via callback inside the simulation) ---

  void login(Callback done);
  void switch_channel(util::ChannelId channel, Callback done);
  void renew_channel_ticket(Callback done);

  /// Rebuild a lost session from scratch: fresh redirect (so the
  /// Redirection Manager can steer us to a healthy farm instance), full
  /// re-login, then re-switch to the channel we were watching. Retries
  /// itself with capped exponential backoff until it succeeds, the failure
  /// is permanent (bad credentials, access denied...), or the client
  /// departs. A successful recovery counts as one rejoin and records the
  /// outage-to-rejoined latency.
  void recover_session(Callback done);

  /// Self-driving ticket maintenance: after every successful switch or
  /// renewal, schedule the next Channel Ticket renewal `margin` before its
  /// expiry (re-logging in first when the User Ticket is about to lapse).
  /// This is the client behavior that keeps a long viewing session alive
  /// without user interaction (§II).
  void enable_auto_renewal(util::SimTime margin = 2 * util::kMinute);

  /// Player-style churn recovery: if no content arrives for `gap` while
  /// tuned to a channel (the parent died or the subtree starved), re-run
  /// the channel switch to get a fresh ticket and a fresh peer list.
  /// Detects total starvation only: with multi-parent sub-streams, losing
  /// one parent halves the feed without tripping this watchdog (a
  /// production player would track per-sub-stream liveness).
  void enable_starvation_recovery(util::SimTime gap = 10 * util::kSecond);

  /// Session over: detach from the network (peers sever us at ticket
  /// expiry, §IV-D). The object stays inspectable.
  void leave();
  bool departed() const { return departed_; }
  std::uint64_t starvation_recoveries() const { return starvation_recoveries_; }

  // --- resilience accounting (inputs to fault::ResilienceReport) ---

  /// Packet-level retransmissions across all requests.
  std::uint64_t retransmits() const { return retransmits_; }
  /// Requests whose whole retry budget drained without a response.
  std::uint64_t timeout_exhaustions() const { return timeout_exhaustions_; }
  /// BUSY responses received from admission-controlled servers.
  std::uint64_t busy_received() const { return busy_received_; }
  /// Resends scheduled after a BUSY (honoring its retry-after hint).
  std::uint64_t busy_deferred_resends() const { return busy_deferred_resends_; }
  /// Requests failed because the per-round retry budget ran dry.
  std::uint64_t retry_budget_exhaustions() const {
    return retry_budget_exhaustions_;
  }
  /// Requests fast-failed by an open per-destination circuit breaker.
  std::uint64_t breaker_fast_fails() const { return breaker_fast_fails_; }
  /// The breaker guarding `node` (null when none exists yet / disabled).
  const CircuitBreaker* breaker(util::NodeId node) const {
    const auto it = breakers_.find(node);
    return it == breakers_.end() ? nullptr : &it->second;
  }
  /// Operation-level failovers (fresh redirect / channel-list refetch after
  /// a failed round).
  std::uint64_t failovers() const { return failovers_; }
  /// Automatic re-authentications performed by the recovery machinery.
  std::uint64_t relogins() const { return relogins_; }
  /// Completed session recoveries (re-login + re-join).
  std::uint64_t rejoins() const { return rejoins_; }
  /// Latency of each completed recovery, from detection to rejoined.
  const std::vector<util::SimTime>& rejoin_latencies() const {
    return rejoin_latencies_;
  }

  // --- state ---

  bool logged_in() const { return user_ticket_.has_value(); }
  const std::optional<core::SignedUserTicket>& user_ticket() const {
    return user_ticket_;
  }
  const std::optional<core::SignedChannelTicket>& channel_ticket() const {
    return channel_ticket_;
  }
  const std::vector<client::LatencySample>& feedback_log() const { return feedback_; }
  const Config& config() const { return config_; }
  /// The key pair's public half (what LOGIN2 certifies in the User Ticket).
  const crypto::RsaPublicKey& public_key() const { return keys_.pub; }
  /// The cached Channel List (refreshed on login when utimes advance).
  const std::vector<core::ChannelRecord>& cached_channels() const { return channels_; }
  /// Channels the user could watch right now: the cached list evaluated
  /// against the User Ticket's attributes (empty when logged out).
  std::vector<util::ChannelId> viewable_channels() const;
  std::optional<util::NodeId> parent() const { return parent_; }

  /// The overlay half (null until the first successful switch).
  PeerNode* peer_node() { return peer_node_.get(); }
  std::uint64_t content_decrypted() const { return content_decrypted_; }
  std::uint64_t content_undecryptable() const { return content_undecryptable_; }
  /// Packets handed to the player in order after sub-stream reassembly.
  std::uint64_t content_in_order() const { return content_in_order_; }
  /// Sub-stream -> parent assignment (null until a striped join succeeds).
  const p2p::SubstreamRouter* router() const { return router_.get(); }

  void on_packet(const Packet& packet) override;

  /// Route this client's telemetry into a registry (per-round latency
  /// histograms "client.round.<NAME>", key-epoch delivery metrics under
  /// "keys.*"), a tracer (request spans with one child span per
  /// transmission attempt), and/or an SLO monitor (fed every successful
  /// round's latency). Any may be null.
  void bind_observability(obs::Registry* registry, obs::Tracer* tracer,
                          obs::SloMonitor* slo = nullptr);

  /// Called whenever this client's overlay peer installs a rotated key
  /// epoch delivered over the fan-out (after the registry metrics update).
  using KeyDeliveryHook =
      std::function<void(const core::ContentKey& key, util::SimTime at)>;
  void set_key_delivery_hook(KeyDeliveryHook hook) {
    key_delivery_hook_ = std::move(hook);
  }

  /// Called with every content packet this client decrypts (after the
  /// counters update). Unset by default: the per-packet path then pays one
  /// empty-check.
  using ContentHook =
      std::function<void(const core::ContentPacket& packet, const util::Bytes& plain)>;
  void set_content_hook(ContentHook hook) { content_hook_ = std::move(hook); }

 private:
  struct Pending {
    MsgKind expect;
    util::NodeId to = util::kInvalidNode;
    util::Bytes wire;  // full envelope for retransmission
    int retries_left = 0;
    int busy_defers = 0;        // BUSY responses absorbed so far
    std::uint64_t attempt = 0;  // invalidates stale timeout events
    client::Round round;
    util::SimTime started = 0;
    std::function<void(const Envelope&)> on_response;
    Callback on_fail;
    obs::SpanId span = 0;          // the whole request (all attempts)
    obs::SpanId attempt_span = 0;  // the transmission currently in flight
  };

  /// End the request's spans with the final outcome and drop its binding.
  void close_request_spans(std::uint64_t request_id, Pending& pending, bool ok,
                           const char* outcome);

  void send_request(util::NodeId to, MsgKind kind, util::Bytes payload,
                    MsgKind expect, client::Round round,
                    std::function<void(const Envelope&)> on_response,
                    Callback on_fail);
  void arm_timeout(std::uint64_t request_id);
  /// A kBusy envelope answered one of our pending requests: defer and
  /// resend after its retry-after hint, or fail when the request is out of
  /// defers / the round's retry budget is dry.
  void handle_busy(const Envelope& env);
  /// Spend one retry token for `round`; false = budget dry.
  bool spend_retry_token(client::Round round);
  CircuitBreaker& breaker_for(util::NodeId node);
  void fail_pending(std::uint64_t request_id, Pending pending,
                    const char* outcome, core::DrmError err);
  void record(client::Round round, util::SimTime started, bool success);
  /// Overlay fan-out delivered a rotated key epoch to our embedded peer.
  void on_key_installed(const core::ContentKey& key);

  // login continuation chain
  void start_login1(Callback done);
  void after_login2(const core::Login2Response& resp, util::SimTime started,
                    Callback done);
  void maybe_fetch_channel_list(std::vector<std::string> stale, Callback done);
  void try_join(std::vector<core::PeerInfo> peers, std::size_t index,
                util::SimTime started, Callback done);

  /// Striped (multi-parent) join bookkeeping for substreams > 1.
  struct StripedJoin {
    std::vector<core::PeerInfo> peers;
    std::vector<std::uint32_t> group_masks;  // one join group per parent slot
    std::size_t group = 0;
    std::size_t candidate = 0;
    util::SimTime started = 0;
    std::map<util::NodeId, std::uint32_t> assigned;  // parent -> mask so far
  };
  void join_striped(std::shared_ptr<StripedJoin> state, Callback done);
  void finish_join(util::SimTime started, Callback done);

  std::uint32_t partition_of(util::ChannelId channel) const;
  std::optional<util::NodeId> manager_node(std::uint32_t partition) const;
  void schedule_auto_renewal();
  void arm_starvation_watchdog();

  // resilience machinery
  util::SimTime recovery_backoff(int attempt);
  /// Run `op`; on a recoverable failure, fail over (drop cached redirect +
  /// channel list so the next attempt re-resolves both) and retry after a
  /// backoff, up to the recovery budget.
  void run_resilient(std::function<void(Callback)> op, int attempt, Callback done);
  void recover_session_attempt(util::SimTime started, int attempt, Callback done);

  void do_login(Callback done);
  void do_switch_channel(util::ChannelId channel, Callback done);
  void do_renew_channel_ticket(Callback done);

  /// Schedule a simulation event tied to this client's lifetime. Simulation
  /// events cannot be cancelled, so a raw [this] capture would dangle if the
  /// client is destroyed (churn!) before the timer fires; the event is
  /// silently dropped instead.
  void schedule(util::SimTime delay, std::function<void()> action);

  Config config_;
  Network& network_;
  crypto::SecureRandom rng_;
  crypto::RsaKeyPair keys_;

  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::SloMonitor* slo_ = nullptr;
  obs::LatencyHistogram* round_hist_[5] = {};  // indexed by client::Round
  obs::Counter* keys_delivered_ = nullptr;
  obs::LatencyHistogram* key_margin_hist_ = nullptr;
  obs::Gauge* key_staleness_gauge_ = nullptr;
  KeyDeliveryHook key_delivery_hook_;
  ContentHook content_hook_;

  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t next_request_id_ = 1;

  /// One retry budget per protocol round (indexed by client::Round).
  TokenBucket retry_budgets_[5];
  /// One breaker per destination we have sent to (created on first send).
  std::map<util::NodeId, CircuitBreaker> breakers_;

  std::optional<services::RedirectResponse> redirect_;
  std::optional<core::SignedUserTicket> user_ticket_;
  std::optional<core::SignedUserTicket> previous_user_ticket_;
  std::optional<core::SignedChannelTicket> channel_ticket_;
  std::vector<core::ChannelRecord> channels_;
  std::vector<core::PartitionInfo> partitions_;
  std::unique_ptr<PeerNode> peer_node_;
  std::optional<util::NodeId> parent_;
  std::unique_ptr<p2p::SubstreamRouter> router_;
  std::unique_ptr<p2p::SubstreamBuffer> reassembly_;
  std::uint64_t content_in_order_ = 0;
  std::vector<client::LatencySample> feedback_;
  std::uint64_t content_decrypted_ = 0;
  std::uint64_t content_undecryptable_ = 0;

  bool auto_renew_ = false;
  util::SimTime renew_margin_ = 2 * util::kMinute;
  std::uint64_t renew_epoch_ = 0;  // invalidates stale renewal timers
  /// Atomic so a live-bench driver thread can poll departed() while the
  /// client's loop runs; all writes happen on the client's own loop.
  std::atomic<bool> departed_{false};

  bool starvation_recovery_ = false;
  bool watchdog_armed_ = false;
  util::SimTime starvation_gap_ = 10 * util::kSecond;
  util::SimTime last_content_ = 0;
  bool recovering_ = false;
  std::uint64_t starvation_recoveries_ = 0;

  /// Cleared by the destructor; pending timers hold a copy and no-op.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  /// Channel of the last successful switch (what recover_session rejoins).
  util::ChannelId current_channel_ = 0;
  bool session_recovery_active_ = false;  // one recovery loop at a time
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeout_exhaustions_ = 0;
  std::uint64_t busy_received_ = 0;
  std::uint64_t busy_deferred_resends_ = 0;
  std::uint64_t retry_budget_exhaustions_ = 0;
  std::uint64_t breaker_fast_fails_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t relogins_ = 0;
  std::uint64_t rejoins_ = 0;
  std::vector<util::SimTime> rejoin_latencies_;
};

}  // namespace p2pdrm::net
