#include "net/async_client.h"

#include <algorithm>

#include "core/client_flows.h"

namespace p2pdrm::client {

std::string_view to_string(Round r) {
  switch (r) {
    case Round::kLogin1: return "LOGIN1";
    case Round::kLogin2: return "LOGIN2";
    case Round::kSwitch1: return "SWITCH1";
    case Round::kSwitch2: return "SWITCH2";
    case Round::kJoin: return "JOIN";
  }
  return "?";
}

bool is_permanent_failure(core::DrmError err) {
  switch (err) {
    case core::DrmError::kUnknownUser:
    case core::DrmError::kBadCredentials:
    case core::DrmError::kAttestationFailed:
    case core::DrmError::kVersionTooOld:
    case core::DrmError::kAccessDenied:
    case core::DrmError::kUnknownChannel:
      return true;
    default:
      return false;
  }
}

}  // namespace p2pdrm::client

namespace p2pdrm::net {

using client::Round;
using core::DrmError;

AsyncClient::AsyncClient(Config config, Network& network, crypto::SecureRandom rng)
    : config_(std::move(config)), network_(network), rng_(std::move(rng)),
      keys_(crypto::generate_rsa_keypair(rng_, config_.key_bits)) {
  if (config_.retry_budget > 0) {
    for (auto& bucket : retry_budgets_) {
      bucket = TokenBucket(config_.retry_budget,
                           config_.retry_budget_refill_per_second);
    }
  }
  network_.attach(config_.node, config_.addr, this);
}

bool AsyncClient::spend_retry_token(Round round) {
  return retry_budgets_[static_cast<std::size_t>(round)].try_take(
      network_.now());
}

CircuitBreaker& AsyncClient::breaker_for(util::NodeId node) {
  const auto it = breakers_.find(node);
  if (it != breakers_.end()) return it->second;
  CircuitBreaker::Policy policy;
  policy.failure_threshold = config_.breaker_failure_threshold;
  policy.cooldown = config_.breaker_cooldown;
  return breakers_.emplace(node, CircuitBreaker(policy)).first->second;
}

void AsyncClient::fail_pending(std::uint64_t request_id, Pending pending,
                               const char* outcome, DrmError err) {
  close_request_spans(request_id, pending, /*ok=*/false, outcome);
  record(pending.round, pending.started, false);
  if (pending.on_fail) pending.on_fail(err);
}

AsyncClient::~AsyncClient() {
  *alive_ = false;
  leave();
}

void AsyncClient::schedule(util::SimTime delay, std::function<void()> action) {
  // Timers post to this client's own transport group, so they are
  // serialized with the client's packet deliveries on both backends.
  network_.post(config_.node, delay,
                [alive = alive_, action = std::move(action)] {
    if (*alive) action();
  });
}

void AsyncClient::leave() {
  if (departed_) return;
  departed_ = true;
  ++renew_epoch_;  // cancel outstanding renewal timers
  auto_renew_ = false;
  starvation_recovery_ = false;
  // Drop every in-flight request: the retransmit-timeout and BUSY-deferred
  // resend closures key off pending_, so clearing it here guarantees no
  // timer can fire a send from (or re-arm for) a dead session. on_fail is
  // deliberately not invoked — the session is over, nobody is listening.
  for (auto& [request_id, pending] : pending_) {
    close_request_spans(request_id, pending, /*ok=*/false, "departed");
  }
  pending_.clear();
  if (network_.attached(config_.node)) network_.detach(config_.node);
}

void AsyncClient::enable_starvation_recovery(util::SimTime gap) {
  starvation_recovery_ = true;
  starvation_gap_ = gap;
  last_content_ = network_.now();
  if (channel_ticket_) arm_starvation_watchdog();
}

void AsyncClient::arm_starvation_watchdog() {
  if (!starvation_recovery_ || departed_ || watchdog_armed_) return;
  watchdog_armed_ = true;
  schedule(starvation_gap_, [this] {
    watchdog_armed_ = false;
    if (departed_ || !starvation_recovery_) return;
    if (!channel_ticket_ || recovering_) {
      arm_starvation_watchdog();
      return;
    }
    if (network_.now() - last_content_ >= starvation_gap_) {
      // Starved: the parent is gone or the subtree died. Re-switch for a
      // fresh ticket and peer list (the paper's client does exactly this on
      // a dead parent; the Channel Manager logs it as a fresh view).
      recovering_ = true;
      ++starvation_recoveries_;
      const util::ChannelId channel = channel_ticket_->ticket.channel_id;
      switch_channel(channel, [this](DrmError) {
        recovering_ = false;
        last_content_ = network_.now();
      });
    }
    arm_starvation_watchdog();
  });
}

void AsyncClient::enable_auto_renewal(util::SimTime margin) {
  auto_renew_ = true;
  renew_margin_ = margin;
  if (channel_ticket_) schedule_auto_renewal();
}

void AsyncClient::schedule_auto_renewal() {
  if (!auto_renew_ || !channel_ticket_ || departed_) return;
  const std::uint64_t epoch = ++renew_epoch_;
  const util::SimTime due = std::max(
      channel_ticket_->ticket.expiry_time - renew_margin_, network_.now() + 1);
  schedule(due - network_.now(), [this, epoch] {
    if (departed_ || epoch != renew_epoch_ || !channel_ticket_) return;
    // Keep the User Ticket ahead of the Channel Ticket: re-login first when
    // it would expire before the renewed Channel Ticket needs it.
    const auto renew = [this](DrmError) {
      renew_channel_ticket([this](DrmError err) {
        if (err == DrmError::kOk) {
          schedule_auto_renewal();
          return;
        }
        // Renewal (and, with resilience on, the recovery behind it) failed.
        // A session recovery may still be running — the re-switch it ends
        // with re-arms this timer — but if nothing else is in flight, kick
        // off a recovery ourselves rather than silently losing the session.
        if (config_.resilience && !departed_ && !session_recovery_active_) {
          recover_session([this](DrmError err2) {
            if (err2 == DrmError::kOk) schedule_auto_renewal();
          });
        }
      });
    };
    if (user_ticket_ &&
        user_ticket_->ticket.expiry_time - network_.now() < 2 * renew_margin_) {
      login(renew);
    } else {
      renew(DrmError::kOk);
    }
  });
}

void AsyncClient::bind_observability(obs::Registry* registry,
                                     obs::Tracer* tracer,
                                     obs::SloMonitor* slo) {
  registry_ = registry;
  tracer_ = tracer;
  slo_ = slo;
  if (registry_ != nullptr) {
    for (const Round r : {Round::kLogin1, Round::kLogin2, Round::kSwitch1,
                          Round::kSwitch2, Round::kJoin}) {
      round_hist_[static_cast<std::size_t>(r)] = &registry_->histogram(
          "client.round." + std::string(client::to_string(r)));
    }
    keys_delivered_ = &registry_->counter("keys.epochs_delivered");
    key_margin_hist_ = &registry_->histogram("keys.delivery_margin_us");
    key_staleness_gauge_ = &registry_->gauge("keys.max_staleness_us");
  } else {
    for (auto& h : round_hist_) h = nullptr;
    keys_delivered_ = nullptr;
    key_margin_hist_ = nullptr;
    key_staleness_gauge_ = nullptr;
  }
}

void AsyncClient::record(Round round, util::SimTime started, bool success) {
  const util::SimTime latency = network_.now() - started;
  feedback_.push_back({round, started, latency, success});
  if (success && round_hist_[static_cast<std::size_t>(round)] != nullptr) {
    round_hist_[static_cast<std::size_t>(round)]->record(latency);
  }
  if (success && slo_ != nullptr) {
    slo_->observe(client::to_string(round), network_.now(), latency);
  }
}

void AsyncClient::on_key_installed(const core::ContentKey& key) {
  const util::SimTime now = network_.now();
  if (keys_delivered_ != nullptr) {
    keys_delivered_->inc();
    // Margin: how far ahead of activation the epoch landed (0 = late).
    const util::SimTime margin = key.activation - now;
    key_margin_hist_->record(margin > 0 ? margin : 0);
    if (margin < 0 && -margin > key_staleness_gauge_->value()) {
      key_staleness_gauge_->set(-margin);
    }
  }
  if (key_delivery_hook_) key_delivery_hook_(key, now);
}

void AsyncClient::close_request_spans(std::uint64_t request_id, Pending& pending,
                                      bool ok, const char* outcome) {
  if (tracer_ == nullptr) return;
  const util::SimTime now = network_.now();
  tracer_->end_span(pending.attempt_span, now, ok);
  tracer_->tag(pending.span, "outcome", outcome);
  tracer_->end_span(pending.span, now, ok);
  tracer_->unbind_request(config_.node, request_id);
}

void AsyncClient::send_request(util::NodeId to, MsgKind kind, util::Bytes payload,
                               MsgKind expect, Round round,
                               std::function<void(const Envelope&)> on_response,
                               Callback on_fail) {
  if (config_.breaker_failure_threshold > 0 &&
      !breaker_for(to).allow(network_.now())) {
    // The breaker is open: this destination keeps timing out, so fail fast
    // instead of burning a full timeout ladder. The resilience layer treats
    // it like any other failed round (failover to an alternate instance).
    ++breaker_fast_fails_;
    if (registry_ != nullptr) {
      registry_->counter("client.breaker.fast_fail").inc();
    }
    const util::SimTime started = network_.now();
    schedule(0, [this, round, started, on_fail = std::move(on_fail)] {
      record(round, started, false);
      if (on_fail) on_fail(DrmError::kNoCapacity);
    });
    return;
  }
  const std::uint64_t request_id = next_request_id_++;
  Envelope env;
  env.kind = kind;
  env.request_id = request_id;
  env.payload = std::move(payload);

  Pending pending;
  pending.expect = expect;
  pending.to = to;
  pending.wire = env.encode();
  pending.retries_left = config_.max_retries;
  pending.round = round;
  pending.started = network_.now();
  pending.on_response = std::move(on_response);
  pending.on_fail = std::move(on_fail);
  if (tracer_ != nullptr) {
    // One span for the whole request, one child per transmission attempt;
    // the binding lets the network's trace interceptor and the serving node
    // parent their spans under the in-flight attempt.
    pending.span = tracer_->begin_span("client", std::string(client::to_string(round)),
                                       config_.node, pending.started);
    tracer_->tag(pending.span, "kind", std::string(to_string(kind)));
    tracer_->tag(pending.span, "to", std::to_string(to));
    pending.attempt_span = tracer_->begin_span("client", "attempt", config_.node,
                                               pending.started, pending.span);
    tracer_->bind_request(config_.node, request_id, pending.attempt_span);
  }
  const util::Bytes wire = pending.wire;
  pending_.emplace(request_id, std::move(pending));

  network_.send(config_.node, to, wire);
  arm_timeout(request_id);
}

void AsyncClient::arm_timeout(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  const std::uint64_t attempt = it->second.attempt;

  // Exponential backoff with jitter: attempt k waits factor^k times the
  // base timeout (capped), stretched by up to `jitter` so clients that all
  // lost the same manager do not hammer its replacement in lockstep.
  const int step = config_.max_retries - it->second.retries_left;
  double timeout = static_cast<double>(config_.request_timeout);
  for (int i = 0; i < step; ++i) timeout *= config_.backoff_factor;
  timeout = std::min(timeout, static_cast<double>(config_.max_timeout));
  if (config_.jitter > 0) timeout *= 1.0 + config_.jitter * rng_.uniform_real();

  schedule(static_cast<util::SimTime>(timeout), [this, request_id, attempt] {
    const auto p = pending_.find(request_id);
    if (p == pending_.end() || p->second.attempt != attempt) return;  // resolved
    if (p->second.retries_left > 0) {
      if (!spend_retry_token(p->second.round)) {
        // Retries remain but the round's budget is dry: a fleet-wide outage
        // must not multiply the offered load. Fail the operation instead.
        ++retry_budget_exhaustions_;
        if (registry_ != nullptr) {
          registry_->counter("client.retry_budget.exhausted").inc();
        }
        Pending failed = std::move(p->second);
        pending_.erase(p);
        if (config_.breaker_failure_threshold > 0) {
          breaker_for(failed.to).record_failure(network_.now());
        }
        fail_pending(request_id, std::move(failed), "budget",
                     DrmError::kNoCapacity);
        return;
      }
      --p->second.retries_left;
      ++p->second.attempt;
      ++retransmits_;
      if (tracer_ != nullptr) {
        // The old attempt timed out; open a fresh child span and rebind the
        // request id to it so later hops/serves parent under the right one.
        const util::SimTime now = network_.now();
        tracer_->end_span(p->second.attempt_span, now, /*ok=*/false);
        tracer_->event(p->second.span, now, "retransmit",
                       "attempt " + std::to_string(p->second.attempt));
        p->second.attempt_span = tracer_->begin_span(
            "client", "attempt", config_.node, now, p->second.span);
        tracer_->bind_request(config_.node, request_id, p->second.attempt_span);
      }
      network_.send(config_.node, p->second.to, p->second.wire);
      arm_timeout(request_id);
      return;
    }
    // Give up: record the failed round and fail the operation.
    ++timeout_exhaustions_;
    Pending failed = std::move(p->second);
    pending_.erase(p);
    if (config_.breaker_failure_threshold > 0) {
      breaker_for(failed.to).record_failure(network_.now());
    }
    fail_pending(request_id, std::move(failed), "timeout", DrmError::kNoCapacity);
  });
}

void AsyncClient::on_packet(const Packet& packet) {
  const auto env = Envelope::decode(packet.data);
  if (!env) return;

  // Peer-plane messages are served by the embedded overlay half.
  switch (env->kind) {
    case MsgKind::kJoinRequest:
    case MsgKind::kRenewalPresent:
    case MsgKind::kKeyBlob:
    case MsgKind::kContent:
      if (peer_node_) peer_node_->on_packet(packet);
      return;
    default:
      break;
  }

  if (env->kind == MsgKind::kBusy) {
    handle_busy(*env);
    return;
  }

  const auto it = pending_.find(env->request_id);
  if (it == pending_.end()) return;           // stale duplicate
  if (it->second.expect != env->kind) return; // mismatched response kind
  Pending pending = std::move(it->second);
  pending_.erase(it);
  if (config_.breaker_failure_threshold > 0) {
    breaker_for(pending.to).record_success();
  }
  close_request_spans(env->request_id, pending, /*ok=*/true, "ok");
  record(pending.round, pending.started, true);
  pending.on_response(*env);
}

void AsyncClient::handle_busy(const Envelope& env) {
  const auto it = pending_.find(env.request_id);
  if (it == pending_.end()) return;  // stale (the retransmit already won)
  BusyPayload busy;
  try {
    busy = BusyPayload::decode(env.payload);
  } catch (const util::WireError&) {
    return;  // corrupt BUSY; let the timeout machinery handle the request
  }
  Pending& pending = it->second;
  ++busy_received_;
  ++pending.attempt;  // the armed timeout is for a dead attempt now
  ++pending.busy_defers;
  if (registry_ != nullptr) registry_->counter("client.busy.received").inc();
  // A BUSY proves the destination is alive — it answered — so the breaker
  // sees a success even though the operation has not completed yet.
  if (config_.breaker_failure_threshold > 0) {
    breaker_for(pending.to).record_success();
  }
  if (pending.busy_defers > config_.busy_max_defers ||
      !spend_retry_token(pending.round)) {
    const bool budget_dry = pending.busy_defers <= config_.busy_max_defers;
    if (budget_dry) {
      ++retry_budget_exhaustions_;
      if (registry_ != nullptr) {
        registry_->counter("client.retry_budget.exhausted").inc();
      }
    }
    Pending failed = std::move(pending);
    pending_.erase(it);
    fail_pending(env.request_id, std::move(failed),
                 budget_dry ? "budget" : "busy", DrmError::kNoCapacity);
    return;
  }
  ++busy_deferred_resends_;
  if (registry_ != nullptr) registry_->counter("client.busy.deferred").inc();
  // Honor the server's hint, stretched by jitter so the shed cohort does
  // not re-arrive as one synchronized wave.
  double delay = static_cast<double>(std::max<util::SimTime>(
      busy.retry_after, config_.request_timeout / 4));
  if (config_.jitter > 0) delay *= 1.0 + config_.jitter * rng_.uniform_real();
  const std::uint64_t attempt = pending.attempt;
  const std::uint64_t request_id = env.request_id;
  if (tracer_ != nullptr) {
    const util::SimTime now = network_.now();
    tracer_->end_span(pending.attempt_span, now, /*ok=*/false);
    tracer_->event(pending.span, now, "busy",
                   "retry-after " + std::to_string(busy.retry_after) +
                       " depth " + std::to_string(busy.queue_depth));
  }
  schedule(static_cast<util::SimTime>(delay), [this, request_id, attempt] {
    const auto p = pending_.find(request_id);
    if (p == pending_.end() || p->second.attempt != attempt) return;
    if (tracer_ != nullptr) {
      const util::SimTime now = network_.now();
      p->second.attempt_span = tracer_->begin_span(
          "client", "attempt", config_.node, now, p->second.span);
      tracer_->bind_request(config_.node, request_id, p->second.attempt_span);
    }
    network_.send(config_.node, p->second.to, p->second.wire);
    arm_timeout(request_id);
  });
}

// ---------------------------------------------------------------------------
// Resilience: operation-level failover and session recovery

util::SimTime AsyncClient::recovery_backoff(int attempt) {
  double delay = static_cast<double>(config_.recovery_delay);
  for (int i = 0; i < attempt; ++i) delay *= 2.0;
  delay = std::min(delay, static_cast<double>(config_.max_recovery_delay));
  if (config_.jitter > 0) {
    // Equal-jitter: spread the wait over [delay/2, delay*(1 + jitter)) with
    // a single draw, so a cohort recovering from the same outage fans out
    // across half the backoff window instead of clustering near its top.
    delay = delay * 0.5 + delay * (0.5 + config_.jitter) * rng_.uniform_real();
  }
  return static_cast<util::SimTime>(delay);
}

void AsyncClient::run_resilient(std::function<void(Callback)> op, int attempt,
                                Callback done) {
  auto self_op = op;  // keep a copy for the retry closure
  op([this, op = std::move(self_op), attempt, done](DrmError err) {
    if (err == DrmError::kOk || departed_ || !config_.resilience ||
        client::is_permanent_failure(err) || attempt + 1 >= config_.max_recovery_attempts) {
      done(err);
      return;
    }
    // Fail over: drop the cached redirect and channel list so the next
    // attempt re-resolves the User Manager (the Redirection Manager steers
    // around dead farm instances) and refetches partition info (the CPM
    // re-points a partition at a surviving Channel Manager instance).
    ++failovers_;
    redirect_.reset();
    channels_.clear();
    partitions_.clear();
    schedule(recovery_backoff(attempt), [this, op, attempt, done] {
      if (departed_) {
        done(DrmError::kNoCapacity);
        return;
      }
      run_resilient(op, attempt + 1, done);
    });
  });
}

void AsyncClient::recover_session(Callback done) {
  if (session_recovery_active_ || departed_) {
    done(DrmError::kRenewalRefused);  // a recovery loop is already running
    return;
  }
  session_recovery_active_ = true;
  recover_session_attempt(network_.now(), 0, std::move(done));
}

void AsyncClient::recover_session_attempt(util::SimTime started, int attempt,
                                          Callback done) {
  if (departed_) {
    session_recovery_active_ = false;
    done(DrmError::kNoCapacity);
    return;
  }
  // Start from scratch: fresh redirect, fresh channel list, fresh login.
  redirect_.reset();
  channels_.clear();
  partitions_.clear();
  const util::ChannelId channel = current_channel_;
  do_login([this, started, attempt, channel, done](DrmError err) {
    const auto retry = [this, started, attempt, done](DrmError failure) {
      if (client::is_permanent_failure(failure)) {
        session_recovery_active_ = false;
        done(failure);
        return;
      }
      schedule(recovery_backoff(attempt), [this, started, attempt, done] {
        recover_session_attempt(started, std::min(attempt + 1, 16), done);
      });
    };
    if (err != DrmError::kOk) {
      retry(err);
      return;
    }
    ++relogins_;
    if (channel == 0) {  // never watched anything: logged in again is enough
      session_recovery_active_ = false;
      ++rejoins_;
      rejoin_latencies_.push_back(network_.now() - started);
      done(DrmError::kOk);
      return;
    }
    do_switch_channel(channel, [this, started, retry, done](DrmError err2) {
      if (err2 != DrmError::kOk) {
        retry(err2);
        return;
      }
      session_recovery_active_ = false;
      ++rejoins_;
      rejoin_latencies_.push_back(network_.now() - started);
      done(DrmError::kOk);
    });
  });
}

// ---------------------------------------------------------------------------
// Login

void AsyncClient::login(Callback done) {
  if (!config_.resilience) {
    do_login(std::move(done));
    return;
  }
  run_resilient([this](Callback cb) { do_login(std::move(cb)); }, 0,
                std::move(done));
}

void AsyncClient::switch_channel(util::ChannelId channel, Callback done) {
  if (!config_.resilience) {
    do_switch_channel(channel, std::move(done));
    return;
  }
  run_resilient(
      [this, channel](Callback cb) {
        // After a failover the cached session may be gone; re-login first
        // when the channel list (with its partition info) was dropped.
        if (!user_ticket_ || channels_.empty()) {
          do_login([this, channel, cb](DrmError err) {
            if (err != DrmError::kOk) {
              cb(err);
              return;
            }
            do_switch_channel(channel, cb);
          });
          return;
        }
        do_switch_channel(channel, std::move(cb));
      },
      0, std::move(done));
}

void AsyncClient::renew_channel_ticket(Callback done) {
  if (!config_.resilience) {
    do_renew_channel_ticket(std::move(done));
    return;
  }
  do_renew_channel_ticket([this, done](DrmError err) {
    if (err == DrmError::kOk || departed_ || client::is_permanent_failure(err)) {
      done(err);
      return;
    }
    // The renewal window closed, the manager lost our viewing-log entry in
    // a crash, or the farm is unreachable: the session is as good as lost.
    // Re-login and re-join instead of clinging to the expiring ticket.
    recover_session(std::move(done));
  });
}

void AsyncClient::do_login(Callback done) {
  if (!redirect_) {
    services::RedirectRequest req{config_.email};
    send_request(
        config_.redirection_node, MsgKind::kRedirectRequest, req.encode(),
        MsgKind::kRedirectResponse, Round::kLogin1,
        [this, done](const Envelope& env) {
          try {
            services::RedirectResponse resp =
                services::RedirectResponse::decode(env.payload);
            if (!resp.found) {
              done(DrmError::kUnknownUser);
              return;
            }
            redirect_ = std::move(resp);
          } catch (const util::WireError&) {
            done(DrmError::kBadTicket);
            return;
          }
          start_login1(done);
        },
        done);
    return;
  }
  start_login1(done);
}

void AsyncClient::start_login1(Callback done) {
  const auto um_node = network_.node_at(redirect_->user_manager.addr);
  if (!um_node) {
    // The cached redirect points at nothing — stale, or poisoned by a
    // corrupted-but-decodable RedirectResponse (wire fuzzing provokes
    // exactly this). Drop it so the next login re-resolves instead of
    // failing locally forever; run_resilient already resets it on
    // failover, this heals the plain-client path too.
    redirect_.reset();
    done(DrmError::kWrongDomain);
    return;
  }
  core::Login1Request req;
  req.email = config_.email;
  req.client_public_key = keys_.pub;
  req.client_version = config_.client_version;

  send_request(
      *um_node, MsgKind::kLogin1Request, req.encode(), MsgKind::kLogin1Response,
      Round::kLogin1,
      [this, done, um_node](const Envelope& env) {
        core::Login1Response resp1;
        try {
          resp1 = core::Login1Response::decode(env.payload);
        } catch (const util::WireError&) {
          done(DrmError::kBadTicket);
          return;
        }
        if (resp1.error != DrmError::kOk) {
          // A wrong-domain refusal means the redirect steered us to a User
          // Manager that does not own this account: re-resolve next login.
          if (resp1.error == DrmError::kWrongDomain) redirect_.reset();
          done(resp1.error);
          return;
        }
        const auto opened = core::open_login1_response(resp1, config_.password);
        if (!opened) {
          done(DrmError::kBadCredentials);
          return;
        }
        const core::Login2Request req2 =
            core::build_login2_request(*opened, config_.email, keys_,
                                       config_.client_version, config_.client_binary);
        const util::SimTime started = network_.now();
        send_request(
            *um_node, MsgKind::kLogin2Request, req2.encode(),
            MsgKind::kLogin2Response, Round::kLogin2,
            [this, done, started](const Envelope& env2) {
              core::Login2Response resp2;
              try {
                resp2 = core::Login2Response::decode(env2.payload);
              } catch (const util::WireError&) {
                done(DrmError::kBadTicket);
                return;
              }
              after_login2(resp2, started, done);
            },
            done);
      },
      done);
}

void AsyncClient::after_login2(const core::Login2Response& resp,
                               util::SimTime /*started*/, Callback done) {
  if (resp.error != DrmError::kOk) {
    done(resp.error);
    return;
  }
  if (!resp.ticket) {
    done(DrmError::kBadCredentials);
    return;
  }
  previous_user_ticket_ = std::move(user_ticket_);
  user_ticket_ = resp.ticket;

  // utime comparison against the previous ticket (§IV-B).
  std::vector<std::string> stale;
  if (previous_user_ticket_) {
    for (const core::Attribute& a : user_ticket_->ticket.attributes.items()) {
      if (a.utime == util::kNullTime) continue;
      const core::Attribute* old = previous_user_ticket_->ticket.attributes.find(a.name);
      if (old == nullptr || old->utime == util::kNullTime || a.utime > old->utime) {
        stale.push_back(a.name);
      }
    }
  }
  if (channels_.empty()) {
    maybe_fetch_channel_list({}, std::move(done));
  } else if (!stale.empty()) {
    maybe_fetch_channel_list(std::move(stale), std::move(done));
  } else {
    done(DrmError::kOk);
  }
}

void AsyncClient::maybe_fetch_channel_list(std::vector<std::string> stale,
                                           Callback done) {
  const auto cpm_node = network_.node_at(redirect_->channel_policy_manager.addr);
  if (!cpm_node) {
    done(DrmError::kOk);  // no CPM deployed: proceed without a list
    return;
  }
  core::ChannelListRequest req;
  req.user_ticket = user_ticket_->encode();
  req.stale_attributes = std::move(stale);
  const bool full = req.stale_attributes.empty();

  send_request(
      *cpm_node, MsgKind::kChannelListRequest, req.encode(),
      MsgKind::kChannelListResponse, Round::kLogin2,
      [this, done, full](const Envelope& env) {
        try {
          core::ChannelListResponse resp =
              core::ChannelListResponse::decode(env.payload);
          if (resp.error != DrmError::kOk) {
            done(resp.error);
            return;
          }
          if (full) {
            channels_ = std::move(resp.channels);
          } else {
            for (core::ChannelRecord& fresh : resp.channels) {
              bool replaced = false;
              for (core::ChannelRecord& cached : channels_) {
                if (cached.id == fresh.id) {
                  cached = std::move(fresh);
                  replaced = true;
                  break;
                }
              }
              if (!replaced) channels_.push_back(std::move(fresh));
            }
          }
          if (!resp.partitions.empty()) partitions_ = std::move(resp.partitions);
          done(DrmError::kOk);
        } catch (const util::WireError&) {
          done(DrmError::kBadTicket);
        }
      },
      done);
}

// ---------------------------------------------------------------------------
// Channel switching + join

std::vector<util::ChannelId> AsyncClient::viewable_channels() const {
  std::vector<util::ChannelId> out;
  if (!user_ticket_) return out;
  const util::SimTime now = network_.now();
  for (const core::ChannelRecord& c : channels_) {
    if (core::channel_accessible(c, user_ticket_->ticket.attributes, now)) {
      out.push_back(c.id);
    }
  }
  return out;
}

std::uint32_t AsyncClient::partition_of(util::ChannelId channel) const {
  for (const core::ChannelRecord& c : channels_) {
    if (c.id == channel) return c.partition;
  }
  return 0;
}

std::optional<util::NodeId> AsyncClient::manager_node(std::uint32_t partition) const {
  for (const core::PartitionInfo& p : partitions_) {
    if (p.partition == partition) return network_.node_at(p.manager_addr);
  }
  return std::nullopt;
}

void AsyncClient::do_switch_channel(util::ChannelId channel, Callback done) {
  if (!user_ticket_) {
    done(DrmError::kBadTicket);
    return;
  }
  const auto cm_node = manager_node(partition_of(channel));
  if (!cm_node) {
    // The cached channel list cannot route this switch — stale, or poisoned
    // by a corrupted-but-decodable listing response (wire fuzzing provokes
    // exactly this). Drop the cache so the next login refetches instead of
    // looping on the same bad list; the resilient recovery path already
    // clears these, this heals the plain-client path too. The redirect goes
    // with them: a poisoned CPM address silently skips the list refetch.
    redirect_.reset();
    channels_.clear();
    partitions_.clear();
    done(DrmError::kWrongPartition);
    return;
  }
  core::Switch1Request req1;
  req1.user_ticket = user_ticket_->encode();
  req1.channel_id = channel;

  send_request(
      *cm_node, MsgKind::kSwitch1Request, req1.encode(), MsgKind::kSwitch1Response,
      Round::kSwitch1,
      [this, done, cm_node, channel,
       user_ticket = req1.user_ticket](const Envelope& env) {
        core::Switch1Response resp1;
        try {
          resp1 = core::Switch1Response::decode(env.payload);
        } catch (const util::WireError&) {
          done(DrmError::kBadTicket);
          return;
        }
        if (resp1.error != DrmError::kOk) {
          done(resp1.error);
          return;
        }
        const core::Switch2Request req2 = core::build_switch2_request(
            resp1, user_ticket, channel, {}, keys_.priv);
        send_request(
            *cm_node, MsgKind::kSwitch2Request, req2.encode(),
            MsgKind::kSwitch2Response, Round::kSwitch2,
            [this, done, channel](const Envelope& env2) {
              core::Switch2Response resp2;
              try {
                resp2 = core::Switch2Response::decode(env2.payload);
              } catch (const util::WireError&) {
                done(DrmError::kBadTicket);
                return;
              }
              if (resp2.error != DrmError::kOk) {
                done(resp2.error);
                return;
              }
              if (!resp2.ticket) {
                done(DrmError::kAccessDenied);
                return;
              }
              channel_ticket_ = std::move(resp2.ticket);
              current_channel_ = channel;
              parent_.reset();

              // Fresh overlay half for the new channel; the network keeps
              // routing our node id to this AsyncClient, which delegates.
              crypto::RsaPublicKey cm_key;
              for (const core::PartitionInfo& p : partitions_) {
                if (p.partition == partition_of(channel)) {
                  cm_key = crypto::RsaPublicKey::decode(p.manager_public_key);
                }
              }
              p2p::PeerConfig pc;
              pc.node = config_.node;
              pc.addr = config_.addr;
              pc.channel = channel;
              pc.capacity = config_.peer_capacity;
              pc.substreams = config_.substreams;
              peer_node_ = std::make_unique<PeerNode>(
                  std::make_unique<p2p::Peer>(pc, keys_, cm_key, rng_.fork()),
                  network_);
              if (tracer_ != nullptr) peer_node_->set_tracer(tracer_);
              if (registry_ != nullptr) peer_node_->set_registry(registry_);
              peer_node_->peer().set_install_listener(
                  [this](const core::ContentKey& key) { on_key_installed(key); });
              reassembly_ = std::make_unique<p2p::SubstreamBuffer>(1024);
              router_.reset();
              peer_node_->set_content_sink(
                  [this](const core::ContentPacket& packet,
                         const std::optional<util::Bytes>& plain) {
                    last_content_ = network_.now();
                    if (plain) {
                      ++content_decrypted_;
                      content_in_order_ +=
                          reassembly_->insert(packet.seq, *plain).size();
                      if (content_hook_) content_hook_(packet, *plain);
                    } else {
                      ++content_undecryptable_;
                    }
                  });
              if (config_.substreams > 1) {
                auto state = std::make_shared<StripedJoin>();
                state->peers = std::move(resp2.peers);
                state->started = network_.now();
                // One join group per parent slot: group g carries the mask
                // of sub-streams g, g+k, g+2k, ... for k parent slots.
                const std::size_t slots =
                    std::min(config_.substreams,
                             std::max<std::size_t>(1, state->peers.size()));
                state->group_masks.assign(slots, 0);
                for (std::size_t s = 0; s < config_.substreams && s < 32; ++s) {
                  state->group_masks[s % slots] |= 1u << s;
                }
                join_striped(std::move(state), done);
              } else {
                try_join(std::move(resp2.peers), 0, network_.now(), done);
              }
            },
            done);
      },
      done);
}

void AsyncClient::try_join(std::vector<core::PeerInfo> peers, std::size_t index,
                           util::SimTime started, Callback done) {
  if (index >= peers.size()) {
    record(Round::kJoin, started, false);
    done(DrmError::kNoCapacity);
    return;
  }
  const core::PeerInfo target = peers[index];
  const core::JoinRequest req = peer_node_->peer().make_join_request(*channel_ticket_);
  send_request(
      target.node, MsgKind::kJoinRequest, req.encode(), MsgKind::kJoinResponse,
      Round::kJoin,
      [this, peers = std::move(peers), index, started, target,
       done](const Envelope& env) mutable {
        core::JoinResponse resp;
        try {
          resp = core::JoinResponse::decode(env.payload);
        } catch (const util::WireError&) {
          try_join(std::move(peers), index + 1, started, done);
          return;
        }
        if (resp.error != DrmError::kOk ||
            !peer_node_->peer().complete_join(target.node, resp)) {
          try_join(std::move(peers), index + 1, started, done);
          return;
        }
        parent_ = target.node;
        if (auto_renew_) schedule_auto_renewal();
        if (starvation_recovery_) {
          last_content_ = network_.now();
          arm_starvation_watchdog();
        }
        done(DrmError::kOk);
      },
      [this, done, started](DrmError) {
        // Timeout on one candidate: give up on the whole join (the caller
        // can re-run switch_channel for a fresh peer list).
        record(Round::kJoin, started, false);
        done(DrmError::kNoCapacity);
      });
}

void AsyncClient::finish_join(util::SimTime /*started*/, Callback done) {
  // Per-attempt JOIN rounds were already recorded by send_request.
  if (auto_renew_) schedule_auto_renewal();
  if (starvation_recovery_) {
    last_content_ = network_.now();
    arm_starvation_watchdog();
  }
  done(DrmError::kOk);
}

void AsyncClient::join_striped(std::shared_ptr<StripedJoin> state, Callback done) {
  if (state->group >= state->group_masks.size()) {
    // All groups placed: install the router from the final assignment.
    router_ = std::make_unique<p2p::SubstreamRouter>(config_.substreams);
    for (const auto& [parent, mask] : state->assigned) {
      for (std::size_t s = 0; s < config_.substreams && s < 32; ++s) {
        if (mask & (1u << s)) router_->assign(s, parent);
      }
    }
    parent_ = state->assigned.begin()->first;
    finish_join(state->started, done);
    return;
  }
  if (state->candidate >= state->peers.size()) {
    record(client::Round::kJoin, state->started, false);
    done(DrmError::kNoCapacity);
    return;
  }

  // Spread groups over distinct candidates by starting each group's scan at
  // a different offset.
  const std::size_t index =
      (state->group + state->candidate) % state->peers.size();
  const core::PeerInfo target = state->peers[index];

  // If this parent already serves another group, request the union of masks
  // (a re-join replaces the link, so the request must carry everything).
  std::uint32_t mask = state->group_masks[state->group];
  const auto prev = state->assigned.find(target.node);
  if (prev != state->assigned.end()) mask |= prev->second;

  const core::JoinRequest req =
      peer_node_->peer().make_join_request(*channel_ticket_, mask);
  send_request(
      target.node, MsgKind::kJoinRequest, req.encode(), MsgKind::kJoinResponse,
      client::Round::kJoin,
      [this, state, target, mask, done](const Envelope& env) mutable {
        core::JoinResponse resp;
        bool accepted = false;
        try {
          resp = core::JoinResponse::decode(env.payload);
          accepted = resp.error == DrmError::kOk &&
                     peer_node_->peer().complete_join(target.node, resp);
        } catch (const util::WireError&) {
        }
        if (accepted) {
          state->assigned[target.node] = mask;
          ++state->group;
          state->candidate = 0;
        } else {
          ++state->candidate;
        }
        join_striped(state, done);
      },
      [this, state, done](DrmError) {
        ++state->candidate;
        join_striped(state, done);
      });
}

void AsyncClient::do_renew_channel_ticket(Callback done) {
  if (!user_ticket_ || !channel_ticket_) {
    done(DrmError::kBadTicket);
    return;
  }
  const util::ChannelId channel = channel_ticket_->ticket.channel_id;
  const auto cm_node = manager_node(partition_of(channel));
  if (!cm_node) {
    redirect_.reset();  // same cache-poisoning escape as do_switch_channel
    channels_.clear();
    partitions_.clear();
    done(DrmError::kWrongPartition);
    return;
  }
  core::Switch1Request req1;
  req1.user_ticket = user_ticket_->encode();
  req1.expiring_ticket = channel_ticket_->encode();

  send_request(
      *cm_node, MsgKind::kSwitch1Request, req1.encode(), MsgKind::kSwitch1Response,
      Round::kSwitch1,
      [this, done, cm_node, user_ticket = req1.user_ticket,
       expiring = req1.expiring_ticket](const Envelope& env) {
        core::Switch1Response resp1;
        try {
          resp1 = core::Switch1Response::decode(env.payload);
        } catch (const util::WireError&) {
          done(DrmError::kBadTicket);
          return;
        }
        if (resp1.error != DrmError::kOk) {
          done(resp1.error);
          return;
        }
        const core::Switch2Request req2 =
            core::build_switch2_request(resp1, user_ticket, 0, expiring, keys_.priv);
        send_request(
            *cm_node, MsgKind::kSwitch2Request, req2.encode(),
            MsgKind::kSwitch2Response, Round::kSwitch2,
            [this, done](const Envelope& env2) {
              core::Switch2Response resp2;
              try {
                resp2 = core::Switch2Response::decode(env2.payload);
              } catch (const util::WireError&) {
                done(DrmError::kBadTicket);
                return;
              }
              if (resp2.error != DrmError::kOk) {
                done(resp2.error);
                return;
              }
              if (!resp2.ticket || !resp2.ticket->ticket.renewal) {
                done(DrmError::kRenewalRefused);
                return;
              }
              channel_ticket_ = std::move(resp2.ticket);
              // Present the renewal to every parent — with multi-parent
              // delivery each of them tracks our ticket expiry. The first
              // parent's ack completes the operation; the rest are
              // best-effort.
              const std::vector<util::NodeId> parents =
                  peer_node_ ? peer_node_->peer().parents()
                             : std::vector<util::NodeId>{};
              if (parents.empty()) {
                done(DrmError::kOk);
                return;
              }
              for (std::size_t i = 1; i < parents.size(); ++i) {
                send_request(parents[i], MsgKind::kRenewalPresent,
                             channel_ticket_->encode(), MsgKind::kRenewalAck,
                             Round::kSwitch2, [](const Envelope&) {},
                             [](DrmError) {});
              }
              send_request(
                  parents[0], MsgKind::kRenewalPresent, channel_ticket_->encode(),
                  MsgKind::kRenewalAck, Round::kSwitch2,
                  [done](const Envelope&) { done(DrmError::kOk); },
                  [done](DrmError) { done(DrmError::kOk); });  // best effort
            },
            done);
      },
      done);
}

}  // namespace p2pdrm::net
