#include "net/deployment.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "services/durable_ops.h"
#include "transport/sim_transport.h"
#include "transport/thread_transport.h"

namespace p2pdrm::net {

Deployment::Deployment(DeploymentConfig config)
    : config_(config), rng_(config.seed) {
  if (config_.um_instances == 0) config_.um_instances = 1;
  if (config_.cm_instances == 0) config_.cm_instances = 1;

  if (config_.transport == TransportKind::kThread) {
    transport::ThreadTransport::Config tc;
    tc.loops = config_.transport_threads;
    transport_ = std::make_unique<transport::ThreadTransport>(tc);
  } else {
    transport_ = std::make_unique<transport::SimTransport>(sim_);
  }
  network_ = std::make_unique<Network>(*transport_, config_.default_link,
                                       rng_.fork());
  network_->bind_registry(&registry_);
  geo_ = std::make_unique<geo::SyntheticGeo>(rng_, config_.geo_plan);

  um_domain_ = std::make_shared<services::UserManagerDomain>(
      config_.um, crypto::generate_rsa_keypair(rng_, config_.key_bits),
      rng_.bytes(32));
  reference_binary_ = rng_.bytes(config_.client_binary_size);
  um_domain_->reference_binaries[config_.um.minimum_client_version] = reference_binary_;

  // The User Manager farm: every instance is a stateless front to the same
  // shared domain state (§V) — that is what makes crash/restart survivable.
  for (std::size_t i = 0; i < config_.um_instances; ++i) {
    UmInstance inst;
    inst.um = std::make_unique<services::UserManager>(um_domain_, &geo_->db(),
                                                      rng_.fork());
    inst.id = i == 0 ? kUserManagerNode
                     : kUmInstanceBase + static_cast<util::NodeId>(i);
    inst.addr = i == 0 ? util::parse_netaddr("10.254.0.2")
                       : util::NetAddr{0x0afe0200u + static_cast<std::uint32_t>(i)};
    um_instances_.push_back(std::move(inst));
  }
  services::UserManager* um0 = um_instances_[0].um.get();

  accounts_ = std::make_unique<services::AccountManager>(
      [this](const services::UserProvisioning& p) { provision_user(p); });

  cpm_ = std::make_unique<services::ChannelPolicyManager>(um_domain_->keys.pub);
  cpm_->add_attribute_list_sink(
      [um0](const core::AttributeSet& list) { um0->update_channel_attributes(list); });

  tracker_ = std::make_unique<p2p::Tracker>(rng_.fork());
  tracker_->set_limits(config_.tracker_limits);
  tracker_->bind_registry(&registry_);

  // Attach the backend to well-known addresses on the network.
  const util::NetAddr redirection_addr = util::parse_netaddr("10.254.0.1");
  const util::NetAddr cpm_addr = util::parse_netaddr("10.254.0.3");

  redirection_node_ = std::make_unique<RedirectionNode>(
      redirection_, *network_, kRedirectionNode, config_.processing);
  redirection_node_->set_registry(&registry_);
  redirection_node_->set_overload_policy(config_.overload);
  network_->attach(kRedirectionNode, redirection_addr, redirection_node_.get());

  for (UmInstance& inst : um_instances_) {
    inst.node = std::make_unique<UserManagerNode>(*inst.um, *network_, inst.id,
                                                  config_.processing);
    inst.node->set_registry(&registry_);
    inst.node->set_overload_policy(config_.overload);
    network_->attach(inst.id, inst.addr, inst.node.get());
  }

  cpm_node_ = std::make_unique<ChannelPolicyNode>(*cpm_, *network_, kChannelPolicyNode,
                                                  config_.processing);
  cpm_node_->set_registry(&registry_);
  cpm_node_->set_overload_policy(config_.overload);
  network_->attach(kChannelPolicyNode, cpm_addr, cpm_node_.get());

  for (std::size_t p = 0; p < config_.partitions; ++p) {
    services::ChannelManagerConfig cm_cfg = config_.cm;
    cm_cfg.partition = static_cast<std::uint32_t>(p);
    auto partition = std::make_shared<services::ChannelManagerPartition>(
        cm_cfg, crypto::generate_rsa_keypair(rng_, config_.key_bits),
        um_domain_->keys.pub, rng_.bytes(32));
    cm_partitions_.push_back(partition);

    // The Channel Manager farm for this partition. The channel list lives
    // in the shared partition state, so one sink (through instance 0, which
    // exists even when crashed — crashing only detaches the node) is enough.
    cm_instances_.emplace_back();
    for (std::size_t i = 0; i < config_.cm_instances; ++i) {
      CmInstance inst;
      inst.cm = std::make_unique<services::ChannelManager>(partition, tracker_.get(),
                                                           rng_.fork());
      inst.id = i == 0 ? kChannelManagerBase + static_cast<util::NodeId>(p)
                       : kCmInstanceBase + static_cast<util::NodeId>(p * 16 + i);
      inst.addr = i == 0
          ? util::NetAddr{0x0afe0100u + static_cast<std::uint32_t>(p)}
          : util::NetAddr{0x0afe0300u + static_cast<std::uint32_t>(p * 16 + i)};
      inst.node = std::make_unique<ChannelManagerNode>(*inst.cm, *network_, inst.id,
                                                       config_.processing);
      inst.node->set_registry(&registry_);
      inst.node->set_overload_policy(config_.overload);
      network_->attach(inst.id, inst.addr, inst.node.get());
      cm_instances_.back().push_back(std::move(inst));
    }
    services::ChannelManager* cm0 = cm_instances_.back()[0].cm.get();
    cpm_->add_channel_list_sink(
        [cm0](const std::vector<core::ChannelRecord>& list) {
          cm0->update_channel_list(list);
        });

    readvertise_partition(static_cast<std::uint32_t>(p));
  }

  for (const UmInstance& inst : um_instances_) {
    redirection_.register_domain(
        config_.um.domain,
        services::ManagerCoordinates{inst.addr, um_domain_->keys.pub.encode()});
  }
  redirection_.set_channel_policy_manager(services::ManagerCoordinates{cpm_addr, {}});

  if (config_.durability.enabled) {
    init_durable_state();
    replication_interval_ = config_.durability.replication_interval;
    schedule_replication();
  }

  if (config_.tracker_stale_age > 0) schedule_stale_sweep();
  if (config_.tracing) enable_tracing();
}

Deployment::~Deployment() {
  // Stop the loops before any member is torn down: a live delivery or timer
  // must never run against a half-destroyed node or client.
  transport_->shutdown();
}

sim::Simulation& Deployment::sim() {
  if (config_.transport != TransportKind::kSim) {
    std::fprintf(stderr,
                 "Deployment::sim() called on a live transport backend; "
                 "use now()/post()/run_until instead\n");
    std::abort();
  }
  return sim_;
}

core::DrmError Deployment::await(
    const std::function<void(AsyncClient::Callback)>& op, util::SimTime budget) {
  // Shared with the callback, which may still fire after the budget ran out.
  auto result = std::make_shared<std::optional<core::DrmError>>();
  op([result](core::DrmError err) { *result = err; });
  await([&result] { return result->has_value(); }, budget);
  return result->value_or(core::DrmError::kNoCapacity);
}

bool Deployment::await(const std::function<bool()>& done, util::SimTime budget) {
  sim::Simulation& engine = sim();
  const util::SimTime deadline = engine.now() + budget;
  while (!done() && engine.now() < deadline && engine.step()) {
  }
  return done();
}

void Deployment::init_durable_state() {
  store::FarmStore::Config sc;
  sc.snapshot_every = config_.durability.snapshot_every;

  for (std::size_t i = 0; i < um_instances_.size(); ++i) {
    UmInstance& inst = um_instances_[i];
    inst.dir = std::make_unique<services::UserDirectory>();
    inst.st = std::make_unique<store::FarmStore>(
        1000 + static_cast<std::uint32_t>(i), sc);
    inst.st->bind_registry(&registry_);
    inst.um->use_local_directory(inst.dir.get());
    services::UserManager* um = inst.um.get();
    services::UserDirectory* dir = inst.dir.get();
    inst.st->set_state_machine(
        [um](util::BytesView payload) {
          um->apply_provision(services::decode_user_record(payload));
        },
        [dir] { return services::encode_user_directory(*dir); },
        [dir](util::BytesView state) {
          *dir = state.empty() ? services::UserDirectory{}
                               : services::decode_user_directory(state);
        });
  }

  for (std::size_t p = 0; p < cm_instances_.size(); ++p) {
    for (std::size_t i = 0; i < cm_instances_[p].size(); ++i) {
      CmInstance& inst = cm_instances_[p][i];
      inst.log = std::make_unique<services::ViewingLog>();
      inst.log->set_audit_cap(config_.durability.viewing_audit_cap);
      inst.st = std::make_unique<store::FarmStore>(
          2000 + static_cast<std::uint32_t>(p * 16 + i), sc);
      inst.st->bind_registry(&registry_);
      inst.cm->use_local_log(inst.log.get());
      services::ViewingLog* log = inst.log.get();
      const std::size_t cap = config_.durability.viewing_audit_cap;
      inst.st->set_state_machine(
          [log](util::BytesView payload) {
            log->record(services::decode_viewing_entry(payload));
          },
          [log] { return log->encode(); },
          [log, cap](util::BytesView state) {
            *log = state.empty() ? services::ViewingLog()
                                 : services::ViewingLog::decode(state);
            log->set_audit_cap(cap);
          });
      // Every viewing entry this instance writes is journaled; fresh issues
      // (the single-session witness) are additionally fsynced and shipped
      // to live siblings before the Switch2 response leaves the handler, so
      // a crash immediately after the reply cannot forget the admission.
      const std::uint32_t part = static_cast<std::uint32_t>(p);
      inst.cm->set_viewing_sink(
          [this, part, i](const services::ViewingLog::Entry& entry) {
            CmInstance& self = cm_instances_[part][i];
            const store::ReplicatedOp op =
                self.st->submit(services::encode_viewing_entry(entry));
            if (entry.renewal || !config_.durability.sync_fresh_issues) return;
            self.st->sync();
            self.last_sync = now();
            for (CmInstance& other : cm_instances_[part]) {
              if (&other == &self || !other.up) continue;
              if (other.st->ingest(op) == store::FarmStore::IngestResult::kGap) {
                other.st->catch_up_from(*self.st);
              }
              other.st->sync();
              other.last_sync = now();
            }
          });
    }
  }
}

void Deployment::provision_user(const services::UserProvisioning& p) {
  if (!config_.durability.enabled) {
    um_instances_[0].um->provision(p);
    return;
  }
  // Control-plane write lands on the first live instance and — like fresh
  // issues — is written through: provisioning loss would strand an account.
  UmInstance* primary = nullptr;
  for (UmInstance& inst : um_instances_) {
    if (inst.up) { primary = &inst; break; }
  }
  if (primary == nullptr) primary = &um_instances_[0];
  const services::UserRecord& rec = primary->um->provision(p);
  const store::ReplicatedOp op =
      primary->st->submit(services::encode_user_record(rec));
  if (!config_.durability.sync_fresh_issues) return;
  primary->st->sync();
  primary->last_sync = now();
  for (UmInstance& other : um_instances_) {
    if (&other == primary || !other.up) continue;
    if (other.st->ingest(op) == store::FarmStore::IngestResult::kGap) {
      other.st->catch_up_from(*primary->st);
    }
    other.st->sync();
    other.last_sync = now();
  }
}

void Deployment::schedule_replication() {
  if (!config_.durability.enabled || replication_interval_ <= 0) {
    replication_armed_ = false;
    return;
  }
  replication_armed_ = true;
  post(replication_interval_, [this] {
    if (replication_interval_ <= 0) {
      replication_armed_ = false;
      return;
    }
    replication_tick();
    schedule_replication();
  });
}

void Deployment::replication_tick() {
  const util::SimTime t = now();
  for (UmInstance& dst : um_instances_) {
    if (!dst.up) continue;
    for (UmInstance& src : um_instances_) {
      if (&src == &dst || !src.up) continue;
      dst.st->catch_up_from(*src.st);
    }
    dst.st->sync();
    dst.last_sync = t;
  }
  for (std::vector<CmInstance>& farm : cm_instances_) {
    for (CmInstance& dst : farm) {
      if (!dst.up) continue;
      for (CmInstance& src : farm) {
        if (&src == &dst || !src.up) continue;
        dst.st->catch_up_from(*src.st);
      }
      dst.st->sync();
      dst.last_sync = t;
    }
  }
  registry_.counter("store.replication.rounds").inc();
}

void Deployment::set_replication_interval(util::SimTime interval) {
  replication_interval_ = interval;
  registry_.gauge("store.replication.interval_us").set(interval);
  if (interval > 0 && !replication_armed_) schedule_replication();
}

void Deployment::replicate_now() {
  if (config_.durability.enabled) replication_tick();
}

void Deployment::enable_tracing() {
  if (tracing_) return;
  tracing_ = true;
  trace_interceptor_ = std::make_unique<TraceInterceptor>(tracer_);
  network_->add_interceptor(trace_interceptor_.get());
  redirection_node_->set_tracer(&tracer_);
  cpm_node_->set_tracer(&tracer_);
  for (UmInstance& inst : um_instances_) inst.node->set_tracer(&tracer_);
  for (std::vector<CmInstance>& farm : cm_instances_) {
    for (CmInstance& inst : farm) inst.node->set_tracer(&tracer_);
  }
  for (auto& [id, source] : sources_) source.root->set_tracer(&tracer_);
  for (const std::unique_ptr<AsyncClient>& client : clients_) {
    client->bind_observability(&registry_, &tracer_, slo_);
  }
}

void Deployment::enable_scraping(obs::TimeSeries* timeseries, obs::SloMonitor* slo,
                                 util::SimTime interval) {
  timeseries_ = timeseries;
  slo_ = slo;
  if (interval > 0) scrape_interval_ = interval;
  for (const std::unique_ptr<AsyncClient>& client : clients_) {
    client->bind_observability(&registry_, tracing_ ? &tracer_ : nullptr, slo_);
  }
  if (!scraping_) {
    scraping_ = true;
    schedule_scrape();
  }
}

void Deployment::schedule_scrape() {
  post(scrape_interval_, [this] {
    std::size_t live = 0;
    for (const std::unique_ptr<AsyncClient>& client : clients_) {
      if (!client->departed()) ++live;
    }
    const util::SimTime t = now();
    if (slo_ != nullptr) slo_->tick(t, static_cast<double>(live));
    if (timeseries_ != nullptr) {
      // On the live backend, fold the event-loop telemetry into the same
      // registry the scrape reads — loop utilization and scheduling
      // latency land in the time series next to the protocol metrics.
      // (export_into is idempotent, and the loop locks it takes are free
      // here: this task runs with its own loop's lock released.)
      if (auto* threaded =
              dynamic_cast<transport::ThreadTransport*>(transport_.get())) {
        threaded->export_into(registry_);
      }
      timeseries_->record("load.clients", t, static_cast<double>(live));
      timeseries_->scrape(registry_, t);
    }
    schedule_scrape();
  });
}

void Deployment::readvertise_partition(std::uint32_t partition) {
  const std::vector<CmInstance>& farm = cm_instances_.at(partition);
  const CmInstance* live = nullptr;
  for (const CmInstance& inst : farm) {
    if (inst.up) { live = &inst; break; }
  }
  // Whole farm down: keep the stale advertisement; clients time out and
  // their failover loop refetches once an instance comes back.
  if (live == nullptr) return;
  core::PartitionInfo info;
  info.partition = partition;
  info.manager_addr = live->addr;
  info.manager_public_key = cm_partitions_[partition]->keys.pub.encode();
  cpm_->set_partition_info(info);
}

services::ChannelManager& Deployment::channel_manager(std::uint32_t partition) {
  if (partition >= cm_instances_.size()) throw std::out_of_range("Deployment: partition");
  return *cm_instances_[partition][0].cm;
}

bool Deployment::add_user(const std::string& email, const std::string& password) {
  if (!accounts_->create_account(email, password, now())) return false;
  redirection_.assign_user(email, config_.um.domain);
  return true;
}

void Deployment::add_regional_channel(util::ChannelId id, const std::string& name,
                                      geo::RegionId region, std::uint32_t partition) {
  cpm_->add_channel(services::make_regional_channel(id, name, region, partition),
                    now());
}

void Deployment::add_subscription_channel(util::ChannelId id, const std::string& name,
                                          geo::RegionId region,
                                          const std::string& package,
                                          std::uint32_t partition) {
  cpm_->add_channel(
      services::make_subscription_channel(id, name, region, package, partition),
      now());
}

std::string Deployment::load_catalog(std::string_view text) {
  services::CatalogParseResult parsed = services::parse_catalog(text);
  if (!parsed.ok()) return parsed.error;
  for (core::ChannelRecord& channel : parsed.channels) {
    cpm_->add_channel(std::move(channel), now());
  }
  return {};
}

void Deployment::start_channel_server(util::ChannelId id,
                                      services::ChannelServerConfig cfg) {
  cfg.channel = id;
  const core::ChannelRecord* record = cpm_->find_channel(id);
  if (record == nullptr) throw std::invalid_argument("Deployment: unknown channel");

  ChannelSource source;
  source.server = std::make_unique<services::ChannelServer>(cfg, rng_.fork(), now());
  source.partition = record->partition;

  p2p::PeerConfig pc;
  pc.node = kChannelRootBase + id;
  pc.addr = util::NetAddr{0x0ac00000u + id};
  pc.channel = id;
  pc.capacity = config_.root_peer_capacity;
  pc.substreams = config_.substreams;
  source.root = std::make_unique<PeerNode>(
      std::make_unique<p2p::Peer>(
          pc, crypto::generate_rsa_keypair(rng_, config_.key_bits),
          cm_partitions_[record->partition]->keys.pub, rng_.fork()),
      *network_, config_.processing);
  source.root->peer().install_key(source.server->latest_key());
  source.root->set_join_observer(
      [this, id, node = pc.node](util::NodeId, std::size_t children) {
        tracker_->update_load(id, node, children, now());
      });
  if (tracing_) source.root->set_tracer(&tracer_);
  source.root->set_registry(&registry_);
  network_->attach(pc.node, pc.addr, source.root.get());
  tracker_->register_peer(id, core::PeerInfo{pc.node, pc.addr}, pc.capacity,
                          now());

  sources_.insert_or_assign(id, std::move(source));
  schedule_rotation(id);
  schedule_eviction(id);
}

void Deployment::schedule_eviction(util::ChannelId id) {
  // Peers sever children whose Channel Tickets lapsed unrenewed (§IV-D);
  // the root sweeps once a minute, on the root's own loop.
  network_->post(kChannelRootBase + id, util::kMinute, [this, id] {
    const auto source = sources_.find(id);
    if (source == sources_.end()) return;
    if (!source->second.root->peer().evict_expired(now()).empty()) {
      tracker_->update_load(id, source->second.root->id(),
                            source->second.root->peer().child_count(), now());
    }
    schedule_eviction(id);
  });
}

void Deployment::schedule_stale_sweep() {
  // The keep-alive half of ungraceful-churn defense: once a minute, every
  // peer still on the network refreshes its tracker entry, then everything
  // not heard from within the stale age is evicted. A crashed client never
  // refreshes, so the tracker stops advertising it within one age window.
  post(util::kMinute, [this] {
    for (const auto& [id, source] : sources_) {
      tracker_->update_load(id, source.root->id(),
                            source.root->peer().child_count(), now());
    }
    for (const std::unique_ptr<AsyncClient>& client : clients_) {
      if (client->departed() || !client->channel_ticket()) continue;
      if (client->peer_node() == nullptr) continue;
      tracker_->update_load(client->channel_ticket()->ticket.channel_id,
                            client->config().node,
                            client->peer_node()->peer().child_count(), now());
    }
    if (now() > config_.tracker_stale_age) {
      tracker_->evict_stale(now() - config_.tracker_stale_age);
    }
    schedule_stale_sweep();
  });
}

void Deployment::schedule_rotation(util::ChannelId id) {
  const auto it = sources_.find(id);
  if (it == sources_.end()) return;
  const util::SimTime interval = it->second.server->config().rekey_interval;
  // Rotation advances the channel server and fans keys out through the
  // root: it runs on the root's loop, like every other touch of that peer.
  network_->post(kChannelRootBase + id, interval, [this, id] {
    const auto it2 = sources_.find(id);
    if (it2 == sources_.end()) return;
    ChannelSource& source = it2->second;
    for (const core::ContentKey& key : source.server->advance(now())) {
      registry_.counter("keys.rotations_issued").inc();
      cm_partitions_[source.partition]->key_stats.record_rotation_issued();
      if (!tracing_) {
        source.root->announce_key(key);
        continue;
      }
      // One root span per rotation; the epoch id stamps every blob of the
      // fan-out so relay spans and key-blob hops hang under it.
      const std::uint64_t epoch_id = (1ull << 48) + ++next_epoch_;
      const obs::SpanId span = tracer_.begin_span("server", "KEY_ROTATION",
                                                  source.root->id(), now());
      tracer_.tag(span, "channel", std::to_string(id));
      tracer_.tag(span, "serial", std::to_string(key.serial));
      tracer_.tag(span, "activation", std::to_string(key.activation));
      if (source.bound_epoch != 0) {
        tracer_.unbind_request(source.root->id(), source.bound_epoch);
      }
      tracer_.bind_request(source.root->id(), epoch_id, span);
      source.bound_epoch = epoch_id;
      source.root->announce_key(key, epoch_id);
      tracer_.end_span(span, now());
    }
    schedule_rotation(id);
  });
}

void Deployment::crash_um_impl(std::size_t instance, std::size_t torn_bytes,
                               bool wipe_media) {
  UmInstance& inst = um_instances_.at(instance);
  if (inst.up) {
    if (network_->attached(inst.id)) network_->detach(inst.id);
    inst.up = false;
    redirection_.set_instance_health(config_.um.domain, inst.addr, false);
    if (config_.durability.enabled) {
      const std::uint64_t lost = inst.st->unsynced_ops();
      if (lost > 0) {
        registry_.counter("store.lost_records").inc(lost);
        registry_.gauge("store.audit.max_loss_window_us")
            .set_max(now() - inst.last_sync);
      }
      inst.st->crash(torn_bytes);
      *inst.dir = services::UserDirectory{};  // RAM is gone
    }
  }
  if (wipe_media && config_.durability.enabled) inst.st->wipe();
}

void Deployment::crash_um_instance(std::size_t instance) {
  crash_um_impl(instance, 0, false);
}

void Deployment::crash_um_unsynced(std::size_t instance) {
  // Tear the crash mid-write: half the staged tail reaches the media as a
  // partial record; replay must stop at the last whole one.
  const UmInstance& inst = um_instances_.at(instance);
  const std::size_t torn =
      config_.durability.enabled ? inst.st->journal().staged_bytes() / 2 : 0;
  crash_um_impl(instance, torn, false);
}

void Deployment::wipe_um_state(std::size_t instance) {
  crash_um_impl(instance, 0, true);
}

void Deployment::restart_um_instance(std::size_t instance) {
  UmInstance& inst = um_instances_.at(instance);
  if (inst.up) return;
  inst.up = true;

  if (!config_.durability.enabled) {
    network_->attach(inst.id, inst.addr, inst.node.get());
    redirection_.set_instance_health(config_.um.domain, inst.addr, true);
    return;
  }

  // Local recovery: snapshot restore + journal replay, then anti-entropy
  // from live siblings (also pulls our own unsynced-but-shipped ops home,
  // which keeps the local sequence counter from reusing numbers).
  const std::size_t replayed = inst.st->recover();
  std::size_t pulled = 0;
  for (UmInstance& other : um_instances_) {
    if (&other == &inst || !other.up) continue;
    pulled += inst.st->catch_up_from(*other.st);
  }
  inst.st->sync();
  inst.last_sync = now();

  const util::SimTime cost = config_.durability.replay_cost_per_record *
      static_cast<util::SimTime>(replayed + pulled);
  registry_.counter("store.recovery.count").inc();
  registry_.histogram("store.recovery.time_us").record(cost);
  const auto finish = [this, instance] {
    UmInstance& i = um_instances_.at(instance);
    if (!i.up) return;  // crashed again during the replay window
    if (!network_->attached(i.id)) network_->attach(i.id, i.addr, i.node.get());
    redirection_.set_instance_health(config_.um.domain, i.addr, true);
  };
  if (cost > 0) {
    post(cost, finish);
  } else {
    finish();
  }
}

bool Deployment::um_instance_up(std::size_t instance) const {
  return um_instances_.at(instance).up;
}

void Deployment::crash_cm_impl(std::uint32_t partition, std::size_t instance,
                               std::size_t torn_bytes, bool wipe_media) {
  CmInstance& inst = cm_instances_.at(partition).at(instance);
  if (inst.up) {
    if (network_->attached(inst.id)) network_->detach(inst.id);
    inst.up = false;
    readvertise_partition(partition);
    if (config_.durability.enabled) {
      const std::uint64_t lost = inst.st->unsynced_ops();
      if (lost > 0) {
        registry_.counter("store.lost_records").inc(lost);
        registry_.gauge("store.audit.max_loss_window_us")
            .set_max(now() - inst.last_sync);
      }
      inst.st->crash(torn_bytes);
      *inst.log = services::ViewingLog();  // RAM is gone
      inst.log->set_audit_cap(config_.durability.viewing_audit_cap);
    }
  }
  if (wipe_media && config_.durability.enabled) inst.st->wipe();
}

void Deployment::crash_cm_instance(std::uint32_t partition, std::size_t instance) {
  crash_cm_impl(partition, instance, 0, false);
}

void Deployment::crash_cm_unsynced(std::uint32_t partition, std::size_t instance) {
  const CmInstance& inst = cm_instances_.at(partition).at(instance);
  const std::size_t torn =
      config_.durability.enabled ? inst.st->journal().staged_bytes() / 2 : 0;
  crash_cm_impl(partition, instance, torn, false);
}

void Deployment::wipe_cm_state(std::uint32_t partition, std::size_t instance) {
  crash_cm_impl(partition, instance, 0, true);
}

void Deployment::restart_cm_instance(std::uint32_t partition, std::size_t instance) {
  CmInstance& inst = cm_instances_.at(partition).at(instance);
  if (inst.up) return;
  inst.up = true;

  if (!config_.durability.enabled) {
    network_->attach(inst.id, inst.addr, inst.node.get());
    readvertise_partition(partition);
    return;
  }

  const std::size_t replayed = inst.st->recover();
  std::size_t pulled = 0;
  for (CmInstance& other : cm_instances_.at(partition)) {
    if (&other == &inst || !other.up) continue;
    pulled += inst.st->catch_up_from(*other.st);
  }
  inst.st->sync();
  inst.last_sync = now();

  const util::SimTime cost = config_.durability.replay_cost_per_record *
      static_cast<util::SimTime>(replayed + pulled);
  registry_.counter("store.recovery.count").inc();
  registry_.histogram("store.recovery.time_us").record(cost);
  const auto finish = [this, partition, instance] {
    CmInstance& i = cm_instances_.at(partition).at(instance);
    if (!i.up) return;
    if (!network_->attached(i.id)) network_->attach(i.id, i.addr, i.node.get());
    readvertise_partition(partition);
  };
  if (cost > 0) {
    post(cost, finish);
  } else {
    finish();
  }
}

bool Deployment::cm_instance_up(std::uint32_t partition, std::size_t instance) const {
  return cm_instances_.at(partition).at(instance).up;
}

std::size_t Deployment::cm_instance_count(std::uint32_t partition) const {
  return cm_instances_.at(partition).size();
}

void Deployment::crash_client(AsyncClient& client) {
  // Deliberately no tracker unregistration: an ungraceful death looks like
  // silence, and only the stale sweep (or failed joins) reveals it.
  client.leave();
}

AsyncClient::Config Deployment::make_client_config(const std::string& email,
                                                   const std::string& password,
                                                   geo::RegionId region) {
  AsyncClient::Config cc;
  cc.email = email;
  cc.password = password;
  cc.client_version = config_.um.minimum_client_version;
  cc.client_binary = reference_binary_;
  cc.addr = geo_->sample_address(rng_, region);
  cc.node = next_client_node_++;
  cc.key_bits = config_.key_bits;
  cc.substreams = config_.substreams;
  cc.request_timeout = config_.request_timeout;
  cc.max_retries = config_.max_retries;
  cc.resilience = config_.client_resilience;
  cc.retry_budget = config_.client_retry_budget;
  cc.retry_budget_refill_per_second = config_.client_retry_budget_refill;
  cc.breaker_failure_threshold = config_.client_breaker_threshold;
  cc.breaker_cooldown = config_.client_breaker_cooldown;
  cc.redirection_node = kRedirectionNode;
  return cc;
}

AsyncClient& Deployment::add_client(const std::string& email,
                                    const std::string& password,
                                    geo::RegionId region) {
  clients_.push_back(std::make_unique<AsyncClient>(
      make_client_config(email, password, region), *network_, rng_.fork()));
  AsyncClient* client = clients_.back().get();
  client->bind_observability(&registry_, tracing_ ? &tracer_ : nullptr, slo_);
  // Route rotated-epoch installs into the owning partition's key ops so the
  // resilience report can show issued vs delivered and worst staleness.
  client->set_key_delivery_hook(
      [this, client](const core::ContentKey& key, util::SimTime at) {
        std::uint32_t partition = 0;
        if (client->channel_ticket()) {
          if (const core::ChannelRecord* rec = cpm_->find_channel(
                  client->channel_ticket()->ticket.channel_id)) {
            partition = rec->partition;
          }
        }
        services::OpsCounters& ops = cm_partitions_[partition]->key_stats;
        ops.record_epoch_delivered();
        if (at > key.activation) ops.note_key_staleness(at - key.activation);
      });
  return *client;
}

void Deployment::announce(AsyncClient& client) {
  if (client.peer_node() == nullptr || !client.channel_ticket()) return;
  const util::ChannelId channel = client.channel_ticket()->ticket.channel_id;
  const util::NodeId node = client.config().node;
  tracker_->register_peer(channel, core::PeerInfo{node, client.config().addr},
                          client.config().peer_capacity, now());
  client.peer_node()->set_join_observer(
      [this, channel, node](util::NodeId, std::size_t children) {
        tracker_->update_load(channel, node, children, now());
      });
}

void Deployment::remove_client(AsyncClient& client) {
  if (client.channel_ticket()) {
    tracker_->unregister_peer(client.channel_ticket()->ticket.channel_id,
                              client.config().node);
  }
  client.leave();
  std::erase_if(clients_, [&](const std::unique_ptr<AsyncClient>& c) {
    return c.get() == &client;
  });
}

void Deployment::broadcast(util::ChannelId channel, util::BytesView payload) {
  const auto it = sources_.find(channel);
  if (it == sources_.end()) throw std::invalid_argument("Deployment: no channel server");
  const core::ContentPacket packet = it->second.server->produce(payload, now());
  it->second.root->forward_content(packet);
}

PeerNode* Deployment::root_node(util::ChannelId channel) {
  const auto it = sources_.find(channel);
  return it == sources_.end() ? nullptr : it->second.root.get();
}

const services::UserDirectory* Deployment::um_directory(std::size_t instance) const {
  return um_instances_.at(instance).dir.get();
}

const services::ViewingLog* Deployment::cm_viewing_log(std::uint32_t partition,
                                                       std::size_t instance) const {
  return cm_instances_.at(partition).at(instance).log.get();
}

store::FarmStore* Deployment::um_store(std::size_t instance) {
  return um_instances_.at(instance).st.get();
}

store::FarmStore* Deployment::cm_store(std::uint32_t partition,
                                       std::size_t instance) {
  return cm_instances_.at(partition).at(instance).st.get();
}

}  // namespace p2pdrm::net
