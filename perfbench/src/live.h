// Pieces shared by the two live workloads (session_churn, live_broadcast):
// the deployment shape, the wire tap that counts (and eavesdrops on) every
// datagram, event-loop telemetry deltas, and the latency summary.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "harness.h"
#include "net/deployment.h"
#include "obs/runtime.h"

namespace perfbench {

/// Event loops on the live transport. One loop, with the main thread
/// blocked on completions, measures per-core capacity: on the shared 4-vCPU
/// reference box, wall-clock rates with 2 or 3 loops swung by 15-65% from
/// run to run on the same seed, with 1 loop by 3-10% (README.md).
inline constexpr std::size_t kLoops = 1;
/// RSA modulus for every key in the live deployments.
inline constexpr std::size_t kKeyBits = 512;

/// Seed of the live deployments themselves (manager and client keys,
/// addresses, tracker sampling and so the overlay's shape). It is part of
/// the workload's definition; --seed varies the workload's inputs (the
/// clients' channel draws, the content payloads). With the deployment seed
/// following --seed as well, the overlay's shape and the tail latency it
/// sets changed from seed to seed by up to 46%.
inline constexpr std::uint64_t kDeploymentSeed = 20110620;

/// A ThreadTransport deployment with zero link latency and no loss.
p2pdrm::net::DeploymentConfig live_config(bool traced);

/// Counts every datagram handed to Network::send and, for one in kScanEvery
/// of them, searches the raw bytes for a plaintext canary: a content
/// payload's marker must never appear on the wire.
class WireTap final : public p2pdrm::net::SendInterceptor {
 public:
  static constexpr std::uint64_t kScanEvery = 8;
  explicit WireTap(std::string canary = {}) : canary_(std::move(canary)) {}
  Verdict on_send(const p2pdrm::net::SendContext& ctx) override;

  std::uint64_t messages() const { return messages_.load(); }
  std::uint64_t bytes() const { return bytes_.load(); }
  std::uint64_t scanned() const { return scanned_.load(); }
  std::uint64_t leaks() const { return leaks_.load(); }

 private:
  const std::string canary_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> scanned_{0};
  std::atomic<std::uint64_t> leaks_{0};
};

/// Times every request/response exchange on the wire (traced runs only:
/// it decodes each envelope). For a request sent at s1 that arrives at a1
/// and is answered at s2, arriving back at a2, with modelled link delays
/// d1/d2: network = d1 + d2, queue = (a1 - s1 - d1) + (a2 - s2 - d2) — the
/// wait in the receiving loop's ready queue — and service = s2 - a1.
class ExchangeTap final : public p2pdrm::net::SendInterceptor {
 public:
  struct Exchange {
    p2pdrm::util::SimTime s1 = -1, d1 = 0, a1 = -1, s2 = -1, d2 = 0, a2 = -1;
    bool complete() const { return s1 >= 0 && a1 >= 0 && s2 >= 0 && a2 >= 0; }
    double network_us() const { return static_cast<double>(d1 + d2); }
    double queue_us() const { return static_cast<double>((a1 - s1 - d1) + (a2 - s2 - d2)); }
    double service_us() const { return static_cast<double>(s2 - a1); }
  };
  Verdict on_send(const p2pdrm::net::SendContext&) override { return {}; }
  void on_packet_fate(const p2pdrm::net::SendContext& ctx,
                      p2pdrm::net::PacketFate fate, p2pdrm::util::SimTime delay) override;
  /// Completed exchanges of one client and request kind, by send time.
  /// Call once the transport has stopped.
  std::vector<Exchange> completed(p2pdrm::util::NodeId client,
                                  p2pdrm::net::MsgKind request) const;

 private:
  mutable std::mutex mu_;
  /// (client node, request kind, request id) -> exchange timestamps.
  std::map<std::tuple<p2pdrm::util::NodeId, p2pdrm::net::MsgKind, std::uint64_t>, Exchange>
      open_;
};

/// Loop telemetry of a live deployment (empty on other backends).
std::vector<p2pdrm::obs::LoopStats> loop_stats(p2pdrm::net::Deployment& d);

/// transport.* per-layer metrics over a timed phase: `before` and `after`
/// bracket it (busy deltas), the scheduling histogram and queue peaks are
/// the deployment's lifetime values.
void transport_metrics(p2pdrm::net::Deployment& d,
                       const std::vector<p2pdrm::obs::LoopStats>& before,
                       const std::vector<p2pdrm::obs::LoopStats>& after,
                       double wall_s, std::uint64_t ops, Result& out);

/// One completed operation: when it completed and how long it took.
struct Completion {
  std::int64_t done_ns = 0;
  double latency_ms = 0;
};

/// Number of equal slices the timed phase is cut into.
inline constexpr std::size_t kSlices = 3;

/// ops_per_s, op_p50_ms and op_p90_ms as medians over kSlices equal slices
/// of [start_ns, end_ns): a stall confined to one slice moves none of them.
/// Each completion counts `ops_each` ops. The tail reported is p90, not
/// p99: on the shared reference VM the p99 of both live workloads followed
/// the host's scheduling stalls (spread 0.23-0.31 over ten seeds, medians
/// moving 20-30% between sets of runs of the same code) while p90 stayed
/// with the program. p90 follows the percentile rule in every slice (ten
/// samples beyond it) or is not reported; the whole-window p99 is noted.
void slice_metrics(const std::vector<Completion>& done, std::int64_t start_ns,
                   std::int64_t end_ns, double ops_each, const char* what, Result& out);

}  // namespace perfbench
