// Layer probes: time the public crypto, core and net codec calls on the
// exact inputs a workload generates (its key size, its channel records and
// issued tickets, its content payloads). Each probe repeats its call and
// reports the median, so one probe costs milliseconds.
#pragma once

#include <vector>

#include "core/content.h"
#include "core/policy.h"
#include "core/ticket.h"
#include "harness.h"

namespace perfbench {

struct ProbeInputs {
  std::size_t key_bits = 0;  // 0 = skip the RSA probes
  std::vector<p2pdrm::core::ChannelRecord> channels;
  std::vector<p2pdrm::core::SignedUserTicket> user_tickets;
  std::vector<p2pdrm::core::SignedChannelTicket> channel_tickets;
  /// Content payloads in the workload's mix (empty = skip content probes).
  std::vector<p2pdrm::util::Bytes> payloads;
  /// Size of the attestation window hashed at login (SHA-256 probe input).
  std::size_t binary_bytes = 0;
};

/// Adds crypto.*, core.* and net.envelope_codec_us metrics for every probe
/// whose inputs are present (metrics already in `out` are kept).
void run_probes(const ProbeInputs& in, std::uint64_t seed, Result& out);

}  // namespace perfbench
