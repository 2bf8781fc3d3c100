// Builders for common channel configurations (Fig. 2's patterns) and the
// catalog-config parser behind net::Deployment's provisioning API.
#pragma once

#include <string>

#include "core/policy.h"
#include "geo/geodb.h"

namespace p2pdrm::services {

/// Free-to-view channel restricted to one region:
///   attribute Region=<region>; policy "Region=<region> -> ACCEPT" @50.
core::ChannelRecord make_regional_channel(util::ChannelId id, const std::string& name,
                                          geo::RegionId region,
                                          std::uint32_t partition = 0);

/// Subscription channel: Region=<region> & Subscription=<package> -> ACCEPT.
core::ChannelRecord make_subscription_channel(util::ChannelId id,
                                              const std::string& name,
                                              geo::RegionId region,
                                              const std::string& package,
                                              std::uint32_t partition = 0);

/// Operator catalog config: the textual form a provider's channel lineup is
/// deployed from. One channel block per `channel` line; indented (or not —
/// leading whitespace is ignored) `attribute` and `policy` lines attach to
/// the preceding channel. `#` starts a comment.
///
///   # the paper's Fig. 2 lineup
///   channel 1 "Channel A" partition 0
///     attribute Region=100
///     attribute Region=101
///     attribute Subscription=101
///     policy Priority 50: Region=100 & Subscription=101, Return ACCEPT
///     policy Priority 50: Region=101, Return ACCEPT
///
/// Attribute lines accept optional validity bounds:
///   attribute Region=ANY stime=72000000000 etime=75600000000
///
/// Returns the parsed channels, or an error message with the line number.
struct CatalogParseResult {
  std::vector<core::ChannelRecord> channels;
  std::string error;  // empty on success

  bool ok() const { return error.empty(); }
};

CatalogParseResult parse_catalog(std::string_view text);

}  // namespace p2pdrm::services
