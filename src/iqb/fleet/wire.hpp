// Fleet wire format: the versioned shard payload.
//
// A shard daemon owns a region subset and exposes its per-cycle
// AggregateTable on /shard/aggregate; the coordinator fetches those
// payloads, merges the tables (AggregateTable::merge) and scores the
// union exactly like a single daemon would. That only works if the
// serialization is *exact*: aggregate values are doubles, and the
// coordinator's fused /scores must be byte-identical to a single
// daemon's over the same records. Numbers therefore ride through
// util::JsonWriter's %.17g formatting and from_chars parsing, which
// round-trip every finite double bit-for-bit (asserted in tests).
//
// The payload is versioned: a coordinator rejects payloads whose
// version it does not speak (a mid-upgrade fleet degrades the shard,
// it does not mis-merge it), and ships the shard's ingest-side health
// so quarantined rows and open feed breakers keep flowing into the
// fused scores' degradation reports.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "iqb/datasets/aggregate.hpp"
#include "iqb/robust/degradation.hpp"
#include "iqb/util/result.hpp"

namespace iqb::fleet {

/// Wire version this build speaks.
inline constexpr std::uint32_t kWireVersion = 1;

/// One shard's per-cycle contribution to the fleet.
struct ShardPayload {
  std::uint32_t version = kWireVersion;
  std::uint64_t cycle = 0;      ///< Shard's completed-cycle ordinal.
  std::string trace_id;         ///< Shard cycle's correlation id.
  datasets::AggregateTable table;
  robust::IngestHealth health;  ///< Shard-local ingest health.
};

/// Serialize to the versioned JSON document served on /shard/aggregate
/// (compact, newline-terminated, deterministic field order).
std::string serialize_shard_payload(const ShardPayload& payload);

/// Parse and validate a payload. Foreign versions, missing fields,
/// unknown metric names and non-finite values are kParseError — a
/// coordinator treats any of them as a failed fetch.
util::Result<ShardPayload> parse_shard_payload(std::string_view text);

}  // namespace iqb::fleet
