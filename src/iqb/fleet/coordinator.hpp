// Gather stage: fuse shard payloads into one served score set.
//
// The coordinator's contract is the paper's degradation contract
// lifted to fleet scale: while at least one shard answers, /scores is
// always a well-formed, complete-looking document — never an error —
// and what the fleet could not corroborate this cycle is *labelled*,
// not hidden:
//
//   * fresh shards contribute their aggregate tables verbatim; the
//     merged table is scored exactly like a single daemon scores its
//     own aggregation, so a zero-fault fleet's /scores is
//     byte-identical to a single daemon over the union of records;
//   * a shard served from cache (it failed this cycle) contributes
//     its last-good table, and every region it owns is demoted to
//     confidence tier C — the scores stand, the trust does not — with
//     "shard:<name>" recorded among the open breakers;
//   * a shard with no payload at all simply has no regions yet; the
//     rest of the fleet is unaffected.
//
// Tier demotion feeds the existing /readyz semantics (tier C =>
// "degraded", 503) so orchestration sees fleet faults through the
// same lens as ingest faults.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "iqb/core/config.hpp"
#include "iqb/fleet/fetcher.hpp"
#include "iqb/fleet/wire.hpp"

namespace iqb::fleet {

/// Result of fusing one cycle's shard views.
struct FuseOutput {
  /// Rendered exactly like WatchDaemon renders a cycle
  /// (report::scores_document) — byte-identical to a single daemon
  /// when every shard is fresh.
  std::string scores_json;
  /// The fused table re-serialized as a shard payload, so a
  /// coordinator can itself be scatter-gathered by a higher tier.
  std::string aggregate_json;

  bool tier_c = false;
  std::vector<std::string> tier_c_regions;
  /// Regions served from a cached (stale) shard payload, sorted.
  std::vector<std::string> stale_regions;
  /// Regions that could not be scored (e.g. cells below min_samples).
  std::vector<std::string> skipped_regions;

  std::size_t shards_fresh = 0;
  std::size_t shards_cached = 0;
  std::size_t shards_missing = 0;
  /// Newest shard cycle folded in (freshness indicator).
  std::uint64_t max_shard_cycle = 0;

  /// At least one shard contributed a payload (fresh or cached);
  /// false means there is nothing to serve this cycle.
  bool any_payload() const noexcept {
    return shards_fresh + shards_cached > 0;
  }
  /// Some configured shard did not contribute fresh data.
  bool partial() const noexcept { return shards_cached + shards_missing > 0; }
};

/// Merge the views' tables and health, score every region of the
/// fused table, demote stale shards' regions to tier C, and render.
/// Pure: no I/O, no clock — the scatter stage owns time.
FuseOutput fuse(const core::IqbConfig& config, std::span<const ShardView> views,
                const std::string& trace_id);

}  // namespace iqb::fleet
