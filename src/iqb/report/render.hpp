// Report rendering: regional IQB results -> human- and
// machine-readable artifacts.
//
//  * scorecard()        — fixed-width console card for one region,
//                         with an ASCII barometer gauge.
//  * comparison_table() — markdown table across regions.
//  * scores_document()  — the served /scores JSON document.
//  * to_json()          — the same export as a JsonValue tree.
//  * to_csv()           — flat per-use-case rows for spreadsheets.
#pragma once

#include <string>
#include <vector>

#include "iqb/core/pipeline.hpp"
#include "iqb/util/json.hpp"

namespace iqb::report {

/// ASCII gauge: `[#########..........] 0.45 (C)` with `width`
/// fill characters.
std::string barometer(double score, core::Grade grade, std::size_t width = 30);

/// Multi-line scorecard for one region: IQB scores at both levels,
/// grade, per-use-case bars, requirement detail and coverage warnings.
std::string scorecard(const core::RegionResult& result);

/// Markdown comparison across regions: one row per region with
/// high/minimum scores, grade, and per-use-case high scores.
std::string comparison_table(std::span<const core::RegionResult> results);

/// The /scores document: full results (scores, breakdowns, warnings)
/// as pretty-printed JSON with a trailing newline — the exact bytes
/// iqbd and the fleet coordinator serve and `iqbctl score --format
/// json` prints. Streamed through util::JsonWriter; equal to
/// to_json(results).dump(2) + "\n".
std::string scores_document(std::span<const core::RegionResult> results);

/// The same export as a JsonValue tree. No serving path builds it; it
/// is the reference that tests (and the benchmark) compare
/// scores_document() against.
util::JsonValue to_json(std::span<const core::RegionResult> results);

/// CSV with one row per (region, use case): region, use_case,
/// score_high, score_minimum, grade.
std::string to_csv(std::span<const core::RegionResult> results);

}  // namespace iqb::report
