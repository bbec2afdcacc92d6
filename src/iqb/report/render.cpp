#include "iqb/report/render.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "iqb/util/strings.hpp"

namespace iqb::report {

using core::Grade;
using core::QualityLevel;
using core::RegionResult;
using core::Requirement;
using core::UseCase;
using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

std::string barometer(double score, Grade grade, std::size_t width) {
  const double clamped = std::clamp(score, 0.0, 1.0);
  const auto filled =
      static_cast<std::size_t>(std::lround(clamped * static_cast<double>(width)));
  std::string out = "[";
  out.append(filled, '#');
  out.append(width - filled, '.');
  out += "] " + util::format_fixed(score, 2) + " (" +
         std::string(core::grade_name(grade)) + ")";
  return out;
}

namespace {

std::string bar(double value, std::size_t width = 20) {
  const double clamped = std::clamp(value, 0.0, 1.0);
  const auto filled =
      static_cast<std::size_t>(std::lround(clamped * static_cast<double>(width)));
  std::string out(filled, '#');
  out.append(width - filled, '.');
  return out;
}

}  // namespace

std::string scorecard(const RegionResult& result) {
  std::ostringstream out;
  out << "================================================================\n";
  out << " IQB Scorecard — region: " << result.region << "\n";
  out << "================================================================\n";
  out << " IQB score (high quality):    "
      << barometer(result.high.iqb_score, result.grade) << "\n";
  out << " IQB score (minimum quality): "
      << util::format_fixed(result.minimum.iqb_score, 2) << "\n";
  out << "----------------------------------------------------------------\n";
  out << " Use case             high   min    profile(high)\n";
  for (UseCase use_case : core::kAllUseCases) {
    auto high_it = result.high.use_case_scores.find(use_case);
    auto min_it = result.minimum.use_case_scores.find(use_case);
    out << " " << core::use_case_display_name(use_case);
    for (std::size_t i = core::use_case_display_name(use_case).size(); i < 21;
         ++i) {
      out << ' ';
    }
    if (high_it != result.high.use_case_scores.end()) {
      out << util::format_fixed(high_it->second, 2) << "   ";
    } else {
      out << "  -    ";
    }
    if (min_it != result.minimum.use_case_scores.end()) {
      out << util::format_fixed(min_it->second, 2) << "   ";
    } else {
      out << "  -    ";
    }
    if (high_it != result.high.use_case_scores.end()) {
      out << bar(high_it->second);
    }
    out << "\n";
  }
  out << "----------------------------------------------------------------\n";
  out << " Requirement agreement (high quality)\n";
  for (const auto& [key, score] : result.high.requirement_scores) {
    out << "   " << core::use_case_name(key.first) << " / "
        << core::requirement_name(key.second) << ": "
        << util::format_fixed(score, 2) << "\n";
  }
  if (!result.high.coverage_warnings.empty()) {
    out << "----------------------------------------------------------------\n";
    out << " Coverage warnings\n";
    for (const std::string& warning : result.high.coverage_warnings) {
      out << "   ! " << warning << "\n";
    }
  }
  const robust::DegradationReport& degradation = result.degradation();
  if (degradation.degraded()) {
    out << "----------------------------------------------------------------\n";
    out << " DEGRADED MODE — confidence tier "
        << robust::confidence_tier_name(degradation.tier) << "\n";
    if (!degradation.missing_datasets.empty()) {
      out << "   missing datasets: "
          << util::join(degradation.missing_datasets, ", ") << "\n";
    }
    if (degradation.rows_quarantined > 0) {
      out << "   rows quarantined: " << degradation.rows_quarantined << "\n";
    }
    if (!degradation.open_breakers.empty()) {
      out << "   breakers open: "
          << util::join(degradation.open_breakers, ", ") << "\n";
    }
  }
  out << "================================================================\n";
  return out.str();
}

std::string comparison_table(std::span<const RegionResult> results) {
  std::ostringstream out;
  out << "| Region | IQB (high) | IQB (min) | Grade |";
  for (UseCase use_case : core::kAllUseCases) {
    out << " " << core::use_case_display_name(use_case) << " |";
  }
  out << "\n|---|---|---|---|";
  for (std::size_t i = 0; i < core::kAllUseCases.size(); ++i) out << "---|";
  out << "\n";
  for (const RegionResult& result : results) {
    out << "| " << result.region << " | "
        << util::format_fixed(result.high.iqb_score, 3) << " | "
        << util::format_fixed(result.minimum.iqb_score, 3) << " | "
        << core::grade_name(result.grade) << " |";
    for (UseCase use_case : core::kAllUseCases) {
      auto it = result.high.use_case_scores.find(use_case);
      if (it != result.high.use_case_scores.end()) {
        out << " " << util::format_fixed(it->second, 2) << " |";
      } else {
        out << " - |";
      }
    }
    out << "\n";
  }
  return out.str();
}

namespace {

JsonValue breakdown_to_json(const core::ScoreBreakdown& breakdown) {
  JsonObject object;
  object.emplace("level",
                 std::string(core::quality_level_name(breakdown.level)));
  object.emplace("iqb_score", breakdown.iqb_score);
  JsonObject use_cases;
  for (const auto& [use_case, score] : breakdown.use_case_scores) {
    use_cases.emplace(std::string(core::use_case_name(use_case)), score);
  }
  object.emplace("use_case_scores", std::move(use_cases));
  JsonObject requirements;
  for (const auto& [key, score] : breakdown.requirement_scores) {
    requirements.emplace(std::string(core::use_case_name(key.first)) + "." +
                             std::string(core::requirement_name(key.second)),
                         score);
  }
  object.emplace("requirement_scores", std::move(requirements));
  JsonArray warnings;
  for (const std::string& warning : breakdown.coverage_warnings) {
    warnings.emplace_back(warning);
  }
  object.emplace("coverage_warnings", std::move(warnings));

  const robust::DegradationReport& degradation = breakdown.degradation;
  JsonObject degraded;
  degraded.emplace("tier", std::string(robust::confidence_tier_name(
                               degradation.tier)));
  JsonArray present;
  for (const std::string& dataset : degradation.present_datasets) {
    present.emplace_back(dataset);
  }
  degraded.emplace("present_datasets", std::move(present));
  JsonArray missing;
  for (const std::string& dataset : degradation.missing_datasets) {
    missing.emplace_back(dataset);
  }
  degraded.emplace("missing_datasets", std::move(missing));
  degraded.emplace("rows_quarantined",
                   static_cast<double>(degradation.rows_quarantined));
  JsonArray breakers;
  for (const std::string& breaker : degradation.open_breakers) {
    breakers.emplace_back(breaker);
  }
  degraded.emplace("open_breakers", std::move(breakers));
  object.emplace("degradation", std::move(degraded));
  return object;
}

/// Use cases in the byte order of their names: the order a JsonObject
/// keyed by name holds them in.
const std::vector<UseCase>& use_cases_by_name() {
  static const std::vector<UseCase> order = [] {
    std::vector<UseCase> out(core::kAllUseCases.begin(),
                             core::kAllUseCases.end());
    std::sort(out.begin(), out.end(), [](UseCase a, UseCase b) {
      return core::use_case_name(a) < core::use_case_name(b);
    });
    return out;
  }();
  return order;
}

/// (use case, requirement) pairs in the byte order of their
/// "use_case.requirement" keys.
struct RequirementKey {
  std::string name;
  std::pair<UseCase, Requirement> key;
};
const std::vector<RequirementKey>& requirement_keys_by_name() {
  static const std::vector<RequirementKey> order = [] {
    std::vector<RequirementKey> out;
    for (UseCase use_case : core::kAllUseCases) {
      for (Requirement requirement : core::kAllRequirements) {
        out.push_back({std::string(core::use_case_name(use_case)) + "." +
                           std::string(core::requirement_name(requirement)),
                       {use_case, requirement}});
      }
    }
    std::sort(out.begin(), out.end(),
              [](const RequirementKey& a, const RequirementKey& b) {
                return a.name < b.name;
              });
    return out;
  }();
  return order;
}

void write_strings(util::JsonWriter& writer,
                   const std::vector<std::string>& strings) {
  writer.begin_array();
  for (const std::string& text : strings) writer.value(text);
  writer.end_array();
}

/// breakdown_to_json's object, member by member in key order.
void write_breakdown(util::JsonWriter& writer,
                     const core::ScoreBreakdown& breakdown) {
  writer.begin_object();
  writer.key("coverage_warnings");
  write_strings(writer, breakdown.coverage_warnings);

  const robust::DegradationReport& degradation = breakdown.degradation;
  writer.key("degradation").begin_object();
  writer.key("missing_datasets");
  write_strings(writer, degradation.missing_datasets);
  writer.key("open_breakers");
  write_strings(writer, degradation.open_breakers);
  writer.key("present_datasets");
  write_strings(writer, degradation.present_datasets);
  writer.key("rows_quarantined")
      .value(static_cast<double>(degradation.rows_quarantined));
  writer.key("tier").value(robust::confidence_tier_name(degradation.tier));
  writer.end_object();

  writer.key("iqb_score").value(breakdown.iqb_score);
  writer.key("level").value(core::quality_level_name(breakdown.level));
  writer.key("requirement_scores").begin_object();
  for (const RequirementKey& entry : requirement_keys_by_name()) {
    auto it = breakdown.requirement_scores.find(entry.key);
    if (it != breakdown.requirement_scores.end()) {
      writer.key(entry.name).value(it->second);
    }
  }
  writer.end_object();
  writer.key("use_case_scores").begin_object();
  for (UseCase use_case : use_cases_by_name()) {
    auto it = breakdown.use_case_scores.find(use_case);
    if (it != breakdown.use_case_scores.end()) {
      writer.key(core::use_case_name(use_case)).value(it->second);
    }
  }
  writer.end_object();
  writer.end_object();
}

}  // namespace

std::string scores_document(std::span<const RegionResult> results) {
  std::string out;
  util::JsonWriter writer(out, 2);
  writer.begin_object().key("regions").begin_array();
  for (const RegionResult& result : results) {
    writer.begin_object();
    writer.key("grade").value(core::grade_name(result.grade));
    writer.key("high");
    write_breakdown(writer, result.high);
    writer.key("minimum");
    write_breakdown(writer, result.minimum);
    writer.key("region").value(result.region);
    writer.end_object();
  }
  writer.end_array().end_object();
  out.push_back('\n');
  return out;
}

JsonValue to_json(std::span<const RegionResult> results) {
  JsonArray regions;
  for (const RegionResult& result : results) {
    JsonObject object;
    object.emplace("region", result.region);
    object.emplace("grade", std::string(core::grade_name(result.grade)));
    object.emplace("high", breakdown_to_json(result.high));
    object.emplace("minimum", breakdown_to_json(result.minimum));
    regions.push_back(std::move(object));
  }
  JsonObject root;
  root.emplace("regions", std::move(regions));
  return root;
}

std::string to_csv(std::span<const RegionResult> results) {
  std::ostringstream out;
  out << "region,use_case,score_high,score_minimum,grade\n";
  for (const RegionResult& result : results) {
    for (UseCase use_case : core::kAllUseCases) {
      auto high_it = result.high.use_case_scores.find(use_case);
      auto min_it = result.minimum.use_case_scores.find(use_case);
      if (high_it == result.high.use_case_scores.end() &&
          min_it == result.minimum.use_case_scores.end()) {
        continue;
      }
      out << result.region << ',' << core::use_case_name(use_case) << ',';
      if (high_it != result.high.use_case_scores.end()) {
        out << util::format_fixed(high_it->second, 4);
      }
      out << ',';
      if (min_it != result.minimum.use_case_scores.end()) {
        out << util::format_fixed(min_it->second, 4);
      }
      out << ',' << core::grade_name(result.grade) << '\n';
    }
  }
  return out.str();
}

}  // namespace iqb::report
