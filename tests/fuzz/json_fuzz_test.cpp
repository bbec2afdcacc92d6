// Seeded differential fuzzing of the JSON layer.
//
// util::JsonWriter is the one serializer: JsonValue::dump, the /scores
// document, the fleet shard payload and the checkpoint body all stream
// through it. The oracle here is a frozen copy of the tree serializer
// it replaced (recursive dump, printf number formatting, per-character
// escaping) together with the tree builders the three documents used
// to go through. Every property runs over a fixed seed list; a failure
// names its seed, and IQB_FUZZ_ROUNDS raises the rounds per seed for
// long runs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "iqb/fleet/wire.hpp"
#include "iqb/report/render.hpp"
#include "iqb/robust/checkpoint.hpp"
#include "iqb/util/fs.hpp"
#include "iqb/util/json.hpp"
#include "iqb/util/rng.hpp"

namespace iqb {
namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;

// --- The serializer JsonWriter replaced, frozen as the oracle. ---
namespace reference {

std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void indent_to(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

void dump_impl(const JsonValue& value, std::string& out, int indent,
               int depth) {
  switch (value.type()) {
    case util::JsonType::kNull: out += "null"; break;
    case util::JsonType::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case util::JsonType::kNumber:
      out += format_number(value.as_number());
      break;
    case util::JsonType::kString:
      out.push_back('"');
      out += json_escape(value.as_string());
      out.push_back('"');
      break;
    case util::JsonType::kArray: {
      if (value.as_array().empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const auto& item : value.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        if (indent > 0) indent_to(out, indent, depth + 1);
        dump_impl(item, out, indent, depth + 1);
      }
      if (indent > 0) indent_to(out, indent, depth);
      out.push_back(']');
      break;
    }
    case util::JsonType::kObject: {
      if (value.as_object().empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        if (indent > 0) indent_to(out, indent, depth + 1);
        out.push_back('"');
        out += json_escape(key);
        out += indent > 0 ? "\": " : "\":";
        dump_impl(member, out, indent, depth + 1);
      }
      if (indent > 0) indent_to(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string dump(const JsonValue& value, int indent = 0) {
  std::string out;
  dump_impl(value, out, indent, 0);
  return out;
}

/// The shard payload tree serialize_shard_payload used to build.
std::string shard_payload(const fleet::ShardPayload& payload) {
  JsonObject root;
  root.emplace("version", static_cast<std::int64_t>(payload.version));
  root.emplace("cycle", static_cast<std::int64_t>(payload.cycle));
  root.emplace("trace", payload.trace_id);
  JsonArray cells;
  for (const datasets::AggregateCell& cell : payload.table.cells()) {
    JsonObject out;
    out.emplace("region", cell.region);
    out.emplace("dataset", cell.dataset);
    out.emplace("metric", std::string(datasets::metric_name(cell.metric)));
    out.emplace("value", cell.value);
    out.emplace("samples", static_cast<std::int64_t>(cell.sample_count));
    if (cell.ci) {
      JsonObject ci;
      ci.emplace("point", cell.ci->point);
      ci.emplace("lower", cell.ci->lower);
      ci.emplace("upper", cell.ci->upper);
      ci.emplace("level", cell.ci->level);
      out.emplace("ci", std::move(ci));
    }
    cells.push_back(std::move(out));
  }
  root.emplace("cells", std::move(cells));
  JsonObject health;
  health.emplace("rows_quarantined",
                 static_cast<std::int64_t>(payload.health.rows_quarantined));
  health.emplace("sources_retried",
                 static_cast<std::int64_t>(payload.health.sources_retried));
  JsonArray breakers;
  for (const std::string& breaker : payload.health.open_breakers) {
    breakers.emplace_back(breaker);
  }
  health.emplace("open_breakers", std::move(breakers));
  root.emplace("health", std::move(health));
  return dump(JsonValue(std::move(root))) + "\n";
}

/// The checkpoint frame Checkpoint::encode used to build.
std::string checkpoint_frame(const robust::Checkpoint& checkpoint) {
  JsonObject payload;
  payload.emplace("cycle", static_cast<std::int64_t>(checkpoint.cycle));
  payload.emplace("cycles_attempted",
                  static_cast<std::int64_t>(checkpoint.cycles_attempted));
  payload.emplace("cycles_failed",
                  static_cast<std::int64_t>(checkpoint.cycles_failed));
  payload.emplace("trace_id", checkpoint.trace_id);
  payload.emplace("scores_json", checkpoint.scores_json);
  payload.emplace("tier_c", checkpoint.tier_c);
  JsonArray regions;
  for (const std::string& region : checkpoint.tier_c_regions) {
    regions.emplace_back(region);
  }
  payload.emplace("tier_c_regions", std::move(regions));
  const std::string body = dump(JsonValue(std::move(payload)));
  char crc[9];
  std::snprintf(crc, sizeof(crc), "%08x", util::fs::crc32(body));
  return "IQBCKPT 1 " + std::string(crc) + " " + std::to_string(body.size()) +
         "\n" + body;
}

}  // namespace reference

// --- Generator. ---

/// Rounds per seed: the default keeps the label to a few seconds in a
/// Release build; IQB_FUZZ_ROUNDS=N runs N per seed instead.
int rounds(int fallback) {
  if (const char* env = std::getenv("IQB_FUZZ_ROUNDS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return fallback;
}

class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::int64_t below(std::int64_t n) { return rng_.uniform_int(0, n - 1); }
  bool coin() { return rng_.bernoulli(0.5); }

  /// Any double, weighted towards the formatter's edges.
  double number() {
    switch (below(10)) {
      case 0: return std::bit_cast<double>(rng_.next_u64());
      case 1: {  // denormal, either sign
        const std::uint64_t mantissa = rng_.next_u64() & ((1ull << 52) - 1);
        return std::bit_cast<double>(mantissa | (coin() ? 1ull << 63 : 0));
      }
      case 2: return coin() ? 0.0 : -0.0;
      case 3: {  // integers either side of the %.0f cut-off at 1e15
        const double near = 1e15 + static_cast<double>(rng_.uniform_int(-3, 3));
        return coin() ? near : -near;
      }
      case 4: {
        const double special[] = {std::nan(""), -std::nan(""),
                                  HUGE_VAL, -HUGE_VAL};
        return special[below(4)];
      }
      case 5: return static_cast<double>(rng_.uniform_int(-100000, 100000));
      case 6: return rng_.uniform(-1.0, 1.0);
      case 7:
        return std::ldexp(rng_.uniform(0.5, 1.0),
                          static_cast<int>(rng_.uniform_int(-1074, 1023)));
      case 8:  // integral doubles up to 2^60
        return std::ldexp(static_cast<double>(rng_.uniform_int(1, 1 << 20)),
                          static_cast<int>(rng_.uniform_int(0, 40)));
      default: return static_cast<double>(rng_.uniform_int(0, 5)) / 4.0;
    }
  }

  double finite_number() {
    for (;;) {
      const double value = number();
      if (std::isfinite(value)) return value;
    }
  }

  /// Short text mixing every control byte, quotes, backslashes, DEL,
  /// valid UTF-8 and stray high bytes.
  std::string text(std::int64_t max_length = 12) {
    static const char* const kUtf8[] = {"\xc3\xa9", "\xe2\x82\xac",
                                        "\xf0\x9f\x98\x80", "\xd0\x96"};
    std::string out;
    const std::int64_t length = below(max_length + 1);
    for (std::int64_t i = 0; i < length; ++i) {
      switch (below(8)) {
        case 0: out.push_back(static_cast<char>(below(0x20))); break;
        case 1: out.push_back('"'); break;
        case 2: out.push_back('\\'); break;
        case 3: out += kUtf8[below(4)]; break;
        case 4: out.push_back(static_cast<char>(0x7f + below(0x81))); break;
        case 5: out.push_back('/'); break;
        default: out.push_back(static_cast<char>(0x20 + below(0x5f))); break;
      }
    }
    return out;
  }

  /// A random tree; `finite` is cleared if it holds a non-finite number.
  JsonValue tree(int depth, bool& finite) {
    const std::int64_t kind = depth >= 4 ? below(4) : below(6);
    switch (kind) {
      case 0: return JsonValue(nullptr);
      case 1: return JsonValue(coin());
      case 2: {
        const double value = number();
        if (!std::isfinite(value)) finite = false;
        return JsonValue(value);
      }
      case 3: return JsonValue(text());
      case 4: {
        JsonArray array;
        for (std::int64_t n = below(5); n > 0; --n) {
          array.push_back(tree(depth + 1, finite));
        }
        return JsonValue(std::move(array));
      }
      default: {
        JsonObject object;
        for (std::int64_t n = below(5); n > 0; --n) {
          object.insert_or_assign(text(6), tree(depth + 1, finite));
        }
        return JsonValue(std::move(object));
      }
    }
  }

  std::vector<std::string> texts(std::int64_t max_count) {
    std::vector<std::string> out;
    for (std::int64_t n = below(max_count + 1); n > 0; --n) {
      out.push_back(text());
    }
    return out;
  }

  core::ScoreBreakdown breakdown(core::QualityLevel level) {
    core::ScoreBreakdown out;
    out.level = level;
    out.iqb_score = number();
    for (core::UseCase use_case : core::kAllUseCases) {
      if (coin()) out.use_case_scores[use_case] = number();
      for (core::Requirement requirement : core::kAllRequirements) {
        if (coin()) out.requirement_scores[{use_case, requirement}] = number();
      }
    }
    out.coverage_warnings = texts(3);
    out.degradation.present_datasets = texts(3);
    out.degradation.missing_datasets = texts(2);
    out.degradation.open_breakers = texts(2);
    if (coin()) out.degradation.open_breakers.push_back("shard:" + text(4));
    out.degradation.rows_quarantined =
        static_cast<std::size_t>(rng_.uniform_int(0, 1ll << 40));
    out.degradation.tier = static_cast<robust::ConfidenceTier>(below(3));
    return out;
  }

  std::vector<core::RegionResult> results() {
    std::vector<core::RegionResult> out;
    for (std::int64_t n = below(6); n > 0; --n) {
      core::RegionResult result;
      result.region = coin() ? "region_" + std::to_string(below(1000)) : text();
      result.grade = static_cast<core::Grade>(below(5));
      result.high = breakdown(core::QualityLevel::kHigh);
      result.minimum = breakdown(core::QualityLevel::kMinimum);
      out.push_back(std::move(result));
    }
    return out;
  }

  fleet::ShardPayload payload(bool with_ci) {
    fleet::ShardPayload out;
    out.cycle = static_cast<std::uint64_t>(rng_.uniform_int(0, 1ll << 50));
    out.trace_id = text();
    for (std::int64_t n = below(40); n > 0; --n) {
      datasets::AggregateCell cell;
      cell.region = text(6);
      if (coin()) cell.region = std::to_string(below(8)) + "r";
      cell.dataset = coin() ? "ndt" : text(5);
      cell.metric = datasets::kAllMetrics[static_cast<std::size_t>(
          below(static_cast<std::int64_t>(datasets::kAllMetrics.size())))];
      cell.value = finite_number();
      cell.sample_count =
          static_cast<std::size_t>(rng_.uniform_int(0, 1ll << 40));
      if (with_ci && coin()) {
        cell.ci = stats::ConfidenceInterval{finite_number(), finite_number(),
                                            finite_number(), finite_number()};
      }
      out.table.put(std::move(cell));
    }
    out.health.rows_quarantined =
        static_cast<std::size_t>(rng_.uniform_int(0, 1ll << 40));
    out.health.sources_retried = static_cast<std::size_t>(below(100));
    out.health.open_breakers = texts(3);
    return out;
  }

  robust::Checkpoint checkpoint() {
    robust::Checkpoint out;
    out.cycle = static_cast<std::uint64_t>(rng_.uniform_int(1, 1ll << 50));
    out.cycles_attempted =
        static_cast<std::uint64_t>(rng_.uniform_int(0, 1ll << 50));
    out.cycles_failed = static_cast<std::uint64_t>(below(1000));
    out.trace_id = text();
    out.scores_json = coin() ? report::scores_document(results()) : text(64);
    out.tier_c = coin();
    out.tier_c_regions = texts(4);
    return out;
  }

 private:
  util::Rng rng_;
};

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

std::string seed_name(const ::testing::TestParamInfo<std::uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST_P(JsonFuzz, NumbersAndEscapesMatchTheReference) {
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  Gen gen(GetParam());
  for (int i = 0, n = rounds(400) * 5; i < n; ++i) {
    const double value = gen.number();
    ASSERT_EQ(JsonValue(value).dump(), reference::format_number(value))
        << "bits " << std::bit_cast<std::uint64_t>(value);
    const std::string text = gen.text(40);
    ASSERT_EQ(util::json_escape(text), reference::json_escape(text));
  }
}

TEST_P(JsonFuzz, DumpMatchesTheReferenceAndRoundTrips) {
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  Gen gen(GetParam());
  for (int i = 0, n = rounds(400); i < n; ++i) {
    bool finite = true;
    const JsonValue tree = gen.tree(0, finite);
    const std::string compact = tree.dump(0);
    const std::string pretty = tree.dump(2);
    ASSERT_EQ(compact, reference::dump(tree, 0)) << "round " << i;
    ASSERT_EQ(pretty, reference::dump(tree, 2)) << "round " << i;
    if (!finite) continue;  // nan/inf have no JSON spelling to parse back
    for (const std::string* text : {&compact, &pretty}) {
      auto parsed = util::parse_json(*text);
      ASSERT_TRUE(parsed.ok()) << parsed.error().to_string() << "\n" << *text;
      EXPECT_EQ(parsed->dump(0), compact) << "round " << i;
      EXPECT_EQ(parsed->dump(2), pretty) << "round " << i;
    }
  }
}

TEST_P(JsonFuzz, ScoresDocumentMatchesTheTreeDump) {
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  Gen gen(GetParam());
  for (int i = 0, n = rounds(40); i < n; ++i) {
    const std::vector<core::RegionResult> results = gen.results();
    ASSERT_EQ(report::scores_document(results),
              reference::dump(report::to_json(results), 2) + "\n")
        << "round " << i;
  }
}

TEST_P(JsonFuzz, ShardPayloadMatchesTheReferenceAndRoundTripsBitForBit) {
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  Gen gen(GetParam());
  for (int i = 0, n = rounds(40); i < n; ++i) {
    const fleet::ShardPayload payload = gen.payload(/*with_ci=*/i % 2 == 0);
    const std::string wire = fleet::serialize_shard_payload(payload);
    ASSERT_EQ(wire, reference::shard_payload(payload)) << "round " << i;

    auto parsed = fleet::parse_shard_payload(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    EXPECT_EQ(parsed->cycle, payload.cycle);
    EXPECT_EQ(parsed->trace_id, payload.trace_id);
    EXPECT_EQ(parsed->health.rows_quarantined, payload.health.rows_quarantined);
    EXPECT_EQ(parsed->health.sources_retried, payload.health.sources_retried);
    EXPECT_EQ(parsed->health.open_breakers, payload.health.open_breakers);
    const auto& want = payload.table.cells();
    const auto& got = parsed->table.cells();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[c].region, want[c].region);
      EXPECT_EQ(got[c].dataset, want[c].dataset);
      EXPECT_EQ(got[c].metric, want[c].metric);
      EXPECT_EQ(got[c].sample_count, want[c].sample_count);
      EXPECT_TRUE(same_bits(got[c].value, want[c].value)) << got[c].value;
      ASSERT_EQ(got[c].ci.has_value(), want[c].ci.has_value());
      if (want[c].ci) {
        EXPECT_TRUE(same_bits(got[c].ci->point, want[c].ci->point));
        EXPECT_TRUE(same_bits(got[c].ci->lower, want[c].ci->lower));
        EXPECT_TRUE(same_bits(got[c].ci->upper, want[c].ci->upper));
        EXPECT_TRUE(same_bits(got[c].ci->level, want[c].ci->level));
      }
    }
  }
}

TEST_P(JsonFuzz, CheckpointMatchesTheReferenceAndDecodes) {
  SCOPED_TRACE("seed " + std::to_string(GetParam()));
  Gen gen(GetParam());
  for (int i = 0, n = rounds(30); i < n; ++i) {
    const robust::Checkpoint checkpoint = gen.checkpoint();
    const std::string frame = checkpoint.encode();
    ASSERT_EQ(frame, reference::checkpoint_frame(checkpoint)) << "round " << i;

    auto decoded = robust::Checkpoint::decode(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(decoded->cycle, checkpoint.cycle);
    EXPECT_EQ(decoded->cycles_attempted, checkpoint.cycles_attempted);
    EXPECT_EQ(decoded->cycles_failed, checkpoint.cycles_failed);
    EXPECT_EQ(decoded->trace_id, checkpoint.trace_id);
    EXPECT_EQ(decoded->scores_json, checkpoint.scores_json);
    EXPECT_EQ(decoded->tier_c, checkpoint.tier_c);
    EXPECT_EQ(decoded->tier_c_regions, checkpoint.tier_c_regions);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::ValuesIn(kSeeds),
                         seed_name);

}  // namespace
}  // namespace iqb
