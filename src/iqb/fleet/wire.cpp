#include "iqb/fleet/wire.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "iqb/util/json.hpp"

namespace iqb::fleet {

namespace {

using util::JsonValue;

/// One cell object, members in key order (what a JsonObject would
/// hold: ci, dataset, metric, region, samples, value).
void write_cell(util::JsonWriter& writer, const datasets::AggregateCell& cell) {
  writer.begin_object();
  if (cell.ci) {
    writer.key("ci").begin_object();
    writer.key("level").value(cell.ci->level);
    writer.key("lower").value(cell.ci->lower);
    writer.key("point").value(cell.ci->point);
    writer.key("upper").value(cell.ci->upper);
    writer.end_object();
  }
  writer.key("dataset").value(cell.dataset);
  writer.key("metric").value(datasets::metric_name(cell.metric));
  writer.key("region").value(cell.region);
  writer.key("samples").value(static_cast<std::int64_t>(cell.sample_count));
  writer.key("value").value(cell.value);
  writer.end_object();
}

util::Result<datasets::AggregateCell> cell_from_json(const JsonValue& value) {
  datasets::AggregateCell cell;
  auto region = value.get_string("region");
  if (!region.ok()) return region.error();
  cell.region = std::move(region).value();
  auto dataset = value.get_string("dataset");
  if (!dataset.ok()) return dataset.error();
  cell.dataset = std::move(dataset).value();
  auto metric_text = value.get_string("metric");
  if (!metric_text.ok()) return metric_text.error();
  auto metric = datasets::metric_from_name(metric_text.value());
  if (!metric.ok()) return metric.error();
  cell.metric = metric.value();
  auto cell_value = value.get_number("value");
  if (!cell_value.ok()) return cell_value.error();
  if (!std::isfinite(cell_value.value())) {
    return util::make_error(util::ErrorCode::kParseError,
                            "non-finite aggregate value for " + cell.region);
  }
  cell.value = cell_value.value();
  auto samples = value.get_number("samples");
  if (!samples.ok()) return samples.error();
  if (samples.value() < 0) {
    return util::make_error(util::ErrorCode::kParseError,
                            "negative sample count for " + cell.region);
  }
  cell.sample_count = static_cast<std::size_t>(samples.value());
  if (const JsonValue* ci_value = value.find("ci")) {
    if (!ci_value->is_object()) return value.get_object("ci").error();
    stats::ConfidenceInterval interval;
    auto point = ci_value->get_number("point");
    auto lower = ci_value->get_number("lower");
    auto upper = ci_value->get_number("upper");
    auto level = ci_value->get_number("level");
    if (!point.ok() || !lower.ok() || !upper.ok() || !level.ok()) {
      return util::make_error(util::ErrorCode::kParseError,
                              "malformed confidence interval for " +
                                  cell.region);
    }
    interval.point = point.value();
    interval.lower = lower.value();
    interval.upper = upper.value();
    interval.level = level.value();
    cell.ci = interval;
  }
  return cell;
}

}  // namespace

std::string serialize_shard_payload(const ShardPayload& payload) {
  // Members in key order: cells, cycle, health, trace, version.
  std::string out;
  util::JsonWriter writer(out);
  writer.begin_object();
  writer.key("cells").begin_array();
  for (const datasets::AggregateCell& cell : payload.table.cells()) {
    write_cell(writer, cell);
  }
  writer.end_array();
  writer.key("cycle").value(static_cast<std::int64_t>(payload.cycle));
  writer.key("health").begin_object();
  writer.key("open_breakers").begin_array();
  for (const std::string& breaker : payload.health.open_breakers) {
    writer.value(breaker);
  }
  writer.end_array();
  writer.key("rows_quarantined")
      .value(static_cast<std::int64_t>(payload.health.rows_quarantined));
  writer.key("sources_retried")
      .value(static_cast<std::int64_t>(payload.health.sources_retried));
  writer.end_object();
  writer.key("trace").value(payload.trace_id);
  writer.key("version").value(static_cast<std::int64_t>(payload.version));
  writer.end_object();
  out.push_back('\n');
  return out;
}

util::Result<ShardPayload> parse_shard_payload(std::string_view text) {
  auto parsed = util::parse_json(text);
  if (!parsed.ok()) return parsed.error();
  const JsonValue& root = parsed.value();

  auto version = root.get_number("version");
  if (!version.ok()) return version.error();
  if (version.value() != static_cast<double>(kWireVersion)) {
    return util::make_error(
        util::ErrorCode::kParseError,
        "unsupported shard payload version " +
            std::to_string(static_cast<std::int64_t>(version.value())) +
            " (this coordinator speaks " + std::to_string(kWireVersion) +
            ")");
  }

  ShardPayload payload;
  payload.version = kWireVersion;
  auto cycle = root.get_number("cycle");
  if (!cycle.ok()) return cycle.error();
  if (cycle.value() < 0) {
    return util::make_error(util::ErrorCode::kParseError,
                            "negative shard cycle");
  }
  payload.cycle = static_cast<std::uint64_t>(cycle.value());
  auto trace = root.get_string("trace");
  if (!trace.ok()) return trace.error();
  payload.trace_id = std::move(trace).value();

  // Subtrees are read in place; the checked getters run only to word
  // the error.
  const JsonValue* cells = root.find("cells");
  if (!cells || !cells->is_array()) return root.get_array("cells").error();
  for (const JsonValue& cell_value : cells->as_array()) {
    auto cell = cell_from_json(cell_value);
    if (!cell.ok()) return cell.error();
    payload.table.put(std::move(cell).value());
  }

  const JsonValue* health = root.find("health");
  if (!health || !health->is_object()) {
    return root.get_object("health").error();
  }
  auto quarantined = health->get_number("rows_quarantined");
  if (!quarantined.ok()) return quarantined.error();
  payload.health.rows_quarantined =
      static_cast<std::size_t>(std::max(quarantined.value(), 0.0));
  auto retried = health->get_number("sources_retried");
  if (!retried.ok()) return retried.error();
  payload.health.sources_retried =
      static_cast<std::size_t>(std::max(retried.value(), 0.0));
  const JsonValue* breakers = health->find("open_breakers");
  if (!breakers || !breakers->is_array()) {
    return health->get_array("open_breakers").error();
  }
  for (const JsonValue& breaker : breakers->as_array()) {
    if (!breaker.is_string()) {
      return util::make_error(util::ErrorCode::kParseError,
                              "open_breakers entries must be strings");
    }
    payload.health.open_breakers.push_back(breaker.as_string());
  }
  return payload;
}

}  // namespace iqb::fleet
