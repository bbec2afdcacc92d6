#include "iqb/datasets/aggregate.hpp"

#include <algorithm>
#include <iterator>
#include <optional>

#include "iqb/obs/telemetry.hpp"
#include "iqb/util/thread_pool.hpp"

namespace iqb::datasets {

using util::ErrorCode;
using util::make_error;
using util::Result;

namespace {

/// Three-way key comparison in the table's (region, dataset, metric)
/// order — std::string's own ordering, field by field.
int compare_key(const AggregateCell& cell, std::string_view region,
                std::string_view dataset, Metric metric) noexcept {
  if (const int order = std::string_view(cell.region).compare(region)) {
    return order;
  }
  if (const int order = std::string_view(cell.dataset).compare(dataset)) {
    return order;
  }
  return static_cast<int>(cell.metric) - static_cast<int>(metric);
}

int compare_key(const AggregateCell& a, const AggregateCell& b) noexcept {
  return compare_key(a, b.region, b.dataset, b.metric);
}

}  // namespace

AggregateTable::AggregateTable(const AggregateTable& other)
    : cells_(other.sorted()) {}

AggregateTable::AggregateTable(AggregateTable&& other) noexcept
    : cells_(std::move(other.cells_)), sorted_(other.sorted_.load()) {
  other.cells_.clear();
  other.sorted_.store(true);
}

AggregateTable& AggregateTable::operator=(const AggregateTable& other) {
  if (this != &other) {
    cells_ = other.sorted();
    sorted_.store(true);
  }
  return *this;
}

AggregateTable& AggregateTable::operator=(AggregateTable&& other) noexcept {
  if (this != &other) {
    cells_ = std::move(other.cells_);
    sorted_.store(other.sorted_.load());
    other.cells_.clear();
    other.sorted_.store(true);
  }
  return *this;
}

void AggregateTable::put(AggregateCell cell) {
  if (!cells_.empty() && sorted_.load()) {
    const int order = compare_key(cells_.back(), cell);
    if (order == 0) {
      cells_.back() = std::move(cell);
      return;
    }
    if (order > 0) sorted_.store(false);
  }
  cells_.push_back(std::move(cell));
}

const std::vector<AggregateCell>& AggregateTable::sorted() const {
  if (sorted_.load()) return cells_;
  std::lock_guard<std::mutex> lock(sort_mutex_);
  if (sorted_.load()) return cells_;
  std::stable_sort(cells_.begin(), cells_.end(),
                   [](const AggregateCell& a, const AggregateCell& b) {
                     return compare_key(a, b) < 0;
                   });
  // The stable sort kept each key's cells in put order: keep the last.
  auto out = cells_.begin();
  for (auto it = cells_.begin(); it != cells_.end();) {
    auto last = it;
    while (last + 1 != cells_.end() && compare_key(*it, *(last + 1)) == 0) {
      ++last;
    }
    if (out != last) *out = std::move(*last);
    ++out;
    it = last + 1;
  }
  cells_.erase(out, cells_.end());
  sorted_.store(true);
  return cells_;
}

const AggregateCell* AggregateTable::find(std::string_view region,
                                          std::string_view dataset,
                                          Metric metric) const {
  const std::span<const AggregateCell> cells = region_cells(region);
  const auto it = std::partition_point(
      cells.begin(), cells.end(), [&](const AggregateCell& cell) {
        return compare_key(cell, region, dataset, metric) < 0;
      });
  if (it == cells.end() || compare_key(*it, region, dataset, metric) != 0) {
    return nullptr;
  }
  return &*it;
}

Result<AggregateCell> AggregateTable::get(const std::string& region,
                                          const std::string& dataset,
                                          Metric metric) const {
  const AggregateCell* cell = find(region, dataset, metric);
  if (!cell) {
    return make_error(ErrorCode::kNotFound,
                      "no aggregate for region='" + region + "' dataset='" +
                          dataset + "' metric='" +
                          std::string(metric_name(metric)) + "'");
  }
  return *cell;
}

bool AggregateTable::contains(const std::string& region,
                              const std::string& dataset,
                              Metric metric) const {
  return find(region, dataset, metric) != nullptr;
}

std::span<const AggregateCell> AggregateTable::region_cells(
    std::string_view region) const {
  const std::vector<AggregateCell>& cells = sorted();
  // Keys sort region-major, so the region's cells are one contiguous
  // run.
  const auto first = std::partition_point(
      cells.begin(), cells.end(),
      [&](const AggregateCell& cell) { return cell.region < region; });
  const auto last = std::partition_point(
      first, cells.end(),
      [&](const AggregateCell& cell) { return cell.region == region; });
  return {first, last};
}

std::vector<AggregateCell> AggregateTable::cells_for_region(
    const std::string& region) const {
  const std::span<const AggregateCell> cells = region_cells(region);
  return {cells.begin(), cells.end()};
}

std::vector<std::string> AggregateTable::regions() const {
  std::vector<std::string> out;
  for (const AggregateCell& cell : sorted()) {
    if (out.empty() || out.back() != cell.region) out.push_back(cell.region);
  }
  return out;
}

std::vector<std::string> AggregateTable::datasets() const {
  std::vector<std::string> out;
  for (const AggregateCell& cell : sorted()) out.push_back(cell.dataset);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void AggregateTable::merge(const AggregateTable& other) {
  if (&other == this) return;  // every key collides with itself
  const std::vector<AggregateCell>& theirs = other.sorted();
  const std::vector<AggregateCell>& mine = sorted();
  if (theirs.empty()) return;
  if (mine.empty() || compare_key(mine.back(), theirs.front()) < 0) {
    cells_.insert(cells_.end(), theirs.begin(), theirs.end());
    return;
  }
  std::vector<AggregateCell> merged;
  merged.reserve(mine.size() + theirs.size());
  auto a = cells_.begin();
  auto b = theirs.begin();
  while (a != cells_.end() && b != theirs.end()) {
    const int order = compare_key(*a, *b);
    if (order < 0) {
      merged.push_back(std::move(*a++));
      continue;
    }
    if (order == 0) ++a;  // the other table wins the collision
    merged.push_back(*b++);
  }
  merged.insert(merged.end(), std::make_move_iterator(a),
                std::make_move_iterator(cells_.end()));
  merged.insert(merged.end(), b, theirs.end());
  cells_ = std::move(merged);
}

double effective_percentile(const AggregationPolicy& policy,
                            Metric metric) noexcept {
  if (policy.orient_to_worst && metric_higher_is_better(metric)) {
    return 100.0 - policy.percentile;
  }
  return policy.percentile;
}

namespace {

/// One cell from an indexed value column. `values` is the group's
/// metric column in store order — the same sequence the scan path's
/// metric_values() would produce, so the percentile, and the
/// bootstrap resampling (which is order-sensitive through the seeded
/// Rng), match the scan path bit for bit.
Result<AggregateCell> cell_from_column(const std::string& region,
                                       const std::string& dataset,
                                       Metric metric,
                                       const std::vector<double>& values,
                                       const AggregationPolicy& policy) {
  if (values.size() < std::max<std::size_t>(policy.min_samples, 1)) {
    return make_error(ErrorCode::kEmptyInput,
                      "insufficient samples for region='" + region +
                          "' dataset='" + dataset + "' metric='" +
                          std::string(metric_name(metric)) + "'");
  }
  const double p = effective_percentile(policy, metric);
  // Selection scratch copy: the pristine column stays in store order
  // for the bootstrap below.
  std::vector<double> scratch(values);
  auto value = stats::percentile_select(scratch, p, policy.method);
  if (!value.ok()) return value.error();

  AggregateCell cell;
  cell.region = region;
  cell.dataset = dataset;
  cell.metric = metric;
  cell.value = value.value();
  cell.sample_count = values.size();

  if (policy.bootstrap_resamples > 0) {
    util::Rng rng(policy.bootstrap_seed);
    auto ci = stats::bootstrap_percentile_ci(values, p, rng,
                                             policy.bootstrap_resamples,
                                             policy.bootstrap_level);
    if (ci.ok()) cell.ci = ci.value();
  }
  return cell;
}

/// Per-produced-cell telemetry, identical between execution modes
/// because it is always emitted from the fold loop in cell order.
void record_cell_telemetry(obs::Telemetry* telemetry,
                           const AggregateCell& cell) {
  if (!telemetry) return;
  const obs::LabelSet labels{{"dataset", cell.dataset}};
  obs::add_counter(telemetry, "iqb_aggregate_cells_total",
                   "Aggregate cells produced", labels);
  obs::add_counter(telemetry, "iqb_aggregate_samples_total",
                   "Raw samples folded into aggregate cells", labels,
                   static_cast<double>(cell.sample_count));
  obs::observe_histogram(telemetry, "iqb_aggregate_cell_samples",
                         "Samples per aggregate cell", obs::size_buckets(),
                         labels, static_cast<double>(cell.sample_count));
}

}  // namespace

AggregateTable aggregate(const RecordStore& store,
                         const AggregationPolicy& policy,
                         obs::Telemetry* telemetry, util::ThreadPool* pool) {
  AggregateTable table;

  const bool building = !store.index_ready();
  const StoreIndex* index = nullptr;
  {
    obs::ScopedSpan build_span(
        building && telemetry ? telemetry->tracer : nullptr,
        "aggregate.index_build");
    index = &store.index();
    if (building) {
      obs::add_counter(telemetry, "iqb_index_builds_total",
                       "Columnar store indexes built");
      build_span.set_attribute("records",
                               std::to_string(index->record_count()));
    }
  }

  // Task list in deterministic (region, dataset, metric) order —
  // groups() is sorted by name, kAllMetrics is fixed.
  struct CellTask {
    const StoreIndex::Group* group;
    Metric metric;
  };
  std::vector<CellTask> tasks;
  tasks.reserve(index->groups().size() * kAllMetrics.size());
  for (const StoreIndex::Group& group : index->groups()) {
    for (Metric metric : kAllMetrics) tasks.push_back({&group, metric});
  }

  std::vector<std::optional<AggregateCell>> slots(tasks.size());
  auto compute = [&](std::size_t i) {
    const CellTask& task = tasks[i];
    auto cell = cell_from_column(
        index->region_symbols().name(task.group->region_id),
        index->dataset_symbols().name(task.group->dataset_id), task.metric,
        task.group->column(task.metric), policy);
    if (cell.ok()) slots[i] = std::move(cell).value();
  };

  const std::size_t threads = util::ThreadPool::resolve_threads(policy.threads);
  if (threads > 1 && tasks.size() > 1) {
    std::optional<util::ThreadPool> local_pool;
    util::ThreadPool& executor = pool ? *pool : local_pool.emplace(threads);
    obs::ScopedSpan parallel_span(telemetry ? telemetry->tracer : nullptr,
                                  "aggregate.parallel");
    parallel_span.set_attribute("tasks", std::to_string(tasks.size()));
    parallel_span.set_attribute("threads",
                                std::to_string(executor.thread_count()));
    executor.parallel_for(tasks.size(), compute);
    obs::add_counter(telemetry, "iqb_parallel_tasks_total",
                     "Tasks fanned out to the thread pool",
                     {{"stage", "aggregate"}},
                     static_cast<double>(tasks.size()));
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) compute(i);
  }

  // Deterministic fold: telemetry and table insertion happen in task
  // order regardless of which worker computed each slot.
  for (auto& slot : slots) {
    if (!slot) continue;
    record_cell_telemetry(telemetry, *slot);
    table.put(std::move(*slot));
  }
  return table;
}

AggregateTable aggregate_scan(const RecordStore& store,
                              const AggregationPolicy& policy) {
  AggregateTable table;
  for (const std::string& region : store.regions()) {
    for (const std::string& dataset : store.dataset_names()) {
      for (Metric metric : kAllMetrics) {
        RecordFilter filter;
        filter.region = region;
        filter.dataset = dataset;
        std::vector<double> values = store.metric_values(metric, filter);
        if (values.size() < std::max<std::size_t>(policy.min_samples, 1)) {
          continue;
        }
        const double p = effective_percentile(policy, metric);
        auto value = stats::percentile(values, p, policy.method);
        if (!value.ok()) continue;

        AggregateCell cell;
        cell.region = region;
        cell.dataset = dataset;
        cell.metric = metric;
        cell.value = value.value();
        cell.sample_count = values.size();
        if (policy.bootstrap_resamples > 0) {
          util::Rng rng(policy.bootstrap_seed);
          auto ci = stats::bootstrap_percentile_ci(values, p, rng,
                                                   policy.bootstrap_resamples,
                                                   policy.bootstrap_level);
          if (ci.ok()) cell.ci = ci.value();
        }
        table.put(std::move(cell));
      }
    }
  }
  return table;
}

Result<AggregateCell> aggregate_cell(const RecordStore& store,
                                     const std::string& region,
                                     const std::string& dataset, Metric metric,
                                     const AggregationPolicy& policy) {
  static const std::vector<double> kNoValues;
  const StoreIndex::Group* group = store.index().find(region, dataset);
  const std::vector<double>& values = group ? group->column(metric) : kNoValues;
  return cell_from_column(region, dataset, metric, values, policy);
}

}  // namespace iqb::datasets
