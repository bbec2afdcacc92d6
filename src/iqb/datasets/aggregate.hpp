// The aggregation tier: raw records -> per-(region, dataset, metric)
// aggregate values.
//
// The paper's rule (§2): "IQB uses the 95th percentile of a dataset to
// evaluate a metric". For metrics where higher is better (throughput)
// a high percentile of the distribution would be the *best* users'
// experience; IQB's intent is "the value the bulk of users meet or
// exceed", so this tier evaluates the 95th percentile of the *badness*
// direction — equivalently the 5th percentile of throughput and the
// 95th percentile of latency/loss. Both conventions are available via
// AggregationPolicy::orient_to_worst; the default follows the IQB
// intent, and the ablation bench quantifies the difference.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "iqb/datasets/store.hpp"
#include "iqb/stats/bootstrap.hpp"
#include "iqb/stats/percentile.hpp"

namespace iqb::obs {
struct Telemetry;
}
namespace iqb::util {
class ThreadPool;
}

namespace iqb::datasets {

struct AggregationPolicy {
  /// Percentile level in [0,100]; the paper's default is 95.
  double percentile = 95.0;
  stats::QuantileMethod method = stats::QuantileMethod::kLinear;
  /// If true (default), the percentile is taken in the metric's
  /// "badness" direction: p-th percentile of latency/loss, (100-p)-th
  /// of throughput. If false, the raw p-th percentile is used for all
  /// metrics (the literal reading of the paper's sentence).
  bool orient_to_worst = true;
  /// Minimum sample count for a cell to be produced at all.
  std::size_t min_samples = 1;
  /// If > 0, attach a bootstrap confidence interval with this many
  /// resamples (costly; off by default).
  std::size_t bootstrap_resamples = 0;
  double bootstrap_level = 0.95;
  std::uint64_t bootstrap_seed = 7;
  /// Execution width for aggregate() and Pipeline::run: 1 = serial
  /// (the default for library callers), 0 = hardware concurrency,
  /// N = that many threads. Purely an execution knob — results are
  /// byte-identical at every width — so it is not part of the
  /// serialized config; iqbctl/iqbd set it from --threads.
  std::size_t threads = 1;
};

/// One aggregated cell.
struct AggregateCell {
  std::string region;
  std::string dataset;
  Metric metric = Metric::kDownload;
  double value = 0.0;        ///< Aggregated value, canonical units.
  std::size_t sample_count = 0;
  std::optional<stats::ConfidenceInterval> ci;
};

/// Keyed collection of aggregate cells: a flat vector sorted by
/// (region, dataset, metric), so a region's cells are one contiguous
/// run and lookups are binary searches that copy nothing.
///
/// put() appends in O(1) when cells arrive in key order — what
/// aggregate() and the wire parse produce. An out-of-order put also
/// appends and marks the table unsorted; the next read sorts it once
/// (a stable sort keeping the last cell put per key), so unordered
/// input costs O(n log n), never O(n^2). That sort is synchronized:
/// concurrent const reads stay safe, as for any const object.
class AggregateTable {
 public:
  AggregateTable() = default;
  AggregateTable(const AggregateTable& other);
  AggregateTable(AggregateTable&& other) noexcept;
  AggregateTable& operator=(const AggregateTable& other);
  AggregateTable& operator=(AggregateTable&& other) noexcept;
  ~AggregateTable() = default;

  /// Insert or overwrite the cell with this one's key.
  void put(AggregateCell cell);

  /// Lookup; error with kNotFound if the cell is absent.
  util::Result<AggregateCell> get(const std::string& region,
                                  const std::string& dataset,
                                  Metric metric) const;

  /// Borrowing lookup: the cell, or null if absent. Valid until the
  /// table is next modified.
  const AggregateCell* find(std::string_view region, std::string_view dataset,
                            Metric metric) const;

  bool contains(const std::string& region, const std::string& dataset,
                Metric metric) const;

  std::size_t size() const { return sorted().size(); }
  /// Every cell in key order.
  const std::vector<AggregateCell>& cells() const { return sorted(); }
  /// One region's cells in (dataset, metric) order, borrowed (empty if
  /// the region is absent). Valid until the table is next modified.
  std::span<const AggregateCell> region_cells(std::string_view region) const;
  /// Copy of region_cells().
  std::vector<AggregateCell> cells_for_region(const std::string& region) const;
  std::vector<std::string> regions() const;
  std::vector<std::string> datasets() const;

  /// Merge another table; on a key collision the other table's cell
  /// wins. One linear pass over both tables.
  void merge(const AggregateTable& other);

 private:
  /// The cells, sorting them first if an out-of-order put left them
  /// unsorted.
  const std::vector<AggregateCell>& sorted() const;

  mutable std::vector<AggregateCell> cells_;
  mutable std::atomic<bool> sorted_{true};
  mutable std::mutex sort_mutex_;
};

/// Effective percentile level actually evaluated for a metric under a
/// policy (e.g. download with p=95 & orient_to_worst -> 5).
double effective_percentile(const AggregationPolicy& policy,
                            Metric metric) noexcept;

/// Aggregate every (region, dataset, metric) cell present in the
/// store. Cells below min_samples are skipped, never errors — an
/// empty store yields an empty table. `telemetry`, when non-null,
/// receives per-dataset cell/sample counters and a cell-size
/// histogram; the produced table is identical either way.
///
/// Execution: cells are computed from the store's columnar index
/// (built lazily, reused across calls) with selection-based
/// percentiles, fanned across policy.threads workers (see
/// AggregationPolicy::threads), and folded into the table in the
/// deterministic (region, dataset, metric) order — so the table, and
/// everything rendered from it, is byte-identical to the serial scan
/// path at any thread count. `pool`, when non-null, is used instead
/// of spawning a transient pool (Pipeline::run shares one across its
/// stages).
AggregateTable aggregate(const RecordStore& store,
                         const AggregationPolicy& policy = {},
                         obs::Telemetry* telemetry = nullptr,
                         util::ThreadPool* pool = nullptr);

/// Reference implementation: full-scan filtering + sort-based
/// percentiles, one pass per cell — the pre-index semantics, kept as
/// the equivalence oracle for tests and the bench baseline. Produces
/// a table byte-identical to aggregate()'s.
AggregateTable aggregate_scan(const RecordStore& store,
                              const AggregationPolicy& policy = {});

/// Aggregate a single cell (an index lookup, not a scan); error if no
/// samples match.
util::Result<AggregateCell> aggregate_cell(const RecordStore& store,
                                           const std::string& region,
                                           const std::string& dataset,
                                           Metric metric,
                                           const AggregationPolicy& policy = {});

}  // namespace iqb::datasets
