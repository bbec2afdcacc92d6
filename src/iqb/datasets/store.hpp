// In-memory record store with filtering, grouping and column
// extraction — the query layer between raw measurement records and
// the aggregation tier.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "iqb/datasets/index.hpp"
#include "iqb/datasets/record.hpp"

namespace iqb::datasets {

/// Declarative record filter; empty/unset members match everything.
struct RecordFilter {
  std::optional<std::string> dataset;
  std::optional<std::string> region;
  std::optional<std::string> isp;
  std::optional<util::Timestamp> from;  ///< Inclusive.
  std::optional<util::Timestamp> to;    ///< Exclusive.

  bool matches(const MeasurementRecord& record) const noexcept;
};

class RecordStore {
 public:
  RecordStore() = default;
  explicit RecordStore(std::vector<MeasurementRecord> records)
      : records_(std::move(records)) {}

  // The cached index is immutable and derived purely from the
  // records, so copies share it and moves carry it; the index mutex
  // itself is per-store.
  RecordStore(const RecordStore& other);
  RecordStore& operator=(const RecordStore& other);
  RecordStore(RecordStore&& other) noexcept;
  RecordStore& operator=(RecordStore&& other) noexcept;

  /// Append one record. Invalid records (non-finite / out-of-range
  /// metric values) are rejected.
  util::Result<void> add(MeasurementRecord record);

  /// Append the valid records in their incoming order, skipping the
  /// invalid ones; returns how many were skipped. The invalid records
  /// are erased from `records` in place, then an empty store adopts
  /// its buffer and a non-empty one appends it in one range insert, so
  /// no row is moved one at a time.
  std::size_t add_all(std::vector<MeasurementRecord> records);

  /// Hand the records back and leave the store empty, so a caller can
  /// filter or rewrite loaded rows in place instead of copying them.
  std::vector<MeasurementRecord> release() &&;

  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }
  std::span<const MeasurementRecord> records() const noexcept { return records_; }

  /// Records matching a filter (copies; stores are small relative to
  /// simulation cost, and callers usually aggregate immediately).
  std::vector<MeasurementRecord> query(const RecordFilter& filter) const;

  /// Present values of one metric across matching records, in
  /// canonical units. Records missing the metric are skipped.
  std::vector<double> metric_values(Metric metric,
                                    const RecordFilter& filter = {}) const;

  /// Distinct values, sorted, for iteration in deterministic order.
  /// Served from the columnar index (one O(N) build, then lookups).
  std::vector<std::string> regions() const;
  std::vector<std::string> dataset_names() const;
  std::vector<std::string> isps() const;

  /// Group matching records by region name (deep copies; prefer
  /// by_region_refs when the caller only reads).
  std::map<std::string, std::vector<MeasurementRecord>> by_region(
      const RecordFilter& filter = {}) const;

  /// As by_region, but non-owning pointers into the store — no record
  /// copies. Pointers are invalidated by any mutation of the store.
  std::map<std::string, std::vector<const MeasurementRecord*>> by_region_refs(
      const RecordFilter& filter = {}) const;

  /// Merge another store's records into this one.
  void merge(const RecordStore& other);

  void clear() noexcept {
    records_.clear();
    invalidate_index();
  }

  /// Columnar index over the current records (see index.hpp). Built
  /// lazily in one O(N) pass on first use and cached until the next
  /// mutation. Safe to call from several reader threads; the returned
  /// reference stays valid until the store is mutated or destroyed.
  const StoreIndex& index() const;

  /// True if index() would return a cached index without building.
  bool index_ready() const noexcept;

 private:
  void invalidate_index() noexcept;

  std::vector<MeasurementRecord> records_;
  mutable std::mutex index_mutex_;
  mutable std::shared_ptr<const StoreIndex> index_;
};

/// The store with region keys replaced by "region<sep>isp", so the
/// region-keyed aggregation/scoring pipeline produces per-ISP results
/// within each region ("which provider is holding this region back?")
/// without any changes to the scoring tier. Pass an rvalue to rewrite
/// the rows in place; an lvalue argument is copied and left untouched.
RecordStore rekey_by_region_isp(RecordStore store, char separator = '/');

}  // namespace iqb::datasets
