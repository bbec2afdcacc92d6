#include "iqb/datasets/store.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace iqb::datasets {

bool RecordFilter::matches(const MeasurementRecord& record) const noexcept {
  if (dataset && record.dataset != *dataset) return false;
  if (region && record.region != *region) return false;
  if (isp && record.isp != *isp) return false;
  if (from && record.timestamp < *from) return false;
  if (to && !(record.timestamp < *to)) return false;
  return true;
}

RecordStore::RecordStore(const RecordStore& other) : records_(other.records_) {
  std::lock_guard<std::mutex> lock(other.index_mutex_);
  index_ = other.index_;
}

RecordStore& RecordStore::operator=(const RecordStore& other) {
  if (this == &other) return *this;
  std::shared_ptr<const StoreIndex> other_index;
  {
    std::lock_guard<std::mutex> lock(other.index_mutex_);
    other_index = other.index_;
  }
  records_ = other.records_;
  std::lock_guard<std::mutex> lock(index_mutex_);
  index_ = std::move(other_index);
  return *this;
}

RecordStore::RecordStore(RecordStore&& other) noexcept
    : records_(std::move(other.records_)), index_(std::move(other.index_)) {
  other.records_.clear();
}

RecordStore& RecordStore::operator=(RecordStore&& other) noexcept {
  if (this == &other) return *this;
  records_ = std::move(other.records_);
  other.records_.clear();
  std::lock_guard<std::mutex> lock(index_mutex_);
  index_ = std::move(other.index_);
  return *this;
}

util::Result<void> RecordStore::add(MeasurementRecord record) {
  if (!record.is_valid()) {
    return util::make_error(util::ErrorCode::kInvalidArgument,
                            "record has out-of-range metric values");
  }
  records_.push_back(std::move(record));
  invalidate_index();
  return util::Result<void>::success();
}

std::size_t RecordStore::add_all(std::vector<MeasurementRecord> records) {
  const std::size_t skipped =
      std::erase_if(records, [](const MeasurementRecord& record) {
        return !record.is_valid();
      });
  if (records_.empty()) {
    records_ = std::move(records);
  } else {
    records_.insert(records_.end(), std::make_move_iterator(records.begin()),
                    std::make_move_iterator(records.end()));
  }
  invalidate_index();
  return skipped;
}

std::vector<MeasurementRecord> RecordStore::release() && {
  invalidate_index();
  return std::exchange(records_, {});
}

std::vector<MeasurementRecord> RecordStore::query(
    const RecordFilter& filter) const {
  std::vector<MeasurementRecord> out;
  for (const auto& record : records_) {
    if (filter.matches(record)) out.push_back(record);
  }
  return out;
}

std::vector<double> RecordStore::metric_values(Metric metric,
                                               const RecordFilter& filter) const {
  std::vector<double> out;
  for (const auto& record : records_) {
    if (!filter.matches(record)) continue;
    if (auto v = record.value(metric)) out.push_back(*v);
  }
  return out;
}

const StoreIndex& RecordStore::index() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (!index_) {
    index_ = std::make_shared<const StoreIndex>(StoreIndex::build(records_));
  }
  return *index_;
}

bool RecordStore::index_ready() const noexcept {
  std::lock_guard<std::mutex> lock(index_mutex_);
  return index_ != nullptr;
}

void RecordStore::invalidate_index() noexcept {
  std::lock_guard<std::mutex> lock(index_mutex_);
  index_.reset();
}

std::vector<std::string> RecordStore::regions() const {
  return index().regions();
}

std::vector<std::string> RecordStore::dataset_names() const {
  return index().datasets();
}

std::vector<std::string> RecordStore::isps() const { return index().isps(); }

std::map<std::string, std::vector<MeasurementRecord>> RecordStore::by_region(
    const RecordFilter& filter) const {
  std::map<std::string, std::vector<MeasurementRecord>> groups;
  for (const auto& [region, refs] : by_region_refs(filter)) {
    std::vector<MeasurementRecord>& records = groups[region];
    records.reserve(refs.size());
    for (const MeasurementRecord* record : refs) records.push_back(*record);
  }
  return groups;
}

std::map<std::string, std::vector<const MeasurementRecord*>>
RecordStore::by_region_refs(const RecordFilter& filter) const {
  std::map<std::string, std::vector<const MeasurementRecord*>> groups;
  for (const auto& record : records_) {
    if (filter.matches(record)) groups[record.region].push_back(&record);
  }
  return groups;
}

void RecordStore::merge(const RecordStore& other) {
  records_.insert(records_.end(), other.records_.begin(), other.records_.end());
  invalidate_index();
}

RecordStore rekey_by_region_isp(RecordStore store, char separator) {
  std::vector<MeasurementRecord> records = std::move(store).release();
  for (MeasurementRecord& record : records) {
    record.region += separator;
    record.region += record.isp;
  }
  return RecordStore(std::move(records));
}

}  // namespace iqb::datasets
