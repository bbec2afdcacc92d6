#include "iqb/stats/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "iqb/util/strings.hpp"

namespace iqb::stats {

using util::ErrorCode;
using util::make_error;
using util::Result;

Result<Histogram> Histogram::linear(double lo, double hi, std::size_t bins) {
  if (!(lo < hi) || bins == 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "histogram: require lo < hi and bins > 0");
  }
  Histogram h;
  h.log_scale_ = false;
  h.edges_.resize(bins + 1);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (std::size_t i = 0; i <= bins; ++i) {
    h.edges_[i] = lo + width * static_cast<double>(i);
  }
  h.edges_.back() = hi;  // avoid accumulation drift at the top edge
  h.counts_.assign(bins, 0);
  return h;
}

Result<Histogram> Histogram::logarithmic(double lo, double hi, std::size_t bins) {
  if (!(lo > 0.0) || !(lo < hi) || bins == 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "histogram: require 0 < lo < hi and bins > 0");
  }
  Histogram h;
  h.log_scale_ = true;
  h.edges_.resize(bins + 1);
  const double log_lo = std::log(lo);
  const double log_step = (std::log(hi) - log_lo) / static_cast<double>(bins);
  for (std::size_t i = 0; i <= bins; ++i) {
    h.edges_[i] = std::exp(log_lo + log_step * static_cast<double>(i));
  }
  h.edges_.front() = lo;
  h.edges_.back() = hi;
  h.counts_.assign(bins, 0);
  return h;
}

std::size_t Histogram::bin_index(double x) const noexcept {
  // Binary search over edges; callers have already range-checked.
  auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  return static_cast<std::size_t>(std::distance(edges_.begin(), it)) - 1;
}

void Histogram::add(double x) noexcept { add_n(x, 1); }

void Histogram::add_n(double x, std::uint64_t n) noexcept {
  total_ += n;
  if (!(x >= edges_.front())) {  // also catches NaN
    underflow_ += n;
    return;
  }
  if (x >= edges_.back()) {
    overflow_ += n;
    return;
  }
  counts_[bin_index(x)] += n;
}

Result<double> Histogram::quantile(double q) const {
  if (total_ == 0) {
    return make_error(ErrorCode::kEmptyInput, "histogram quantile: empty");
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cumulative = static_cast<double>(underflow_);
  if (target <= cumulative) return edges_.front();
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double t = (target - cumulative) / static_cast<double>(counts_[i]);
      return edges_[i] + t * (edges_[i + 1] - edges_[i]);
    }
    cumulative = next;
  }
  return edges_.back();
}

Result<void> Histogram::merge(const Histogram& other) {
  if (other.edges_ != edges_ || other.log_scale_ != log_scale_) {
    return make_error(ErrorCode::kInvalidArgument,
                      "histogram merge: incompatible binning");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  return Result<void>::success();
}

std::string Histogram::to_ascii(std::size_t max_width) const {
  std::uint64_t peak = 1;
  for (std::uint64_t c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar_len = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(max_width));
    out.append("[")
        .append(util::format_fixed(edges_[i], 1))
        .append(", ")
        .append(util::format_fixed(edges_[i + 1], 1))
        .append(") ")
        .append(bar_len, '#')
        .append(" ")
        .append(std::to_string(counts_[i]))
        .append("\n");
  }
  return out;
}

}  // namespace iqb::stats
