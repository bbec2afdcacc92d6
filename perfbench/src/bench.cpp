#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "iqb/datasets/record_io.hpp"
#include "iqb/obs/span_buffer.hpp"
#include "iqb/util/log.hpp"

namespace perfbench {

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct) note("CHECK FAILED: " + what);
  correct = false;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string digest(std::string_view bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%08x",
                static_cast<unsigned>(iqb::datasets::iqbr_crc32c(bytes)));
  return std::string(buffer) + "-" + std::to_string(bytes.size());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

void note(const std::string& text) {
  std::cout << "# " << text << "\n" << std::flush;
}

void note_samples(const std::string& label, const std::vector<double>& ms) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                ": n=%zu min=%.3f p10=%.3f p50=%.3f p90=%.3f ms", ms.size(),
                percentile(ms, 0.0), percentile(ms, 0.1), median(ms),
                percentile(ms, 0.9));
  note(label + buffer);
}

iqb::obs::Tracer& Ledger::begin_trace(const std::string& trace_id) {
  tracers_.push_back(std::make_unique<iqb::obs::Tracer>());
  tracers_.back()->set_trace_id(trace_id);
  return *tracers_.back();
}

Spans::Spans(iqb::obs::Tracer* tracer, const char* root_name)
    : tracer_(tracer),
      root_(tracer ? tracer->begin_span_at(root_name, iqb::obs::Tracer::kNoSpan)
                   : iqb::obs::Tracer::kNoSpan) {}

Spans::~Spans() {
  if (tracer_) tracer_->end_span(root_);
}

std::size_t Spans::begin(const char* name) { return begin_under(name, root_); }

std::size_t Spans::begin_under(const char* name, std::size_t parent) {
  return tracer_ ? tracer_->begin_span_at(name, parent)
                 : iqb::obs::Tracer::kNoSpan;
}

void Spans::end(std::size_t id) {
  if (tracer_) tracer_->end_span(id);
}

namespace {

// Self time of each span of one tracer, ms: its duration minus the
// part of it that its direct children cover. Children may overlap
// (one thread per shard), so the covered part is their union.
std::vector<double> self_times(
    const std::vector<iqb::obs::Tracer::SpanRecord>& spans) {
  using Interval = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const auto& span : spans) {
    if (span.ended && span.parent < spans.size()) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_ns = 0, reach = 0;
    for (const auto& [start, end] : covered) {
      const std::uint64_t from = std::max(start, reach);
      if (end > from) union_ns += end - from;
      reach = std::max(reach, end);
    }
    self[i] = (static_cast<double>(spans[i].duration_ns()) -
               static_cast<double>(union_ns)) * 1e-6;
  }
  return self;
}

}  // namespace

std::vector<double> Ledger::self_ms(const std::string& name) const {
  std::vector<double> out;
  for (const auto& tracer : tracers_) {
    const auto spans = tracer->spans();
    const auto self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name && spans[i].ended) out.push_back(self[i]);
    }
  }
  return out;
}

std::vector<double> Ledger::self_ms_per_trace(const std::string& name) const {
  std::vector<double> out;
  for (const auto& tracer : tracers_) {
    const auto spans = tracer->spans();
    const auto self = self_times(spans);
    double sum = 0.0;
    bool seen = false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name && spans[i].ended) {
        sum += self[i];
        seen = true;
      }
    }
    if (seen) out.push_back(sum);
  }
  return out;
}

double Ledger::median_per_trace(const std::string& name) const {
  return median(self_ms_per_trace(name));
}

double Ledger::median_critical(const std::string& lane,
                               const std::string& name) const {
  std::vector<double> out;
  for (const auto& tracer : tracers_) {
    const auto spans = tracer->spans();
    std::size_t longest = iqb::obs::Tracer::kNoSpan;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == lane && spans[i].ended &&
          (longest == iqb::obs::Tracer::kNoSpan ||
           spans[i].duration_ns() > spans[longest].duration_ns())) {
        longest = i;
      }
    }
    if (longest == iqb::obs::Tracer::kNoSpan) continue;
    const auto self = self_times(spans);
    double sum = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name && spans[i].parent == longest) sum += self[i];
    }
    out.push_back(sum);
  }
  return median(out);
}

void Ledger::write_tracez(const std::string& path) const {
  std::size_t total = 0;
  for (const auto& tracer : tracers_) total += tracer->span_count();
  iqb::obs::SpanRingBuffer buffer(total);
  for (const auto& tracer : tracers_) buffer.ingest(*tracer);
  write_file(path, iqb::obs::tracez_to_json(buffer).dump(2) + "\n");
}

void redirect_logs(const std::string& path) {
  auto file = std::make_shared<std::ofstream>(path, std::ios::app);
  iqb::util::set_log_sink(
      [file](iqb::util::LogLevel, std::string_view line) {
        *file << line << '\n';
      });
}

}  // namespace perfbench
