// Shared plumbing for the IQB chain benchmark: options, clocks,
// summary statistics, the span ledger behind the per-layer metrics,
// and the result line every workload ends with.
//
// Each workload (campaign.cpp, rescore.cpp, fleet.cpp) generates its
// inputs from the seed, sets the program up several times, measures
// for the requested seconds, checks every output against an oracle,
// and fills a Result. With tracing off the Result carries the
// end-to-end metrics; with tracing on, the per-layer metrics derived
// from spans the benchmark records around the program's public calls.
// Metric names and units match BENCHMARK.json at the repository root.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "iqb/obs/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and one set-up, for the benchmark's own tests.
  bool smoke = false;
  /// Fresh directory for generated inputs, state dirs and logs.
  std::string workdir;
  /// Where the traced run writes its /tracez document.
  std::string trace_out;
  /// Recorded digest of the campaign's records CSV for this seed.
  std::string expect_digest;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Record a failed output check: the run is reported incorrect.
  void check(bool ok, const std::string& what);
};

/// Seconds on the steady clock.
double now_s();
/// CPU seconds consumed by the calling thread.
double thread_cpu_s();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1).
double percentile(std::vector<double> values, double q);

/// Content digest "<crc32c hex>-<byte count>".
std::string digest(std::string_view bytes);
std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);

/// Informational line on stdout ("# ..."); never the last line.
void note(const std::string& text);
/// "<label>: n=N min=.. p10=.. p50=.. p90=.. ms" as a note.
void note_samples(const std::string& label, const std::vector<double>& ms);

/// Spans the benchmark records around the program's public calls, one
/// obs::Tracer per trace (session, cycle or gather), kept in memory
/// and written out at exit as a /tracez document.
class Ledger {
 public:
  iqb::obs::Tracer& begin_trace(const std::string& trace_id);

  /// Self time (duration minus the part covered by child spans) of
  /// every span with this name, ms, in begin order.
  std::vector<double> self_ms(const std::string& name) const;
  /// Per trace that holds spans of this name: their summed self time.
  std::vector<double> self_ms_per_trace(const std::string& name) const;
  /// Median of self_ms_per_trace; 0 when no trace holds the name.
  double median_per_trace(const std::string& name) const;
  /// Per trace: the self time of the spans named `name` under the
  /// longest span named `lane` — the critical path when lanes run
  /// concurrently. Median over traces; 0 when no trace holds a lane.
  double median_critical(const std::string& lane, const std::string& name) const;

  void write_tracez(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<iqb::obs::Tracer>> tracers_;
};

/// Child spans under one root span of a tracer; with a null tracer
/// every call is a no-op. The root ends when this object does.
class Spans {
 public:
  Spans(iqb::obs::Tracer* tracer, const char* root_name);
  ~Spans();
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  std::size_t begin(const char* name);
  /// A span under `parent` (any span of this root); callable from
  /// several threads at once.
  std::size_t begin_under(const char* name, std::size_t parent);
  void end(std::size_t id);

 private:
  iqb::obs::Tracer* tracer_;
  std::size_t root_;
};

/// Route the program's logs to a file under the workdir.
void redirect_logs(const std::string& path);

Result run_campaign(const Options& options, std::ostream& err);
Result run_rescore(const Options& options, std::ostream& err);
Result run_fleet(const Options& options, std::ostream& err);

}  // namespace perfbench
