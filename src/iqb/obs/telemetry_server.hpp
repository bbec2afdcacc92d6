// Live telemetry endpoints over HttpServer.
//
// TelemetryServer owns the HTTP routing for an observable IQB
// process (the iqbd daemon, or any embedder):
//
//   GET /            text index of the endpoints below
//   GET /metrics     Prometheus text exposition (byte-stable exporter)
//   GET /metrics.json  the same registry as JSON
//   GET /healthz     200 while the process is up (liveness)
//   GET /readyz      200 after the first completed pipeline cycle;
//                    503 + JSON reason before that, or while the
//                    latest scores carry confidence tier C
//   GET /tracez      recent completed spans from the span ring buffer
//                    (?trace=<id> keeps only that trace's spans)
//   GET /requestz    recent requests from the server's access log
//   GET /scores      latest per-region IQB scores as JSON
//
// The score state is double-buffered: the producer (daemon cycle)
// builds an immutable ScoreSnapshot and publish()es it with one
// shared_ptr swap, so a scrape during an in-flight cycle serves the
// previous complete snapshot — never a torn one — and serving never
// blocks scoring.
//
// Request handling is itself instrumented into the registry:
// iqb_server_requests_total{path,status} and
// iqb_server_request_duration_seconds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "iqb/obs/http_server.hpp"
#include "iqb/obs/metrics.hpp"
#include "iqb/obs/span_buffer.hpp"
#include "iqb/util/result.hpp"

namespace iqb::obs {

/// Every path a TelemetryServer can serve (built-ins plus the fleet
/// coordinator's overrides). This is the bounded-cardinality label
/// allowlist shared by the server's own instrumentation and
/// RequestStats — paths outside it pool into "other".
const std::vector<std::string>& default_telemetry_paths();

/// Immutable result of one completed pipeline cycle, as served.
struct ScoreSnapshot {
  std::uint64_t cycle = 0;       ///< 1-based completed-cycle ordinal.
  std::string trace_id;          ///< The cycle's correlation id.
  std::string scores_json;       ///< report::scores_document, ready to serve.
  bool tier_c = false;           ///< Any region at confidence tier C.
  std::vector<std::string> tier_c_regions;
  /// True when the snapshot was recovered from a checkpoint after a
  /// restart rather than produced by this process's own cycle. Served
  /// with `"stale":true` on /readyz and an `X-IQB-Stale: true` header
  /// on /scores until the first fresh cycle replaces it.
  bool stale = false;
  /// Serialized aggregate table the scores derive from (opaque to this
  /// layer; iqb::fleet's versioned shard payload in practice). Served
  /// verbatim on /shard/aggregate; empty = endpoint answers 503
  /// (recovered checkpoints carry scores but no table).
  std::string aggregate_json;
};

class TelemetryServer {
 public:
  /// Optional per-request hook consulted *before* the built-in routes.
  /// Returning a response serves it (instrumented like any other);
  /// returning nullopt falls through to the built-ins. Lets an
  /// embedder (the fleet coordinator) override /readyz with richer
  /// state or add endpoints without obs knowing about them.
  using RouteOverride =
      std::function<std::optional<HttpResponse>(const HttpRequest&)>;

  struct Options {
    HttpServer::Options http;
    /// Must be installed before start(); requests may hit it from any
    /// worker thread, so it must be thread-safe.
    RouteOverride route_override;
  };

  /// `metrics` and `spans` are non-owning and may each be null (the
  /// corresponding endpoints then serve an empty document). Both must
  /// outlive the server.
  TelemetryServer(Options options, MetricsRegistry* metrics,
                  SpanRingBuffer* spans);

  util::Result<void> start() { return http_.start(); }
  void stop() { http_.stop(); }
  /// Graceful: finish in-flight requests, then stop (SIGTERM drain).
  void drain() { http_.drain(); }
  bool running() const noexcept { return http_.running(); }
  std::uint16_t port() const noexcept { return http_.port(); }

  /// Swap in the latest completed cycle's snapshot. Readiness flips to
  /// true on the first publish and stays true (tier C degrades
  /// /readyz to 503 but the process keeps serving /scores).
  void publish(std::shared_ptr<const ScoreSnapshot> snapshot);

  /// Latest published snapshot (null before the first cycle).
  std::shared_ptr<const ScoreSnapshot> latest() const;

  /// True once publish() has been called.
  bool ready() const;

  /// Exposed for tests: the exact response /path would produce.
  HttpResponse handle(const HttpRequest& request);

 private:
  HttpResponse route(const HttpRequest& request) const;

  Options options_;
  MetricsRegistry* metrics_;
  SpanRingBuffer* spans_;

  mutable std::mutex snapshot_mutex_;  ///< Guards the pointer swap only.
  std::shared_ptr<const ScoreSnapshot> snapshot_;

  HttpServer http_;
};

}  // namespace iqb::obs
