#include "iqb/obs/span_buffer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "iqb/obs/clock.hpp"
#include "iqb/obs/trace.hpp"
#include "iqb/util/json.hpp"

namespace iqb::obs {
namespace {

CompletedSpan span_named(const std::string& name) {
  CompletedSpan span;
  span.trace_id.append("t");
  span.name = name;
  return span;
}

TEST(SpanRingBuffer, EvictsOldestWhenFull) {
  SpanRingBuffer buffer(3);
  for (int i = 0; i < 5; ++i) buffer.push(span_named(std::to_string(i)));
  EXPECT_EQ(buffer.size(), 3u);
  const auto recent = buffer.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].name, "2");
  EXPECT_EQ(recent[2].name, "4");
}

TEST(SpanRingBuffer, IngestTagsRebasesAndComputesDepth) {
  ManualClock clock(5000);
  Tracer tracer(&clock);
  const std::size_t root = tracer.begin_span("pipeline.run");
  clock.advance_ns(100);
  const std::size_t child = tracer.begin_span("score");
  clock.advance_ns(50);
  tracer.end_span(child);
  tracer.end_span(root);
  const std::size_t dangling = tracer.begin_span("unended");
  (void)dangling;  // never ended: must not be ingested

  SpanRingBuffer buffer(8);
  EXPECT_EQ(buffer.ingest(tracer, "cycle-1"), 2u);
  const auto recent = buffer.recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].name, "pipeline.run");
  EXPECT_EQ(recent[0].trace_id, "cycle-1");
  EXPECT_EQ(recent[0].depth, 0u);
  EXPECT_EQ(recent[0].start_ns, 0u);  // rebased
  EXPECT_EQ(recent[1].name, "score");
  EXPECT_EQ(recent[1].depth, 1u);
  EXPECT_EQ(recent[1].start_ns, 100u);
  EXPECT_EQ(recent[1].duration_ns, 50u);
}

TEST(SpanRingBuffer, TracezJsonIsParsableAndOrdered) {
  SpanRingBuffer buffer(4);
  buffer.push(span_named("a"));
  CompletedSpan with_attributes = span_named("b");
  with_attributes.attributes.emplace_back("region", "metro");
  buffer.push(std::move(with_attributes));

  auto parsed = util::parse_json(tracez_to_json(buffer).dump(2));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->get_number("count").value(), 2.0);
  auto spans = parsed->get_array("spans");
  ASSERT_TRUE(spans.ok());
  EXPECT_EQ((*spans)[0].get_string("name").value(), "a");
  EXPECT_EQ((*spans)[1].get("attributes")->get_string("region").value(),
            "metro");
}

// The tracez JSON field set is a cross-process stability contract:
// /fleet/tracez and iqb_tracecat parse these dumps from *other*
// binaries, possibly other releases. This golden pins the exact bytes
// — field names (including "span"/"parent_span"/"trace"), key order,
// uid formatting, "" for parentless roots — so any schema change has
// to be made here, consciously.
TEST(SpanRingBuffer, TracezJsonBytesAreAStableContract) {
  ManualClock clock(1000);
  Tracer tracer(&clock);
  tracer.set_trace_id("golden-1");
  tracer.set_span_uid_base(0x10);
  const std::size_t root = tracer.begin_span("cycle");
  clock.advance_ns(250);
  const std::size_t child = tracer.begin_span("stage");
  tracer.set_attribute(child, "region", "metro");
  clock.advance_ns(100);
  tracer.end_span(child);
  tracer.end_span(root);

  SpanRingBuffer buffer(8);
  ASSERT_EQ(buffer.ingest(tracer), 2u);

  const std::string golden = R"({
  "count": 2,
  "spans": [
    {
      "depth": 0,
      "duration_ns": 350,
      "name": "cycle",
      "parent_span": "",
      "span": "0000000000000011",
      "start_ns": 0,
      "trace": "golden-1"
    },
    {
      "attributes": {
        "region": "metro"
      },
      "depth": 1,
      "duration_ns": 100,
      "name": "stage",
      "parent_span": "0000000000000011",
      "span": "0000000000000012",
      "start_ns": 250,
      "trace": "golden-1"
    }
  ]
})";
  EXPECT_EQ(tracez_to_json(buffer).dump(2), golden);
}

TEST(SpanRingBuffer, TracezTraceFilterKeepsOnlyThatTrace) {
  SpanRingBuffer buffer(8);
  CompletedSpan a = span_named("a");
  a.trace_id = "t1";
  CompletedSpan b = span_named("b");
  b.trace_id = "t2";
  buffer.push(a);
  buffer.push(b);

  const auto filtered = tracez_to_json(buffer, "t2");
  EXPECT_EQ(filtered.get_number("count").value(), 1.0);
  EXPECT_EQ((*filtered.get_array("spans"))[0].get_string("name").value(),
            "b");
  const auto none = tracez_to_json(buffer, "absent");
  EXPECT_EQ(none.get_number("count").value(), 0.0);
}

TEST(SpanRingBuffer, IngestCarriesRemoteParentUid) {
  Tracer tracer;
  tracer.set_trace_id("t");
  tracer.set_span_uid_base(0x100);
  tracer.set_remote_parent(0xabcdef);  // server span under a remote caller
  const std::size_t server = tracer.begin_span("http.server");
  tracer.end_span(server);

  SpanRingBuffer buffer(4);
  ASSERT_EQ(buffer.ingest(tracer), 1u);
  const auto recent = buffer.recent();
  EXPECT_EQ(recent[0].parent_uid, 0xabcdefu);
  EXPECT_EQ(recent[0].span_uid, 0x101u);
}

TEST(SpanRingBuffer, ConcurrentPushAndSnapshotAreSafe) {
  SpanRingBuffer buffer(16);
  std::vector<std::thread> pushers;
  for (int t = 0; t < 4; ++t) {
    pushers.emplace_back([&buffer] {
      for (int i = 0; i < 500; ++i) buffer.push(span_named("s"));
    });
  }
  std::thread reader([&buffer] {
    for (int i = 0; i < 200; ++i) {
      const auto spans = buffer.recent();
      EXPECT_LE(spans.size(), buffer.capacity());
    }
  });
  for (auto& pusher : pushers) pusher.join();
  reader.join();
  EXPECT_EQ(buffer.size(), 16u);
}

}  // namespace
}  // namespace iqb::obs
