#include "iqb/robust/fault_injection.hpp"

#include <gtest/gtest.h>

#include <string>

namespace iqb::robust {
namespace {

constexpr const char* kCsv =
    "a,b,c\n"
    "1,2,3\n"
    "4,5,6\n"
    "7,8,9\n";

TextSource fixed(std::string text) {
  return [text = std::move(text)]() -> util::Result<std::string> {
    return text;
  };
}

TEST(FaultInjector, NoneSpecPassesThrough) {
  FaultInjector injector(FaultSpec::none(), 1);
  auto out = injector.fetch("feed", fixed(kCsv));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), kCsv);
  EXPECT_EQ(injector.counters().io_errors, 0u);
  EXPECT_EQ(injector.counters().truncations, 0u);
  EXPECT_EQ(injector.counters().corrupted_rows, 0u);
  EXPECT_DOUBLE_EQ(injector.last_latency_s(), 0.0);
}

TEST(FaultInjector, CertainIoErrorAlwaysFails) {
  FaultSpec spec;
  spec.io_error_rate = 1.0;
  FaultInjector injector(spec, 7);
  for (int i = 0; i < 3; ++i) {
    auto out = injector.fetch("feed", fixed(kCsv));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error().code, util::ErrorCode::kIoError);
  }
  EXPECT_EQ(injector.counters().io_errors, 3u);
}

TEST(FaultInjector, CertainTruncationShortens) {
  FaultSpec spec;
  spec.truncation_rate = 1.0;
  FaultInjector injector(spec, 7);
  auto out = injector.fetch("feed", fixed(kCsv));
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out.value().size(), std::string(kCsv).size());
  EXPECT_EQ(injector.counters().truncations, 1u);
}

TEST(FaultInjector, CorruptCsvHitsEveryDataRowButNeverHeader) {
  FaultSpec spec;
  spec.row_corruption_rate = 1.0;
  FaultInjector injector(spec, 7);
  const std::string out = injector.corrupt_csv(kCsv);
  EXPECT_EQ(out.substr(0, 6), "a,b,c\n");  // header untouched
  EXPECT_EQ(injector.counters().corrupted_rows, 3u);
  EXPECT_NE(out, kCsv);
}

TEST(FaultInjector, SameSeedSameOutput) {
  FaultSpec spec;
  spec.row_corruption_rate = 0.5;
  spec.truncation_rate = 0.3;
  FaultInjector first(spec, 99);
  FaultInjector second(spec, 99);
  for (int i = 0; i < 5; ++i) {
    auto a = first.fetch("feed", fixed(kCsv));
    auto b = second.fetch("feed", fixed(kCsv));
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value());
    }
  }
}

TEST(FaultInjector, LatencySpikeReported) {
  FaultSpec spec;
  spec.latency_spike_rate = 1.0;
  spec.latency_spike_s = 2.5;
  FaultInjector injector(spec, 7);
  auto out = injector.fetch("feed", fixed(kCsv));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(injector.last_latency_s(), 2.5);
  EXPECT_EQ(injector.counters().latency_spikes, 1u);
}

TEST(FaultInjector, WrapRoutesThroughFetch) {
  FaultSpec spec;
  spec.io_error_rate = 1.0;
  FaultInjector injector(spec, 7);
  TextSource wrapped = injector.wrap("feed", fixed(kCsv));
  EXPECT_FALSE(wrapped().ok());
  EXPECT_EQ(injector.counters().io_errors, 1u);
}

TEST(FaultInjector, SourceErrorPropagates) {
  FaultInjector injector(FaultSpec::none(), 1);
  auto out = injector.fetch("feed", []() -> util::Result<std::string> {
    return util::make_error(util::ErrorCode::kIoError, "real failure");
  });
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error().message, "real failure");
}

}  // namespace
}  // namespace iqb::robust
