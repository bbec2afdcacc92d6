// The fast-path contract, held against the legacy oracle: for any
// input — well-formed, malformed, quoted, CRLF, huge — the zero-copy
// reader produces the exact records, the exact error, and the exact
// quarantine contents as datasets::records_from_csv, at every thread
// width.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "iqb/datasets/fast_csv.hpp"
#include "iqb/datasets/io.hpp"
#include "iqb/robust/quarantine.hpp"

namespace iqb {
namespace {

constexpr const char* kHeader =
    "dataset,region,isp,subscriber_id,timestamp,download_mbps,upload_mbps,"
    "latency_ms,loaded_latency_ms,loss_fraction";

std::string good_row(int i) {
  return "ndt,metro,isp_a,sub_" + std::to_string(i) +
         ",2025-03-01T10:00:00Z,100.5,20.25,12.5,18.75,0.01";
}

/// Compare one legacy run against fast runs at widths 1 and 4:
/// identical success/failure, identical error message and code,
/// byte-identical re-serialized records, identical quarantine rows.
void expect_parity(const std::string& text, const robust::IngestPolicy& policy) {
  robust::Quarantine legacy_quarantine;
  const auto legacy =
      datasets::records_from_csv(text, policy, &legacy_quarantine);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    robust::Quarantine fast_quarantine;
    datasets::FastParseStats stats;
    datasets::FastParseOptions options;
    options.policy = policy;
    options.quarantine = &fast_quarantine;
    options.threads = threads;
    options.stats = &stats;
    const auto fast = datasets::records_from_csv_fast(text, options);

    ASSERT_EQ(legacy.ok(), fast.ok());
    if (!legacy.ok()) {
      EXPECT_EQ(legacy.error().code, fast.error().code);
      EXPECT_EQ(legacy.error().message, fast.error().message);
    } else {
      EXPECT_EQ(datasets::records_to_csv(legacy.value()),
                datasets::records_to_csv(fast.value()));
    }
    ASSERT_EQ(legacy_quarantine.count(), fast_quarantine.count());
    ASSERT_EQ(legacy_quarantine.rows().size(), fast_quarantine.rows().size());
    for (std::size_t i = 0; i < legacy_quarantine.rows().size(); ++i) {
      const auto& expected = legacy_quarantine.rows()[i];
      const auto& actual = fast_quarantine.rows()[i];
      EXPECT_EQ(expected.source, actual.source);
      EXPECT_EQ(expected.row, actual.row);
      EXPECT_EQ(expected.error.message, actual.error.message);
    }
  }
}

void expect_parity_both_modes(const std::string& text) {
  expect_parity(text, robust::IngestPolicy::strict());
  expect_parity(text, robust::IngestPolicy::lenient(/*max_error_rate=*/0.9));
}

TEST(FastCsvParity, WellFormedSmallDocument) {
  std::string text = kHeader;
  text += '\n';
  for (int i = 0; i < 20; ++i) text += good_row(i) + "\n";
  expect_parity_both_modes(text);
}

TEST(FastCsvParity, MissingOptionalMetricsAndWhitespaceFields) {
  std::string text = kHeader;
  text +=
      "\nndt,metro,isp_a,s1,2025-03-01,,,,,"
      "\nndt,metro,isp_a,s2,2025-03-01T01:02:03,250.0, ,5.0,,0"
      "\nndt,metro,isp_a,s3,2025-03-01,  ,10,,0.5,\n";
  expect_parity_both_modes(text);
}

TEST(FastCsvParity, UnterminatedLastLine) {
  std::string text = kHeader;
  text += '\n';
  text += good_row(0) + "\n";
  text += good_row(1);  // no trailing newline
  expect_parity_both_modes(text);
}

TEST(FastCsvParity, TrailingBlankLineIsSkippedButInnerBlankLineIsNot) {
  std::string with_trailing = std::string(kHeader) + "\n" + good_row(0) + "\n\n";
  expect_parity_both_modes(with_trailing);
  std::string with_inner =
      std::string(kHeader) + "\n\n" + good_row(0) + "\n";
  expect_parity_both_modes(with_inner);
}

TEST(FastCsvParity, CrlfAndLoneCarriageReturnEndings) {
  std::string crlf = kHeader;
  crlf += "\r\n";
  crlf += good_row(0) + "\r\n" + good_row(1) + "\r\n";
  expect_parity_both_modes(crlf);
  std::string lone_cr = kHeader;
  lone_cr.append("\r").append(good_row(0)).append("\r").append(good_row(1));
  expect_parity_both_modes(lone_cr);
}

TEST(FastCsvParity, QuotedFieldsFallBackToLegacyParser) {
  std::string text = kHeader;
  text += "\n\"ndt\",\"metro, east\",isp_a,s1,2025-03-01,10,,,,\n";
  datasets::FastParseStats stats;
  datasets::FastParseOptions options;
  options.stats = &stats;
  auto fast = datasets::records_from_csv_fast(text, options);
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(stats.fell_back_to_legacy);
  EXPECT_EQ(fast->at(0).region, "metro, east");
  expect_parity_both_modes(text);
  // Structural quote errors surface through the same fallback.
  expect_parity_both_modes(std::string(kHeader) + "\nndt,me\"tro,i,s,2025-03-01,,,,,\n");
  expect_parity_both_modes(std::string(kHeader) + "\n\"unterminated,metro,i,s,2025-03-01,,,,,\n");
}

TEST(FastCsvParity, BadTimestampBadNumberNanInfAndRange) {
  std::string text = kHeader;
  text += '\n';
  text += good_row(0) + "\n";
  text += "ndt,metro,isp_a,s1,not-a-date,10,,,,\n";             // timestamp
  text += "ndt,metro,isp_a,s2,2025-03-01,ten,,,,\n";            // number
  text += "ndt,metro,isp_a,s3,2025-03-01,nan,,,,\n";            // NaN
  text += "ndt,metro,isp_a,s4,2025-03-01,inf,,,,\n";            // Inf
  text += "ndt,metro,isp_a,s5,2025-03-01,,,,,1.5\n";            // loss > 1
  text += "ndt,metro,isp_a,s6,2025-03-01,-3,,,,\n";             // negative
  text += good_row(7) + "\n";
  expect_parity_both_modes(text);
}

TEST(FastCsvParity, RaggedRowsAreFatalInBothModes) {
  std::string short_row = std::string(kHeader) + "\n" + good_row(0) +
                          "\nndt,metro,only_three\n" + good_row(2) + "\n";
  expect_parity_both_modes(short_row);
  std::string long_row = std::string(kHeader) + "\n" + good_row(0) +
                         ",extra_field\n";
  expect_parity_both_modes(long_row);
}

TEST(FastCsvParity, OverlongFieldsRoundTrip) {
  const std::string long_isp(64 * 1024, 'x');
  std::string text = kHeader;
  text += "\nndt,metro," + long_isp + ",s1,2025-03-01,10,,,,\n";
  expect_parity_both_modes(text);
}

TEST(FastCsvParity, HeaderMismatchEmptyAndWhitespaceDocuments) {
  expect_parity_both_modes("a,b,c\n1,2,3\n");
  expect_parity_both_modes("");
  expect_parity_both_modes("  \n\t\r\n");
  expect_parity_both_modes(std::string(kHeader) + "\n");  // header only
  expect_parity_both_modes(std::string(kHeader));         // no newline
}

TEST(FastCsvParity, ErrorRateRejectionMessageMatches) {
  std::string text = kHeader;
  text += '\n';
  text += good_row(0) + "\n";
  for (int i = 0; i < 5; ++i) {
    text += "ndt,metro,isp_a,bad" + std::to_string(i) + ",nope,10,,,,\n";
  }
  expect_parity(text, robust::IngestPolicy::lenient(/*max_error_rate=*/0.25));
}

/// Large enough to actually split into chunks (the parser keeps
/// sub-128KiB documents serial), with malformed rows scattered at
/// awkward positions so quarantine row/line rebasing across chunk
/// boundaries is exercised for real.
TEST(FastCsvParity, ChunkedParsingMatchesSerialOnLargeDocument) {
  std::string text = kHeader;
  text += '\n';
  const int rows = 20000;  // ~1.5 MiB, dozens of chunks at width 8
  for (int i = 0; i < rows; ++i) {
    if (i % 997 == 0) {
      text += "ndt,metro,isp_a,bad" + std::to_string(i) + ",nope,10,,,,\n";
    } else if (i % 1501 == 0) {
      text += "ndt,metro,isp_a,s" + std::to_string(i) + ",2025-03-01,inf,,,,\n";
    } else {
      text += good_row(i) + "\n";
    }
  }
  expect_parity(text, robust::IngestPolicy::lenient(/*max_error_rate=*/0.9));

  datasets::FastParseStats stats;
  datasets::FastParseOptions options;
  options.policy = robust::IngestPolicy::lenient(0.9);
  options.threads = 8;
  options.stats = &stats;
  auto parsed = datasets::records_from_csv_fast(text, options);
  ASSERT_TRUE(parsed.ok());
  EXPECT_GT(stats.chunks, 1u) << "document should have been chunked";
  EXPECT_EQ(stats.rows_total, static_cast<std::size_t>(rows));
}

TEST(FastCsvParity, ChunkedArityErrorReportsGlobalRowAndLine) {
  std::string text = kHeader;
  text += '\n';
  const int rows = 20000;
  for (int i = 0; i < rows; ++i) {
    if (i == 15000) {
      text += "short,row\n";
    } else {
      text += good_row(i) + "\n";
    }
  }
  expect_parity(text, robust::IngestPolicy::lenient(0.9));
  datasets::FastParseOptions options;
  options.threads = 8;
  auto parsed = datasets::records_from_csv_fast(text, options);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().message,
            "CSV row 15001 (line 15002) has 2 fields, expected 10");
}

TEST(FastCsvParity, RejectionReasonsCarryLineNumbers) {
  std::string text = kHeader;
  text += '\n';
  text += good_row(0) + "\n";
  text += "ndt,metro,isp_a,s1,nope,10,,,,\n";
  robust::Quarantine quarantine;
  datasets::FastParseOptions options;
  options.policy = robust::IngestPolicy::lenient(0.9);
  options.quarantine = &quarantine;
  ASSERT_TRUE(datasets::records_from_csv_fast(text, options).ok());
  ASSERT_EQ(quarantine.rows().size(), 1u);
  EXPECT_NE(quarantine.rows()[0].error.message.find("row 1 (line 3)"),
            std::string::npos)
      << quarantine.rows()[0].error.message;
}

}  // namespace
}  // namespace iqb
