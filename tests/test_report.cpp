// Unit tests for the hardened sim/format layer: JSON string/number
// emission that always parses under a strict reader, CSV quoting, and
// Summary percentile interpolation edges.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/format.hpp"
#include "sim/stats.hpp"
#include "strict_json.hpp"

namespace {

using namespace mkos;
using mkos::testutil::StrictJson;

// --------------------------------------------------------------- json_quote

TEST(JsonQuote, PlainAsciiPassesThrough) {
  EXPECT_EQ(sim::json_quote("hello world"), "\"hello world\"");
}

TEST(JsonQuote, EscapesQuoteAndBackslash) {
  EXPECT_EQ(sim::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST(JsonQuote, EscapesControlCharacters) {
  EXPECT_EQ(sim::json_quote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  // Control chars without a shorthand use \u00XX.
  EXPECT_EQ(sim::json_quote(std::string{'\x01'}), "\"\\u0001\"");
  EXPECT_EQ(sim::json_quote(std::string{'\x1f'}), "\"\\u001f\"");
}

TEST(JsonQuote, RoundTripsThroughStrictParser) {
  const std::string nasty = "line1\nline2\t\"quoted\\path\"\x01\x7f end";
  const std::string quoted = sim::json_quote(nasty);
  std::string decoded;
  ASSERT_TRUE(StrictJson::decode_string(quoted, &decoded));
  EXPECT_EQ(decoded, nasty);
}

// -------------------------------------------------------------- json_number

TEST(JsonNumber, NonFiniteSerializesAsNull) {
  EXPECT_EQ(sim::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(sim::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(sim::json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonNumber, FiniteValuesRoundTrip) {
  for (const double v : {0.0, -1.5, 3.14159265358979, 1e-300, 6.02e23, 1234567.0}) {
    const std::string s = sim::json_number(v);
    EXPECT_TRUE(StrictJson{s}.valid()) << s;
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

// --------------------------------------------------------------- JsonObject

TEST(JsonObject, EmitsStrictlyValidJson) {
  sim::JsonObject obj;
  obj.text("name", "bench \"x\"\nwith newline")
      .number("nan_gauge", std::numeric_limits<double>::quiet_NaN())
      .number("value", 2.5)
      .integer("count", -7)
      .boolean("flag", true)
      .raw("nested", "{\"a\": [1, 2, 3]}");
  const std::string doc = obj.to_string();
  EXPECT_TRUE(StrictJson{doc}.valid()) << doc;
  EXPECT_NE(doc.find("\"nan_gauge\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"flag\": true"), std::string::npos);
}

// ------------------------------------------------------------ Table::to_csv

TEST(TableCsv, QuotesCellsWithCommasQuotesAndNewlines) {
  sim::Table t{{"app", "note"}};
  t.add_row({"plain", "a,b"});
  t.add_row({"said \"hi\"", "two\nlines"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("app,note"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"a,b\""), std::string::npos);
  // RFC 4180: embedded quotes double, the cell itself is quoted.
  EXPECT_NE(csv.find("\"said \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(csv.find("\"two\nlines\""), std::string::npos);
}

TEST(TableCsv, PlainCellsStayUnquoted) {
  sim::Table t{{"k", "v"}};
  t.add_row({"x", "1.5"});
  EXPECT_EQ(t.to_csv(), "k,v\nx,1.5\n");
}

// ------------------------------------------------- Summary::percentile edges

TEST(SummaryPercentile, EndpointsHitMinAndMax) {
  sim::Summary s;
  s.add(5.0);
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 5.0);
}

TEST(SummaryPercentile, TwoSamplesInterpolateLinearly) {
  sim::Summary s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 15.0);
  EXPECT_DOUBLE_EQ(s.percentile(25.0), 12.5);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 20.0);
}

TEST(SummaryPercentile, SingleSampleIsEveryPercentile) {
  sim::Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 42.0);
}

}  // namespace
