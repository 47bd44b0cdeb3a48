#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/status.h"
#include "util/string_util.h"

namespace msopds {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rating");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad rating");
}

TEST(StatusTest, StatusOrHoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusTest, StatusOrHoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, StatusOrWorksWithoutDefaultConstructor) {
  struct NoDefault {
    explicit NoDefault(int x) : value(x) {}
    int value;
  };
  StatusOr<NoDefault> ok_case = NoDefault(7);
  ASSERT_TRUE(ok_case.ok());
  EXPECT_EQ(ok_case.value().value, 7);

  StatusOr<NoDefault> error_case = Status::Internal("boom");
  EXPECT_FALSE(error_case.ok());
  EXPECT_EQ(error_case.status().code(), StatusCode::kInternal);
}

TEST(StatusTest, StatusOrMoveExtractsValue) {
  StatusOr<std::string> v = std::string("payload");
  ASSERT_TRUE(v.ok());
  const std::string taken = std::move(v).value();
  EXPECT_EQ(taken, "payload");
}

TEST(StringUtilTest, StrSplitKeepsEmptyFields) {
  const auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \r\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("12.5", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
}

// Every row ForEachDelimitedRow hands out, copied.
Status CollectRows(const std::string& path, std::vector<DelimitedRow>* rows) {
  return ForEachDelimitedRow(path, '\t',
                             [rows](const DelimitedRow& row, int64_t) {
                               rows->push_back(row);
                               return Status::Ok();
                             });
}

TEST(CsvTest, MissingFileReturnsNotFound) {
  std::vector<DelimitedRow> rows;
  EXPECT_EQ(CollectRows("/nonexistent/path.tsv", &rows).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(rows.empty());
}

TEST(CsvTest, RoundTripSkipsCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "/csv_test.tsv";
  ASSERT_TRUE(WriteDelimited(path, {{"1", "2", "3"}, {"a", "b", "c"}}, '\t')
                  .ok());
  // Append comment and blank line manually.
  {
    FILE* f = fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    fputs("# comment\n\n", f);
    fclose(f);
  }
  std::vector<DelimitedRow> rows;
  ASSERT_TRUE(CollectRows(path, &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].fields[2], "3");
  EXPECT_EQ(rows[1].fields[0], "a");
  std::remove(path.c_str());
}

TEST(CsvTest, WithLinesTracksSourceLineNumbers) {
  const std::string path = ::testing::TempDir() + "/csv_lines_test.tsv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# header comment\nfirst\trow\n\nsecond\trow\n", f);
    fclose(f);
  }
  std::vector<DelimitedRow> rows;
  ASSERT_TRUE(CollectRows(path, &rows).ok());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].fields[0], "first");
  EXPECT_EQ(rows[0].line, 2);  // the comment still counts a line
  EXPECT_EQ(rows[1].fields[0], "second");
  EXPECT_EQ(rows[1].line, 4);  // so does the blank line
  std::remove(path.c_str());
}

}  // namespace
}  // namespace msopds
