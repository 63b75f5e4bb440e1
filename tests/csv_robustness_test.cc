// Round-trip robustness of the CSV reader/writer: RFC-4180 quoting
// (commas, quotes, line breaks, empty strings in category names and
// headers), rejection of unknown categories, the categorical
// out-of-range write/clamp contract, and the pinned bytes of numeric
// cells.

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/csv.h"
#include "data/normalizer.h"
#include "data/schema.h"
#include "data/table.h"
#include "proptest.h"

namespace tablegan {
namespace data {
namespace {

std::string Path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      EXPECT_DOUBLE_EQ(a.Get(r, c), b.Get(r, c)) << r << "," << c;
    }
  }
}

TEST(CsvQuotingTest, CategoriesWithCommasAndQuotesRoundTrip) {
  Schema schema({
      {"city", ColumnType::kCategorical, ColumnRole::kQuasiIdentifier,
       {"Portland, OR", "Washington, \"D.C.\"", "", "plain"}},
      {"note", ColumnType::kCategorical, ColumnRole::kSensitive,
       {"say \"hi\"", ",,,", "line\nbreak", "tab\there"}},
      {"salary", ColumnType::kContinuous, ColumnRole::kSensitive, {}},
  });
  Table t(schema);
  t.AppendRow({0, 0, 1234.5});
  t.AppendRow({1, 1, -7.25});
  t.AppendRow({2, 2, 0.0});
  t.AppendRow({3, 3, 9e9});

  const std::string path = Path("quoting.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(schema, path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectTablesEqual(t, *back);
  std::remove(path.c_str());
}

TEST(CsvQuotingTest, HeaderNamesWithCommasRoundTrip) {
  Schema schema({
      {"name, first", ColumnType::kCategorical, ColumnRole::kSensitive,
       {"a", "b"}},
      {"x \"quoted\"", ColumnType::kContinuous, ColumnRole::kSensitive, {}},
  });
  Table t(schema);
  t.AppendRow({0, 1.5});
  t.AppendRow({1, 2.5});
  const std::string path = Path("header.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(schema, path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectTablesEqual(t, *back);
  std::remove(path.c_str());
}

TEST(CsvQuotingTest, PropertyRandomNastyCategoriesRoundTrip) {
  // Random category alphabets drawn from characters that stress the
  // quoting path, random tables over them, many trials. ('\r' is left
  // out: the line-based reader cannot distinguish a quoted "\r\n" from
  // a plain line break, so CR adjacent to LF inside a field is lossy.)
  const std::string alphabet = "a,\"\n x,\",";
  Rng rng(20260806);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::string> cats;
    const int num_cats = 2 + static_cast<int>(rng.NextUint64(5));
    for (int k = 0; k < num_cats; ++k) {
      std::string cat;
      const int len = static_cast<int>(rng.NextUint64(8));
      for (int i = 0; i < len; ++i) {
        cat.push_back(alphabet[static_cast<size_t>(
            rng.NextUint64(alphabet.size()))]);
      }
      // Category levels must be distinct strings for a lossless trip.
      cat += "#" + std::to_string(k);
      cats.push_back(std::move(cat));
    }
    Schema schema({
        {"cat", ColumnType::kCategorical, ColumnRole::kSensitive, cats},
        {"value", ColumnType::kContinuous, ColumnRole::kSensitive, {}},
    });
    Table t(schema);
    const int rows = 1 + static_cast<int>(rng.NextUint64(12));
    for (int r = 0; r < rows; ++r) {
      t.AppendRow({static_cast<double>(rng.NextUint64(
                       static_cast<uint64_t>(num_cats))),
                   rng.Uniform(-1e6, 1e6)});
    }
    const std::string path = Path("property.csv");
    ASSERT_TRUE(WriteCsv(t, path).ok()) << "trial " << trial;
    auto back = ReadCsv(schema, path);
    ASSERT_TRUE(back.ok()) << "trial " << trial << ": "
                           << back.status().ToString();
    ExpectTablesEqual(t, *back);
    std::remove(path.c_str());
  }
}

TEST(CsvQuotingTest, RejectsUnterminatedQuote) {
  Schema schema({
      {"cat", ColumnType::kCategorical, ColumnRole::kSensitive, {"a", "b"}},
  });
  const std::string path = Path("unterminated.csv");
  {
    std::ofstream out(path);
    out << "cat\n\"a\n";  // quote never closed, file ends
  }
  auto back = ReadCsv(schema, path);
  EXPECT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("unterminated"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvReadTest, UnknownCategoryIsInvalidArgumentNotCode) {
  Schema schema({
      {"color", ColumnType::kCategorical, ColumnRole::kSensitive,
       {"red", "green"}},
      {"x", ColumnType::kContinuous, ColumnRole::kSensitive, {}},
  });
  const std::string path = Path("unknown_cat.csv");
  {
    std::ofstream out(path);
    // "7" is numeric-looking: the old reader accepted it via std::stod
    // as out-of-range code 7, which later crashed WriteCsv indexing.
    out << "color,x\nred,1.0\n7,2.0\n";
  }
  auto back = ReadCsv(schema, path);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  // The error must name the offending cell, column and line.
  EXPECT_NE(back.status().message().find("'7'"), std::string::npos)
      << back.status().message();
  EXPECT_NE(back.status().message().find("color"), std::string::npos);
  EXPECT_NE(back.status().message().find("line 3"), std::string::npos)
      << back.status().message();
  std::remove(path.c_str());
}

TEST(CsvWriteTest, OutOfRangeCategoricalCodeIsAnError) {
  Schema schema({
      {"color", ColumnType::kCategorical, ColumnRole::kSensitive,
       {"red", "green"}},
  });
  Table t(schema);
  t.AppendRow({0});
  t.AppendRow({99});  // no such level
  const std::string path = Path("bad_code.csv");
  Status status = WriteCsv(t, path);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("color"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvWriteTest, NumberAndQuotingBytesArePinned) {
  // The exact text the library has always written: numbers as printf
  // "%.17g" (the ostream precision-17 bytes), RFC-4180 quoting for
  // levels and header names. Files and served payloads written before
  // and after any writer change must compare byte-equal.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({
      {"x, value", ColumnType::kContinuous, ColumnRole::kSensitive, {}},
      {"level", ColumnType::kCategorical, ColumnRole::kQuasiIdentifier,
       {"plain", "a,b", "say \"hi\""}},
      {"n", ColumnType::kDiscrete, ColumnRole::kLabel, {}},
  });
  Table t(schema);
  t.AppendRow({-0.0, 0, 0});
  t.AppendRow({inf, 1, 1});
  t.AppendRow({-inf, 2, -42});
  t.AppendRow({nan, 0, 123456789});
  t.AppendRow({-nan, 1, 1e16});
  t.AppendRow({std::numeric_limits<double>::denorm_min(), 2, 1e17});
  t.AppendRow({DBL_MAX, 0, 0.1});
  t.AppendRow({-DBL_MAX, 1, 1.0 / 3.0});
  t.AppendRow({DBL_MIN, 2, 100});
  t.AppendRow({1e-5, 0, -1});
  const std::string rows =
      "-0,plain,0\n"
      "inf,\"a,b\",1\n"
      "-inf,\"say \"\"hi\"\"\",-42\n"
      "nan,plain,123456789\n"
      "-nan,\"a,b\",10000000000000000\n"
      "4.9406564584124654e-324,\"say \"\"hi\"\"\",1e+17\n"
      "1.7976931348623157e+308,plain,0.10000000000000001\n"
      "-1.7976931348623157e+308,\"a,b\",0.33333333333333331\n"
      "2.2250738585072014e-308,\"say \"\"hi\"\"\",100\n"
      "1.0000000000000001e-05,plain,-1\n";
  const std::string golden = "\"x, value\",level,n\n" + rows;

  auto text = WriteCsvToString(t);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, golden);
  auto headerless = WriteCsvToString(t, /*include_header=*/false);
  ASSERT_TRUE(headerless.ok());
  EXPECT_EQ(*headerless, rows);

  const std::string path = Path("pinned.csv");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(file, golden);
  std::remove(path.c_str());
}

TEST(CsvWriteTest, PropertyNumericCellsArePrintfPercent17g) {
  // Random 64-bit patterns cover NaN payloads, subnormals, both zeros
  // and both infinities as well as ordinary magnitudes.
  testing_util::ForAllSeeds(
      "numeric cells == %.17g", 0x43535647ULL, [](uint64_t seed) {
        Rng rng(seed);
        Schema schema({
            {"a", ColumnType::kContinuous, ColumnRole::kSensitive, {}},
            {"b", ColumnType::kDiscrete, ColumnRole::kSensitive, {}},
        });
        Table t(schema);
        std::vector<double> values;
        for (int r = 0; r < 64; ++r) {
          std::vector<double> row(2);
          for (double& v : row) {
            const uint64_t bits = rng.NextUint64();
            std::memcpy(&v, &bits, sizeof(v));
            values.push_back(v);
          }
          t.AppendRow(row);
        }
        auto text = WriteCsvToString(t, /*include_header=*/false);
        if (!text.ok()) return text.status().ToString();
        std::string expected;
        for (size_t i = 0; i < values.size(); ++i) {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
          expected += buf;
          expected += i % 2 == 0 ? ',' : '\n';
        }
        if (*text == expected) return std::string();
        size_t at = 0;
        while (at < text->size() && (*text)[at] == expected[at]) ++at;
        return "first difference at byte " + std::to_string(at) +
               ": got '" + text->substr(at, 24) + "' want '" +
               expected.substr(at, 24) + "'";
      });
}

TEST(NormalizerTest, InverseTransformClampsCategoricalCodes) {
  // Fit on codes up to 3, but decode against a schema with only two
  // levels: the rounded code must be clamped into [0, 2) so the
  // sampled table is always writable.
  Schema fit_schema({
      {"cat", ColumnType::kCategorical, ColumnRole::kSensitive,
       {"a", "b", "c", "d"}},
  });
  Table t(fit_schema);
  for (int k = 0; k < 4; ++k) t.AppendRow({static_cast<double>(k)});
  MinMaxNormalizer norm;
  ASSERT_TRUE(norm.Fit(t).ok());

  Schema narrow_schema({
      {"cat", ColumnType::kCategorical, ColumnRole::kSensitive, {"a", "b"}},
  });
  Tensor encoded({4, 1});
  encoded[0] = -1.0f;
  encoded[1] = -0.2f;
  encoded[2] = 0.6f;
  encoded[3] = 1.0f;  // decodes to code 3 before clamping
  auto decoded = norm.InverseTransform(encoded, narrow_schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (int64_t r = 0; r < decoded->num_rows(); ++r) {
    EXPECT_GE(decoded->Get(r, 0), 0.0);
    EXPECT_LT(decoded->Get(r, 0), 2.0);
  }
  // And the decoded table round-trips through CSV.
  const std::string path = Path("clamped.csv");
  ASSERT_TRUE(WriteCsv(*decoded, path).ok());
  EXPECT_TRUE(ReadCsv(narrow_schema, path).ok());
  std::remove(path.c_str());
}

TEST(CsvReadTest, RejectsTrailingGarbageInNumericCell) {
  Schema schema({
      {"x", ColumnType::kContinuous, ColumnRole::kSensitive, {}},
  });
  const std::string path = Path("garbage_num.csv");
  {
    std::ofstream out(path);
    out << "x\n1.5zzz\n";
  }
  auto back = ReadCsv(schema, path);
  EXPECT_FALSE(back.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace data
}  // namespace tablegan
