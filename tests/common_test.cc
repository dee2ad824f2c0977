#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/csv.h"
#include "common/fileutil.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");

  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "gone");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  STMAKER_ASSIGN_OR_RETURN(int h, Half(x));
  STMAKER_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = QuarterViaMacro(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);

  Result<int> fail = QuarterViaMacro(6);  // 6/2 = 3 is odd
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kInvalidArgument);
}

// Result must carry move-only payloads through construction, rvalue
// value(), and the ASSIGN_OR_RETURN macro — serving code moves
// unique_ptr-owned state through all three.

TEST(ResultTest, HoldsMoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 7);
  std::unique_ptr<int> owned = std::move(r).value();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(*owned, 7);
}

TEST(ResultTest, MoveOnlyErrorPath) {
  Result<std::unique_ptr<int>> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.status().message(), "boom");
  // status() stays callable repeatedly (it copies, never consumes).
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<std::unique_ptr<int>> MakeBox(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return std::make_unique<int>(x);
}

Result<int> UnboxViaMacro(int x) {
  STMAKER_ASSIGN_OR_RETURN(std::unique_ptr<int> box, MakeBox(x));
  return *box;
}

TEST(ResultTest, AssignOrReturnMovesNonCopyablePayload) {
  Result<int> ok = UnboxViaMacro(9);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 9);

  Result<int> fail = UnboxViaMacro(-1);
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fail.status().message(), "negative");
}

// --------------------------------------------------------------------------
// STMAKER_DCHECK
// --------------------------------------------------------------------------

TEST(CheckTest, DcheckCompilesOutInReleaseBuilds) {
#ifdef NDEBUG
  // In release builds (the repo default and the CI configuration) the
  // expression must not be evaluated at all — a failing predicate with a
  // side effect proves both.
  int evaluations = 0;
  STMAKER_DCHECK([&] {
    ++evaluations;
    return false;
  }());
  EXPECT_EQ(evaluations, 0) << "STMAKER_DCHECK evaluated its argument "
                               "under NDEBUG";
#else
  GTEST_SKIP() << "debug build: STMAKER_DCHECK is live by design";
#endif
}

// --------------------------------------------------------------------------
// Random
// --------------------------------------------------------------------------

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7);
  Random b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RandomTest, UniformInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.Uniform(5.0, 9.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(RandomTest, UniformIntBounds) {
  Random rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    uint64_t v = rng.UniformInt(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
    int64_t w = rng.UniformInt(-2, 2);
    EXPECT_GE(w, -2);
    EXPECT_LE(w, 2);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values in [0,5) should appear";
}

TEST(RandomTest, NormalMoments) {
  Random rng(5);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.07);
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RandomTest, ExponentialMean) {
  Random rng(8);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(40.0);
  EXPECT_NEAR(sum / n, 40.0, 2.0);
}

TEST(RandomTest, ZipfIsSkewedTowardLowRanks) {
  Random rng(9);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // Under Zipf(s=1) the first 10 of 100 ranks carry ~56% of the mass.
  EXPECT_GT(low, n / 3);
}

TEST(RandomTest, WeightedIndexRespectsWeights) {
  Random rng(10);
  std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[rng.WeightedIndex(weights)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.3);
}

TEST(RandomTest, ForkProducesIndependentStream) {
  Random a(11);
  Random child = a.Fork();
  // The child stream should not simply mirror the parent.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == child.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

// --------------------------------------------------------------------------
// Strings
// --------------------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "abc"), "3-abc");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringsTest, FormatNumberTrimsZeros) {
  EXPECT_EQ(FormatNumber(14.0), "14");
  EXPECT_EQ(FormatNumber(13.5), "13.5");
  EXPECT_EQ(FormatNumber(13.50, 2), "13.5");
  EXPECT_EQ(FormatNumber(0.0), "0");
  EXPECT_EQ(FormatNumber(-2.50), "-2.5");
  EXPECT_EQ(FormatNumber(-0.0), "0");
}

TEST(StringsTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(1), "1 second");
  EXPECT_EQ(FormatDuration(45), "45 seconds");
  EXPECT_EQ(FormatDuration(167), "2 minutes");
  EXPECT_EQ(FormatDuration(3600), "1 hour");
  EXPECT_EQ(FormatDuration(3600 + 12 * 60), "1 hour 12 minutes");
  EXPECT_EQ(FormatDuration(2 * 3600), "2 hours");
  EXPECT_EQ(FormatDuration(-5), "0 seconds");
}

// --------------------------------------------------------------------------
// CSV
// --------------------------------------------------------------------------

using CsvRows = std::vector<std::vector<std::string>>;

// Drains a CsvTableReader over `text` into owned rows.
Result<CsvRows> ReadTable(const std::string& text,
                          const std::vector<std::string>& header,
                          const std::string& context = "test.csv") {
  STMAKER_ASSIGN_OR_RETURN(CsvTableReader reader,
                           CsvTableReader::FromText(text, header, context));
  CsvRows rows;
  for (;;) {
    STMAKER_ASSIGN_OR_RETURN(bool more, reader.Next());
    if (!more) break;
    rows.emplace_back();
    for (size_t c = 0; c < header.size(); ++c) {
      rows.back().emplace_back(reader.field(c));
    }
  }
  return rows;
}

TEST(CsvTest, ParseSimple) {
  auto rows = ReadTable("x,y\na,b\nc,d\n", {"x", "y"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, ParseQuotedFields) {
  auto rows = ReadTable("x,y\n\"a,b\",\"say \"\"hi\"\"\"\n", {"x", "y"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a,b", "say \"hi\""}));
}

TEST(CsvTest, QuotedNewlineStaysInOneRecord) {
  auto rows = ReadTable("x,y\n\"multi\nline\",b\nc,d\n", {"x", "y"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"multi\nline", "b"}));
  // Errors count records, not lines: the short record is row 3.
  auto ragged = ReadTable("x,y\n\"multi\nline\",b\nc\n", {"x", "y"});
  ASSERT_FALSE(ragged.ok());
  EXPECT_NE(ragged.status().message().find("row 3:"), std::string::npos)
      << ragged.status().message();
}

TEST(CsvTest, ParseHandlesCrlfAndMissingFinalNewline) {
  auto rows = ReadTable("x,y\r\na,b\r\nc,d", {"x", "y"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, CarriageReturnsDropOutsideQuotesOnly) {
  auto rows = ReadTable("x,y\na\rb,\"c\rd\"\n\r", {"x", "y"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);  // trailing bare CRs hold no record
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"ab", "c\rd"}));
}

TEST(CsvTest, SeveralQuotedFieldsInOneRowAllStayValid) {
  // Both fields land in the shared scratch buffer; the first view must
  // survive the second field's copy.
  std::string long_field(200, 'q');
  auto rows = ReadTable("x,y\n\"a\",\"" + long_field + "\"\n", {"x", "y"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", long_field}));
}

TEST(CsvTest, ParseEmptyInputHasNoHeader) {
  for (const char* text : {"", "\r\r"}) {
    auto rows = ReadTable(text, {"x", "y"});
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rows.status().message().find("missing CSV header"),
              std::string::npos);
  }
}

TEST(CsvTest, HeaderOnlyTableHasNoRows) {
  auto rows = ReadTable("x,y\n", {"x", "y"});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(CsvTest, ParseUnterminatedQuoteFails) {
  auto rows = ReadTable("x,y\n1,2\n\"oops,3\n", {"x", "y"}, "open.csv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("open.csv: row 3"),
            std::string::npos)
      << rows.status().message();
}

TEST(CsvTest, WriteReadRoundTrip) {
  std::string path = ::testing::TempDir() + "/stmaker_csv_test.csv";
  {
    auto writer = CsvWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->WriteRow({"a", "b", "c"}).ok());
    ASSERT_TRUE(writer->WriteRow({"plain", "with,comma", "with\"quote"}).ok());
    ASSERT_TRUE(writer->WriteRow({"second", "line", "multi\nline"}).ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  auto reader = CsvTableReader::Open(path, {"a", "b", "c"});
  ASSERT_TRUE(reader.ok());
  CsvRows rows;
  for (;;) {
    auto more = reader->Next();
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    rows.push_back({std::string(reader->field(0)),
                    std::string(reader->field(1)),
                    std::string(reader->field(2))});
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0],
            (std::vector<std::string>{"plain", "with,comma", "with\"quote"}));
  EXPECT_EQ(rows[1],
            (std::vector<std::string>{"second", "line", "multi\nline"}));
}

TEST(CsvTest, WriteAfterCloseFails) {
  std::string path = ::testing::TempDir() + "/stmaker_csv_closed.csv";
  auto writer = CsvWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->WriteRow({"x"}).code(), StatusCode::kFailedPrecondition);
}

TEST(CsvTest, OpenBadPathFails) {
  auto writer = CsvWriter::Open("/nonexistent_dir_zz/file.csv");
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------------------------
// CSV tables (schema-checked rectangular CSV)
// --------------------------------------------------------------------------

TEST(CsvTableTest, RejectsWrongHeader) {
  auto rows = ReadTable("a,b\n1,2\n", {"x", "y"});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("test.csv"), std::string::npos);
  // A quoted header cell compares by its unquoted value.
  EXPECT_TRUE(ReadTable("\"x\",y\n1,2\n", {"x", "y"}).ok());
  EXPECT_FALSE(ReadTable("x,y,z\n1,2\n", {"x", "y"}).ok());
}

TEST(CsvTableTest, RaggedRowIsAnErrorWithRowContext) {
  // A short row used to be silently accepted by schemaless readers; the
  // table layer must name the file and the offending row instead.
  auto rows = ReadTable("x,y\n1,2\n3\n5,6\n", {"x", "y"}, "poison.csv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rows.status().message().find("poison.csv"), std::string::npos);
  EXPECT_NE(rows.status().message().find("row 3"), std::string::npos)
      << rows.status().message();

  auto wide = ReadTable("x,y\n1,2,3\n", {"x", "y"}, "wide.csv");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wide.status().message().find("row 2"), std::string::npos);

  // A blank line is a one-field record, so it is ragged too.
  EXPECT_FALSE(ReadTable("x,y\n1,2\n\n3,4\n", {"x", "y"}).ok());
}

TEST(CsvTableTest, TypedFieldsNameRowAndColumn) {
  auto reader = CsvTableReader::FromText("x,y\n1,2\n3,abc\n", {"x", "y"},
                                         "typed.csv");
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(*reader->Next());
  EXPECT_EQ(*reader->Int(0), 1);
  EXPECT_EQ(*reader->Double(1), 2.0);
  ASSERT_TRUE(*reader->Next());
  auto bad = reader->Double(1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(),
            "typed.csv: row 3, column 'y': not a number: 'abc'");
}

TEST(CsvTableTest, OpenCarriesPathContext) {
  std::string path = ::testing::TempDir() + "/stmaker_table_ragged.csv";
  ASSERT_TRUE(WriteFileToPath(path, "x,y\n1\n").ok());
  auto reader = CsvTableReader::Open(path, {"x", "y"});
  ASSERT_TRUE(reader.ok());
  auto row = reader->Next();
  ASSERT_FALSE(row.ok());
  EXPECT_EQ(row.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(row.status().message().find(path), std::string::npos);

  auto missing = CsvTableReader::Open("/nonexistent_dir_zz/t.csv", {"x", "y"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------------------------
// Whole-field numbers (the strtod / strtoll language)
// --------------------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(NumericFieldTest, DoublesMatchStrtodBitForBit) {
  for (const char* text :
       {"0", "-0", "1.5", "-2.25", "123456.789", "1e-300", "4e-320", ".5",
        "5.", "+3", " 7", "\t8", "0x1p3", "0X1A", "inf", "-Infinity", "nan",
        "-nan", "nan(123)", "1e999", "-1e999", "0.1", "2.2250738585072014e-308",
        "179769313486231570000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000"
        "00000"}) {
    char* end = nullptr;
    const double want = std::strtod(text, &end);
    ASSERT_EQ(*end, '\0') << text;
    auto got = ParseDoubleField(text);
    ASSERT_TRUE(got.has_value()) << text;
    EXPECT_TRUE(SameBits(*got, want)) << text;
  }
}

TEST(NumericFieldTest, RejectsWhatStrtodDoesNotConsumeWhole) {
  for (const char* text : {"", " ", "abc", "1 ", "1e", "1.5x", "--1", "+",
                           "0x", "1,2", "e5"}) {
    EXPECT_FALSE(ParseDoubleField(text).has_value()) << "'" << text << "'";
  }
  // A NUL ends the field for strtod, exactly as it did on a c_str().
  EXPECT_EQ(ParseDoubleField(std::string_view("2\0x", 3)), 2.0);
}

TEST(NumericFieldTest, IntegersMatchStrtoll) {
  EXPECT_EQ(ParseIntField("42"), 42);
  EXPECT_EQ(ParseIntField("-7"), -7);
  EXPECT_EQ(ParseIntField("+7"), 7);
  EXPECT_EQ(ParseIntField("  9"), 9);
  EXPECT_EQ(ParseIntField("99999999999999999999"),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ParseIntField("-99999999999999999999"),
            std::numeric_limits<int64_t>::min());
  for (const char* text : {"", "1.0", "0x10", "1e3", "12 ", "abc", "-"}) {
    EXPECT_FALSE(ParseIntField(text).has_value()) << "'" << text << "'";
  }
}

// --------------------------------------------------------------------------
// File utilities
// --------------------------------------------------------------------------

TEST(FileUtilTest, AtomicWriteLeavesNoTempOnSuccess) {
  std::string path = ::testing::TempDir() + "/stmaker_atomic.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "hello").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(FileUtilTest, ReadMissingFileIsIoError) {
  auto content = ReadFileToString("/nonexistent_dir_zz/nope.txt");
  ASSERT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace stmaker
