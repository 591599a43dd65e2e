#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "sparql/binding.h"

namespace rdfspark {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token at line 3");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token at line 3");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kAlreadyExists),
               "AlreadyExists");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(std::move(r).ValueOr(-1), -1);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  RDFSPARK_ASSIGN_OR_RETURN(*out, HalfOf(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseHalf(7, &out).code(), StatusCode::kInvalidArgument);
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrips) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, "::"), "x::y::z");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t "), "");
}

TEST(StringUtilTest, AffixChecks) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("x", "http://"));
  EXPECT_TRUE(EndsWith("file.nt", ".nt"));
  EXPECT_FALSE(EndsWith("nt", ".nt"));
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3u << 20), "3.00 MiB");
}

TEST(JsonTest, ValidatorAcceptsRfc8259AndRejectsTheRest) {
  for (const char* ok :
       {"{}", "[]", " {\"a\":[1,-0.5e+3,true,false,null]} ",
        "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00E9\"", "\"\\ud800\""}) {
    std::string error;
    EXPECT_TRUE(ValidateJson(ok, &error)) << ok << ": " << error;
  }
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "{1:2}", "01", "1.", "1e", "-", "tru",
        "\"\\x\"", "\"\\u12g4\"", "\"\\", "\"a", "\"\x01\"", "{} {}"}) {
    EXPECT_FALSE(ValidateJson(bad)) << bad;
  }
  std::string error;
  EXPECT_FALSE(ValidateJson("[1,2", &error));
  EXPECT_EQ(error, "unterminated array at offset 4");
  EXPECT_FALSE(ValidateJson("\"\\q\"", &error));
  EXPECT_EQ(error, "bad escape character at offset 2");
}

TEST(HashTest, Fnv1aIsStable) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  // Known FNV-1a vector for empty input.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
}

TEST(HashTest, MixSpreadsConsecutiveInts) {
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 64; ++i) buckets.insert(MixHash64(i) % 8);
  EXPECT_GE(buckets.size(), 7u);  // near-uniform over 8 buckets
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, RangeInclusive) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng r(5);
  int low = 0, high = 0;
  for (int i = 0; i < 2000; ++i) {
    uint64_t k = r.Zipf(100, 1.0);
    EXPECT_LT(k, 100u);
    if (k < 10) ++low;
    if (k >= 90) ++high;
  }
  EXPECT_GT(low, high * 3);
}

TEST(RngTest, ShufflePermutes) {
  Rng r(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// The O(1) VarIndex map must agree with a linear scan of vars() on every
// table shape the relational ops produce, or column lookups silently read
// the wrong cells.
void ExpectVarIndexConsistent(const sparql::BindingTable& table) {
  for (size_t i = 0; i < table.vars().size(); ++i) {
    EXPECT_EQ(table.VarIndex(table.vars()[i]), static_cast<int>(i))
        << table.vars()[i];
  }
  EXPECT_EQ(table.VarIndex("no_such_variable"), -1);
}

TEST(BindingTableVarIndexTest, ConsistentAcrossTableShapes) {
  sparql::BindingTable a({"s", "p", "o"});
  a.AddRow({1, 2, 3});
  a.AddRow({4, 5, 6});
  ExpectVarIndexConsistent(a);

  sparql::BindingTable b({"o", "x"});
  b.AddRow({3, 9});
  ExpectVarIndexConsistent(b);

  ExpectVarIndexConsistent(sparql::HashJoin(a, b));
  ExpectVarIndexConsistent(sparql::UnionTables(a, b));
  ExpectVarIndexConsistent(sparql::Project(a, {"o", "s", "missing"}));
  ExpectVarIndexConsistent(sparql::Distinct(a));
  ExpectVarIndexConsistent(sparql::BindingTable::Unit());
}

}  // namespace
}  // namespace rdfspark
