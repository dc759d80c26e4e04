#include "mec/io/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mec::io {
namespace {

TEST(JsonTest, Scalars) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::boolean(false).dump(), "false");
  EXPECT_EQ(Json::integer(-42).dump(), "-42");
  EXPECT_EQ(Json::number(2.5).dump(), "2.5");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(JsonTest, NumbersRoundTripDoubles) {
  const double v = 0.1234567890123456789;
  const std::string s = Json::number(v).dump();
  EXPECT_DOUBLE_EQ(std::stod(s), v);
}

TEST(JsonTest, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json::number(std::nan("")).dump(), "null");
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(JsonTest, EscapesStrings) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(Json::string("tab\there").dump(), "\"tab\\there\"");
}

TEST(JsonTest, CompactObjects) {
  const Json j = Json::object({
      {"xs", Json::object({{"b", Json::integer(2)}, {"a", Json::integer(1)}})},
      {"name", Json::string("run")},
  });
  // std::map orders keys alphabetically.
  EXPECT_EQ(j.dump(), R"({"name":"run","xs":{"a":1,"b":2}})");
}

TEST(JsonTest, EmptyContainers) {
  EXPECT_EQ(Json::object({}).dump(), "{}");
  EXPECT_EQ(Json::object({}).dump(2), "{}");
}

TEST(JsonTest, PrettyPrintingIndents) {
  const Json j = Json::object({{"a", Json::integer(1)}});
  EXPECT_EQ(j.dump(2), "{\n  \"a\": 1\n}");
  const Json nested =
      Json::object({{"xs", Json::object({{"b", Json::integer(1)}})}});
  EXPECT_EQ(nested.dump(2), "{\n  \"xs\": {\n    \"b\": 1\n  }\n}");
}

TEST(JsonTest, DeepNestingSerializes) {
  Json j = Json::integer(0);
  for (int i = 0; i < 50; ++i) j = Json::object({{"a", j}});
  const std::string s = j.dump();
  EXPECT_EQ(s.find("0"), 50u * 5);  // 50 times {"a": then the zero
}

}  // namespace
}  // namespace mec::io
