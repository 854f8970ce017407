#include "tsss/obs/json.h"

#include <string>

#include <gtest/gtest.h>

namespace tsss::obs {
namespace {

TEST(ObsJsonTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\u000db");
  EXPECT_EQ(JsonEscape(std::string("a\x01" "b")), "a\\u0001b");
  EXPECT_EQ(JsonEscape(std::string(1, '\0')), "\\u0000");
}

TEST(ObsJsonTest, LeavesPrintableAndHighBytesAlone) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("range_query p99 {x:1}"), "range_query p99 {x:1}");
  EXPECT_EQ(JsonEscape("\xc3\xa9"), "\xc3\xa9");  // UTF-8 passes through
}

}  // namespace
}  // namespace tsss::obs
