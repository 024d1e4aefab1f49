#include "common/status.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace itrim {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_TRUE(Status::OK().message().empty());
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
  };
  std::vector<Case> cases = {
      {Status::InvalidArgument("a"), StatusCode::kInvalidArgument},
      {Status::OutOfRange("b"), StatusCode::kOutOfRange},
      {Status::FailedPrecondition("c"), StatusCode::kFailedPrecondition},
      {Status::NotFound("d"), StatusCode::kNotFound},
      {Status::Internal("f"), StatusCode::kInternal},
      {Status::IOError("h"), StatusCode::kIOError},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_FALSE(c.status.message().empty());
  }
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusCodeNameTest, AllCodesNamed) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_EQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeName(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeName(StatusCode::kIOError), "IOError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> ok(7);
  Result<int> err(Status::Internal("x"));
  EXPECT_EQ(ok.ValueOr(-1), 7);
  EXPECT_EQ(err.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r->size(), 5u);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Propagates(int x) {
  ITRIM_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}

TEST(MacroTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Propagates(1).ok());
  EXPECT_EQ(Propagates(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  int h = 0;
  ITRIM_ASSIGN_OR_RETURN(h, Half(x));
  ITRIM_ASSIGN_OR_RETURN(h, Half(h));
  return h;
}

TEST(MacroTest, AssignOrReturnChains) {
  Result<int> r = Quarter(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

}  // namespace
}  // namespace itrim
