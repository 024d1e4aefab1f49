#include "common/status.h"

namespace itrim {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIOError:
      return "IOError";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  out += ": ";
  out += message_;
  return out;
}

}  // namespace itrim
