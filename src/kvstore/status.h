// Result type for kvstore operations, following the LevelDB/RocksDB idiom:
// cheap to pass by value, carries a code plus a context message.
#pragma once

#include <string>
#include <string_view>

namespace teeperf::kvs {

class Status {
 public:
  Status() = default;  // OK

  static Status ok() { return Status(); }
  static Status not_found(std::string_view msg = "") { return Status(Code::kNotFound, msg); }
  static Status corruption(std::string_view msg = "") { return Status(Code::kCorruption, msg); }
  static Status io_error(std::string_view msg = "") { return Status(Code::kIoError, msg); }
  static Status invalid(std::string_view msg = "") { return Status(Code::kInvalid, msg); }

  bool is_ok() const { return code_ == Code::kOk; }
  bool is_not_found() const { return code_ == Code::kNotFound; }
  bool is_corruption() const { return code_ == Code::kCorruption; }

  std::string to_string() const {
    switch (code_) {
      case Code::kOk: return "OK";
      case Code::kNotFound: return "NotFound: " + msg_;
      case Code::kCorruption: return "Corruption: " + msg_;
      case Code::kIoError: return "IOError: " + msg_;
      case Code::kInvalid: return "Invalid: " + msg_;
    }
    return "?";
  }

 private:
  enum class Code { kOk, kNotFound, kCorruption, kIoError, kInvalid };
  Status(Code code, std::string_view msg) : code_(code), msg_(msg) {}

  Code code_ = Code::kOk;
  std::string msg_;
};

}  // namespace teeperf::kvs
