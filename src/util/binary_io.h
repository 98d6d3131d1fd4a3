#ifndef VDB_UTIL_BINARY_IO_H_
#define VDB_UTIL_BINARY_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace vdb {

// Little-endian binary encoder into an owned buffer. Used by the on-disk
// catalog format; keeps all byte-order handling in one place.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutDouble(double v);
  // Length-prefixed (u32) byte string.
  void PutString(std::string_view s);
  // Raw bytes, no length prefix.
  void PutBytes(std::string_view bytes) { buffer_.append(bytes); }

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Matching decoder over a borrowed buffer; every read returns kCorruption
// on underflow, so truncation surfaces as a clean error.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8(const char* what);
  Result<uint32_t> GetU32(const char* what);
  Result<uint64_t> GetU64(const char* what);
  Result<int32_t> GetI32(const char* what);
  Result<double> GetDouble(const char* what);
  // Length-prefixed string; `max_len` guards against absurd lengths in
  // corrupted files.
  Result<std::string> GetString(const char* what, size_t max_len = 1 << 20);

  size_t remaining() const { return data_.size() - offset_; }
  bool AtEnd() const { return offset_ == data_.size(); }

 private:
  Status Need(size_t n, const char* what);

  std::string_view data_;
  size_t offset_ = 0;
};

}  // namespace vdb

#endif  // VDB_UTIL_BINARY_IO_H_
