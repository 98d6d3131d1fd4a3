#include "util/binary_io.h"

#include <cstring>

#include "util/string_util.h"

namespace vdb {

void BinaryWriter::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  buffer_.append(bytes, sizeof(bytes));
}

void BinaryWriter::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  buffer_.append(bytes, sizeof(bytes));
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buffer_.append(s);
}

Status BinaryReader::Need(size_t n, const char* what) {
  if (offset_ + n > data_.size()) {
    return Status::Corruption(
        StrFormat("truncated buffer reading %s (need %zu, have %zu)", what,
                  n, data_.size() - offset_));
  }
  return Status::Ok();
}

Result<uint8_t> BinaryReader::GetU8(const char* what) {
  VDB_RETURN_IF_ERROR(Need(1, what));
  return static_cast<uint8_t>(data_[offset_++]);
}

Result<uint32_t> BinaryReader::GetU32(const char* what) {
  VDB_RETURN_IF_ERROR(Need(4, what));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[offset_ + i]))
         << (8 * i);
  }
  offset_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::GetU64(const char* what) {
  VDB_ASSIGN_OR_RETURN(uint32_t lo, GetU32(what));
  VDB_ASSIGN_OR_RETURN(uint32_t hi, GetU32(what));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

Result<int32_t> BinaryReader::GetI32(const char* what) {
  VDB_ASSIGN_OR_RETURN(uint32_t v, GetU32(what));
  return static_cast<int32_t>(v);
}

Result<double> BinaryReader::GetDouble(const char* what) {
  VDB_ASSIGN_OR_RETURN(uint64_t bits, GetU64(what));
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::GetString(const char* what,
                                            size_t max_len) {
  VDB_ASSIGN_OR_RETURN(uint32_t len, GetU32(what));
  if (len > max_len) {
    return Status::Corruption(
        StrFormat("implausible %s length %u", what, len));
  }
  VDB_RETURN_IF_ERROR(Need(len, what));
  std::string out(data_.substr(offset_, len));
  offset_ += len;
  return out;
}

}  // namespace vdb
