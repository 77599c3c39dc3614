// Byte buffer and cursor types used for message payloads and object bodies.
#ifndef FSD_COMMON_BYTES_H_
#define FSD_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fsd {

using Bytes = std::vector<uint8_t>;

/// An immutable byte buffer shared by reference: a value in flight through
/// a simulated service, or a cached wire image several transfers carry.
/// Nothing may write through it, so holders can compare by identity.
using SharedBytes = std::shared_ptr<const Bytes>;

/// Appends raw little-endian scalar bytes to `out`.
template <typename T>
void AppendRaw(Bytes* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

/// Sequential reader over a byte span with bounds checking.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool exhausted() const { return pos_ >= size_; }

  /// Reads a trivially-copyable scalar; fails cleanly on truncation.
  template <typename T>
  Result<T> Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) {
      return Status::OutOfRange("byte reader truncated scalar");
    }
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// Reads `n` raw bytes.
  Result<Bytes> ReadBytes(size_t n) {
    if (remaining() < n) {
      return Status::OutOfRange("byte reader truncated span");
    }
    Bytes out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }

  /// Returns a pointer to the current position and advances by n.
  Result<const uint8_t*> Skip(size_t n) {
    if (remaining() < n) {
      return Status::OutOfRange("byte reader truncated skip");
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace fsd

#endif  // FSD_COMMON_BYTES_H_
