// LSB-first bit-level reader/writer backing the Huffman-coded LZ format.
#ifndef FSD_CODEC_BITSTREAM_H_
#define FSD_CODEC_BITSTREAM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"
#include "common/check.h"
#include "common/result.h"

namespace fsd::codec {

/// Accumulates bits LSB-first into a byte vector, storing 32 bits at a
/// time. The bytes are those of a byte-at-a-time writer. Until Finish, the
/// vector may hold scratch bytes past the written ones: it is grown into
/// its reserved capacity at once, so an exact `reserve` means no copy.
class BitWriter {
 public:
  explicit BitWriter(Bytes* out) : out_(out), size_(out->size()) {}

  /// Writes the low `count` bits of `bits` (count <= 32).
  void Write(uint32_t bits, int count) {
    FSD_CHECK(count >= 0 && count <= 32);
    acc_ |= (bits & ((uint64_t{1} << count) - 1)) << filled_;
    filled_ += count;
    if (filled_ >= 32) {
      if (out_->size() < size_ + 4) {
        out_->resize(std::max(out_->capacity(), size_ + 4));
      }
      uint32_t word = static_cast<uint32_t>(acc_);
      if constexpr (std::endian::native == std::endian::big) {
        word = __builtin_bswap32(word);
      }
      std::memcpy(out_->data() + size_, &word, 4);
      size_ += 4;
      acc_ >>= 32;
      filled_ -= 32;
    }
  }

  /// Drops the scratch bytes and flushes the buffered bits, the last byte
  /// zero-padded. Call exactly once at the end.
  void Finish() {
    out_->resize(size_);
    for (; filled_ > 0; filled_ -= 8) {
      out_->push_back(static_cast<uint8_t>(acc_));
      acc_ >>= 8;
    }
    acc_ = 0;
    filled_ = 0;
  }

 private:
  Bytes* out_;
  size_t size_;     // bytes written
  uint64_t acc_ = 0;
  int filled_ = 0;  // < 32 between calls
};

/// Reads bits LSB-first from a byte span, loading eight bytes at a time.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Tops the buffer up to at least 56 bits, or to every bit the stream
  /// has left; returns the number of buffered bits.
  int Refill() {
    if (size_ - pos_ >= 8) {
      uint64_t word;
      std::memcpy(&word, data_ + pos_, 8);
      if constexpr (std::endian::native == std::endian::big) {
        word = __builtin_bswap64(word);
      }
      // Bits above the new count come from the byte at the new position;
      // the next load ORs the same bits over them.
      acc_ |= word << filled_;
      pos_ += static_cast<size_t>(63 - filled_) >> 3;
      filled_ |= 56;
    } else {
      while (filled_ < 56 && pos_ < size_) {
        acc_ |= static_cast<uint64_t>(data_[pos_++]) << filled_;
        filled_ += 8;
      }
    }
    return filled_;
  }

  /// The buffered bits, LSB-first. Bits above the buffered count are
  /// unspecified.
  uint64_t window() const { return acc_; }

  /// The next `count` buffered bits (count <= 32, requires that many).
  uint32_t Peek(int count) const {
    return static_cast<uint32_t>(acc_ & ((uint64_t{1} << count) - 1));
  }

  /// Drops `count` buffered bits (requires count <= buffered bits).
  void Consume(int count) {
    acc_ >>= count;
    filled_ -= count;
  }

  /// Reads `count` bits (count <= 32); fails on underrun.
  Result<uint32_t> Read(int count) {
    FSD_CHECK(count >= 0 && count <= 32);
    if (filled_ < count && Refill() < count) {
      return Status::DataLoss("bitstream underrun");
    }
    const uint32_t value = Peek(count);
    Consume(count);
    return value;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  int filled_ = 0;  // <= 63
};

}  // namespace fsd::codec

#endif  // FSD_CODEC_BITSTREAM_H_
