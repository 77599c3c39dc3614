// LSB-first bit-level reader/writer backing the Huffman-coded LZ format.
#ifndef FSD_CODEC_BITSTREAM_H_
#define FSD_CODEC_BITSTREAM_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/check.h"
#include "common/result.h"

namespace fsd::codec {

/// Accumulates bits LSB-first into a byte vector.
class BitWriter {
 public:
  explicit BitWriter(Bytes* out) : out_(out) {}

  /// Writes the low `count` bits of `bits` (count <= 32).
  void Write(uint32_t bits, int count) {
    FSD_CHECK(count >= 0 && count <= 32);
    acc_ |= static_cast<uint64_t>(bits & ((count == 32) ? 0xFFFFFFFFu
                                                        : ((1u << count) - 1)))
            << filled_;
    filled_ += count;
    while (filled_ >= 8) {
      out_->push_back(static_cast<uint8_t>(acc_));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  /// Flushes any partial byte (zero-padded). Call exactly once at the end.
  void Finish() {
    if (filled_ > 0) {
      out_->push_back(static_cast<uint8_t>(acc_));
      acc_ = 0;
      filled_ = 0;
    }
  }

 private:
  Bytes* out_;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

/// Reads bits LSB-first from a byte span.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Reads `count` bits (count <= 32); fails on underrun.
  Result<uint32_t> Read(int count) {
    FSD_CHECK(count >= 0 && count <= 32);
    while (filled_ < count) {
      if (pos_ >= size_) return Status::DataLoss("bitstream underrun");
      acc_ |= static_cast<uint64_t>(data_[pos_++]) << filled_;
      filled_ += 8;
    }
    const uint32_t value = static_cast<uint32_t>(
        acc_ & ((count == 32) ? 0xFFFFFFFFull : ((1ull << count) - 1)));
    acc_ >>= count;
    filled_ -= count;
    return value;
  }

  /// Reads a single bit; hot path for Huffman decoding.
  Result<int> ReadBit() {
    if (filled_ == 0) {
      if (pos_ >= size_) return Status::DataLoss("bitstream underrun");
      acc_ = data_[pos_++];
      filled_ = 8;
    }
    const int bit = static_cast<int>(acc_ & 1u);
    acc_ >>= 1;
    --filled_;
    return bit;
  }

  /// Buffers up to `count` bits (count <= 57) without consuming any, as far
  /// as the stream holds them; returns how many bits are buffered.
  int Fill(int count) {
    while (filled_ < count && pos_ < size_) {
      acc_ |= static_cast<uint64_t>(data_[pos_++]) << filled_;
      filled_ += 8;
    }
    return filled_;
  }

  /// The next `count` buffered bits, LSB-first (requires Fill(count)).
  uint32_t Peek(int count) const {
    return static_cast<uint32_t>(acc_ & ((1ull << count) - 1));
  }

  /// Drops `count` buffered bits (requires count <= buffered bits).
  void Consume(int count) {
    acc_ >>= count;
    filled_ -= count;
  }

  /// Number of whole bytes consumed so far (including buffered bits).
  size_t bytes_consumed() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

}  // namespace fsd::codec

#endif  // FSD_CODEC_BITSTREAM_H_
