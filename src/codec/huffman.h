// Canonical Huffman coding with a bounded code length, used by the LZ codec.
#ifndef FSD_CODEC_HUFFMAN_H_
#define FSD_CODEC_HUFFMAN_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/bitstream.h"
#include "common/result.h"

namespace fsd::codec {

/// Maximum Huffman code length; lengths are stored in 4-bit nibbles.
constexpr int kMaxCodeLen = 15;

/// Computes length-limited canonical code lengths for the given symbol
/// frequencies. Symbols with zero frequency get length 0 (no code). If only
/// one symbol has nonzero frequency it is assigned length 1.
std::vector<uint8_t> BuildCodeLengths(std::span<const uint64_t> freqs,
                                      int max_len = kMaxCodeLen);

/// Encoder: maps symbol -> (code bits, length) from canonical lengths.
class HuffmanEncoder {
 public:
  /// `lengths[i]` is the code length of symbol i (0 = unused).
  explicit HuffmanEncoder(const std::vector<uint8_t>& lengths);

  void Encode(BitWriter* writer, int symbol) const {
    writer->Write(codes_[symbol], lengths_[symbol]);
  }

  /// The code of `symbol` in stream (LSB-first) order.
  uint32_t code(int symbol) const { return codes_[symbol]; }
  uint8_t length(int symbol) const { return lengths_[symbol]; }

 private:
  std::vector<uint32_t> codes_;
  std::vector<uint8_t> lengths_;
};

/// Decoder over the same canonical code space.
class HuffmanDecoder {
 public:
  /// A decoded symbol and the length of its code; length 0 means the
  /// window starts with no code.
  struct Symbol {
    uint16_t symbol = 0;
    uint8_t length = 0;
  };

  /// Builds the decoder; returns InvalidArgument for an inconsistent code
  /// or an alphabet of more than 65536 symbols.
  static Result<HuffmanDecoder> Build(const std::vector<uint8_t>& lengths);

  /// Resolves the code at the start of `window` (stream bits, LSB-first).
  /// Codes of up to kTableBits bits take one table lookup; longer ones a
  /// canonical search over the next kMaxCodeLen bits. Only the code's own
  /// bits decide the result, so bits past the end of a stream may hold
  /// anything as long as the caller rejects a length beyond them.
  Symbol Lookup(uint64_t window) const {
    const Symbol entry = table_[window & ((1u << kTableBits) - 1)];
    if (entry.length > 0) return entry;
    return LookupLong(static_cast<uint32_t>(window));
  }

  /// Decodes one symbol from `reader`; DataLoss on an invalid code or when
  /// the stream ends inside one.
  Result<int> Decode(BitReader* reader) const {
    const int buffered = reader->Refill();
    const Symbol s = Lookup(reader->window());
    if (s.length == 0 || s.length > buffered) {
      return Status::DataLoss(DecodeError(buffered));
    }
    reader->Consume(s.length);
    return s.symbol;
  }

  /// Why a Lookup over a window of `buffered` stream bits failed: an
  /// invalid code when a full-length code fits, otherwise an underrun.
  static const char* DecodeError(int buffered) {
    return buffered >= kMaxCodeLen ? "invalid huffman code in stream"
                                   : "bitstream underrun";
  }

 private:
  /// Codes of at most this many bits decode with a single table lookup.
  static constexpr int kTableBits = 9;
  HuffmanDecoder() = default;
  Symbol LookupLong(uint32_t window) const;
  // Canonical decoding tables: the codes of length `len` are first_code_[len]
  // onwards (MSB-first) and name sorted_symbols_[first_index_[len]...];
  // limit_[len] is one past the last of them, left-aligned to kMaxCodeLen
  // bits. sorted_symbols_ lists symbols ordered by (length, symbol).
  uint32_t first_code_[kMaxCodeLen + 2] = {0};
  int first_index_[kMaxCodeLen + 2] = {0};
  uint32_t limit_[kMaxCodeLen + 2] = {0};
  std::vector<int> sorted_symbols_;
  // The code that prefixes each kTableBits-bit window (read LSB-first);
  // length 0 marks windows needing the canonical search.
  std::array<Symbol, 1u << kTableBits> table_{};
};

}  // namespace fsd::codec

#endif  // FSD_CODEC_HUFFMAN_H_
