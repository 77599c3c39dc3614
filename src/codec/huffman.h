// Canonical Huffman coding with a bounded code length, used by the LZ codec.
#ifndef FSD_CODEC_HUFFMAN_H_
#define FSD_CODEC_HUFFMAN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "codec/bitstream.h"
#include "common/result.h"

namespace fsd::codec {

/// Maximum Huffman code length; lengths are stored in 4-bit nibbles.
constexpr int kMaxCodeLen = 15;

/// Computes length-limited canonical code lengths for the given symbol
/// frequencies. Symbols with zero frequency get length 0 (no code). If only
/// one symbol has nonzero frequency it is assigned length 1.
std::vector<uint8_t> BuildCodeLengths(const std::vector<uint64_t>& freqs,
                                      int max_len = kMaxCodeLen);

/// Encoder: maps symbol -> (code bits, length) from canonical lengths.
class HuffmanEncoder {
 public:
  /// `lengths[i]` is the code length of symbol i (0 = unused).
  explicit HuffmanEncoder(const std::vector<uint8_t>& lengths);

  void Encode(BitWriter* writer, int symbol) const {
    writer->Write(codes_[symbol], lengths_[symbol]);
  }

  uint8_t length(int symbol) const { return lengths_[symbol]; }

 private:
  std::vector<uint32_t> codes_;
  std::vector<uint8_t> lengths_;
};

/// Decoder over the same canonical code space.
class HuffmanDecoder {
 public:
  /// Builds the decoder; returns InvalidArgument for an inconsistent code.
  static Result<HuffmanDecoder> Build(const std::vector<uint8_t>& lengths);

  /// Decodes one symbol: one lookup in a kTableBits-wide table when the
  /// code is that short and the stream holds that many bits, otherwise
  /// bit-by-bit (canonical first-code method), which also rejects invalid
  /// codes.
  Result<int> Decode(BitReader* reader) const {
    if (reader->Fill(kTableBits) >= kTableBits) {
      const TableEntry entry = table_[reader->Peek(kTableBits)];
      if (entry.length > 0) {
        reader->Consume(entry.length);
        return static_cast<int>(entry.symbol);
      }
    }
    return DecodeSlow(reader);
  }

 private:
  /// Codes of at most this many bits decode with a single table lookup.
  static constexpr int kTableBits = 9;
  /// Symbol and length of the code that prefixes a kTableBits-bit window
  /// (read LSB-first); length 0 marks windows needing the bit loop.
  struct TableEntry {
    uint16_t symbol = 0;
    uint8_t length = 0;
  };

  HuffmanDecoder() = default;
  Result<int> DecodeSlow(BitReader* reader) const;
  // first_code_[len], first_index_[len] give the canonical decoding tables;
  // sorted_symbols_ lists symbols ordered by (length, symbol).
  uint32_t first_code_[kMaxCodeLen + 2] = {0};
  int first_index_[kMaxCodeLen + 2] = {0};
  uint16_t count_[kMaxCodeLen + 2] = {0};
  std::vector<int> sorted_symbols_;
  std::array<TableEntry, 1u << kTableBits> table_{};
};

}  // namespace fsd::codec

#endif  // FSD_CODEC_HUFFMAN_H_
