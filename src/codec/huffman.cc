#include "codec/huffman.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/check.h"

namespace fsd::codec {

namespace {

constexpr std::array<uint8_t, 256> kReverse8 = [] {
  std::array<uint8_t, 256> table{};
  for (int b = 0; b < 256; ++b) {
    for (int i = 0; i < 8; ++i) {
      if (b & (1 << i)) table[b] |= static_cast<uint8_t>(0x80 >> i);
    }
  }
  return table;
}();

/// The low `len` bits of `code` in reverse order (len <= 16).
uint32_t ReverseBits(uint32_t code, int len) {
  const uint32_t reversed16 = (uint32_t{kReverse8[code & 0xFF]} << 8) |
                              kReverse8[(code >> 8) & 0xFF];
  return reversed16 >> (16 - len);
}

}  // namespace

std::vector<uint8_t> BuildCodeLengths(std::span<const uint64_t> freqs,
                                      int max_len) {
  const int n = static_cast<int>(freqs.size());
  std::vector<uint8_t> lengths(n, 0);
  std::vector<int> used(n);
  int num_used = 0;
  for (int i = 0; i < n; ++i) {
    used[num_used] = i;
    num_used += freqs[i] > 0 ? 1 : 0;
  }
  used.resize(num_used);
  if (used.empty()) return lengths;
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    return lengths;
  }

  // Two-queue Huffman construction. Node ids: leaves 0..m-1 in symbol
  // order, merged nodes m.. in creation order. Leaves sorted by (freq, id)
  // and the FIFO of merged nodes (whose freqs never decrease and whose ids
  // always grow) pop in exactly the (freq, id) order a min-heap over all
  // nodes would, so the tree — and every code length — is the heap's.
  const int m = static_cast<int>(used.size());
  // Slot 2m-1 holds the frequency that sorts after every node: the leaf
  // queue ends in it, and the merged FIFO's next free slot holds it too.
  constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max();
  const int sentinel = 2 * m - 1;
  std::vector<uint64_t> freq(2 * m);
  std::vector<int> parent(2 * m - 1, -1);
  uint64_t max_freq = 0;
  for (int i = 0; i < m; ++i) {
    freq[i] = freqs[used[i]];
    max_freq = std::max(max_freq, freq[i]);
  }
  freq[sentinel] = kNone;
  // (freq, id) order by a stable LSD radix sort over the frequency bytes:
  // the leaves start in id order, so equal frequencies keep it.
  std::vector<int> leaves(m + 1, sentinel);
  std::vector<int> sorted(m + 1, sentinel);
  for (int i = 0; i < m; ++i) leaves[i] = i;
  for (int shift = 0; shift < 64 && (max_freq >> shift) != 0; shift += 8) {
    int start[257] = {0};
    for (int i = 0; i < m; ++i) ++start[((freq[i] >> shift) & 0xFF) + 1];
    for (int b = 0; b < 256; ++b) start[b + 1] += start[b];
    for (int i = 0; i < m; ++i) {
      const int id = leaves[i];
      sorted[start[(freq[id] >> shift) & 0xFF]++] = id;
    }
    leaves.swap(sorted);
  }
  int next_leaf = 0;
  int next_merged = m;  // merged nodes form the FIFO [next_merged, next_id)
  int next_id = m;
  // Branch-free pop: the comparison decides by data, not by a jump.
  auto pop_min = [&]() {
    const int leaf = leaves[next_leaf];
    const bool take_leaf = freq[leaf] <= freq[next_merged];  // tie: leaf
    next_leaf += take_leaf ? 1 : 0;
    next_merged += take_leaf ? 0 : 1;
    return take_leaf ? leaf : next_merged - 1;
  };
  while (next_id < 2 * m - 1) {
    freq[next_id] = kNone;
    const int a = pop_min();
    const int b = pop_min();
    freq[next_id] = freq[a] + freq[b];
    parent[a] = parent[b] = next_id;
    ++next_id;
  }
  // Parents always have larger ids, so one descending pass sets depths.
  std::vector<uint8_t> depth(2 * m - 1, 0);
  for (int id = 2 * m - 3; id >= 0; --id) {
    depth[id] = static_cast<uint8_t>(depth[parent[id]] + 1);
  }
  for (int i = 0; i < m; ++i) lengths[used[i]] = depth[i];

  // Enforce the length limit by demoting over-long codes and rebalancing
  // (heuristic used by zlib: push overflow down onto shorter codes while
  // preserving the Kraft inequality).
  int max_depth = 0;
  for (int s : used) max_depth = std::max<int>(max_depth, lengths[s]);
  if (max_depth <= max_len) return lengths;

  std::vector<int> bl_count(max_len + 1, 0);
  for (int s : used) {
    const int len = std::min<int>(lengths[s], max_len);
    lengths[s] = static_cast<uint8_t>(len);
    ++bl_count[len];
  }
  // Repair Kraft sum: sum(2^-len) must be <= 1.
  auto kraft = [&]() {
    uint64_t sum = 0;  // scaled by 2^max_len
    for (int l = 1; l <= max_len; ++l) {
      sum += static_cast<uint64_t>(bl_count[l]) << (max_len - l);
    }
    return sum;
  };
  const uint64_t budget = 1ull << max_len;
  while (kraft() > budget) {
    // Find a code at max_len and a code at < max_len - 1 to split; the
    // classic fix: take one max_len code, pair it under an existing
    // (max_len-1) code by lengthening that one.
    int l = max_len - 1;
    while (l > 0 && bl_count[l] == 0) --l;
    FSD_CHECK_GT(l, 0);
    --bl_count[l];
    bl_count[l + 1] += 2;
    --bl_count[max_len];
  }
  // Reassign lengths canonically: symbols sorted by original freq desc get
  // shorter codes first.
  std::sort(used.begin(), used.end(), [&](int a, int b) {
    if (freqs[a] != freqs[b]) return freqs[a] > freqs[b];
    return a < b;
  });
  size_t pos = 0;
  for (int l = 1; l <= max_len; ++l) {
    for (int c = 0; c < bl_count[l]; ++c) {
      FSD_CHECK_LT(pos, used.size());
      lengths[used[pos++]] = static_cast<uint8_t>(l);
    }
  }
  FSD_CHECK_EQ(pos, used.size());
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<uint8_t>& lengths)
    : codes_(lengths.size(), 0), lengths_(lengths) {
  // Canonical code assignment.
  int bl_count[kMaxCodeLen + 1] = {0};
  for (uint8_t len : lengths) {
    if (len > 0) ++bl_count[len];
  }
  uint32_t next_code[kMaxCodeLen + 2] = {0};
  uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + bl_count[len - 1]) << 1;
    next_code[len] = code;
  }
  for (size_t s = 0; s < lengths.size(); ++s) {
    const uint8_t len = lengths[s];
    if (len == 0) continue;
    // Reverse bits so the LSB-first writer emits MSB-first canonical codes.
    codes_[s] = ReverseBits(next_code[len]++, len);
  }
}

Result<HuffmanDecoder> HuffmanDecoder::Build(
    const std::vector<uint8_t>& lengths) {
  if (lengths.size() > 0x10000) {
    return Status::InvalidArgument("huffman alphabet above 65536 symbols");
  }
  HuffmanDecoder dec;
  int count[kMaxCodeLen + 2] = {0};
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > kMaxCodeLen) {
      return Status::InvalidArgument("huffman code length out of range");
    }
    if (lengths[s] > 0) ++count[lengths[s]];
  }
  // sorted_symbols_: symbols ordered by (length, symbol index).
  int offsets[kMaxCodeLen + 2] = {0};
  int total = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    offsets[l] = total;
    total += count[l];
  }
  dec.sorted_symbols_.resize(total);
  {
    int cursor[kMaxCodeLen + 2];
    std::copy(offsets, offsets + kMaxCodeLen + 2, cursor);
    for (size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] > 0) {
        dec.sorted_symbols_[cursor[lengths[s]]++] = static_cast<int>(s);
      }
    }
  }
  uint32_t code = 0;
  uint64_t kraft = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    code = (code + count[l - 1]) << 1;
    dec.first_code_[l] = code;
    dec.first_index_[l] = offsets[l];
    dec.limit_[l] = (code + static_cast<uint32_t>(count[l]))
                    << (kMaxCodeLen - l);
    kraft += static_cast<uint64_t>(count[l]) << (kMaxCodeLen - l);
  }
  if (total > 0 && kraft > (1ull << kMaxCodeLen)) {
    return Status::InvalidArgument("over-subscribed huffman code");
  }
  // The code is prefix-free, so each short codeword owns every table
  // window whose low `l` bits are its bits in stream (LSB-first) order.
  for (int l = 1; l <= kTableBits; ++l) {
    for (int k = 0; k < count[l]; ++k) {
      const int symbol = dec.sorted_symbols_[dec.first_index_[l] + k];
      const Symbol entry = {static_cast<uint16_t>(symbol),
                            static_cast<uint8_t>(l)};
      for (uint32_t w = ReverseBits(dec.first_code_[l] + k, l);
           w < dec.table_.size(); w += 1u << l) {
        dec.table_[w] = entry;
      }
    }
  }
  return dec;
}

HuffmanDecoder::Symbol HuffmanDecoder::LookupLong(uint32_t window) const {
  // The codes of each length occupy one contiguous range of left-aligned
  // kMaxCodeLen-bit values, the ranges ascending with the length, so the
  // code is the first length whose limit lies above the window. Windows
  // the table missed hold no code of up to kTableBits bits.
  const uint32_t value = ReverseBits(window, kMaxCodeLen);
  for (int len = kTableBits + 1; len <= kMaxCodeLen; ++len) {
    if (value < limit_[len]) {
      const uint32_t code = value >> (kMaxCodeLen - len);
      const int symbol =
          sorted_symbols_[first_index_[len] + (code - first_code_[len])];
      return {static_cast<uint16_t>(symbol), static_cast<uint8_t>(len)};
    }
  }
  return {};
}

}  // namespace fsd::codec
