#include "codec/huffman.h"

#include <algorithm>

#include "common/check.h"

namespace fsd::codec {

std::vector<uint8_t> BuildCodeLengths(const std::vector<uint64_t>& freqs,
                                      int max_len) {
  const int n = static_cast<int>(freqs.size());
  std::vector<uint8_t> lengths(n, 0);
  std::vector<int> used;
  for (int i = 0; i < n; ++i) {
    if (freqs[i] > 0) used.push_back(i);
  }
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
  std::vector<uint64_t> freq(2 * m - 1);
  std::vector<int> parent(2 * m - 1, -1);
  for (int i = 0; i < m; ++i) freq[i] = freqs[used[i]];
  std::vector<int> leaves(m);
  for (int i = 0; i < m; ++i) leaves[i] = i;
  std::sort(leaves.begin(), leaves.end(), [&freq](int a, int b) {
    return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
  });
  int next_leaf = 0;
  int next_merged = m;  // merged nodes form the FIFO [next_merged, next_id)
  int next_id = m;
  auto pop_min = [&]() {
    const bool merged_empty = next_merged == next_id;
    if (next_leaf < m &&
        (merged_empty || freq[leaves[next_leaf]] <= freq[next_merged])) {
      return leaves[next_leaf++];  // on a tie the leaf's lower id wins
    }
    return next_merged++;
  };
  while (next_id < 2 * m - 1) {
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
    uint32_t c = next_code[len]++;
    uint32_t rev = 0;
    for (int b = 0; b < len; ++b) {
      rev = (rev << 1) | (c & 1u);
      c >>= 1;
    }
    codes_[s] = rev;
  }
}

Result<HuffmanDecoder> HuffmanDecoder::Build(
    const std::vector<uint8_t>& lengths) {
  HuffmanDecoder dec;
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] > kMaxCodeLen) {
      return Status::InvalidArgument("huffman code length out of range");
    }
    if (lengths[s] > 0) ++dec.count_[lengths[s]];
  }
  // sorted_symbols_: symbols ordered by (length, symbol index).
  int offsets[kMaxCodeLen + 2] = {0};
  int total = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    offsets[l] = total;
    total += dec.count_[l];
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
    code = (code + dec.count_[l - 1]) << 1;
    dec.first_code_[l] = code;
    dec.first_index_[l] = offsets[l];
    code += 0;  // first code of this length is `code`
    kraft += static_cast<uint64_t>(dec.count_[l]) << (kMaxCodeLen - l);
  }
  if (total > 0 && kraft > (1ull << kMaxCodeLen)) {
    return Status::InvalidArgument("over-subscribed huffman code");
  }
  // The code is prefix-free, so each short codeword owns every table
  // window whose low `l` bits are its bits in stream (LSB-first) order.
  for (int l = 1; l <= kTableBits; ++l) {
    for (int k = 0; k < dec.count_[l]; ++k) {
      const int symbol = dec.sorted_symbols_[dec.first_index_[l] + k];
      if (symbol > 0xFFFF) continue;  // outside TableEntry: bit loop
      uint32_t code = dec.first_code_[l] + static_cast<uint32_t>(k);
      uint32_t reversed = 0;
      for (int b = 0; b < l; ++b) {
        reversed = (reversed << 1) | (code & 1u);
        code >>= 1;
      }
      for (uint32_t w = reversed; w < dec.table_.size(); w += 1u << l) {
        dec.table_[w] = {static_cast<uint16_t>(symbol),
                         static_cast<uint8_t>(l)};
      }
    }
  }
  return dec;
}

Result<int> HuffmanDecoder::DecodeSlow(BitReader* reader) const {
  uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    FSD_ASSIGN_OR_RETURN(int bit, reader->ReadBit());
    code = (code << 1) | static_cast<uint32_t>(bit);
    const uint32_t first = first_code_[len];
    const uint32_t count = count_[len];
    if (count > 0 && code >= first && code < first + count) {
      return sorted_symbols_[first_index_[len] + (code - first)];
    }
  }
  return Status::DataLoss("invalid huffman code in stream");
}

}  // namespace fsd::codec
