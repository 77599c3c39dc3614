#include "codec/lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "codec/bitstream.h"
#include "codec/crc32.h"
#include "codec/huffman.h"
#include "codec/varint.h"
#include "common/check.h"

namespace fsd::codec {
namespace {

constexpr uint8_t kMagic0 = 'F';
constexpr uint8_t kMagic1 = 'Z';
constexpr uint8_t kVersion = 1;
constexpr uint8_t kMethodStored = 0;
constexpr uint8_t kMethodLz = 1;

constexpr int kMinMatch = 4;
constexpr int kMaxMatch = 258;
// 32 KiB window: exactly the span the distance-bucket table encodes
// (24577 + 2^13 - 1 = 32768), mirroring DEFLATE.
constexpr int kWindowBits = 15;
constexpr size_t kWindowSize = 1u << kWindowBits;

constexpr int kEndSymbol = 256;
constexpr int kNumLengthBuckets = 24;
constexpr int kNumLitLen = 257 + kNumLengthBuckets;
constexpr int kNumDist = 30;

// Length buckets: base values and extra bits, covering [4, 258].
struct Bucket {
  int base;
  int extra_bits;
};

constexpr Bucket kLengthBuckets[kNumLengthBuckets] = {
    {4, 0},   {5, 0},   {6, 0},   {7, 0},   {8, 0},    {9, 0},
    {10, 0},  {11, 1},  {13, 1},  {15, 1},  {17, 2},   {21, 2},
    {25, 2},  {29, 2},  {33, 3},  {41, 3},  {49, 3},   {57, 3},
    {65, 4},  {81, 4},  {97, 4},  {113, 5}, {145, 6},  {209, 6},
};

constexpr Bucket kDistBuckets[kNumDist] = {
    {1, 0},     {2, 0},     {3, 0},     {4, 0},     {5, 1},    {7, 1},
    {9, 2},     {13, 2},    {17, 3},    {25, 3},    {33, 4},   {49, 4},
    {65, 5},    {97, 5},    {129, 6},   {193, 6},   {257, 7},  {385, 7},
    {513, 8},   {769, 8},   {1025, 9},  {1537, 9},  {2049, 10}, {3073, 10},
    {4097, 11}, {6145, 11}, {8193, 12}, {12289, 12}, {16385, 13}, {24577, 13},
};

/// Index of the last bucket whose base is <= value (bases ascend).
int BucketOf(const Bucket* buckets, int count, int value) {
  int i = count - 1;
  while (i > 0 && buckets[i].base > value) --i;
  return i;
}

/// Bucket lookup tables. Every distance-bucket base above 256 is one more
/// than a multiple of 128, so (dist - 1) >> 7 resolves those exactly.
struct BucketTables {
  uint8_t length[kMaxMatch + 1];
  uint8_t dist_near[257];              // dist in [1, 256]
  uint8_t dist_far[kWindowSize >> 7];  // by (dist - 1) >> 7, dist > 256
};

const BucketTables& Buckets() {
  static const BucketTables tables = [] {
    BucketTables t{};
    for (int len = kMinMatch; len <= kMaxMatch; ++len) {
      t.length[len] = static_cast<uint8_t>(
          BucketOf(kLengthBuckets, kNumLengthBuckets, len));
    }
    for (int dist = 1; dist <= 256; ++dist) {
      t.dist_near[dist] =
          static_cast<uint8_t>(BucketOf(kDistBuckets, kNumDist, dist));
    }
    for (int hi = 2; hi < static_cast<int>(kWindowSize >> 7); ++hi) {
      t.dist_far[hi] = static_cast<uint8_t>(
          BucketOf(kDistBuckets, kNumDist, (hi << 7) + 1));
    }
    return t;
  }();
  return tables;
}

int FindLengthBucket(int length) {
  FSD_CHECK(length >= kMinMatch && length <= kMaxMatch);
  return Buckets().length[length];
}

int FindDistBucket(int dist) {
  FSD_CHECK(dist >= 1 && dist <= static_cast<int>(kWindowSize));
  return dist <= 256 ? Buckets().dist_near[dist]
                     : Buckets().dist_far[(dist - 1) >> 7];
}

struct Token {
  bool is_match;
  uint8_t literal;   // when !is_match
  int length;        // when is_match
  int distance;      // when is_match
};

constexpr size_t kHashSize = 1u << 15;

uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 17;  // 15-bit hash
}

/// Length of the common prefix of `a` and `b`, capped at `max_len`;
/// compares eight bytes at a time.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t len = 0;
  while (len + 8 <= max_len) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    const uint64_t diff = x ^ y;
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<size_t>(std::countr_zero(diff)) / 8;
      } else {
        return len + static_cast<size_t>(std::countl_zero(diff)) / 8;
      }
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

/// Per-thread hash-chain state, reused across calls so a chunk never pays
/// for zeroing a fresh 128 KiB head table. Entries hold `epoch + position`;
/// each call starts a fresh epoch above every value stored before, so
/// stale entries read as empty. `prev` is a window-sized ring: a chain only
/// follows positions inside the window, whose slots are still their own.
/// Both tables are fixed-size, so the scratch stays at 256 KiB per thread.
struct ChainScratch {
  std::vector<uint32_t> head = std::vector<uint32_t>(kHashSize, 0);
  std::vector<uint32_t> prev = std::vector<uint32_t>(kWindowSize, 0);
  uint32_t epoch = 1;
};

// Greedy LZ77 tokenizer with hash chains.
std::vector<Token> Tokenize(const Bytes& input, const LzOptions& options) {
  std::vector<Token> tokens;
  const size_t n = input.size();
  tokens.reserve(n / 3);
  thread_local ChainScratch scratch;
  FSD_CHECK_LT(n, size_t{1} << 31);
  if (n >= std::numeric_limits<uint32_t>::max() - scratch.epoch) {
    std::fill(scratch.head.begin(), scratch.head.end(), 0u);
    scratch.epoch = 1;
  }
  const uint32_t epoch = scratch.epoch;
  scratch.epoch += static_cast<uint32_t>(n);
  uint32_t* head = scratch.head.data();
  uint32_t* prev = scratch.prev.data();
  constexpr size_t kRingMask = kWindowSize - 1;
  const uint8_t* data = input.data();

  auto insert_position = [&](size_t j) {
    if (j + kMinMatch > n) return;
    const uint32_t h = HashAt(data + j);
    prev[j & kRingMask] = head[h];
    head[h] = epoch + static_cast<uint32_t>(j);
  };

  size_t i = 0;
  while (i < n) {
    int best_len = 0;
    int best_dist = 0;
    if (i + kMinMatch <= n) {
      const size_t max_len = std::min<size_t>(kMaxMatch, n - i);
      const uint32_t window_floor =
          epoch + static_cast<uint32_t>(i > kWindowSize ? i - kWindowSize : 0);
      uint32_t entry = head[HashAt(data + i)];
      int probes = options.max_chain_probes;
      while (entry >= window_floor && probes-- > 0) {
        const size_t cand = entry - epoch;
        const uint8_t* a = data + cand;
        const uint8_t* b = data + i;
        // A candidate that differs at best_len cannot beat the best match.
        if (static_cast<size_t>(best_len) < max_len &&
            a[best_len] == b[best_len]) {
          const size_t len = MatchLength(a, b, max_len);
          if (static_cast<int>(len) > best_len) {
            best_len = static_cast<int>(len);
            best_dist = static_cast<int>(i - cand);
            if (best_len >= kMaxMatch) break;
          }
        }
        entry = prev[cand & kRingMask];
      }
    }
    if (best_len >= kMinMatch) {
      tokens.push_back({true, 0, best_len, best_dist});
      // Thread hash entries for every covered position so later matches can
      // reference the interior of this one.
      const size_t end = i + static_cast<size_t>(best_len);
      for (size_t j = i; j < end; ++j) insert_position(j);
      i = end;
    } else {
      tokens.push_back({false, data[i], 0, 0});
      insert_position(i);
      ++i;
    }
  }
  return tokens;
}

void WriteNibbleLengths(Bytes* out, const std::vector<uint8_t>& lengths) {
  for (size_t i = 0; i < lengths.size(); i += 2) {
    uint8_t lo = lengths[i] & 0x0F;
    uint8_t hi = (i + 1 < lengths.size()) ? (lengths[i + 1] & 0x0F) : 0;
    out->push_back(static_cast<uint8_t>(lo | (hi << 4)));
  }
}

Result<std::vector<uint8_t>> ReadNibbleLengths(ByteReader* reader, int count) {
  std::vector<uint8_t> lengths(count, 0);
  const int bytes = (count + 1) / 2;
  FSD_ASSIGN_OR_RETURN(const uint8_t* p, reader->Skip(bytes));
  for (int i = 0; i < count; ++i) {
    const uint8_t b = p[i / 2];
    lengths[i] = (i % 2 == 0) ? (b & 0x0F) : (b >> 4);
  }
  return lengths;
}

Bytes CompressStored(const Bytes& input) {
  Bytes out;
  out.reserve(input.size() + 16);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(kMethodStored);
  PutVarint64(&out, input.size());
  AppendRaw<uint32_t>(&out, Crc32(input.data(), input.size()));
  out.insert(out.end(), input.begin(), input.end());
  return out;
}

}  // namespace

Bytes LzCompress(const Bytes& input, const LzOptions& options) {
  if (input.size() < options.min_compress_size) return CompressStored(input);

  const std::vector<Token> tokens = Tokenize(input, options);

  // Frequency pass.
  std::vector<uint64_t> lit_freq(kNumLitLen, 0);
  std::vector<uint64_t> dist_freq(kNumDist, 0);
  for (const Token& t : tokens) {
    if (t.is_match) {
      ++lit_freq[257 + FindLengthBucket(t.length)];
      ++dist_freq[FindDistBucket(t.distance)];
    } else {
      ++lit_freq[t.literal];
    }
  }
  ++lit_freq[kEndSymbol];

  const std::vector<uint8_t> lit_lengths = BuildCodeLengths(lit_freq);
  const std::vector<uint8_t> dist_lengths = BuildCodeLengths(dist_freq);
  HuffmanEncoder lit_enc(lit_lengths);
  HuffmanEncoder dist_enc(dist_lengths);

  Bytes out;
  out.reserve(input.size() / 2 + 64);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(kMethodLz);
  PutVarint64(&out, input.size());
  AppendRaw<uint32_t>(&out, Crc32(input.data(), input.size()));
  WriteNibbleLengths(&out, lit_lengths);
  WriteNibbleLengths(&out, dist_lengths);

  BitWriter writer(&out);
  for (const Token& t : tokens) {
    if (t.is_match) {
      const int lb = FindLengthBucket(t.length);
      lit_enc.Encode(&writer, 257 + lb);
      writer.Write(
          static_cast<uint32_t>(t.length - kLengthBuckets[lb].base),
          kLengthBuckets[lb].extra_bits);
      const int db = FindDistBucket(t.distance);
      dist_enc.Encode(&writer, db);
      writer.Write(static_cast<uint32_t>(t.distance - kDistBuckets[db].base),
                   kDistBuckets[db].extra_bits);
    } else {
      lit_enc.Encode(&writer, t.literal);
    }
  }
  lit_enc.Encode(&writer, kEndSymbol);
  writer.Finish();

  // Fall back to stored mode if we failed to shrink the payload.
  if (out.size() >= input.size() + 16) return CompressStored(input);
  return out;
}

Result<Bytes> LzDecompress(const Bytes& input) {
  return LzDecompress(input.data(), input.size());
}

Result<Bytes> LzDecompress(const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  FSD_ASSIGN_OR_RETURN(uint8_t m0, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t m1, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t version, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t method, reader.Read<uint8_t>());
  if (m0 != kMagic0 || m1 != kMagic1 || version != kVersion) {
    return Status::DataLoss("bad FsdLz header");
  }
  FSD_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(uint32_t expect_crc, reader.Read<uint32_t>());

  Bytes out;
  if (method == kMethodStored) {
    FSD_ASSIGN_OR_RETURN(out, reader.ReadBytes(raw_size));
  } else if (method == kMethodLz) {
    FSD_ASSIGN_OR_RETURN(std::vector<uint8_t> lit_lengths,
                         ReadNibbleLengths(&reader, kNumLitLen));
    FSD_ASSIGN_OR_RETURN(std::vector<uint8_t> dist_lengths,
                         ReadNibbleLengths(&reader, kNumDist));
    FSD_ASSIGN_OR_RETURN(HuffmanDecoder lit_dec,
                         HuffmanDecoder::Build(lit_lengths));
    FSD_ASSIGN_OR_RETURN(HuffmanDecoder dist_dec,
                         HuffmanDecoder::Build(dist_lengths));
    const size_t payload_bytes = reader.remaining();
    // Every token costs at least one bit and yields at most kMaxMatch
    // bytes; a larger size field is hostile, so refuse it before reserving.
    if (raw_size > static_cast<uint64_t>(kMaxMatch) * 8 * payload_bytes) {
      return Status::DataLoss("FsdLz size exceeds what the payload encodes");
    }
    BitReader bits(data + reader.position(), payload_bytes);
    out.reserve(raw_size);
    while (true) {
      FSD_ASSIGN_OR_RETURN(int sym, lit_dec.Decode(&bits));
      if (sym == kEndSymbol) break;
      if (sym < 256) {
        out.push_back(static_cast<uint8_t>(sym));
        continue;
      }
      const int lb = sym - 257;
      if (lb < 0 || lb >= kNumLengthBuckets) {
        return Status::DataLoss("bad length symbol");
      }
      FSD_ASSIGN_OR_RETURN(
          uint32_t lextra, bits.Read(kLengthBuckets[lb].extra_bits));
      const int length = kLengthBuckets[lb].base + static_cast<int>(lextra);
      FSD_ASSIGN_OR_RETURN(int db, dist_dec.Decode(&bits));
      FSD_ASSIGN_OR_RETURN(uint32_t dextra,
                           bits.Read(kDistBuckets[db].extra_bits));
      const int dist = kDistBuckets[db].base + static_cast<int>(dextra);
      if (dist <= 0 || static_cast<size_t>(dist) > out.size()) {
        return Status::DataLoss("bad match distance");
      }
      if (static_cast<uint64_t>(length) > raw_size - std::min<uint64_t>(
                                                       raw_size, out.size())) {
        return Status::DataLoss("overlong stream");
      }
      const size_t start = out.size();
      out.resize(start + static_cast<size_t>(length));
      uint8_t* dst = out.data() + start;
      const uint8_t* src = dst - dist;
      if (dist >= length) {
        std::memcpy(dst, src, static_cast<size_t>(length));
      } else {
        for (int j = 0; j < length; ++j) dst[j] = src[j];  // overlapping run
      }
    }
  } else {
    return Status::DataLoss("unknown FsdLz method");
  }

  if (out.size() != raw_size) {
    return Status::DataLoss("FsdLz size mismatch");
  }
  if (Crc32(out.data(), out.size()) != expect_crc) {
    return Status::DataLoss("FsdLz checksum mismatch");
  }
  return out;
}

Result<uint64_t> LzUncompressedSize(const Bytes& input) {
  ByteReader reader(input);
  FSD_RETURN_IF_ERROR(reader.Skip(4).status());
  return GetVarint64(&reader);
}

}  // namespace fsd::codec
