#include "codec/lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
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

/// Bucket of a match distance in [1, kWindowSize].
int DistBucket(const BucketTables& buckets, int dist) {
  return dist <= 256 ? buckets.dist_near[dist]
                     : buckets.dist_far[(dist - 1) >> 7];
}

// Packed token: a literal is its byte value; a match is
// kMatchFlag | length << 16 | distance (distance <= kWindowSize < 2^16).
constexpr uint32_t kMatchFlag = 1u << 31;

constexpr size_t kHashSize = 1u << 15;
// Inputs of up to this many bytes tokenize into the per-thread buffer;
// larger ones get a buffer of their own for the call.
constexpr size_t kRetainedTokens = 1u << 14;
// The decoder's output growth step.
constexpr size_t kOutputStep = 64 << 10;

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

/// Per-thread tokenizer state, reused across calls so a chunk never pays
/// for zeroing a fresh 128 KiB head table. Entries hold `epoch + position`;
/// each call starts a fresh epoch above every value stored before, so
/// stale entries read as empty. `prev` is a window-sized ring: a chain only
/// follows positions inside the window, whose slots are still their own.
/// Every table is fixed-size, so the scratch stays at 320 KiB per thread
/// (the token buffer's pages are touched only as far as a chunk needs).
struct ChainScratch {
  std::vector<uint32_t> head = std::vector<uint32_t>(kHashSize, 0);
  std::vector<uint32_t> prev = std::vector<uint32_t>(kWindowSize, 0);
  std::unique_ptr<uint32_t[]> tokens{new uint32_t[kRetainedTokens]};
  uint32_t epoch = 1;
};

/// Symbol frequencies of a token stream.
struct Frequencies {
  uint64_t lit[kNumLitLen] = {0};
  uint64_t dist[kNumDist] = {0};
};

/// Greedy LZ77 tokenizer with hash chains: writes packed tokens to
/// `tokens` (room for one per input byte), counts their symbols into
/// `freqs` and returns the token count.
size_t Tokenize(const Bytes& input, const LzOptions& options,
                ChainScratch* scratch, uint32_t* tokens, Frequencies* freqs) {
  const size_t n = input.size();
  FSD_CHECK_LT(n, size_t{1} << 31);
  if (n >= std::numeric_limits<uint32_t>::max() - scratch->epoch) {
    std::fill(scratch->head.begin(), scratch->head.end(), 0u);
    scratch->epoch = 1;
  }
  const uint32_t epoch = scratch->epoch;
  scratch->epoch += static_cast<uint32_t>(n);
  uint32_t* head = scratch->head.data();
  uint32_t* prev = scratch->prev.data();
  constexpr size_t kRingMask = kWindowSize - 1;
  const uint8_t* data = input.data();
  const BucketTables& buckets = Buckets();

  auto insert_position = [&](size_t j) {
    if (j + kMinMatch > n) return;
    const uint32_t h = HashAt(data + j);
    prev[j & kRingMask] = head[h];
    head[h] = epoch + static_cast<uint32_t>(j);
  };

  size_t count = 0;
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
      tokens[count++] = kMatchFlag | static_cast<uint32_t>(best_len) << 16 |
                        static_cast<uint32_t>(best_dist);
      ++freqs->lit[257 + buckets.length[best_len]];
      ++freqs->dist[DistBucket(buckets, best_dist)];
      // Thread hash entries for every covered position so later matches can
      // reference the interior of this one.
      const size_t end = i + static_cast<size_t>(best_len);
      for (size_t j = i; j < end; ++j) insert_position(j);
      i = end;
    } else {
      tokens[count++] = data[i];
      ++freqs->lit[data[i]];
      insert_position(i);
      ++i;
    }
  }
  return count;
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

/// Bytes of an LZ container ahead of its token stream: magic, version,
/// method, size varint, CRC and the two nibble-packed length tables.
size_t LzHeaderBytes(size_t raw_size) {
  size_t varint_bytes = 1;
  for (uint64_t v = raw_size; v >= 0x80; v >>= 7) ++varint_bytes;
  return 4 + varint_bytes + 4 + (kNumLitLen + 1) / 2 + (kNumDist + 1) / 2;
}

/// Copies a match of `length` bytes from `dist` bytes back to `dst`. With
/// at least 16 writable bytes of `slack` past the match and a distance of
/// at least 16, it copies 16 bytes per step and may write into the slack;
/// otherwise it writes exactly `length` bytes.
void CopyMatch(uint8_t* dst, size_t dist, size_t length, size_t slack) {
  const uint8_t* src = dst - dist;
  if (dist >= 16 && slack >= 16) {
    for (size_t j = 0; j < length; j += 16) std::memcpy(dst + j, src + j, 16);
    return;
  }
  // dst[-span, copied) repeats with period `dist`, so each step copies a
  // span-long block that does not overlap its source, doubling the span.
  size_t span = dist;
  for (size_t copied = 0; copied < length; copied += span, span *= 2) {
    std::memcpy(dst + copied, dst + copied - span,
                std::min(span, length - copied));
  }
}

/// Grows `out`, reserved to `raw_size`, to hold `need` more bytes past its
/// first `pos`, zero-filling at most kOutputStep beyond them; false when
/// they would overrun the size field.
bool GrowOutput(Bytes* out, size_t pos, size_t need, uint64_t raw_size) {
  if (need > raw_size - pos) return false;
  out->resize(std::min<uint64_t>(
      raw_size, std::max(pos + need, out->size() + kOutputStep)));
  return true;
}

/// Decodes the token stream into `out`, which holds the decoded bytes on
/// success; returns null then, or else the DataLoss message. The size
/// field only reserves address space, and the output grows in bounded
/// steps, so a hostile size field costs no more touched memory than the
/// bytes the stream really produces plus one step. Kept out of line, where
/// its loop state fits in registers.
[[gnu::noinline]] const char* DecodeTokens(const HuffmanDecoder& lit_dec,
                                           const HuffmanDecoder& dist_dec,
                                           uint64_t raw_size, BitReader bits,
                                           Bytes* out) {
  out->reserve(raw_size);
  // The loop's state lives in locals (`bits` is a copy too), which the
  // byte stores cannot alias. Growth stays within the capacity, so
  // `base` stays valid.
  uint8_t* const base = out->data();
  uint8_t* dst = base;  // next output byte
  uint8_t* end = base;  // end of the grown output
  while (true) {
    // One refill covers a whole token: codes of at most 15 bits plus 6
    // length and 13 distance extra bits.
    int buffered = bits.Refill();
    HuffmanDecoder::Symbol lit = lit_dec.Lookup(bits.window());
    if (lit.length == 0 || lit.length > buffered) {
      return HuffmanDecoder::DecodeError(buffered);
    }
    if (lit.symbol < 256) {
      // Further literals decode from the same refill while it still holds
      // a full-length code; anything else is looked up again after one.
      do {
        if (dst == end) {
          if (!GrowOutput(out, dst - base, 1, raw_size)) {
            return "overlong stream";
          }
          end = base + out->size();
        }
        *dst++ = static_cast<uint8_t>(lit.symbol);
        bits.Consume(lit.length);
        buffered -= lit.length;
        if (buffered < kMaxCodeLen) break;
        lit = lit_dec.Lookup(bits.window());
      } while (lit.symbol < 256 && lit.length > 0);
      continue;
    }
    if (lit.symbol == kEndSymbol) break;
    const uint64_t window = bits.window();
    const Bucket& lb = kLengthBuckets[lit.symbol - 257];
    int used = lit.length;
    const size_t length =
        static_cast<size_t>(lb.base) +
        ((window >> used) & ((uint64_t{1} << lb.extra_bits) - 1));
    used += lb.extra_bits;
    const HuffmanDecoder::Symbol d = dist_dec.Lookup(window >> used);
    if (d.length == 0) return HuffmanDecoder::DecodeError(buffered - used);
    used += d.length;
    const Bucket& db = kDistBuckets[d.symbol];
    const size_t dist =
        static_cast<size_t>(db.base) +
        ((window >> used) & ((uint64_t{1} << db.extra_bits) - 1));
    used += db.extra_bits;
    if (used > buffered) return "bitstream underrun";
    bits.Consume(used);
    if (dist > static_cast<size_t>(dst - base)) return "bad match distance";
    if (length > static_cast<size_t>(end - dst)) {
      if (!GrowOutput(out, dst - base, length, raw_size)) {
        return "overlong stream";
      }
      end = base + out->size();
    }
    CopyMatch(dst, dist, length, end - dst - length);
    dst += length;
  }
  out->resize(dst - base);
  return nullptr;
}

}  // namespace

Bytes LzCompress(const Bytes& input, const LzOptions& options) {
  const size_t n = input.size();
  if (n < options.min_compress_size) return CompressStored(input);

  thread_local ChainScratch scratch;
  std::unique_ptr<uint32_t[]> owned;
  uint32_t* tokens = scratch.tokens.get();
  if (n > kRetainedTokens) {
    owned.reset(new uint32_t[n]);
    tokens = owned.get();
  }
  Frequencies freqs;
  const size_t count = Tokenize(input, options, &scratch, tokens, &freqs);
  ++freqs.lit[kEndSymbol];

  const std::vector<uint8_t> lit_lengths = BuildCodeLengths(freqs.lit);
  const std::vector<uint8_t> dist_lengths = BuildCodeLengths(freqs.dist);

  // The coded size follows from the frequencies and code lengths: fall
  // back to stored mode before emitting anything if coding does not
  // shrink the payload, and otherwise size the output once.
  uint64_t bits = 0;
  for (int s = 0; s < kNumLitLen; ++s) {
    const int extra = s > kEndSymbol ? kLengthBuckets[s - 257].extra_bits : 0;
    bits += freqs.lit[s] * static_cast<uint64_t>(lit_lengths[s] + extra);
  }
  for (int d = 0; d < kNumDist; ++d) {
    bits += freqs.dist[d] *
            static_cast<uint64_t>(dist_lengths[d] + kDistBuckets[d].extra_bits);
  }
  const size_t size = LzHeaderBytes(n) + (bits + 7) / 8;
  if (size >= n + 16) return CompressStored(input);

  HuffmanEncoder lit_enc(lit_lengths);
  HuffmanEncoder dist_enc(dist_lengths);
  Bytes out;
  out.reserve(size);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(kMethodLz);
  PutVarint64(&out, n);
  AppendRaw<uint32_t>(&out, Crc32(input.data(), n));
  WriteNibbleLengths(&out, lit_lengths);
  WriteNibbleLengths(&out, dist_lengths);

  // A match writes its length code with its extra bits, then its distance
  // code with its extra bits (at most 21 and 28 bits).
  const BucketTables& buckets = Buckets();
  BitWriter writer(&out);
  for (size_t k = 0; k < count; ++k) {
    const uint32_t t = tokens[k];
    if ((t & kMatchFlag) == 0) {
      lit_enc.Encode(&writer, static_cast<int>(t));
      continue;
    }
    const int length = static_cast<int>((t >> 16) & 0x1FF);
    const int lb = buckets.length[length];
    const int lsym = 257 + lb;
    writer.Write(lit_enc.code(lsym) |
                     static_cast<uint32_t>(length - kLengthBuckets[lb].base)
                         << lit_enc.length(lsym),
                 lit_enc.length(lsym) + kLengthBuckets[lb].extra_bits);
    const int dist = static_cast<int>(t & 0xFFFF);
    const int db = DistBucket(buckets, dist);
    writer.Write(dist_enc.code(db) |
                     static_cast<uint32_t>(dist - kDistBuckets[db].base)
                         << dist_enc.length(db),
                 dist_enc.length(db) + kDistBuckets[db].extra_bits);
  }
  lit_enc.Encode(&writer, kEndSymbol);
  writer.Finish();
  FSD_CHECK_EQ(out.size(), size);
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
    if (const char* error =
            DecodeTokens(lit_dec, dist_dec, raw_size, bits, &out)) {
      return Status::DataLoss(error);
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

}  // namespace fsd::codec
