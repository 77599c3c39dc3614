#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <queue>
#include <thread>
#include <tuple>

#include "codec/bitstream.h"
#include "codec/crc32.h"
#include "codec/huffman.h"
#include "codec/lz.h"
#include "codec/quant.h"
#include "codec/varint.h"
#include "common/rng.h"

namespace fsd::codec {
namespace {

TEST(Varint, RoundtripBoundaries) {
  const uint64_t cases[] = {0,    1,        127,        128,
                            300,  16383,    16384,      1ull << 32,
                            ~0ull};
  for (uint64_t v : cases) {
    Bytes buf;
    PutVarint64(&buf, v);
    ByteReader reader(buf);
    EXPECT_EQ(*GetVarint64(&reader), v) << v;
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(Varint, SignedZigZag) {
  const int64_t cases[] = {0, -1, 1, -2, 63, -64, 1000000, -1000000,
                           INT64_MAX, INT64_MIN};
  for (int64_t v : cases) {
    Bytes buf;
    PutVarintSigned(&buf, v);
    ByteReader reader(buf);
    EXPECT_EQ(*GetVarintSigned(&reader), v) << v;
  }
}

TEST(Varint, TruncatedFails) {
  Bytes buf;
  PutVarint64(&buf, 1ull << 40);
  buf.pop_back();
  ByteReader reader(buf);
  EXPECT_FALSE(GetVarint64(&reader).ok());
}

TEST(Crc32, KnownVector) {
  // IEEE CRC-32 of "123456789" is 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

TEST(Crc32, SeedChaining) {
  const Bytes data = {10, 20, 30, 40, 50, 60};
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t first = Crc32(data.data(), 3);
  const uint32_t chained = Crc32(data.data() + 3, 3, first);
  EXPECT_EQ(whole, chained);
}

TEST(Bitstream, RoundtripMixedWidths) {
  Bytes buf;
  BitWriter writer(&buf);
  writer.Write(0b101, 3);
  writer.Write(0xFFFF, 16);
  writer.Write(1, 1);
  writer.Write(0x12345, 20);
  writer.Finish();
  BitReader reader(buf.data(), buf.size());
  EXPECT_EQ(*reader.Read(3), 0b101u);
  EXPECT_EQ(*reader.Read(16), 0xFFFFu);
  EXPECT_EQ(*reader.Read(1), 1u);
  EXPECT_EQ(*reader.Read(20), 0x12345u);
}

TEST(Bitstream, UnderrunFails) {
  Bytes buf = {0xAB};
  BitReader reader(buf.data(), buf.size());
  EXPECT_TRUE(reader.Read(8).ok());
  EXPECT_FALSE(reader.Read(1).ok());
}

TEST(Huffman, RoundtripSkewedAlphabet) {
  std::vector<uint64_t> freqs = {1000, 500, 100, 10, 1, 0, 7};
  const std::vector<uint8_t> lengths = BuildCodeLengths(freqs);
  EXPECT_EQ(lengths[5], 0);          // unused symbol gets no code
  EXPECT_LE(lengths[0], lengths[4]);  // frequent symbols get short codes
  HuffmanEncoder encoder(lengths);
  auto decoder = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(decoder.ok());

  const std::vector<int> symbols = {0, 1, 2, 0, 0, 6, 4, 3, 0, 1, 2, 2};
  Bytes buf;
  BitWriter writer(&buf);
  for (int s : symbols) encoder.Encode(&writer, s);
  writer.Finish();
  BitReader reader(buf.data(), buf.size());
  for (int s : symbols) {
    EXPECT_EQ(*decoder->Decode(&reader), s);
  }
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<uint64_t> freqs = {0, 42, 0};
  const std::vector<uint8_t> lengths = BuildCodeLengths(freqs);
  EXPECT_EQ(lengths[1], 1);
  HuffmanEncoder encoder(lengths);
  auto decoder = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(decoder.ok());
  Bytes buf;
  BitWriter writer(&buf);
  encoder.Encode(&writer, 1);
  encoder.Encode(&writer, 1);
  writer.Finish();
  BitReader reader(buf.data(), buf.size());
  EXPECT_EQ(*decoder->Decode(&reader), 1);
  EXPECT_EQ(*decoder->Decode(&reader), 1);
}

TEST(Huffman, LengthLimitRespected) {
  // Fibonacci-like frequencies force deep trees; lengths must stay <= 15.
  std::vector<uint64_t> freqs;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  const std::vector<uint8_t> lengths = BuildCodeLengths(freqs);
  for (uint8_t len : lengths) EXPECT_LE(len, kMaxCodeLen);
  // The limited code must still be decodable (Kraft-consistent).
  EXPECT_TRUE(HuffmanDecoder::Build(lengths).ok());
}

// ---------------------------------------------------------------------------
// LZ property tests across data shapes and sizes.
// ---------------------------------------------------------------------------

enum class Pattern { kZeros, kRandom, kRepetitive, kText, kSparseFloats };

class LzRoundtrip : public ::testing::TestWithParam<std::tuple<Pattern, int>> {
 protected:
  Bytes MakeData(Pattern pattern, int size) {
    Rng rng(size * 31 + static_cast<int>(pattern));
    Bytes data(size);
    switch (pattern) {
      case Pattern::kZeros:
        break;
      case Pattern::kRandom:
        for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
        break;
      case Pattern::kRepetitive:
        for (int i = 0; i < size; ++i) {
          data[i] = static_cast<uint8_t>("abcabcabd"[i % 9]);
        }
        break;
      case Pattern::kText: {
        const char* words[] = {"serverless ", "inference ", "queue ",
                               "object ", "lambda "};
        int pos = 0;
        while (pos < size) {
          const char* w = words[rng.NextBounded(5)];
          for (const char* p = w; *p && pos < size; ++p) {
            data[pos++] = static_cast<uint8_t>(*p);
          }
        }
        break;
      }
      case Pattern::kSparseFloats:
        // Mimics row payloads: varint-ish small ints + float bytes.
        for (int i = 0; i + 4 <= size; i += 4) {
          const float f = (rng.NextBounded(100) < 70)
                              ? 0.0f
                              : static_cast<float>(rng.NextDouble());
          std::memcpy(&data[i], &f, 4);
        }
        break;
    }
    return data;
  }
};

TEST_P(LzRoundtrip, CompressDecompressIdentity) {
  auto [pattern, size] = GetParam();
  const Bytes data = MakeData(pattern, size);
  const Bytes packed = LzCompress(data);
  auto unpacked = LzDecompress(packed);
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_EQ(*unpacked, data);
  EXPECT_EQ(*LzUncompressedSize(packed), data.size());
}

TEST_P(LzRoundtrip, DeterministicOutput) {
  auto [pattern, size] = GetParam();
  const Bytes data = MakeData(pattern, size);
  EXPECT_EQ(LzCompress(data), LzCompress(data));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LzRoundtrip,
    ::testing::Combine(::testing::Values(Pattern::kZeros, Pattern::kRandom,
                                         Pattern::kRepetitive, Pattern::kText,
                                         Pattern::kSparseFloats),
                       ::testing::Values(0, 1, 63, 64, 1000, 65536, 300000)));

TEST(Lz, CompressesRedundantData) {
  Bytes data(100000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>("hello world "[i % 12]);
  }
  const Bytes packed = LzCompress(data);
  EXPECT_LT(packed.size(), data.size() / 4);
}

TEST(Lz, StoredModeForIncompressible) {
  Rng rng(5);
  Bytes data(4096);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  const Bytes packed = LzCompress(data);
  // Container overhead only; never inflates beyond header + payload.
  EXPECT_LE(packed.size(), data.size() + 16);
  EXPECT_EQ(*LzDecompress(packed), data);
}

TEST(Lz, DetectsCorruption) {
  Bytes data(5000, 7);
  Bytes packed = LzCompress(data);
  packed[packed.size() / 2] ^= 0x40;
  EXPECT_FALSE(LzDecompress(packed).ok());
}

TEST(Lz, DetectsTruncation) {
  Bytes data(5000, 7);
  Bytes packed = LzCompress(data);
  packed.resize(packed.size() - 3);
  EXPECT_FALSE(LzDecompress(packed).ok());
}

/// Rewrites the varint that follows the first `prefix` bytes of a
/// container, keeping everything after it.
Bytes WithSizeField(const Bytes& container, size_t prefix, uint64_t value) {
  ByteReader reader(container.data() + prefix, container.size() - prefix);
  EXPECT_TRUE(GetVarint64(&reader).ok());
  Bytes out(container.begin(), container.begin() + prefix);
  PutVarint64(&out, value);
  out.insert(out.end(), container.begin() + prefix + reader.position(),
             container.end());
  return out;
}

TEST(Lz, RejectsSizeFieldBeyondPayload) {
  // An LZ container (code tables plus 20 payload bytes) claiming 2^60 raw
  // bytes: DataLoss, never an attempt to reserve them.
  Bytes data(5000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>("abcab"[i % 5] ^ (i % 7));
  }
  const Bytes packed = LzCompress(data);
  ASSERT_EQ(packed[3], 1) << "expected the lz-huffman method";
  Bytes hostile = WithSizeField(packed, 4, 1ull << 60);
  // magic(4) + varint(9) + crc(4) + nibble tables (141 + 15) + 20 bytes.
  ASSERT_GT(hostile.size(), 4u + 9 + 4 + 156 + 20);
  hostile.resize(4 + 9 + 4 + 156 + 20);
  const auto result = LzDecompress(hostile);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(Quant, RejectsCountBeyondPayload) {
  // A Huffman-coded FQ container whose count claims 2^58 symbols (2^58
  // packed bytes at 8 bits) or enough to overflow the packed size: both
  // are DataLoss before anything is sized from them.
  std::vector<float> values(4000, 0.0f);
  for (size_t i = 0; i < values.size(); i += 9) values[i] = 1.0f;
  const Bytes packed = QuantCompress(values.data(), values.size(), 8);
  ByteReader reader(packed.data() + 4, packed.size() - 4);
  ASSERT_TRUE(GetVarint64(&reader).ok());
  ASSERT_EQ(packed[4 + reader.position() + 8], 1) << "expected Huffman";
  for (const uint64_t count : {1ull << 58, ~0ull / 2}) {
    const auto result = QuantDecompress(WithSizeField(packed, 4, count));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << count;
  }
  // A forged stored-method container with a matching CRC whose count
  // (2^62 at 8 bits) wraps the packed size to zero bytes: only the
  // overflow check stands between it and sizing 2^62 output values.
  Bytes header = {8};
  PutVarint64(&header, 1ull << 62);
  AppendRaw<float>(&header, 1.0f);
  Bytes forged = {'F', 'Q', 1};
  forged.insert(forged.end(), header.begin(), header.end());
  AppendRaw<uint32_t>(&forged, Crc32(header.data(), header.size()));
  forged.push_back(0);  // stored method, no packed bytes
  const auto result = QuantDecompress(forged);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(Lz, RejectsGarbageHeader) {
  EXPECT_FALSE(LzDecompress({1, 2, 3, 4, 5}).ok());
  EXPECT_FALSE(LzDecompress({}).ok());
}

// ---------------------------------------------------------------------------
// Golden digests. The codec's output bytes are part of the wire contract
// (virtual-time costs are charged per wire byte), so every hot-loop rewrite
// must reproduce them exactly. These digests were captured from the
// straightforward implementations (min-heap Huffman build, bit-at-a-time
// decode, byte-wise CRC, zero-filled LZ hash head) over a seeded corpus;
// each one pins one facet so a mismatch names the stage that drifted. One
// damaged FQ container in the corpus used to abort with std::bad_alloc; its
// pinned status is the DataLoss that the size-field bounds now return.
// ---------------------------------------------------------------------------

/// FNV-1a over everything fed to it; independent of the codec under test.
class Digest {
 public:
  void Add(const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Add(const Bytes& b) {
    AddU64(b.size());
    Add(b.data(), b.size());
  }
  void AddU64(uint64_t v) {
    uint8_t buf[8];
    std::memcpy(buf, &v, 8);
    Add(buf, 8);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

enum class Shape { kRandom, kSparseFloat, kPeriodic, kSelfSimilar };

/// Seeded corpus inputs in the four shapes the wire carries or stresses.
Bytes MakeCorpusInput(Shape shape, size_t size, uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  switch (shape) {
    case Shape::kRandom:
      for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
      break;
    case Shape::kSparseFloat: {
      // Row-payload-like: small varint deltas between mostly-zero floats.
      size_t i = 0;
      while (i < size) {
        if (rng.NextBounded(100) < 60) {
          data[i++] = static_cast<uint8_t>(rng.NextBounded(8));
          continue;
        }
        const float f = rng.NextBool(0.5)
                            ? 0.0f
                            : static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
        uint8_t raw[4];
        std::memcpy(raw, &f, 4);
        for (int k = 0; k < 4 && i < size; ++k) data[i++] = raw[k];
      }
      break;
    }
    case Shape::kPeriodic: {
      Bytes unit(1 + rng.NextBounded(4096));
      for (auto& b : unit) b = static_cast<uint8_t>(rng.Next());
      for (size_t i = 0; i < size; ++i) data[i] = unit[i % unit.size()];
      break;
    }
    case Shape::kSelfSimilar: {
      // Copies of earlier spans at near and far (beyond-window) distances,
      // separated by fresh bytes.
      size_t i = 0;
      while (i < size) {
        if (i < 64 || rng.NextBounded(4) == 0) {
          data[i++] = static_cast<uint8_t>(rng.NextBounded(16));
          continue;
        }
        const size_t dist = 1 + rng.NextBounded(std::min<size_t>(i, 70000));
        const size_t len = 1 + rng.NextBounded(600);
        for (size_t k = 0; k < len && i < size; ++k, ++i) {
          data[i] = data[i - dist];
        }
      }
      break;
    }
  }
  return data;
}

constexpr Shape kShapes[] = {Shape::kRandom, Shape::kSparseFloat,
                             Shape::kPeriodic, Shape::kSelfSimilar};
constexpr size_t kCorpusSizes[] = {0,     1,     4,     63,    64,
                                   65,    300,   4096,  32768, 32769,
                                   70001, 131072, 200000};

TEST(CodecGolden, LzCompressBytes) {
  Digest digest;
  for (const int probes : {8, 32}) {
    LzOptions options;
    options.max_chain_probes = probes;
    for (const Shape shape : kShapes) {
      for (const size_t size : kCorpusSizes) {
        const Bytes input = MakeCorpusInput(
            shape, size, size * 131 + static_cast<uint64_t>(shape));
        const Bytes packed = LzCompress(input, options);
        digest.Add(packed);
        auto unpacked = LzDecompress(packed);
        ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
        ASSERT_EQ(*unpacked, input);
      }
    }
  }
  EXPECT_EQ(digest.value(), 0x82df2081d27d74fdull)
      << std::hex << digest.value();
}

/// Random frequency tables: zeros, ties, heavy skew and a length limit
/// that still fits the used alphabet (2^max_len >= used symbols).
std::vector<std::pair<std::vector<uint64_t>, int>> CodeLengthCases() {
  std::vector<std::pair<std::vector<uint64_t>, int>> cases;
  Rng rng(77);
  for (int c = 0; c < 400; ++c) {
    std::vector<uint64_t> freqs(1 + rng.NextBounded(300));
    const int style = static_cast<int>(rng.NextBounded(4));
    for (auto& f : freqs) {
      if (rng.NextBounded(100) < 25) continue;  // unused symbol
      switch (style) {
        case 0: f = 1 + rng.NextBounded(4); break;        // many ties
        case 1: f = 1 + rng.NextBounded(100000); break;   // spread
        case 2: f = 1ull << rng.NextBounded(40); break;   // heavy skew
        default: f = 1 + rng.NextBounded(1ull << rng.NextBounded(30)); break;
      }
    }
    int used = 0;
    for (uint64_t f : freqs) used += f > 0 ? 1 : 0;
    int min_len = 1;
    while ((1 << min_len) < used) ++min_len;
    const int limits[] = {kMaxCodeLen, 7, 9, 12};
    cases.push_back(
        {freqs, std::max(min_len, limits[rng.NextBounded(4)])});
  }
  // Fibonacci frequencies force the over-long trees the limiter repairs.
  std::vector<uint64_t> fib;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 60; ++i) {
    fib.push_back(a);
    const uint64_t next = a + b;
    a = b;
    b = next;
  }
  for (const int limit : {6, 8, 11, kMaxCodeLen}) cases.push_back({fib, limit});
  return cases;
}

TEST(CodecGolden, BuildCodeLengths) {
  Digest digest;
  for (const auto& [freqs, max_len] : CodeLengthCases()) {
    const std::vector<uint8_t> lengths = BuildCodeLengths(freqs, max_len);
    digest.AddU64(static_cast<uint64_t>(max_len));
    digest.Add(Bytes(lengths.begin(), lengths.end()));
  }
  EXPECT_EQ(digest.value(), 0x5456f2270b638060ull)
      << std::hex << digest.value();
}

TEST(CodecGolden, Crc32WithSeeds) {
  Rng rng(5150);
  Bytes buffer(70000);
  for (auto& b : buffer) b = static_cast<uint8_t>(rng.Next());
  Digest digest;
  uint32_t chained = 0;
  for (int c = 0; c < 500; ++c) {
    const size_t offset = rng.NextBounded(8);  // unaligned starts
    const size_t size = c % 50 == 0 ? rng.NextBounded(60000)
                                    : rng.NextBounded(300);
    const uint32_t seed =
        c % 3 == 0 ? 0u : static_cast<uint32_t>(rng.Next());
    const uint32_t crc = Crc32(buffer.data() + offset, size, seed);
    chained = Crc32(buffer.data() + offset, size, chained);
    digest.AddU64(crc);
    digest.AddU64(chained);
  }
  EXPECT_EQ(digest.value(), 0x3ab3257b9c7f2fccull)
      << std::hex << digest.value();
}

/// Reference tree construction: the textbook min-heap over (freq, node id)
/// that BuildCodeLengths's two-queue merge must reproduce. Returns the
/// unlimited code lengths (tree depths).
std::vector<uint8_t> HeapCodeLengths(const std::vector<uint64_t>& freqs) {
  struct Node {
    uint64_t freq;
    int left = -1;
    int right = -1;
    int symbol = -1;
  };
  std::vector<Node> nodes;
  auto after = [&nodes](int a, int b) {
    if (nodes[a].freq != nodes[b].freq) return nodes[a].freq > nodes[b].freq;
    return a > b;
  };
  std::priority_queue<int, std::vector<int>, decltype(after)> heap(after);
  for (size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back({freqs[s], -1, -1, static_cast<int>(s)});
    heap.push(static_cast<int>(nodes.size()) - 1);
  }
  std::vector<uint8_t> lengths(freqs.size(), 0);
  if (nodes.size() == 1) lengths[nodes[0].symbol] = 1;
  if (nodes.size() <= 1) return lengths;
  while (heap.size() > 1) {
    const int a = heap.top();
    heap.pop();
    const int b = heap.top();
    heap.pop();
    nodes.push_back({nodes[a].freq + nodes[b].freq, a, b});
    heap.push(static_cast<int>(nodes.size()) - 1);
  }
  std::vector<std::pair<int, int>> stack{{heap.top(), 0}};
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    if (nodes[id].left < 0) {
      lengths[nodes[id].symbol] = static_cast<uint8_t>(depth);
    } else {
      stack.push_back({nodes[id].left, depth + 1});
      stack.push_back({nodes[id].right, depth + 1});
    }
  }
  return lengths;
}

TEST(Huffman, TwoQueueBuildMatchesHeapReference) {
  Rng rng(2024);
  for (int c = 0; c < 3000; ++c) {
    std::vector<uint64_t> freqs(1 + rng.NextBounded(c % 10 == 0 ? 600 : 40));
    const uint64_t spread = 1ull << rng.NextBounded(20);
    for (auto& f : freqs) {
      f = rng.NextBounded(100) < 30 ? 0 : 1 + rng.NextBounded(spread);
    }
    // A limit above any possible depth leaves the tree's lengths as built.
    EXPECT_EQ(BuildCodeLengths(freqs, 62), HeapCodeLengths(freqs))
        << "case " << c;
  }
}

/// Decodes an arbitrary bit stream until the first error, digesting every
/// symbol and the terminating status (invalid code vs underrun).
void DigestHuffmanDecode(const std::vector<uint8_t>& lengths,
                         const Bytes& stream, Digest* digest) {
  auto decoder = HuffmanDecoder::Build(lengths);
  digest->AddU64(static_cast<uint64_t>(decoder.status().code()));
  if (!decoder.ok()) return;
  BitReader reader(stream.data(), stream.size());
  for (int i = 0; i < 4000; ++i) {
    auto sym = decoder->Decode(&reader);
    if (!sym.ok()) {
      digest->AddU64(1000 + static_cast<uint64_t>(sym.status().code()));
      return;
    }
    digest->AddU64(static_cast<uint64_t>(*sym));
  }
}

TEST(CodecGolden, HuffmanDecodeStreams) {
  Rng rng(4242);
  std::vector<std::vector<uint8_t>> codes;
  for (const auto& [freqs, max_len] : CodeLengthCases()) {
    codes.push_back(BuildCodeLengths(freqs, max_len));
    if (codes.size() == 60) break;
  }
  // Incomplete and degenerate codes: unassigned bit patterns must fail.
  codes.push_back({1, 0, 3, 3});
  codes.push_back({0, 1});
  codes.push_back({15, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2});
  codes.push_back({2, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  codes.push_back({});
  Digest digest;
  for (const auto& lengths : codes) {
    Bytes stream(1 + rng.NextBounded(256));
    for (auto& b : stream) b = static_cast<uint8_t>(rng.Next());
    DigestHuffmanDecode(lengths, stream, &digest);
    // A well-formed stream of the code's own symbols, then random tail.
    const HuffmanEncoder encoder(lengths);
    std::vector<int> symbols;
    for (size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] > 0) symbols.push_back(static_cast<int>(s));
    }
    if (symbols.empty()) continue;
    Bytes coded;
    BitWriter writer(&coded);
    for (int i = 0; i < 500; ++i) {
      encoder.Encode(&writer, symbols[rng.NextBounded(symbols.size())]);
    }
    writer.Write(static_cast<uint32_t>(rng.Next()), 13);
    writer.Finish();
    DigestHuffmanDecode(lengths, coded, &digest);
  }
  EXPECT_EQ(digest.value(), 0x2ef1353d9bb5dbceull)
      << std::hex << digest.value();
}

/// Every bit flip in the head of `container` and a sample of the rest,
/// plus truncations: the resulting status code (and output when a damaged
/// container still decodes) is pinned.
template <typename DecodeFn>
void DigestDamage(const Bytes& container, DecodeFn decode, Rng* rng,
                  Digest* digest) {
  auto record = [&](const Bytes& damaged) {
    auto result = decode(damaged);
    digest->AddU64(static_cast<uint64_t>(result.status().code()));
    if (result.ok()) digest->Add(*result);
  };
  const size_t head_bits = std::min<size_t>(container.size(), 48) * 8;
  for (size_t bit = 0; bit < head_bits; ++bit) {
    Bytes damaged = container;
    damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    record(damaged);
  }
  for (int i = 0; i < 200 && container.size() > 48; ++i) {
    const size_t bit = 48 * 8 + rng->NextBounded((container.size() - 48) * 8);
    Bytes damaged = container;
    damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    record(damaged);
  }
  for (size_t len = 0; len < container.size(); ++len) {
    if (len > 64 && rng->NextBounded(container.size()) > 50) continue;
    record(Bytes(container.begin(), container.begin() + len));
  }
}

TEST(CodecGolden, DamagedContainerStatuses) {
  Rng rng(99);
  Digest digest;
  auto lz = [](const Bytes& b) { return LzDecompress(b); };
  for (const auto& [shape, size] :
       std::vector<std::pair<Shape, size_t>>{{Shape::kSelfSimilar, 5000},
                                             {Shape::kPeriodic, 20000},
                                             {Shape::kSparseFloat, 3000},
                                             {Shape::kSparseFloat, 100},
                                             {Shape::kRandom, 500}}) {
    const Bytes packed = LzCompress(MakeCorpusInput(shape, size, size));
    DigestDamage(packed, lz, &rng, &digest);
  }
  auto fq = [](const Bytes& b) -> Result<Bytes> {
    FSD_ASSIGN_OR_RETURN(std::vector<float> values, QuantDecompress(b));
    Bytes raw(values.size() * sizeof(float));
    if (!values.empty()) std::memcpy(raw.data(), values.data(), raw.size());
    return raw;
  };
  for (const int bits : {4, 8, 16}) {
    std::vector<float> values(1500);
    for (auto& v : values) {
      v = rng.NextBounded(100) < 70
              ? 0.0f
              : static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    }
    const Bytes packed = QuantCompress(values.data(), values.size(), bits);
    DigestDamage(packed, fq, &rng, &digest);
  }
  EXPECT_EQ(digest.value(), 0x0ea37253feb345feull)
      << std::hex << digest.value();
}

TEST(CodecConcurrency, ThreadsMatchSerialOutputs) {
  // LzCompress keeps per-thread hash-chain scratch and offload pool threads
  // run the codec concurrently: threads working through the corpus in
  // different orders must each reproduce the serial bytes exactly.
  constexpr int kThreads = 4;
  std::vector<Bytes> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(MakeCorpusInput(kShapes[i % 4], 9000 + 7919 * i, i));
  }
  std::vector<Bytes> serial;
  for (const Bytes& input : inputs) serial.push_back(LzCompress(input));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t k = 0; k < inputs.size(); ++k) {
        const size_t i = (k + 2 * static_cast<size_t>(t)) % inputs.size();
        const Bytes packed = LzCompress(inputs[i]);
        auto unpacked = LzDecompress(packed.data(), packed.size());
        if (packed != serial[i] || !unpacked.ok() || *unpacked != inputs[i]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace fsd::codec
