#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <optional>
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
#include "core/serialization.h"
#include "model/input_gen.h"
#include "model/reference.h"
#include "model/sparse_dnn.h"

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

TEST(Varint, TruncatedFails) {
  Bytes buf;
  PutVarint64(&buf, 1ull << 40);
  buf.pop_back();
  ByteReader reader(buf);
  EXPECT_FALSE(GetVarint64(&reader).ok());
}

TEST(Varint, RejectsValuesAbove64Bits) {
  // Ten bytes carry 70 bits; a tenth byte above 1 sets bits past bit 63,
  // and dropping them would read this input as 0.
  const Bytes too_wide = {0x80, 0x80, 0x80, 0x80, 0x80,
                          0x80, 0x80, 0x80, 0x80, 0x02};
  ByteReader reader(too_wide);
  const auto result = GetVarint64(&reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  // A tenth byte of 1 is bit 63 itself.
  const Bytes top_bit = {0x80, 0x80, 0x80, 0x80, 0x80,
                         0x80, 0x80, 0x80, 0x80, 0x01};
  ByteReader top(top_bit);
  EXPECT_EQ(*GetVarint64(&top), 1ull << 63);
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

// ---------------------------------------------------------------------------
// Differential decode: LzDecompress against a bit-at-a-time reference
// decoder written from the container format alone. Both must return the
// same status code, and the same bytes when the container decodes.
// ---------------------------------------------------------------------------

/// What the reference decoder saw of the token stream.
struct ReferenceTrace {
  int max_code_len = 0;                          // longest literal code
  std::vector<std::pair<size_t, size_t>> copies;  // match [start, end)
};

/// The FsdLz container decoded one bit at a time: no lookup tables, no
/// buffered refills, the output grown one byte per push. The check order
/// is the format's: header, size bound, tokens, size, CRC.
Result<Bytes> ReferenceLzDecompress(const Bytes& input,
                                    ReferenceTrace* trace = nullptr) {
  constexpr int kLengthBase[24] = {4,  5,  6,  7,  8,  9,  10,  11,
                                   13, 15, 17, 21, 25, 29, 33,  41,
                                   49, 57, 65, 81, 97, 113, 145, 209};
  constexpr int kLengthExtra[24] = {0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2,
                                    2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 6, 6};
  constexpr int kDistBase[30] = {1,    2,    3,    4,     5,     7,
                                 9,    13,   17,   25,    33,    49,
                                 65,   97,   129,  193,   257,   385,
                                 513,  769,  1025, 1537,  2049,  3073,
                                 4097, 6145, 8193, 12289, 16385, 24577};
  ByteReader reader(input);
  FSD_ASSIGN_OR_RETURN(uint8_t m0, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t m1, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t version, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t method, reader.Read<uint8_t>());
  if (m0 != 'F' || m1 != 'Z' || version != 1) {
    return Status::DataLoss("bad header");
  }
  FSD_ASSIGN_OR_RETURN(uint64_t raw_size, GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(uint32_t expect_crc, reader.Read<uint32_t>());
  Bytes out;
  if (method == 0) {
    FSD_ASSIGN_OR_RETURN(out, reader.ReadBytes(raw_size));
  } else if (method == 1) {
    // Canonical code of each alphabet: (count, first code, symbols) per
    // code length, codes MSB-first.
    struct Code {
      int count[16] = {0};
      uint32_t first[16] = {0};
      std::vector<int> symbols[16];
    };
    auto read_code = [&](int alphabet, Code* code) -> Status {
      FSD_ASSIGN_OR_RETURN(const uint8_t* p, reader.Skip((alphabet + 1) / 2));
      for (int s = 0; s < alphabet; ++s) {
        const int len = (s % 2 == 0) ? (p[s / 2] & 0x0F) : (p[s / 2] >> 4);
        if (len == 0) continue;
        ++code->count[len];
        code->symbols[len].push_back(s);
      }
      uint64_t kraft = 0;
      int total = 0;
      uint32_t next = 0;
      for (int len = 1; len <= 15; ++len) {
        next = (next + static_cast<uint32_t>(code->count[len - 1])) << 1;
        code->first[len] = next;
        kraft += static_cast<uint64_t>(code->count[len]) << (15 - len);
        total += code->count[len];
      }
      if (total > 0 && kraft > (1u << 15)) {
        return Status::InvalidArgument("over-subscribed code");
      }
      return Status::OK();
    };
    Code lit;
    Code dist;
    FSD_RETURN_IF_ERROR(read_code(281, &lit));
    FSD_RETURN_IF_ERROR(read_code(30, &dist));
    const size_t payload = reader.remaining();
    if (raw_size > uint64_t{258} * 8 * payload) {
      return Status::DataLoss("size beyond payload");
    }
    const uint8_t* bytes = input.data() + reader.position();
    size_t bit = 0;
    auto read_bits = [&](int count) -> Result<uint32_t> {
      uint32_t value = 0;
      for (int k = 0; k < count; ++k, ++bit) {
        if (bit >= 8 * payload) return Status::DataLoss("underrun");
        value |= static_cast<uint32_t>((bytes[bit / 8] >> (bit % 8)) & 1)
                 << k;
      }
      return value;
    };
    auto decode = [&](const Code& code) -> Result<int> {
      uint32_t value = 0;
      for (int len = 1; len <= 15; ++len) {
        FSD_ASSIGN_OR_RETURN(uint32_t b, read_bits(1));
        value = (value << 1) | b;
        const uint32_t index = value - code.first[len];
        if (value >= code.first[len] &&
            index < static_cast<uint32_t>(code.count[len])) {
          if (trace != nullptr && &code == &lit) {
            trace->max_code_len = std::max(trace->max_code_len, len);
          }
          return code.symbols[len][index];
        }
      }
      return Status::DataLoss("invalid code");
    };
    while (true) {
      FSD_ASSIGN_OR_RETURN(int sym, decode(lit));
      if (sym == 256) break;
      if (sym < 256) {
        out.push_back(static_cast<uint8_t>(sym));
        continue;
      }
      FSD_ASSIGN_OR_RETURN(uint32_t lextra,
                           read_bits(kLengthExtra[sym - 257]));
      const size_t length = kLengthBase[sym - 257] + lextra;
      FSD_ASSIGN_OR_RETURN(int dsym, decode(dist));
      // Distance buckets pair up from bucket 4 on, as in DEFLATE.
      FSD_ASSIGN_OR_RETURN(uint32_t dextra,
                           read_bits(dsym < 4 ? 0 : dsym / 2 - 1));
      const size_t distance = kDistBase[dsym] + dextra;
      if (distance > out.size()) return Status::DataLoss("bad distance");
      if (length > raw_size - std::min<uint64_t>(raw_size, out.size())) {
        return Status::DataLoss("overlong");
      }
      if (trace != nullptr) {
        trace->copies.push_back({out.size(), out.size() + length});
      }
      for (size_t k = 0; k < length; ++k) {
        out.push_back(out[out.size() - distance]);
      }
    }
  } else {
    return Status::DataLoss("unknown method");
  }
  if (out.size() != raw_size) return Status::DataLoss("size mismatch");
  if (Crc32(out.data(), out.size()) != expect_crc) {
    return Status::DataLoss("checksum mismatch");
  }
  return out;
}

/// Whether LzDecompress agrees with the reference on `container`.
::testing::AssertionResult DecodersAgree(const Bytes& container) {
  const Result<Bytes> want = ReferenceLzDecompress(container);
  const Result<Bytes> got = LzDecompress(container);
  if (got.status().code() != want.status().code()) {
    return ::testing::AssertionFailure()
           << "got " << got.status().ToString() << ", want "
           << want.status().ToString();
  }
  if (want.ok() && *got != *want) {
    return ::testing::AssertionFailure() << "decoded bytes differ";
  }
  return ::testing::AssertionSuccess();
}

/// Row payloads as the workers send them: layer activations of a small
/// generated model, split over `parts` workers and serialized as lossless
/// uncompressed chunks (the tag byte dropped), like perfbench's shapes.
std::vector<Bytes> RowPayloads(int32_t neurons, int32_t batch, int parts,
                               uint64_t seed) {
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = 4;
  config.seed = 7;
  auto dnn = model::GenerateSparseDnn(config);
  EXPECT_TRUE(dnn.ok());
  model::InputConfig input_config;
  input_config.neurons = neurons;
  input_config.batch = batch;
  input_config.seed = seed;
  auto input = model::GenerateInputBatch(input_config);
  EXPECT_TRUE(input.ok());
  std::vector<linalg::ActivationMap> layers = {*input};
  EXPECT_TRUE(model::ReferenceInference(
                  *dnn, *input, nullptr,
                  [&](int32_t, const linalg::ActivationMap& x) {
                    layers.push_back(x);
                  })
                  .ok());
  std::vector<Bytes> payloads;
  for (const linalg::ActivationMap& layer : layers) {
    for (int p = 0; p < parts; ++p) {
      std::vector<int32_t> ids;
      for (const auto& [id, row] : layer) {
        if (id % parts == p) ids.push_back(id);
      }
      for (const core::RowChunk& chunk :
           core::EncodeRows(layer, ids, 224 * 1024, core::LosslessCodec(false))
               .chunks) {
        if (chunk.wire.size() > 1) {
          payloads.emplace_back(chunk.wire.begin() + 1, chunk.wire.end());
        }
      }
    }
  }
  return payloads;
}

/// A byte-plane row chunk (tag 3) from its parts, written from the format
/// alone: tag, varint LZ length, CRC-32 of the raw part (`crc` when given),
/// the LZ part, the raw part.
Bytes PlaneWire(const Bytes& packed, const Bytes& low,
                std::optional<uint32_t> crc = std::nullopt) {
  Bytes wire = {3};
  PutVarint64(&wire, packed.size());
  AppendRaw(&wire, crc.value_or(Crc32(low.data(), low.size())));
  wire.insert(wire.end(), packed.begin(), packed.end());
  wire.insert(wire.end(), low.begin(), low.end());
  return wire;
}

/// The byte planes of a lossless row payload (a tag-0 body): the structure
/// with byte 3 of every value after it (`*payload`, the LZ part's
/// content), and bytes 0-2 of every value (`*low`). Rows keep the body's
/// order, repeats included. False when the body does not parse.
bool SplitPlanes(const Bytes& body, Bytes* payload, Bytes* low) {
  ByteReader reader(body);
  Bytes high;
  payload->clear();
  low->clear();
  auto copy = [&]() -> std::optional<uint64_t> {
    auto value = GetVarint64(&reader);
    if (!value.ok()) return std::nullopt;
    PutVarint64(payload, *value);
    return *value;
  };
  const std::optional<uint64_t> count = copy();
  if (!count) return false;
  for (uint64_t r = 0; r < *count; ++r) {
    std::optional<uint64_t> nnz;
    if (!copy() || !(nnz = copy()) || !copy()) return false;
    if (*nnz > reader.remaining()) return false;
    for (uint64_t p = 0; p < *nnz; ++p) {
      if (!copy()) return false;
    }
    for (uint64_t p = 0; p < *nnz; ++p) {
      auto bits = reader.Read<uint32_t>();
      if (!bits.ok()) return false;
      high.push_back(static_cast<uint8_t>(*bits >> 24));
      for (int k = 0; k < 3; ++k) {
        low->push_back(static_cast<uint8_t>(*bits >> (8 * k)));
      }
    }
  }
  payload->insert(payload->end(), high.begin(), high.end());
  return true;
}

/// The tag-3 chunk of a parsable tag-0 body, as the encoder lays it out.
std::optional<Bytes> PlanesOf(const Bytes& body) {
  Bytes payload;
  Bytes low;
  if (!SplitPlanes(body, &payload, &low)) return std::nullopt;
  return PlaneWire(LzCompress(payload), low);
}

TEST(LzDifferential, GoldenCorpusAndRowPayloads) {
  std::vector<Bytes> inputs;
  for (const Shape shape : kShapes) {
    for (const size_t size : kCorpusSizes) {
      inputs.push_back(MakeCorpusInput(
          shape, size, size * 131 + static_cast<uint64_t>(shape)));
    }
  }
  const size_t corpus = inputs.size();
  for (const auto& [neurons, batch, parts] :
       {std::tuple{1024, 8, 8}, std::tuple{1024, 16, 4}}) {
    for (Bytes& payload : RowPayloads(neurons, batch, parts, 3)) {
      inputs.push_back(std::move(payload));
    }
  }
  ASSERT_GT(inputs.size(), corpus + 40);
  for (const int probes : {8, 32}) {
    LzOptions options;
    options.max_chain_probes = probes;
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Bytes packed = LzCompress(inputs[i], options);
      ASSERT_TRUE(DecodersAgree(packed)) << "input " << i;
      auto unpacked = LzDecompress(packed);
      ASSERT_TRUE(unpacked.ok()) << "input " << i;
      ASSERT_EQ(*unpacked, inputs[i]) << "input " << i;
    }
  }
}

TEST(LzDifferential, LongCodesAndCopiesAcrossGrowthSteps) {
  // Geometric byte frequencies give literal codes of 10-15 bits.
  Rng rng(31);
  Bytes skewed(70000);
  for (auto& b : skewed) {
    int k = 0;
    while (k < 255 && rng.NextBool(0.5)) ++k;
    b = static_cast<uint8_t>(k);
  }
  ReferenceTrace trace;
  const Bytes skewed_packed = LzCompress(skewed);
  ASSERT_TRUE(ReferenceLzDecompress(skewed_packed, &trace).ok());
  EXPECT_GE(trace.max_code_len, 12);
  ASSERT_TRUE(DecodersAgree(skewed_packed)) << "skewed";

  // The decoder grows its output in 64 KiB steps: periodic data puts a
  // match across every step boundary, at short and long distances.
  for (const size_t period : {3, 7, 40, 3000}) {
    Bytes periodic = MakeCorpusInput(Shape::kRandom, 200000, period);
    for (size_t i = period; i < periodic.size(); ++i) {
      periodic[i] = periodic[i - period];
    }
    ReferenceTrace copies;
    const Bytes packed = LzCompress(periodic);
    ASSERT_TRUE(ReferenceLzDecompress(packed, &copies).ok());
    for (size_t boundary = 65536; boundary < periodic.size();
         boundary += 65536) {
      EXPECT_TRUE(std::any_of(copies.copies.begin(), copies.copies.end(),
                              [boundary](const auto& c) {
                                return c.first < boundary &&
                                       c.second > boundary;
                              }))
          << "period " << period << " boundary " << boundary;
    }
    ASSERT_TRUE(DecodersAgree(packed)) << "period " << period;
  }
}

TEST(LzDifferential, SeededDamagedContainers) {
  // LZ-method containers from the corpus and row payloads, then thousands
  // of seeded edits: bit flips, truncations (every cut of the last 8
  // bytes, where the stream ends), trailing bytes and size-field edits.
  std::vector<Bytes> bases;
  auto add_base = [&bases](const Bytes& input) {
    const Bytes packed = LzCompress(input);
    if (packed[3] == 1) bases.push_back(packed);  // lz-huffman method
  };
  for (const Shape shape : kShapes) {
    for (const size_t size : {64, 65, 300, 4096, 70001}) {
      add_base(MakeCorpusInput(shape, size, size + 17));
    }
  }
  for (const Bytes& payload : RowPayloads(1024, 8, 8, 5)) {
    if (bases.size() == 40) break;
    add_base(payload);
  }
  ASSERT_EQ(bases.size(), 40u);
  // The LZ parts of byte-plane row chunks: structure, then exponent bytes.
  for (const Bytes& body : RowPayloads(1024, 16, 4, 6)) {
    Bytes payload;
    Bytes low;
    if (bases.size() == 48) break;
    if (SplitPlanes(body, &payload, &low)) add_base(payload);
  }
  ASSERT_EQ(bases.size(), 48u);
  Rng rng(2026);
  int cases = 0;
  for (size_t b = 0; b < bases.size(); ++b) {
    const Bytes& base = bases[b];
    for (size_t cut = 1; cut <= 8 && cut <= base.size(); ++cut, ++cases) {
      ASSERT_TRUE(DecodersAgree(Bytes(base.begin(), base.end() - cut)))
          << "base " << b << " cut " << cut;
    }
    for (size_t extra = 1; extra <= 8; ++extra, ++cases) {
      Bytes longer = base;
      for (size_t k = 0; k < extra; ++k) {
        longer.push_back(static_cast<uint8_t>(rng.Next()));
      }
      ASSERT_TRUE(DecodersAgree(longer)) << "base " << b << " extra " << extra;
    }
    for (int i = 0; i < 100; ++i, cases += 2) {
      Bytes damaged = base;
      const int flips = 1 + static_cast<int>(rng.NextBounded(3));
      for (int f = 0; f < flips; ++f) {
        const size_t bit = rng.NextBounded(damaged.size() * 8);
        damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      ASSERT_TRUE(DecodersAgree(damaged)) << "base " << b << " flips " << i;
      const size_t keep = rng.NextBounded(base.size());
      ASSERT_TRUE(DecodersAgree(Bytes(base.begin(), base.begin() + keep)))
          << "base " << b << " keep " << keep;
    }
    ByteReader reader(base.data() + 4, base.size() - 4);
    const uint64_t raw_size = *GetVarint64(&reader);
    for (const uint64_t size :
         {uint64_t{0}, raw_size - 1, raw_size + 1, raw_size + 70000,
          raw_size * 3, rng.NextBounded(1ull << 40)}) {
      ++cases;
      ASSERT_TRUE(DecodersAgree(WithSizeField(base, 4, size)))
          << "base " << b << " size " << size;
    }
  }
  EXPECT_GT(cases, 9000);
}

// ---------------------------------------------------------------------------
// Flat row decode: core::DecodeRows into ActivationRows (and its map edge)
// against a map decoder written from the row wire format alone, which
// assigns rows into a map one by one as the decoder did before rows went
// flat. Both must return the same status code, and the same rows when the
// chunk decodes.
// ---------------------------------------------------------------------------

/// Sets `*ascending` false when the chunk's row ids do not strictly ascend.
Result<linalg::ActivationMap> ReferenceRowDecode(const Bytes& wire,
                                                 bool* ascending) {
  if (wire.empty()) return Status::DataLoss("empty row payload");
  auto unwrap = [](const uint8_t* data, size_t size) -> Result<Bytes> {
    if (size == 0) return Status::DataLoss("empty row payload");
    if (data[0] == 1) return LzDecompress(data + 1, size - 1);
    if (data[0] == 0) return Bytes(data + 1, data + size);
    return Status::DataLoss("unknown row payload tag");
  };
  Bytes payload;
  std::vector<float> values;
  const bool quantized = wire[0] == 2;
  const bool planes = wire[0] == 3;
  if (planes) {
    ByteReader reader(wire.data() + 1, wire.size() - 1);
    FSD_ASSIGN_OR_RETURN(uint64_t packed_len, GetVarint64(&reader));
    FSD_ASSIGN_OR_RETURN(uint32_t crc, reader.Read<uint32_t>());
    if (packed_len > reader.remaining()) {
      return Status::DataLoss("LZ part overruns chunk");
    }
    FSD_ASSIGN_OR_RETURN(Bytes packed, reader.ReadBytes(packed_len));
    FSD_ASSIGN_OR_RETURN(Bytes low, reader.ReadBytes(reader.remaining()));
    if (low.size() % 3 != 0) return Status::DataLoss("raw part length");
    if (Crc32(low.data(), low.size()) != crc) {
      return Status::DataLoss("raw part CRC");
    }
    FSD_ASSIGN_OR_RETURN(payload, LzDecompress(packed));
    const size_t count = low.size() / 3;
    if (payload.size() < count) return Status::DataLoss("short plane");
    const size_t high = payload.size() - count;
    for (size_t k = 0; k < count; ++k) {
      uint32_t bits = static_cast<uint32_t>(payload[high + k]) << 24;
      for (int b = 0; b < 3; ++b) {
        bits |= static_cast<uint32_t>(low[3 * k + b]) << (8 * b);
      }
      values.push_back(std::bit_cast<float>(bits));
    }
    payload.resize(high);
  } else if (quantized) {
    ByteReader reader(wire.data() + 1, wire.size() - 1);
    FSD_ASSIGN_OR_RETURN(uint64_t structure_len, GetVarint64(&reader));
    const size_t pos = 1 + reader.position();
    if (structure_len > wire.size() - pos) {
      return Status::DataLoss("structure overruns chunk");
    }
    FSD_ASSIGN_OR_RETURN(payload, unwrap(wire.data() + pos, structure_len));
    FSD_ASSIGN_OR_RETURN(
        values, QuantDecompress(Bytes(wire.begin() + pos + structure_len,
                                      wire.end())));
  } else {
    FSD_ASSIGN_OR_RETURN(payload, unwrap(wire.data(), wire.size()));
  }
  ByteReader reader(payload);
  linalg::ActivationMap out;
  FSD_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&reader));
  size_t next_value = 0;
  for (uint64_t r = 0; r < count; ++r) {
    FSD_ASSIGN_OR_RETURN(uint64_t id, GetVarint64(&reader));
    FSD_ASSIGN_OR_RETURN(uint64_t nnz, GetVarint64(&reader));
    FSD_ASSIGN_OR_RETURN(uint64_t dim, GetVarint64(&reader));
    if (id > INT32_MAX || dim > INT32_MAX) return Status::DataLoss("wide");
    if (nnz > reader.remaining()) return Status::DataLoss("nnz");
    linalg::SparseVector row;
    row.dim = static_cast<int32_t>(dim);
    int64_t prev = -1;
    for (uint64_t p = 0; p < nnz; ++p) {
      FSD_ASSIGN_OR_RETURN(uint64_t delta, GetVarint64(&reader));
      prev += 1 + static_cast<int64_t>(delta);
      if (prev >= static_cast<int64_t>(dim)) return Status::DataLoss("idx");
      row.idx.push_back(static_cast<int32_t>(prev));
    }
    for (uint64_t p = 0; p < nnz; ++p) {
      if (quantized || planes) {
        if (next_value >= values.size()) return Status::DataLoss("under");
        row.val.push_back(values[next_value++]);
      } else {
        FSD_ASSIGN_OR_RETURN(float v, reader.Read<float>());
        row.val.push_back(v);
      }
    }
    if (!out.empty() && out.rbegin()->first >= static_cast<int32_t>(id)) {
      *ascending = false;
    }
    out[static_cast<int32_t>(id)] = std::move(row);
  }
  if ((quantized || planes) && next_value != values.size()) {
    return Status::DataLoss("over");
  }
  if (planes && !reader.exhausted()) return Status::DataLoss("trailing");
  return out;
}

/// Decode outcomes seen, to show the inputs reached the interesting paths.
struct RowDecodeTally {
  int cases = 0;
  int ok_with_rows = 0;
  int reordered = 0;  ///< OK chunks whose ids were not strictly ascending
};

/// Whether the flat decode and the map edge agree with the reference.
::testing::AssertionResult RowDecodersAgree(const Bytes& wire,
                                            RowDecodeTally* tally) {
  ++tally->cases;
  bool ascending = true;
  const Result<linalg::ActivationMap> want =
      ReferenceRowDecode(wire, &ascending);
  linalg::ActivationRows flat;
  const Status got = core::DecodeRows(wire, &flat);
  linalg::ActivationMap map;
  const Status got_map = core::DecodeRows(wire, &map);
  if (got.code() != want.status().code() ||
      got_map.code() != want.status().code()) {
    return ::testing::AssertionFailure()
           << "flat " << got.ToString() << ", map " << got_map.ToString()
           << ", want " << want.status().ToString();
  }
  if (!want.ok()) {
    if (!flat.empty() || !map.empty()) {
      return ::testing::AssertionFailure() << "a failed decode wrote rows";
    }
    return ::testing::AssertionSuccess();
  }
  if (flat.ToMap() != *want || map != *want) {
    return ::testing::AssertionFailure() << "decoded rows differ";
  }
  if (!want->empty()) ++tally->ok_with_rows;
  if (!ascending) ++tally->reordered;
  return ::testing::AssertionSuccess();
}

Bytes Tagged(uint8_t tag, const Bytes& body) {
  Bytes wire(body.size() + 1);
  wire[0] = tag;
  if (!body.empty()) std::memcpy(wire.data() + 1, body.data(), body.size());
  return wire;
}

TEST(FlatDecode, AgreesWithMapDecodeOverTheGoldenCorpus) {
  RowDecodeTally tally;
  std::vector<Bytes> bodies;
  for (const Shape shape : kShapes) {
    for (const size_t size : kCorpusSizes) {
      bodies.push_back(MakeCorpusInput(
          shape, size, size * 131 + static_cast<uint64_t>(shape)));
    }
  }
  for (Bytes& payload : RowPayloads(1024, 8, 8, 3)) {
    bodies.push_back(std::move(payload));
  }
  RowDecodeTally plane_tally;
  for (const Bytes& body : bodies) {
    ASSERT_TRUE(RowDecodersAgree(Tagged(0, body), &tally));
    ASSERT_TRUE(RowDecodersAgree(Tagged(1, LzCompress(body)), &tally));
    ASSERT_TRUE(RowDecodersAgree(Tagged(7, body), &tally));
    // The body as a byte-plane LZ part, under a raw part of arbitrary
    // bytes; and, when it parses as rows, laid out as byte planes.
    const Bytes low(body.begin(), body.begin() + 3 * (body.size() / 7));
    ASSERT_TRUE(RowDecodersAgree(PlaneWire(LzCompress(body), low), &tally));
    if (const std::optional<Bytes> planes = PlanesOf(body)) {
      ASSERT_TRUE(RowDecodersAgree(*planes, &plane_tally));
    }
  }
  // Hand-made chunks: ids out of order, a repeated id, mixed dims and an
  // empty row; each resolves as sequential map assignments do.
  Bytes raw;
  PutVarint64(&raw, 5);
  for (const auto& [id, dim, lane] :
       {std::tuple{9, 4, 1}, std::tuple{2, 4, 3}, std::tuple{9, 6, 5},
        std::tuple{4, 2, -1}, std::tuple{0, 4, 0}}) {
    PutVarint64(&raw, static_cast<uint64_t>(id));
    PutVarint64(&raw, lane < 0 ? 0 : 1);
    PutVarint64(&raw, static_cast<uint64_t>(dim));
    if (lane >= 0) {
      PutVarint64(&raw, static_cast<uint64_t>(lane));
      const float v = 0.5f * static_cast<float>(id);
      const auto* bytes = reinterpret_cast<const uint8_t*>(&v);
      raw.insert(raw.end(), bytes, bytes + sizeof(v));
    }
  }
  ASSERT_TRUE(RowDecodersAgree(Tagged(0, raw), &tally));
  ASSERT_TRUE(RowDecodersAgree(Tagged(1, LzCompress(raw)), &tally));
  ASSERT_TRUE(RowDecodersAgree(*PlanesOf(raw), &plane_tally));
  for (size_t keep = 1; keep < raw.size(); ++keep) {
    ASSERT_TRUE(RowDecodersAgree(
        Tagged(0, Bytes(raw.begin(), raw.begin() + keep)), &tally));
  }
  EXPECT_GT(tally.ok_with_rows, 10);
  EXPECT_GE(tally.reordered, 1);
  EXPECT_GT(plane_tally.ok_with_rows, 10);
  EXPECT_GE(plane_tally.reordered, 1);
}

TEST(FlatDecode, AgreesWithMapDecodeOverDamagedContainers) {
  // The LzDifferential bases, damaged the same ways, carried as compressed
  // row chunks; plus damaged quantized chunks of real row payloads.
  std::vector<Bytes> bases;
  for (const Shape shape : kShapes) {
    for (const size_t size : {64, 65, 300, 4096, 70001}) {
      bases.push_back(LzCompress(MakeCorpusInput(shape, size, size + 17)));
    }
  }
  for (const Bytes& payload : RowPayloads(1024, 8, 8, 5)) {
    if (bases.size() == 40) break;
    bases.push_back(LzCompress(payload));
  }
  RowDecodeTally tally;
  Rng rng(2027);
  for (size_t b = 0; b < bases.size(); ++b) {
    const Bytes& base = bases[b];
    for (size_t cut = 1; cut <= 8 && cut <= base.size(); ++cut) {
      ASSERT_TRUE(RowDecodersAgree(
          Tagged(1, Bytes(base.begin(), base.end() - cut)), &tally))
          << "base " << b << " cut " << cut;
    }
    for (int i = 0; i < 40; ++i) {
      Bytes damaged = base;
      const size_t bit = rng.NextBounded(damaged.size() * 8);
      damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_TRUE(RowDecodersAgree(Tagged(1, damaged), &tally))
          << "base " << b << " flip " << bit;
      const size_t keep = rng.NextBounded(base.size());
      ASSERT_TRUE(RowDecodersAgree(
          Tagged(1, Bytes(base.begin(), base.begin() + keep)), &tally))
          << "base " << b << " keep " << keep;
    }
  }
  const Bytes payload = RowPayloads(1024, 16, 4, 3).front();
  linalg::ActivationMap rows;
  ASSERT_TRUE(core::DecodeRows(Tagged(0, payload), &rows).ok());
  std::vector<int32_t> ids;
  for (const auto& [id, row] : rows) ids.push_back(id);
  for (const int bits : {4, 8, 16}) {
    const Bytes wire =
        core::EncodeRows(rows, ids, 0, core::QuantCodec(bits)).chunks[0].wire;
    ASSERT_TRUE(RowDecodersAgree(wire, &tally)) << "bits " << bits;
    for (int i = 0; i < 200; ++i) {
      Bytes damaged = wire;
      const size_t bit = rng.NextBounded(damaged.size() * 8);
      damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_TRUE(RowDecodersAgree(damaged, &tally))
          << "bits " << bits << " flip " << bit;
    }
    for (size_t keep = 0; keep < wire.size(); keep += 7) {
      ASSERT_TRUE(RowDecodersAgree(
          Bytes(wire.begin(), wire.begin() + keep + 1), &tally))
          << "bits " << bits << " keep " << keep;
    }
  }
  EXPECT_GT(tally.cases, 3000);
  EXPECT_GT(tally.ok_with_rows, 20);
}

TEST(FlatDecode, AgreesWithMapDecodeOverDamagedBytePlaneChunks) {
  // Byte-plane chunks of real row payloads, each checked against the
  // encoder's own layout, then damaged: cuts at every offset of the first
  // base (a sample of the rest), seeded bit flips, and edits of each field
  // the layout adds.
  RowDecodeTally tally;
  Rng rng(2028);
  int bases = 0;
  int matched_encoder = 0;
  for (const Bytes& body : RowPayloads(1024, 16, 4, 3)) {
    if (bases == 8) break;
    Bytes payload;
    Bytes low;
    if (!SplitPlanes(body, &payload, &low) || low.empty()) continue;
    ++bases;
    const Bytes packed = LzCompress(payload);
    const Bytes wire = PlaneWire(packed, low);
    linalg::ActivationMap rows;
    ASSERT_TRUE(core::DecodeRows(Tagged(0, body), &rows).ok());
    std::vector<int32_t> ids;
    for (const auto& [id, row] : rows) ids.push_back(id);
    const Bytes encoded =
        core::EncodeRows(rows, ids, 0, core::LosslessCodec(true))
            .chunks[0]
            .wire;
    if (encoded[0] == 3) {
      ASSERT_EQ(encoded, wire) << "base " << bases;
      ++matched_encoder;
    }
    ASSERT_TRUE(RowDecodersAgree(wire, &tally));
    for (size_t keep = 0; keep < wire.size(); ++keep) {
      if (bases > 1 && keep > 64 && keep + 64 < wire.size() &&
          rng.NextBounded(wire.size()) > 40) {
        continue;
      }
      ASSERT_TRUE(
          RowDecodersAgree(Bytes(wire.begin(), wire.begin() + keep), &tally))
          << "base " << bases << " keep " << keep;
    }
    for (int i = 0; i < 60; ++i) {
      Bytes damaged = wire;
      const size_t bit = rng.NextBounded(damaged.size() * 8);
      damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_TRUE(RowDecodersAgree(damaged, &tally))
          << "base " << bases << " flip " << bit;
    }
    // LZ lengths that cut into, overrun or wildly overrun the chunk.
    Bytes length_field;
    PutVarint64(&length_field, packed.size());
    for (const uint64_t len :
         {uint64_t{0}, packed.size() - 1, packed.size() + 1,
          packed.size() + low.size(), packed.size() + low.size() + 1,
          uint64_t{1} << 40}) {
      Bytes edited = {3};
      PutVarint64(&edited, len);
      edited.insert(edited.end(), wire.begin() + 1 + length_field.size(),
                    wire.end());
      ASSERT_TRUE(RowDecodersAgree(edited, &tally))
          << "base " << bases << " length " << len;
    }
    // Raw parts not a multiple of 3 bytes, under their true CRC.
    for (const size_t cut : {size_t{1}, size_t{2}, size_t{4}}) {
      ASSERT_TRUE(RowDecodersAgree(
          PlaneWire(packed, Bytes(low.begin(), low.end() - cut)), &tally))
          << "base " << bases << " raw cut " << cut;
    }
    Bytes longer = low;
    longer.push_back(0);
    ASSERT_TRUE(RowDecodersAgree(PlaneWire(packed, longer), &tally));
    // Exponent planes one value short and one value long.
    ASSERT_TRUE(RowDecodersAgree(
        PlaneWire(LzCompress(Bytes(payload.begin(), payload.end() - 1)), low),
        &tally));
    Bytes extra = payload;
    extra.push_back(0x3f);
    ASSERT_TRUE(RowDecodersAgree(PlaneWire(LzCompress(extra), low), &tally));
    // Flipped CRC bits.
    const uint32_t crc = Crc32(low.data(), low.size());
    for (const int bit : {0, 9, 31}) {
      ASSERT_TRUE(
          RowDecodersAgree(PlaneWire(packed, low, crc ^ (1u << bit)), &tally));
    }
  }
  EXPECT_EQ(bases, 8);
  EXPECT_GE(matched_encoder, 4);
  EXPECT_GT(tally.cases, 3000);
  EXPECT_GE(tally.ok_with_rows, 8);
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
