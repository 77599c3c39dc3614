// FsdLz: from-scratch general-purpose compressor (LZ77 + canonical Huffman).
//
// This is the repository's substitute for ZLIB, which FSD-Inference uses to
// compress inter-worker payloads (paper §IV-B). The container format is:
//
//   byte 0   : 'F'           magic
//   byte 1   : 'Z'           magic
//   byte 2   : version (1)
//   byte 3   : method (0 = stored, 1 = lz-huffman)
//   varint   : uncompressed size
//   u32      : CRC-32 of the uncompressed data
//   payload  : raw bytes (stored) or Huffman-coded LZ token stream
//
// The LZ stage uses a 32 KiB window (the span of the distance alphabet, as
// in DEFLATE), greedy hash-chain matching, minimum match 4, maximum 258.
// Token symbols follow a DEFLATE-like layout: 0..255 literals, 256
// end-of-stream, 257.. length buckets with extra bits; match distances use
// a separate 30-bucket alphabet.
#ifndef FSD_CODEC_LZ_H_
#define FSD_CODEC_LZ_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace fsd::codec {

/// Compression effort/behaviour knobs (RocksDB-style options struct).
struct LzOptions {
  /// Maximum hash-chain probes per position; higher = better ratio, slower.
  int max_chain_probes = 32;
  /// Below this input size compression is skipped (stored mode).
  size_t min_compress_size = 64;
};

/// Compresses `input`; output is always a valid FsdLz container (stored mode
/// is used automatically when compression does not help).
Bytes LzCompress(const Bytes& input, const LzOptions& options = {});

/// Decompresses an FsdLz container, verifying the CRC.
Result<Bytes> LzDecompress(const Bytes& input);
/// Same, over a byte span (lets callers decode a container in place).
Result<Bytes> LzDecompress(const uint8_t* data, size_t size);

}  // namespace fsd::codec

#endif  // FSD_CODEC_LZ_H_
