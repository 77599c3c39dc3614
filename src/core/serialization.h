// Wire encoding of activation rows exchanged between workers.
//
// Row payloads are delta/varint coded and optionally compressed with FsdLz
// (the paper's ZLIB stage). The queue channel additionally splits payloads
// into size-capped chunks using the paper's number-of-nonzeros heuristic
// ("we use the total NNZ over the rows to be communicated to estimate the
// number of byte strings required", §III-C1).
//
// A compressed lossless chunk takes one of two layouts, picked per chunk:
//   - whole-payload LZ (tag 1): the uncompressed payload (row count, then
//     per row its structure and raw float values) in one FsdLz container;
//   - byte planes (tag 3): the row count and structure, then byte 3 (sign
//     and high exponent bits) of every value, in one FsdLz container;
//     bytes 0-2 of every value follow raw, under a CRC-32 in the chunk
//     header.
// The low bytes of computed activations are close to random, so LZ gains
// almost nothing on them and spends most of its time there. The rule:
// when at least 1/8 of a chunk's values repeat the low 24 bits of the
// value before them (saturated rows, all-1.0 inputs), LZ codes the
// repeats as matches and the chunk keeps tag 1; otherwise it takes tag 3.
// Both sides occur in real traffic: on each perfbench workload about 12%
// of the chunks repeat (the all-1.0 input layer), tag 1 is 45-64% smaller
// than tag 3 on them, and always taking tag 3 would add 2.3-2.6% to a
// workload's wire bytes. The repeat share of a chunk is either under 1/32
// or at least 31/32 there, so any threshold between the two picks the
// smaller layout for every chunk; 1/8 is one of them.
// Raw bytes, chunk boundaries and PlanRows do not depend on the layout.
#ifndef FSD_CORE_SERIALIZATION_H_
#define FSD_CORE_SERIALIZATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "core/fsd_config.h"
#include "linalg/spmm.h"

namespace fsd::core {

/// Wire-format selection for EncodeRows, derived from FsdOptions (the
/// channel backends pass it through verbatim; tests/benches may build one
/// directly). Chunks are self-describing — DecodeRows never needs it.
struct WireCodec {
  bool compress = false;      ///< FsdLz-compress payloads
  codec::LzOptions lz;        ///< LZ effort knobs
  int32_t quant_bits = 0;     ///< 0 = lossless; 2..16 = quantize values
};

/// Lossless codec shorthand (tests, benches).
inline WireCodec LosslessCodec(bool compress = false) {
  WireCodec codec;
  codec.compress = compress;
  return codec;
}

/// Quantized codec shorthand: `bits`-wide values, lossless structure.
inline WireCodec QuantCodec(int32_t bits, bool compress = true) {
  WireCodec codec;
  codec.compress = compress;
  codec.quant_bits = bits;
  return codec;
}

inline WireCodec WireCodecFromOptions(const FsdOptions& options) {
  return WireCodec{options.compress, options.codec, options.quant_bits};
}

/// A contiguous run of encoded activation rows.
struct RowChunk {
  Bytes wire;              ///< encoded (possibly compressed) payload
  uint64_t raw_bytes = 0;  ///< pre-compression (lossless-equivalent) size
  int32_t num_rows = 0;
  int64_t nnz = 0;
  // Quantized wire mode only (see WireCodec::quant_bits):
  int32_t quant_bits = 0;       ///< width this chunk's values were sent at
  int64_t quant_values = 0;     ///< float values quantized in this chunk
  double quant_err_max = 0.0;   ///< measured max |err| / chunk scale
};

/// One row a send carries: its id and a view of its entries (into the
/// source the rows were collected from, which must outlive the refs).
struct RowRef {
  int32_t id = 0;
  linalg::RowView row;
};

/// The rows a send of `row_ids` carries: the intersection of `row_ids`
/// and the active (nonempty) rows of `source`, in `row_ids` order. Missing
/// and inactive rows are skipped; the receiving side learns about them
/// implicitly, since every active row is self-describing. The flat source
/// is searched over its sorted ids, resuming from the previous hit while
/// `row_ids` ascend. Collect once per send: PlanRows and EncodeRows both
/// read the refs.
std::vector<RowRef> CollectRows(const linalg::ActivationRows& source,
                                const std::vector<int32_t>& row_ids);

/// The encoded rows of one send.
struct EncodeResult {
  std::vector<RowChunk> chunks;
  int32_t active_rows = 0;
  int64_t active_nnz = 0;
};

/// Encodes `rows` into chunks of at most `max_chunk_bytes` raw payload
/// (0 = single unbounded chunk, used by the object channel). Rows are
/// never split across chunks; chunk boundaries are chosen with the NNZ
/// heuristic so encoded chunks approach the cap. With codec.quant_bits ==
/// 0 the round trip is bit-exact; otherwise values travel through the FQ
/// quantizer (structure — ids, nnz, deltas — stays exact, values
/// reconstruct within codec::QuantRelErrorBound of each chunk's max
/// |value|). No rows still yields one explicit empty marker chunk.
EncodeResult EncodeRows(std::span<const RowRef> rows, uint64_t max_chunk_bytes,
                        const WireCodec& codec);
/// Map edge: the rows `row_ids` names in `source`, collected as
/// CollectRows does, then EncodeRows.
EncodeResult EncodeRows(const linalg::ActivationMap& source,
                        const std::vector<int32_t>& row_ids,
                        uint64_t max_chunk_bytes, const WireCodec& codec);

/// What an EncodeRows call WILL produce, computed without encoding: the
/// chunk count, the exact summed raw (pre-compression) bytes, and the
/// active row/nnz counts. Everything the serialization-CPU charge needs is
/// known here, so channel backends price the encode up front and run the
/// encode itself under the compute-offload window. Exactness is
/// structural: chunk boundaries come from the same NNZ-heuristic loop
/// EncodeRows uses, and raw bytes are varint-length arithmetic over the
/// identical wire layout (the quantized mode's lossless-equivalent raw
/// size follows the same formula). Covered by a PlanRows==EncodeRows
/// agreement test across codecs and chunk caps.
struct EncodePlan {
  uint64_t raw_bytes = 0;   ///< Σ chunk.raw_bytes EncodeRows will report
  size_t num_chunks = 0;    ///< chunks EncodeRows will emit (≥ 1)
  int32_t active_rows = 0;
  int64_t active_nnz = 0;
};
EncodePlan PlanRows(std::span<const RowRef> rows, uint64_t max_chunk_bytes);

/// Decodes a chunk produced by EncodeRows, appending its rows to `out`.
/// Chunks are self-describing (tag byte), so no codec argument is needed.
/// A row id `out` already holds, or one repeated within the chunk, keeps
/// the row decoded last, as sequential decodes into a map would. On error
/// `out` is left as it was.
Status DecodeRows(std::span<const uint8_t> wire, linalg::ActivationRows* out);
/// Map edge: decodes into ActivationRows, then assigns each row into
/// `out`. On error `out` is left as it was.
Status DecodeRows(std::span<const uint8_t> wire, linalg::ActivationMap* out);

/// Estimated encoded bytes for a row with `nnz` nonzeros (the NNZ packing
/// heuristic: varint ids/deltas plus 4-byte values).
uint64_t EstimateRowBytes(int64_t nnz);

}  // namespace fsd::core

#endif  // FSD_CORE_SERIALIZATION_H_
