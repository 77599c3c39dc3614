#include "core/serialization.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <span>

#include "codec/crc32.h"
#include "codec/quant.h"
#include "codec/varint.h"

namespace fsd::core {
namespace {

constexpr uint8_t kUncompressedTag = 0;
constexpr uint8_t kCompressedTag = 1;
/// Quantized wire mode: [tag][varint structure len][structure wire]
/// [FQ values block]. The structure block (ids, nnz, dims, index deltas) is
/// itself a tagged lossless payload — exactness of the sparsity pattern is
/// never negotiable — while the values block carries the bounded-error
/// quantized floats.
constexpr uint8_t kQuantizedTag = 2;
/// Byte-plane wire mode, the compressed lossless layout for chunks whose
/// values are noisy: [tag][varint LZ length][u32 CRC-32 of the raw part]
/// [FsdLz container: count and row structure, then byte 3 (sign and high
/// exponent bits) of every value][raw part: bytes 0-2 of every value,
/// three per value in value order]. The low bytes of computed floats are
/// close to random, so LZ gains almost nothing on them and spends most of
/// its time there; they travel raw, checked by their own CRC.
constexpr uint8_t kPlaneTag = 3;

constexpr uint64_t kInt32Max =
    static_cast<uint64_t>(std::numeric_limits<int32_t>::max());

/// Encodes one row's structure: id, nnz, dim, delta-coded indices.
void EncodeRowStructure(const RowRef& ref, Bytes* out) {
  const linalg::RowView& row = ref.row;
  codec::PutVarint64(out, static_cast<uint64_t>(ref.id));
  codec::PutVarint64(out, static_cast<uint64_t>(row.nnz));
  codec::PutVarint64(out, static_cast<uint64_t>(row.dim));
  int32_t prev = -1;
  for (int32_t j = 0; j < row.nnz; ++j) {
    codec::PutVarint64(out, static_cast<uint64_t>(row.idx[j] - prev - 1));
    prev = row.idx[j];
  }
}

/// Encodes one row into `out`: structure followed by raw float values.
void EncodeRow(const RowRef& ref, Bytes* out) {
  EncodeRowStructure(ref, out);
  for (int32_t j = 0; j < ref.row.nnz; ++j) AppendRaw(out, ref.row.val[j]);
}

/// Wraps a raw payload in the lossless wire framing (tag + optional LZ).
void WrapLossless(const Bytes& raw, bool compress,
                  const codec::LzOptions& lz, Bytes* wire) {
  if (compress) {
    wire->push_back(kCompressedTag);
    Bytes packed = codec::LzCompress(raw, lz);
    wire->insert(wire->end(), packed.begin(), packed.end());
  } else {
    wire->push_back(kUncompressedTag);
    wire->insert(wire->end(), raw.begin(), raw.end());
  }
}

/// Whether at least 1/8 of the values of `rows` repeat the low 24 bits of
/// the value before them. Such chunks (saturated rows, all-1.0 inputs)
/// keep the whole-payload LZ of kCompressedTag, which codes the repeats as
/// matches; the rest take the byte-plane layout.
bool RepeatsLowBytes(std::span<const RowRef> rows) {
  uint64_t values = 0;
  uint64_t repeats = 0;
  uint32_t prev = ~uint32_t{0};  // matches no 24-bit value
  for (const RowRef& ref : rows) {
    for (int32_t j = 0; j < ref.row.nnz; ++j) {
      const uint32_t low = std::bit_cast<uint32_t>(ref.row.val[j]) & 0xFFFFFF;
      repeats += low == prev;
      prev = low;
    }
    values += static_cast<uint64_t>(ref.row.nnz);
  }
  return repeats * 8 >= values;
}

/// Encodes `rows` in the kPlaneTag layout into `wire`; returns the raw
/// (lossless-equivalent) size, structure plus four bytes per value.
uint64_t EncodePlanes(std::span<const RowRef> rows,
                      const codec::LzOptions& lz, Bytes* wire) {
  Bytes packed_input;  // structure, then the exponent plane
  codec::PutVarint64(&packed_input, rows.size());
  size_t values = 0;
  for (const RowRef& ref : rows) {
    EncodeRowStructure(ref, &packed_input);
    values += static_cast<size_t>(ref.row.nnz);
  }
  const size_t structure = packed_input.size();
  size_t at = structure;
  packed_input.resize(at + values);
  for (const RowRef& ref : rows) {
    for (int32_t j = 0; j < ref.row.nnz; ++j) {
      packed_input[at++] = static_cast<uint8_t>(
          std::bit_cast<uint32_t>(ref.row.val[j]) >> 24);
    }
  }
  const Bytes packed = codec::LzCompress(packed_input, lz);
  wire->push_back(kPlaneTag);
  codec::PutVarint64(wire, packed.size());
  const size_t crc_at = wire->size();
  AppendRaw(wire, uint32_t{0});
  wire->insert(wire->end(), packed.begin(), packed.end());
  const size_t low_at = wire->size();
  wire->resize(low_at + 3 * values);
  uint8_t* low = wire->data() + low_at;
  for (const RowRef& ref : rows) {
    for (int32_t j = 0; j < ref.row.nnz; ++j) {
      const uint32_t bits = std::bit_cast<uint32_t>(ref.row.val[j]);
      low[0] = static_cast<uint8_t>(bits);
      low[1] = static_cast<uint8_t>(bits >> 8);
      low[2] = static_cast<uint8_t>(bits >> 16);
      low += 3;
    }
  }
  const uint32_t crc = codec::Crc32(wire->data() + low_at, 3 * values);
  std::memcpy(wire->data() + crc_at, &crc, sizeof(crc));
  return structure + 4 * values;
}

/// Inverse of WrapLossless over a byte span. An uncompressed payload is
/// returned in place; a compressed one is decompressed into `*storage`.
Result<std::span<const uint8_t>> UnwrapLossless(const uint8_t* data,
                                                size_t size, Bytes* storage) {
  if (size == 0) return Status::DataLoss("empty row payload");
  const uint8_t tag = data[0];
  if (tag == kCompressedTag) {
    FSD_ASSIGN_OR_RETURN(*storage, codec::LzDecompress(data + 1, size - 1));
    return std::span<const uint8_t>(*storage);
  }
  if (tag == kUncompressedTag) {
    return std::span<const uint8_t>(data + 1, size - 1);
  }
  return Status::DataLoss("unknown row payload tag");
}

/// Appends the rows of decoded structure+values payloads to `out`. When
/// `values` is non-null the rows' values come from it sequentially
/// (quantized and byte-plane modes); otherwise they follow each row's
/// indices inline (lossless mode). With `whole`, bytes left after the last
/// row are DataLoss. Sets `*ordered` false when a row id does not exceed
/// the id before it.
Status AppendParsedRows(std::span<const uint8_t> payload,
                        const std::vector<float>* values, bool whole,
                        linalg::ActivationRows* out, bool* ordered) {
  ByteReader reader(payload.data(), payload.size());
  FSD_ASSIGN_OR_RETURN(uint64_t count, codec::GetVarint64(&reader));
  // Each row takes at least three bytes (id, nnz, dim), which bounds a
  // hostile count before it sizes an allocation.
  const size_t rows = out->size() +
                      static_cast<size_t>(std::min<uint64_t>(
                          count, reader.remaining() / 3));
  out->ids.reserve(rows);
  out->dims.reserve(rows);
  out->offsets.reserve(rows + 1);
  if (out->offsets.empty()) out->offsets.push_back(0);
  size_t next_value = 0;
  for (uint64_t r = 0; r < count; ++r) {
    FSD_ASSIGN_OR_RETURN(uint64_t row_id, codec::GetVarint64(&reader));
    FSD_ASSIGN_OR_RETURN(uint64_t nnz, codec::GetVarint64(&reader));
    FSD_ASSIGN_OR_RETURN(uint64_t dim, codec::GetVarint64(&reader));
    // Row ids and dims are int32_t in memory; a wider value must not be
    // truncated into a negative id or dim.
    if (row_id > kInt32Max || dim > kInt32Max) {
      return Status::DataLoss("row id or dim exceeds int32");
    }
    // Each index delta takes at least one byte, which bounds a hostile
    // nnz before it sizes an allocation.
    if (nnz > reader.remaining()) {
      return Status::DataLoss("row nnz exceeds payload");
    }
    const int32_t id = static_cast<int32_t>(row_id);
    if (!out->ids.empty() && out->ids.back() >= id) *ordered = false;
    out->ids.push_back(id);
    out->dims.push_back(static_cast<int32_t>(dim));
    int64_t prev = -1;
    for (uint64_t p = 0; p < nnz; ++p) {
      FSD_ASSIGN_OR_RETURN(uint64_t delta, codec::GetVarint64(&reader));
      const int64_t idx = prev + 1 + static_cast<int64_t>(delta);
      if (idx >= static_cast<int64_t>(dim)) {
        return Status::DataLoss("row index out of range");
      }
      out->idx.push_back(static_cast<int32_t>(idx));
      prev = idx;
    }
    if (values != nullptr) {
      if (next_value + nnz > values->size()) {
        return Status::DataLoss("values underrun");
      }
      out->val.insert(out->val.end(), values->begin() + next_value,
                      values->begin() + next_value + nnz);
      next_value += nnz;
    } else {
      if (reader.remaining() < nnz * sizeof(float)) {
        return Status::OutOfRange("byte reader truncated scalar");
      }
      FSD_ASSIGN_OR_RETURN(const uint8_t* raw,
                           reader.Skip(nnz * sizeof(float)));
      const size_t at = out->val.size();
      out->val.resize(at + nnz);
      if (nnz > 0) std::memcpy(out->val.data() + at, raw, nnz * sizeof(float));
    }
    out->offsets.push_back(out->nnz());
  }
  if (values != nullptr && next_value != values->size()) {
    return Status::DataLoss("values overrun");
  }
  if (whole && !reader.exhausted()) {
    return Status::DataLoss("bytes after the last row");
  }
  return Status::OK();
}

/// Parses payloads into `out` (AppendParsedRows), leaving `out` as it was
/// on error and restoring the id order when the payload broke it.
Status ParseRows(std::span<const uint8_t> payload,
                 const std::vector<float>* values, bool whole,
                 linalg::ActivationRows* out) {
  const size_t before = out->size();
  bool ordered = true;
  const Status status =
      AppendParsedRows(payload, values, whole, out, &ordered);
  if (!status.ok()) {
    out->Truncate(before);
    // A failed first row leaves a lone offsets[0] behind.
    if (out->empty()) out->clear();
    return status;
  }
  if (out->empty()) out->clear();
  if (!ordered) out->SortKeepingLatest();
  return Status::OK();
}

/// Decodes a kPlaneTag chunk. The raw part holds three bytes per value,
/// which sets the value count, so the exponent plane is the last that
/// many bytes of the LZ payload and the row structure is what precedes it.
Status DecodePlanes(std::span<const uint8_t> wire,
                    linalg::ActivationRows* out) {
  ByteReader reader(wire.data() + 1, wire.size() - 1);
  FSD_ASSIGN_OR_RETURN(uint64_t packed_len, codec::GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(uint32_t crc, reader.Read<uint32_t>());
  if (packed_len > reader.remaining()) {
    return Status::DataLoss("byte-plane LZ part overruns chunk");
  }
  const uint8_t* packed = wire.data() + 1 + reader.position();
  const uint8_t* low = packed + packed_len;
  const size_t low_size = reader.remaining() - packed_len;
  if (low_size % 3 != 0) {
    return Status::DataLoss("byte-plane raw part is not 3 bytes per value");
  }
  if (codec::Crc32(low, low_size) != crc) {
    return Status::DataLoss("byte-plane raw part CRC mismatch");
  }
  FSD_ASSIGN_OR_RETURN(Bytes payload, codec::LzDecompress(packed, packed_len));
  const size_t count = low_size / 3;
  if (payload.size() < count) {
    return Status::DataLoss("byte-plane exponent plane shorter than values");
  }
  const size_t structure = payload.size() - count;
  const uint8_t* high = payload.data() + structure;
  std::vector<float> values(count);
  for (size_t k = 0; k < count; ++k, low += 3) {
    values[k] = std::bit_cast<float>(
        uint32_t{low[0]} | uint32_t{low[1]} << 8 | uint32_t{low[2]} << 16 |
        uint32_t{high[k]} << 24);
  }
  return ParseRows(std::span<const uint8_t>(payload.data(), structure),
                   &values, /*whole=*/true, out);
}

using RowRefs = std::vector<RowRef>;

/// NNZ-heuristic greedy chunk end: extend the chunk starting at `i` while
/// the size estimate stays under the cap (always take at least one row).
/// One definition shared by EncodeRows and PlanRows so the planned chunk
/// layout can never drift from the encoded one.
size_t ChunkEnd(std::span<const RowRef> rows, size_t i,
                uint64_t max_chunk_bytes) {
  size_t j = i;
  uint64_t estimate = 8;
  while (j < rows.size()) {
    const uint64_t row_bytes = EstimateRowBytes(rows[j].row.nnz);
    if (j > i && max_chunk_bytes > 0 &&
        estimate + row_bytes > max_chunk_bytes) {
      break;
    }
    estimate += row_bytes;
    ++j;
  }
  return j;
}

/// Exact encoded length of an unsigned LEB128 varint.
uint64_t VarintLen(uint64_t value) {
  uint64_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

/// Exact bytes EncodeRow would append for this row — equivalently, the
/// row's share of a quantized chunk's lossless-equivalent raw size
/// (structure bytes + 4 per value; the two modes agree by construction).
uint64_t RowRawBytes(const RowRef& ref) {
  const linalg::RowView& row = ref.row;
  uint64_t n = VarintLen(static_cast<uint64_t>(ref.id)) +
               VarintLen(static_cast<uint64_t>(row.nnz)) +
               VarintLen(static_cast<uint64_t>(row.dim));
  int32_t prev = -1;
  for (int32_t j = 0; j < row.nnz; ++j) {
    n += VarintLen(static_cast<uint64_t>(row.idx[j] - prev - 1));
    prev = row.idx[j];
  }
  return n + 4 * static_cast<uint64_t>(row.nnz);
}

int64_t SumNnz(std::span<const RowRef> rows) {
  int64_t nnz = 0;
  for (const RowRef& ref : rows) nnz += ref.row.nnz;
  return nnz;
}

/// The map form of CollectRows, for the map EncodeRows.
RowRefs CollectRows(const linalg::ActivationMap& source,
                    const std::vector<int32_t>& row_ids) {
  RowRefs rows;
  rows.reserve(row_ids.size());
  for (const int32_t id : row_ids) {
    auto it = source.find(id);
    if (it == source.end() || it->second.empty()) continue;
    rows.push_back({id, linalg::RowView::Of(it->second)});
  }
  return rows;
}

}  // namespace

uint64_t EstimateRowBytes(int64_t nnz) {
  // ~8 bytes of row header + ~1.5 bytes per delta index + 4-byte value.
  return 8 + static_cast<uint64_t>(nnz) * 6;
}

std::vector<RowRef> CollectRows(const linalg::ActivationRows& source,
                                const std::vector<int32_t>& row_ids) {
  RowRefs rows;
  rows.reserve(row_ids.size());
  auto from = source.ids.begin();
  int32_t prev = 0;
  for (const int32_t id : row_ids) {
    if (id < prev) from = source.ids.begin();
    prev = id;
    from = std::lower_bound(from, source.ids.end(), id);
    if (from == source.ids.end() || *from != id) continue;
    const linalg::RowView row =
        source.row(static_cast<size_t>(from - source.ids.begin()));
    if (!row.empty()) rows.push_back({id, row});
  }
  return rows;
}

EncodePlan PlanRows(std::span<const RowRef> rows, uint64_t max_chunk_bytes) {
  EncodePlan plan;
  plan.active_nnz = SumNnz(rows);
  plan.active_rows = static_cast<int32_t>(rows.size());
  if (rows.empty()) {
    plan.num_chunks = 1;  // the explicit empty marker chunk
    plan.raw_bytes = 1;   // PutVarint64(0)
    return plan;
  }
  size_t i = 0;
  while (i < rows.size()) {
    const size_t j = ChunkEnd(rows, i, max_chunk_bytes);
    uint64_t raw = VarintLen(static_cast<uint64_t>(j - i));
    for (size_t r = i; r < j; ++r) raw += RowRawBytes(rows[r]);
    plan.raw_bytes += raw;
    ++plan.num_chunks;
    i = j;
  }
  return plan;
}

EncodeResult EncodeRows(std::span<const RowRef> rows, uint64_t max_chunk_bytes,
                        const WireCodec& codec) {
  EncodeResult result;
  result.active_nnz = SumNnz(rows);
  result.active_rows = static_cast<int32_t>(rows.size());
  const bool quantize = codec.quant_bits != 0;

  size_t i = 0;
  while (i < rows.size()) {
    const size_t j = ChunkEnd(rows, i, max_chunk_bytes);
    RowChunk chunk;
    if (quantize) {
      Bytes structure;
      std::vector<float> values;
      codec::PutVarint64(&structure, static_cast<uint64_t>(j - i));
      for (size_t r = i; r < j; ++r) {
        EncodeRowStructure(rows[r], &structure);
        values.insert(values.end(), rows[r].row.val,
                      rows[r].row.val + rows[r].row.nnz);
        chunk.nnz += rows[r].row.nnz;
      }
      // Lossless-equivalent raw size keeps compression-ratio metrics
      // comparable across wire modes.
      chunk.raw_bytes = structure.size() + 4 * values.size();
      codec::QuantStats qstats;
      const Bytes fq = codec::QuantCompress(values.data(), values.size(),
                                            codec.quant_bits, &qstats);
      Bytes structure_wire;
      WrapLossless(structure, codec.compress, codec.lz, &structure_wire);
      chunk.wire.push_back(kQuantizedTag);
      codec::PutVarint64(&chunk.wire, structure_wire.size());
      chunk.wire.insert(chunk.wire.end(), structure_wire.begin(),
                        structure_wire.end());
      chunk.wire.insert(chunk.wire.end(), fq.begin(), fq.end());
      chunk.quant_bits = codec.quant_bits;
      chunk.quant_values = static_cast<int64_t>(values.size());
      chunk.quant_err_max = qstats.max_rel_err;
    } else if (codec.compress && !RepeatsLowBytes(rows.subspan(i, j - i))) {
      chunk.nnz = SumNnz(rows.subspan(i, j - i));
      chunk.raw_bytes = EncodePlanes(rows.subspan(i, j - i), codec.lz,
                                     &chunk.wire);
    } else {
      Bytes raw;
      codec::PutVarint64(&raw, static_cast<uint64_t>(j - i));
      for (size_t r = i; r < j; ++r) {
        EncodeRow(rows[r], &raw);
        chunk.nnz += rows[r].row.nnz;
      }
      chunk.raw_bytes = raw.size();
      WrapLossless(raw, codec.compress, codec.lz, &chunk.wire);
    }
    chunk.num_rows = static_cast<int32_t>(j - i);
    result.chunks.push_back(std::move(chunk));
    i = j;
  }
  if (result.chunks.empty()) {
    // Explicit empty chunk: the receiver needs a positive signal that this
    // source has nothing for this layer (otherwise it would wait forever).
    // Always lossless — there are no values to quantize.
    RowChunk chunk;
    Bytes raw;
    codec::PutVarint64(&raw, 0);
    chunk.raw_bytes = raw.size();
    chunk.wire.push_back(kUncompressedTag);
    chunk.wire.insert(chunk.wire.end(), raw.begin(), raw.end());
    result.chunks.push_back(std::move(chunk));
  }
  return result;
}

EncodeResult EncodeRows(const linalg::ActivationMap& source,
                        const std::vector<int32_t>& row_ids,
                        uint64_t max_chunk_bytes, const WireCodec& codec) {
  return EncodeRows(CollectRows(source, row_ids), max_chunk_bytes, codec);
}

Status DecodeRows(std::span<const uint8_t> wire,
                  linalg::ActivationRows* out) {
  if (wire.empty()) return Status::DataLoss("empty row payload");
  if (wire[0] == kQuantizedTag) {
    ByteReader reader(wire.data() + 1, wire.size() - 1);
    FSD_ASSIGN_OR_RETURN(uint64_t structure_len, codec::GetVarint64(&reader));
    const size_t pos = 1 + reader.position();
    if (structure_len > wire.size() - pos) {
      return Status::DataLoss("quantized structure overruns chunk");
    }
    Bytes storage;
    FSD_ASSIGN_OR_RETURN(
        std::span<const uint8_t> structure,
        UnwrapLossless(wire.data() + pos, structure_len, &storage));
    FSD_ASSIGN_OR_RETURN(
        std::vector<float> values,
        codec::QuantDecompress(wire.subspan(pos + structure_len)));
    return ParseRows(structure, &values, /*whole=*/false, out);
  }
  if (wire[0] == kPlaneTag) return DecodePlanes(wire, out);
  Bytes storage;
  FSD_ASSIGN_OR_RETURN(std::span<const uint8_t> payload,
                       UnwrapLossless(wire.data(), wire.size(), &storage));
  return ParseRows(payload, nullptr, /*whole=*/false, out);
}

Status DecodeRows(std::span<const uint8_t> wire,
                  linalg::ActivationMap* out) {
  linalg::ActivationRows rows;
  FSD_RETURN_IF_ERROR(DecodeRows(wire, &rows));
  rows.MergeInto(out);
  return Status::OK();
}

}  // namespace fsd::core
