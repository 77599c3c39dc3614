#include "core/serialization.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>

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
/// (quantized mode); otherwise they follow each row's indices inline
/// (lossless mode). Sets `*ordered` false when a row id does not exceed
/// the id before it.
Status AppendParsedRows(std::span<const uint8_t> payload,
                        const std::vector<float>* values,
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
        return Status::DataLoss("quantized values underrun");
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
    return Status::DataLoss("quantized values overrun");
  }
  return Status::OK();
}

/// Parses payloads into `out` (AppendParsedRows), leaving `out` as it was
/// on error and restoring the id order when the payload broke it.
Status ParseRows(std::span<const uint8_t> payload,
                 const std::vector<float>* values,
                 linalg::ActivationRows* out) {
  const size_t before = out->size();
  bool ordered = true;
  const Status status = AppendParsedRows(payload, values, out, &ordered);
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
    return ParseRows(structure, &values, out);
  }
  Bytes storage;
  FSD_ASSIGN_OR_RETURN(std::span<const uint8_t> payload,
                       UnwrapLossless(wire.data(), wire.size(), &storage));
  return ParseRows(payload, nullptr, out);
}

Status DecodeRows(std::span<const uint8_t> wire,
                  linalg::ActivationMap* out) {
  linalg::ActivationRows rows;
  FSD_RETURN_IF_ERROR(DecodeRows(wire, &rows));
  rows.MergeInto(out);
  return Status::OK();
}

}  // namespace fsd::core
