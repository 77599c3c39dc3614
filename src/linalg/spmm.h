// Distributed-inference compute kernel: one layer of sparse forward
// propagation over a row block.
//
// This single kernel is shared by the serial reference engine, the server
// baselines and every FSD-Inference worker, so distributed results can be
// compared bit-for-bit against the reference.
//
// The kernel is a dense lane-tile kernel: per tile of at most 64 batch
// lanes it expands each active input row once into a zero-padded dense
// slice with a lane mask, adds w * slice per weight in CSR order, and
// emits the OR of the masks in ascending lane order.
//
// The kernel reads its input rows from a RowView table indexed by weight
// column and writes one flat ActivationRows. One ActivationMap overload
// remains, for callers that hold their rows in a map.
//
// Thread safety: the tile accumulator and the slice panel live in
// thread_local scratch, so concurrent LayerForward calls from different
// threads (the sim's compute-offload pool) are race-free and produce
// results identical to serial calls.
#ifndef FSD_LINALG_SPMM_H_
#define FSD_LINALG_SPMM_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "linalg/activation_rows.h"
#include "linalg/csr.h"
#include "linalg/sparse_vector.h"

/// The vectorized kernel is compiled only where AVX2 intrinsics exist and
/// selected at runtime via cpuid, so one binary runs everywhere. Sanitized
/// builds fall back to the portable kernel (mirrors FSD_SIM_HAS_FIBERS:
/// keep the sanitizer jobs exercising the path every machine can take).
/// Define FSD_NO_SIMD to force the portable kernel on any build.
#if defined(FSD_NO_SIMD)
#define FSD_LINALG_HAS_SIMD 0
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FSD_LINALG_HAS_SIMD 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FSD_LINALG_HAS_SIMD 0
#elif defined(__x86_64__)
#define FSD_LINALG_HAS_SIMD 1
#else
#define FSD_LINALG_HAS_SIMD 0
#endif
#elif defined(__x86_64__)
#define FSD_LINALG_HAS_SIMD 1
#else
#define FSD_LINALG_HAS_SIMD 0
#endif

namespace fsd::linalg {

/// Returns the activation row for a global neuron id, or nullptr when the
/// row is entirely zero (inactive neuron). The map-edge overload below
/// takes one; the flat core reads a RowView table instead.
using RowProvider = std::function<const SparseVector*(int32_t)>;

struct LayerForwardStats {
  double macs = 0.0;          ///< multiply-accumulate operations executed
  int64_t rows_produced = 0;  ///< nonzero output rows
  int64_t output_nnz = 0;     ///< total nonzeros in output rows

  bool operator==(const LayerForwardStats& other) const = default;
};

/// Kernel selection for LayerForward. Both kernels run one body and differ
/// only in the lane loop (scalar, or AVX2 multiply then add, never FMA), so
/// they produce byte-identical rows and LayerForwardStats.
enum class ForwardKernel {
  kAuto,        ///< vectorized when compiled in and the CPU supports it
  kPortable,    ///< scalar baseline, always built
  kVectorized,  ///< AVX2 path; silently falls back when unavailable
};

/// Overrides the process-wide kernel choice (tests/benches; thread-safe).
void SetLayerForwardKernel(ForwardKernel kernel);

/// True when the AVX2 kernel is compiled in and this CPU can run it.
bool LayerForwardVectorizedAvailable();

/// Name of the kernel LayerForward would execute right now:
/// "portable" or "avx2".
const char* LayerForwardKernelName();

/// ---- the flat core ----
///
/// Computes  z = ReLU_clamped(W_rows * X + bias)  for the subset `rows` of
/// `weights` (strictly increasing, in range) into `out`, which is cleared
/// first (its buffers are reused). X is the row table: table[c] is the
/// input row for weight column c, an empty view for an inactive row, and
/// the table has exactly weights.cols() entries. Each row is a sparse row
/// of width `batch`.
///
/// Output rows that are entirely zero after activation are omitted (the
/// Graph Challenge's thresholded-ReLU keeps activations sparse); every
/// emitted row has dim `batch`. `relu_cap` clamps values (32 in the
/// benchmark); pass 0 to disable the final activation (used by the output
/// layer of generic models).
///
/// Weights must be finite (GenerateSparseDnn guarantees it) and every
/// table row's indices must lie in [0, batch). Under those conditions
/// the output is byte-identical to scattering each weight's products into
/// only the lanes its input row holds: a lane the row lacks receives
/// w * 0 = +-0, which never changes an accumulator that starts at +0.
void LayerForward(const CsrMatrix& weights, const std::vector<int32_t>& rows,
                  std::span<const RowView> table, float bias, float relu_cap,
                  int32_t batch, ActivationRows* out,
                  LayerForwardStats* stats = nullptr);

/// The same over every row of `weights` (the serial reference).
void LayerForwardAll(const CsrMatrix& weights, std::span<const RowView> table,
                     float bias, float relu_cap, int32_t batch,
                     ActivationRows* out, LayerForwardStats* stats = nullptr);

/// Exact MAC count the subset LayerForward above would report in
/// stats->macs: the nnz of each weight's input row, summed over the
/// weights without running the accumulation. The compute-offload path uses
/// this to price a kernel's virtual time BEFORE submitting the kernel
/// itself to the pool. Both sides sum as int64 and convert once, so the
/// counts match to the bit.
double CountLayerMacs(const CsrMatrix& weights,
                      const std::vector<int32_t>& rows,
                      std::span<const RowView> table);

/// ---- the map edge ----
/// The subset `rows` of `weights` over rows a provider resolves: the
/// provider is called once per referenced column to build the row table,
/// the flat core runs, and its rows are converted to a map.
ActivationMap LayerForward(const CsrMatrix& weights,
                           const std::vector<int32_t>& rows,
                           const RowProvider& provider, float bias,
                           float relu_cap, int32_t batch,
                           LayerForwardStats* stats = nullptr);

/// FLOPs estimate for a LayerForward call (2 per MAC, plus activation).
inline double LayerFlops(const LayerForwardStats& stats) {
  return 2.0 * stats.macs + static_cast<double>(stats.output_nnz);
}

}  // namespace fsd::linalg

#endif  // FSD_LINALG_SPMM_H_
