// Micro-benchmarks (google-benchmark): throughput of the substrates the
// end-to-end numbers are built on — the FsdLz codec, the sparse layer
// kernel, row serialization and the DES kernel itself.
#include <benchmark/benchmark.h>

#include "codec/crc32.h"
#include "codec/lz.h"
#include "codec/quant.h"
#include "codec/varint.h"
#include "common/rng.h"
#include "core/serialization.h"
#include "linalg/spmm.h"
#include "model/input_gen.h"
#include "model/sparse_dnn.h"
#include "sim/simulation.h"

namespace {

using namespace fsd;

Bytes RowPayloadLike(size_t size, uint64_t seed) {
  // Mimics serialized activation rows: small varints + float32 values with
  // many repeated clamped values.
  Rng rng(seed);
  Bytes data;
  data.reserve(size);
  while (data.size() < size) {
    codec::PutVarint64(&data, rng.NextBounded(512));
    const float v =
        rng.NextBool(0.4) ? 32.0f : static_cast<float>(rng.NextDouble() * 4);
    AppendRaw(&data, v);
  }
  data.resize(size);
  return data;
}

void BM_LzCompress(benchmark::State& state) {
  const Bytes data = RowPayloadLike(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::LzCompress(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LzCompress)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_LzDecompress(benchmark::State& state) {
  const Bytes data = RowPayloadLike(static_cast<size_t>(state.range(0)), 1);
  const Bytes packed = codec::LzCompress(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::LzDecompress(packed));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LzDecompress)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_Crc32(benchmark::State& state) {
  const Bytes data = RowPayloadLike(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::Crc32(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64 << 10);

void BM_VarintRoundtrip(benchmark::State& state) {
  Rng rng(3);
  std::vector<uint64_t> values(4096);
  for (auto& v : values) v = rng.NextBounded(1ull << 40);
  for (auto _ : state) {
    Bytes buf;
    for (uint64_t v : values) codec::PutVarint64(&buf, v);
    ByteReader reader(buf);
    uint64_t sum = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      sum += *codec::GetVarint64(&reader);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintRoundtrip);

void LayerForwardBody(benchmark::State& state, linalg::ForwardKernel kernel) {
  const int32_t neurons = static_cast<int32_t>(state.range(0));
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = 1;
  auto dnn = model::GenerateSparseDnn(config);
  model::InputConfig ic;
  ic.neurons = neurons;
  ic.batch = 32;
  auto input = model::GenerateInputBatch(ic);
  const linalg::ActivationRows rows = linalg::ActivationRows::FromMap(*input);
  std::vector<linalg::RowView> table(
      static_cast<size_t>(dnn->weights[0].cols()));
  rows.ViewInto(table);
  linalg::SetLayerForwardKernel(kernel);
  state.SetLabel(linalg::LayerForwardKernelName());
  linalg::ActivationRows out;
  for (auto _ : state) {
    linalg::LayerForwardStats stats;
    linalg::LayerForwardAll(dnn->weights[0], table, dnn->config.bias,
                            dnn->config.relu_cap, 32, &out, &stats);
    benchmark::DoNotOptimize(out);
    state.counters["MACs"] = stats.macs;
  }
  linalg::SetLayerForwardKernel(linalg::ForwardKernel::kAuto);
}

void BM_LayerForward(benchmark::State& state) {
  LayerForwardBody(state, linalg::ForwardKernel::kAuto);
}
BENCHMARK(BM_LayerForward)->Arg(1024)->Arg(4096)->Arg(16384);

// N-sweep of the scalar baseline vs the runtime-dispatched vectorized
// kernel; on hardware without AVX2 both rows report the portable kernel
// (see the label) and should match.
void BM_LayerForwardPortable(benchmark::State& state) {
  LayerForwardBody(state, linalg::ForwardKernel::kPortable);
}
BENCHMARK(BM_LayerForwardPortable)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_LayerForwardVectorized(benchmark::State& state) {
  LayerForwardBody(state, linalg::ForwardKernel::kVectorized);
}
BENCHMARK(BM_LayerForwardVectorized)->Arg(1024)->Arg(4096)->Arg(16384);

std::vector<float> ActivationValuesLike(size_t count, uint64_t seed) {
  // Value distribution the quantizer sees on the wire: ReLU-clamped
  // activations with a heavy spike at the cap.
  Rng rng(seed);
  std::vector<float> values(count);
  for (auto& v : values) {
    v = rng.NextBool(0.4) ? 32.0f : static_cast<float>(rng.NextDouble() * 4);
  }
  return values;
}

void BM_QuantizeRows(benchmark::State& state) {
  const auto values = ActivationValuesLike(1 << 16, 7);
  const int32_t bits = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        codec::QuantCompress(values.data(), values.size(), bits));
  }
  state.SetBytesProcessed(state.iterations() * values.size() * 4);
}
BENCHMARK(BM_QuantizeRows)->Arg(16)->Arg(8)->Arg(4);

void BM_DequantizeRows(benchmark::State& state) {
  const auto values = ActivationValuesLike(1 << 16, 7);
  const int32_t bits = static_cast<int32_t>(state.range(0));
  const Bytes packed =
      codec::QuantCompress(values.data(), values.size(), bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::QuantDecompress(packed));
  }
  state.SetBytesProcessed(state.iterations() * values.size() * 4);
}
BENCHMARK(BM_DequantizeRows)->Arg(16)->Arg(8)->Arg(4);

void BM_EncodeDecodeRows(benchmark::State& state) {
  model::InputConfig ic;
  ic.neurons = 4096;
  ic.batch = 64;
  auto rows = model::GenerateInputBatch(ic);
  std::vector<int32_t> ids;
  for (const auto& [id, vec] : *rows) ids.push_back(id);
  for (auto _ : state) {
    core::EncodeResult encoded =
        core::EncodeRows(*rows, ids, 224 * 1024, core::LosslessCodec(true));
    linalg::ActivationMap decoded;
    for (const auto& chunk : encoded.chunks) {
      core::DecodeRows(chunk.wire, &decoded).ok();
    }
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_EncodeDecodeRows);

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 8; ++i) {
      sim.AddProcess("p", [&sim]() {
        for (int k = 0; k < 250; ++k) sim.Hold(0.001);
      });
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * 8 * 250);
}
BENCHMARK(BM_SimulationEventThroughput);

void BM_SignalPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    auto a = sim.MakeSignal();
    sim.AddProcess("waiter", [&]() { sim.WaitSignal(a.get()); });
    sim.AddProcess("firer", [&]() {
      sim.Hold(1.0);
      a->Fire();
    });
    sim.Run();
  }
}
BENCHMARK(BM_SignalPingPong);

}  // namespace

BENCHMARK_MAIN();
