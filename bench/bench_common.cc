#include "bench/bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "codec/varint.h"
#include "common/check.h"
#include "common/strings.h"
#include "core/serialization.h"

namespace fsd::bench {
namespace {

constexpr uint32_t kCacheFormatVersion = 3;

struct PartitionKey {
  int32_t neurons;
  int32_t workers;
  part::PartitionScheme scheme;
  bool operator<(const PartitionKey& o) const {
    if (neurons != o.neurons) return neurons < o.neurons;
    if (workers != o.workers) return workers < o.workers;
    return static_cast<int>(scheme) < static_cast<int>(o.scheme);
  }
};

std::map<int32_t, std::unique_ptr<Workload>>& WorkloadCache() {
  static auto* cache = new std::map<int32_t, std::unique_ptr<Workload>>();
  return *cache;
}

std::map<int32_t, int32_t>& BatchOverrides() {
  static auto* overrides = new std::map<int32_t, int32_t>();
  return *overrides;
}

std::map<PartitionKey, std::unique_ptr<part::ModelPartition>>&
PartitionCache() {
  static auto* cache =
      new std::map<PartitionKey, std::unique_ptr<part::ModelPartition>>();
  return *cache;
}

std::filesystem::path CacheDir() {
  const char* env = std::getenv("FSD_BENCH_CACHE");
  std::filesystem::path dir =
      (env != nullptr && env[0] != '\0') ? env : "fsd_bench_cache";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

bool ReadFile(const std::filesystem::path& path, Bytes* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  out->resize(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out->data()),
          static_cast<std::streamsize>(out->size()));
  return in.good();
}

void WriteFileAtomic(const std::filesystem::path& path, const Bytes& data) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out.good()) return;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

// ---- partition (de)serialization -----------------------------------------

Bytes SerializePartition(const part::ModelPartition& partition) {
  Bytes out;
  codec::PutVarint64(&out, kCacheFormatVersion);
  codec::PutVarint64(&out, static_cast<uint64_t>(partition.num_parts));
  codec::PutVarint64(&out, static_cast<uint64_t>(partition.scheme));
  codec::PutVarint64(&out, static_cast<uint64_t>(partition.cut_cost));
  AppendRaw(&out, partition.imbalance);
  codec::PutVarint64(&out, partition.assignment.size());
  for (int32_t a : partition.assignment) {
    codec::PutVarint64(&out, static_cast<uint64_t>(a));
  }
  codec::PutVarint64(&out, partition.layers.size());
  for (const part::LayerComm& layer : partition.layers) {
    for (int32_t m = 0; m < partition.num_parts; ++m) {
      const auto& sends = layer.send[m];
      codec::PutVarint64(&out, sends.size());
      for (const part::SendEntry& entry : sends) {
        codec::PutVarint64(&out, static_cast<uint64_t>(entry.peer));
        codec::PutVarint64(&out, entry.rows.size());
        int64_t prev = -1;
        for (int32_t row : entry.rows) {
          codec::PutVarint64(&out, static_cast<uint64_t>(row - prev - 1));
          prev = row;
        }
      }
    }
  }
  return out;
}

Result<part::ModelPartition> DeserializePartition(const Bytes& data) {
  ByteReader reader(data);
  FSD_ASSIGN_OR_RETURN(uint64_t version, codec::GetVarint64(&reader));
  if (version != kCacheFormatVersion) {
    return Status::FailedPrecondition("cache format changed");
  }
  part::ModelPartition partition;
  FSD_ASSIGN_OR_RETURN(uint64_t parts, codec::GetVarint64(&reader));
  partition.num_parts = static_cast<int32_t>(parts);
  FSD_ASSIGN_OR_RETURN(uint64_t scheme, codec::GetVarint64(&reader));
  partition.scheme = static_cast<part::PartitionScheme>(scheme);
  FSD_ASSIGN_OR_RETURN(uint64_t cut, codec::GetVarint64(&reader));
  partition.cut_cost = static_cast<int64_t>(cut);
  FSD_ASSIGN_OR_RETURN(partition.imbalance, reader.Read<double>());
  FSD_ASSIGN_OR_RETURN(uint64_t rows, codec::GetVarint64(&reader));
  partition.assignment.resize(rows);
  partition.owned_rows.assign(partition.num_parts, {});
  for (uint64_t i = 0; i < rows; ++i) {
    FSD_ASSIGN_OR_RETURN(uint64_t a, codec::GetVarint64(&reader));
    partition.assignment[i] = static_cast<int32_t>(a);
    partition.owned_rows[a].push_back(static_cast<int32_t>(i));
  }
  FSD_ASSIGN_OR_RETURN(uint64_t layers, codec::GetVarint64(&reader));
  partition.layers.resize(layers);
  for (uint64_t k = 0; k < layers; ++k) {
    part::LayerComm& comm = partition.layers[k];
    comm.send.resize(partition.num_parts);
    comm.recv.resize(partition.num_parts);
    for (int32_t m = 0; m < partition.num_parts; ++m) {
      FSD_ASSIGN_OR_RETURN(uint64_t entries, codec::GetVarint64(&reader));
      comm.send[m].resize(entries);
      for (uint64_t e = 0; e < entries; ++e) {
        part::SendEntry& entry = comm.send[m][e];
        FSD_ASSIGN_OR_RETURN(uint64_t peer, codec::GetVarint64(&reader));
        entry.peer = static_cast<int32_t>(peer);
        FSD_ASSIGN_OR_RETURN(uint64_t count, codec::GetVarint64(&reader));
        entry.rows.resize(count);
        int64_t prev = -1;
        for (uint64_t r = 0; r < count; ++r) {
          FSD_ASSIGN_OR_RETURN(uint64_t delta, codec::GetVarint64(&reader));
          prev += 1 + static_cast<int64_t>(delta);
          entry.rows[r] = static_cast<int32_t>(prev);
        }
        partition.total_row_transfers += static_cast<int64_t>(count);
      }
    }
    // Rebuild recv as the mirror of send.
    for (int32_t m = 0; m < partition.num_parts; ++m) {
      for (const part::SendEntry& entry : comm.send[m]) {
        comm.recv[entry.peer].push_back({m, entry.rows});
      }
    }
    for (auto& entries : comm.recv) {
      std::sort(entries.begin(), entries.end(),
                [](const part::SendEntry& a, const part::SendEntry& b) {
                  return a.peer < b.peer;
                });
    }
  }
  return partition;
}

// ---- workload reference (de)serialization ---------------------------------

Bytes SerializeReference(const Workload& workload) {
  Bytes out;
  codec::PutVarint64(&out, kCacheFormatVersion);
  // Reference stats.
  AppendRaw(&out, workload.stats.total_macs);
  AppendRaw(&out, workload.stats.total_flops);
  codec::PutVarint64(&out, workload.stats.rows_per_layer.size());
  for (size_t k = 0; k < workload.stats.rows_per_layer.size(); ++k) {
    codec::PutVarint64(&out,
                       static_cast<uint64_t>(workload.stats.rows_per_layer[k]));
    codec::PutVarint64(&out,
                       static_cast<uint64_t>(workload.stats.nnz_per_layer[k]));
  }
  // Expected activations, reusing the channel wire format (uncompressed
  // encode + one Lz pass over the whole blob).
  std::vector<int32_t> ids;
  for (const auto& [id, vec] : workload.expected) ids.push_back(id);
  core::EncodeResult encoded =
      core::EncodeRows(workload.expected, ids, /*max_chunk_bytes=*/0,
                       core::LosslessCodec(true));
  FSD_CHECK_EQ(encoded.chunks.size(), 1u);
  codec::PutVarint64(&out, encoded.chunks[0].wire.size());
  out.insert(out.end(), encoded.chunks[0].wire.begin(),
             encoded.chunks[0].wire.end());
  return out;
}

Status DeserializeReference(const Bytes& data, Workload* workload) {
  ByteReader reader(data);
  FSD_ASSIGN_OR_RETURN(uint64_t version, codec::GetVarint64(&reader));
  if (version != kCacheFormatVersion) {
    return Status::FailedPrecondition("cache format changed");
  }
  FSD_ASSIGN_OR_RETURN(workload->stats.total_macs, reader.Read<double>());
  FSD_ASSIGN_OR_RETURN(workload->stats.total_flops, reader.Read<double>());
  FSD_ASSIGN_OR_RETURN(uint64_t layers, codec::GetVarint64(&reader));
  workload->stats.rows_per_layer.resize(layers);
  workload->stats.nnz_per_layer.resize(layers);
  for (uint64_t k = 0; k < layers; ++k) {
    FSD_ASSIGN_OR_RETURN(uint64_t rows, codec::GetVarint64(&reader));
    FSD_ASSIGN_OR_RETURN(uint64_t nnz, codec::GetVarint64(&reader));
    workload->stats.rows_per_layer[k] = static_cast<int64_t>(rows);
    workload->stats.nnz_per_layer[k] = static_cast<int64_t>(nnz);
  }
  FSD_ASSIGN_OR_RETURN(uint64_t wire_size, codec::GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(Bytes wire, reader.ReadBytes(wire_size));
  return core::DecodeRows(wire, &workload->expected);
}

}  // namespace

ScaleConfig ScaleConfig::FromEnv() {
  ScaleConfig scale;
  const char* env = std::getenv("FSD_BENCH_SCALE");
  scale.paper_scale = (env != nullptr && std::strcmp(env, "paper") == 0);
  scale.tiny = (env != nullptr && std::strcmp(env, "tiny") == 0);
  return scale;
}

void OverrideBatch(int32_t neurons, int32_t batch) {
  FSD_CHECK(!WorkloadCache().contains(neurons));
  BatchOverrides()[neurons] = batch;
}

const Workload& GetWorkload(int32_t neurons, const ScaleConfig& scale) {
  auto& cache = WorkloadCache();
  auto it = cache.find(neurons);
  if (it != cache.end()) return *it->second;

  auto workload = std::make_unique<Workload>();
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = scale.LayersFor(neurons);
  config.seed = 7;
  auto dnn = model::GenerateSparseDnn(config);
  FSD_CHECK_OK(dnn.status());
  workload->dnn = std::move(*dnn);

  model::InputConfig input_config;
  input_config.neurons = neurons;
  input_config.batch = scale.BatchFor(neurons);
  if (auto ov = BatchOverrides().find(neurons); ov != BatchOverrides().end()) {
    input_config.batch = ov->second;
  }
  input_config.seed = 11;
  auto input = model::GenerateInputBatch(input_config);
  FSD_CHECK_OK(input.status());
  workload->input = std::move(*input);
  workload->batch = input_config.batch;

  // Reference ground truth: disk-cached across bench binaries.
  const std::filesystem::path path =
      CacheDir() / StrFormat("reference-n%d-l%d-b%d.bin", neurons,
                             config.layers, workload->batch);
  Bytes blob;
  bool loaded = false;
  if (ReadFile(path, &blob)) {
    loaded = DeserializeReference(blob, workload.get()).ok();
  }
  if (!loaded) {
    auto expected = model::ReferenceInference(workload->dnn, workload->input,
                                              &workload->stats);
    FSD_CHECK_OK(expected.status());
    workload->expected = std::move(*expected);
    WriteFileAtomic(path, SerializeReference(*workload));
  }

  const Workload& ref = *workload;
  cache.emplace(neurons, std::move(workload));
  return ref;
}

part::ModelPartitionOptions BenchPartitionOptions(
    int32_t neurons, part::PartitionScheme scheme) {
  part::ModelPartitionOptions options;
  options.scheme = scheme;
  // Big hypergraphs: one sampled layer is representative and keeps the
  // offline partitioning step to seconds.
  options.hypergraph_sample_layers = neurons >= 65536 ? 1 : 2;
  return options;
}

const part::ModelPartition& GetPartition(int32_t neurons, int32_t workers,
                                         part::PartitionScheme scheme,
                                         const ScaleConfig& scale) {
  auto& cache = PartitionCache();
  const PartitionKey key{neurons, workers, scheme};
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  const Workload& workload = GetWorkload(neurons, scale);
  const std::filesystem::path path =
      CacheDir() / StrFormat("partition-n%d-l%d-p%d-%s.bin", neurons,
                             workload.dnn.layers(), workers,
                             std::string(part::PartitionSchemeName(scheme))
                                 .c_str());
  Bytes blob;
  if (ReadFile(path, &blob)) {
    auto restored = DeserializePartition(blob);
    if (restored.ok() && restored->num_parts == workers) {
      auto owned =
          std::make_unique<part::ModelPartition>(std::move(*restored));
      const part::ModelPartition& ref = *owned;
      cache.emplace(key, std::move(owned));
      return ref;
    }
  }

  auto partition = part::PartitionModel(workload.dnn, workers,
                                       BenchPartitionOptions(neurons, scheme));
  FSD_CHECK_OK(partition.status());
  WriteFileAtomic(path, SerializePartition(*partition));
  auto owned = std::make_unique<part::ModelPartition>(std::move(*partition));
  const part::ModelPartition& ref = *owned;
  cache.emplace(key, std::move(owned));
  return ref;
}

core::InferenceReport RunFsd(const Workload& workload,
                             const part::ModelPartition& partition,
                             core::FsdOptions options, bool verify_output) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  core::InferenceRequest request;
  request.dnn = &workload.dnn;
  request.partition = &partition;
  request.batches = {&workload.input};
  request.options = std::move(options);
  auto report = core::RunInference(&cloud, request);
  FSD_CHECK_OK(report.status());
  if (report->status.ok() && verify_output) {
    FSD_CHECK_EQ(report->outputs.size(), 1u);
    FSD_CHECK(report->outputs[0].size() == workload.expected.size());
    for (const auto& [row, vec] : workload.expected) {
      auto it = report->outputs[0].find(row);
      FSD_CHECK(it != report->outputs[0].end());
      FSD_CHECK(it->second == vec);
    }
  }
  return std::move(*report);
}

std::map<int32_t, core::InferenceReport> SweepWorkers(
    int32_t neurons, core::Variant variant, const ScaleConfig& scale,
    const std::vector<int32_t>& worker_counts) {
  std::map<int32_t, core::InferenceReport> out;
  const Workload& workload = GetWorkload(neurons, scale);
  for (int32_t workers : worker_counts) {
    const part::ModelPartition& partition = GetPartition(
        neurons, workers, part::PartitionScheme::kHypergraph, scale);
    core::FsdOptions options;
    options.variant = variant;
    options.num_workers = workers;
    out.emplace(workers, RunFsd(workload, partition, options));
  }
  return out;
}

uint64_t PaperScaleModelBytes(int32_t neurons) {
  // 120 layers x N rows x 32 nonzeros x 8 bytes, plus row metadata.
  return 120ull * neurons * 32 * 8 + 120ull * (neurons + 1) * 8;
}

bool SerialFitsPaperScale(int32_t neurons) {
  // Model (with in-memory sparse-structure expansion) plus double-buffered
  // dense-ish activations for a 10,000-sample batch.
  const double model_mb =
      PaperScaleModelBytes(neurons) * 1.6 / (1024.0 * 1024.0);
  const double activations_mb =
      static_cast<double>(neurons) * 10000.0 * 8.0 * 2.0 / (1024.0 * 1024.0);
  return model_mb + activations_mb < 10240.0;
}

void WriteBenchJson(
    const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  const char* env = std::getenv("FSD_BENCH_JSON");
  if (env == nullptr || env[0] == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(env, ec);
  const std::filesystem::path path =
      std::filesystem::path(env) / ("BENCH_" + bench_name + ".json");
  const char* scale_env = std::getenv("FSD_BENCH_SCALE");
  const std::string scale =
      (scale_env != nullptr && scale_env[0] != '\0') ? scale_env : "quick";

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "FSD_BENCH_JSON: cannot write %s\n",
                 path.string().c_str());
    return;
  }
  out << "{\n  \"bench\": \"" << bench_name << "\",\n  \"scale\": \""
      << scale << "\",\n  \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << metrics[i].first << "\": ";
    if (std::isfinite(metrics[i].second)) {
      out << StrFormat("%.9g", metrics[i].second);
    } else {
      out << "null";
    }
  }
  out << "\n  }\n}\n";
}

void PrintHeader(const std::string& title, const std::string& subtitle) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("================================================================================\n");
}

void PrintRule() {
  std::printf("--------------------------------------------------------------------------------\n");
}

std::string PaperNote(const std::string& note) {
  return "  [paper: " + note + "]";
}

}  // namespace fsd::bench
