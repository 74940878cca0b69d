#include "core/serialize.h"

#include <fstream>
#include <limits>
#include <stdexcept>

#include "core/stream_io.h"

namespace lccs {
namespace core {

namespace {

constexpr char kMagic[8] = {'L', 'C', 'C', 'S', 'I', 'D', 'X', '1'};
// Version 2: the embedded state stream gained an epoch-storage-kind byte
// (inline floats vs external flat-file reference).
constexpr char kDynMagic[8] = {'L', 'C', 'C', 'S', 'D', 'Y', 'X', '2'};

using io::WritePod;

template <typename T>
void ReadPod(std::istream& in, T* value) {
  io::ReadPod(in, value, "index stream");
}

}  // namespace

void SaveIndex(const std::string& path, const IndexDescriptor& descriptor,
               const CircularShiftArray& csa) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, static_cast<uint32_t>(descriptor.family));
  WritePod(out, static_cast<uint32_t>(descriptor.metric));
  WritePod(out, descriptor.dim);
  WritePod(out, descriptor.m);
  WritePod(out, descriptor.w);
  WritePod(out, descriptor.seed);
  WritePod(out, static_cast<uint64_t>(descriptor.probes.num_probes));
  WritePod(out, static_cast<int64_t>(descriptor.probes.max_gap));
  WritePod(out, static_cast<uint64_t>(descriptor.probes.num_alternatives));
  WritePod(out, static_cast<uint8_t>(descriptor.probes.skip_unaffected));
  csa.Serialize(out);
  if (!out) throw std::runtime_error("write error: " + path);
}

namespace {

/// Shared header parse of LoadIndex / ReadIndexDescriptor; leaves `in`
/// positioned at the CSA payload.
IndexDescriptor ReadDescriptor(std::istream& in, const std::string& path) {
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + sizeof(magic), kMagic)) {
    throw std::runtime_error("not an LCCS index file: " + path);
  }
  IndexDescriptor descriptor;
  uint32_t family = 0, metric = 0;
  ReadPod(in, &family);
  ReadPod(in, &metric);
  if (family > static_cast<uint32_t>(lsh::FamilyKind::kMinHash) ||
      metric > static_cast<uint32_t>(util::Metric::kJaccard)) {
    throw std::runtime_error("index file corrupt: unknown family or metric: " +
                             path);
  }
  descriptor.family = static_cast<lsh::FamilyKind>(family);
  descriptor.metric = static_cast<util::Metric>(metric);
  ReadPod(in, &descriptor.dim);
  ReadPod(in, &descriptor.m);
  ReadPod(in, &descriptor.w);
  ReadPod(in, &descriptor.seed);
  uint64_t num_probes = 0, num_alternatives = 0;
  int64_t max_gap = 0;
  uint8_t skip_unaffected = 1;
  ReadPod(in, &num_probes);
  ReadPod(in, &max_gap);
  ReadPod(in, &num_alternatives);
  ReadPod(in, &skip_unaffected);
  if (num_probes == 0 || max_gap < 1 ||
      max_gap > std::numeric_limits<int>::max()) {
    throw std::runtime_error("index file corrupt: invalid probe parameters: " +
                             path);
  }
  descriptor.probes.num_probes = num_probes;
  descriptor.probes.max_gap = static_cast<int>(max_gap);
  descriptor.probes.num_alternatives = num_alternatives;
  descriptor.probes.skip_unaffected = skip_unaffected != 0;
  return descriptor;
}

}  // namespace

IndexDescriptor ReadIndexDescriptor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  return ReadDescriptor(in, path);
}

std::unique_ptr<LccsLsh> LoadIndex(const std::string& path,
                                   const float* data, size_t n, size_t d) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  const IndexDescriptor descriptor = ReadDescriptor(in, path);

  if (descriptor.dim != d) {
    throw std::runtime_error("index dimension mismatch");
  }
  CircularShiftArray csa = CircularShiftArray::Deserialize(in);
  if (csa.n() != n) {
    throw std::runtime_error("index size does not match supplied data");
  }
  if (csa.m() != descriptor.m) {
    throw std::runtime_error(
        "index file corrupt: descriptor m does not match its CSA: " + path);
  }
  auto lsh_family =
      lsh::MakeFamily(descriptor.family, descriptor.dim, descriptor.m,
                      descriptor.w, descriptor.seed);
  auto index = std::make_unique<LccsLsh>(std::move(lsh_family),
                                         descriptor.metric, descriptor.probes);
  index->AttachPrebuilt(data, n, d, std::move(csa));
  return index;
}

namespace {

void WriteLccsParams(std::ostream& out,
                     const baselines::LccsLshIndex::Params& params,
                     util::Metric metric) {
  const lsh::FamilyKind family =
      params.family.value_or(lsh::DefaultFamilyFor(metric));
  WritePod(out, static_cast<uint32_t>(family));
  WritePod(out, static_cast<uint64_t>(params.m));
  WritePod(out, static_cast<uint64_t>(params.lambda));
  WritePod(out, static_cast<uint64_t>(params.num_probes));
  WritePod(out, static_cast<int64_t>(params.max_gap));
  WritePod(out, static_cast<uint64_t>(params.num_alternatives));
  WritePod(out, params.w);
  WritePod(out, params.seed);
}

baselines::LccsLshIndex::Params ReadLccsParams(std::istream& in) {
  baselines::LccsLshIndex::Params params;
  uint32_t family = 0;
  uint64_t m = 0, lambda = 0, num_probes = 0, num_alternatives = 0;
  int64_t max_gap = 0;
  ReadPod(in, &family);
  ReadPod(in, &m);
  ReadPod(in, &lambda);
  ReadPod(in, &num_probes);
  ReadPod(in, &max_gap);
  ReadPod(in, &num_alternatives);
  ReadPod(in, &params.w);
  ReadPod(in, &params.seed);
  if (m == 0 || num_probes == 0 || max_gap < 1 ||
      max_gap > std::numeric_limits<int>::max() ||
      family > static_cast<uint32_t>(lsh::FamilyKind::kMinHash)) {
    throw std::runtime_error(
        "dynamic index file corrupt: invalid LCCS parameters");
  }
  params.family = static_cast<lsh::FamilyKind>(family);
  params.m = m;
  params.lambda = lambda;
  params.num_probes = num_probes;
  params.max_gap = static_cast<int>(max_gap);
  params.num_alternatives = num_alternatives;
  return params;
}

}  // namespace

void SaveDynamicIndex(const std::string& path,
                      const baselines::LccsLshIndex::Params& params,
                      const DynamicIndex& index, SaveMode mode) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out.write(kDynMagic, sizeof(kDynMagic));
  // The factory parameters come first so Load can reconstruct the factory
  // before touching the state stream.
  WriteLccsParams(out, params, index.metric());
  index.SerializeState(
      out,
      [&](std::ostream& stream, const baselines::AnnIndex& epoch_index) {
        const auto* lccs =
            dynamic_cast<const baselines::LccsLshIndex*>(&epoch_index);
        if (lccs == nullptr) {
          throw std::invalid_argument(
              "SaveDynamicIndex: epoch index is not an LccsLshIndex");
        }
        lccs->scheme().csa().Serialize(stream);
      },
      /*external_vectors=*/mode == SaveMode::kExternalVectors);
  if (!out) throw std::runtime_error("write error: " + path);
}

std::unique_ptr<DynamicIndex> LoadDynamicIndex(const std::string& path,
                                               DynamicIndex::Options options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  char magic[sizeof(kDynMagic)];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + sizeof(magic), kDynMagic)) {
    throw std::runtime_error("not an LCCS dynamic index file: " + path);
  }
  const baselines::LccsLshIndex::Params params = ReadLccsParams(in);
  DynamicIndex::Factory factory = [params] {
    return std::make_unique<baselines::LccsLshIndex>(params);
  };
  return DynamicIndex::DeserializeState(
      in, std::move(factory), options,
      [&params](std::istream& stream, const dataset::Dataset& data) {
        CircularShiftArray csa = CircularShiftArray::Deserialize(stream);
        if (csa.n() != data.n()) {
          throw std::runtime_error(
              "dynamic index file corrupt: epoch CSA size does not match "
              "its snapshot");
        }
        if (csa.m() != params.m) {
          throw std::runtime_error(
              "dynamic index file corrupt: epoch CSA m does not match the "
              "LCCS parameters");
        }
        auto epoch = std::make_unique<baselines::LccsLshIndex>(params);
        epoch->AttachPrebuilt(data, std::move(csa));
        return epoch;
      });
}

}  // namespace core
}  // namespace lccs
