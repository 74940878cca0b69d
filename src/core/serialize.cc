#include "core/serialize.h"

#include <fstream>
#include <limits>
#include <stdexcept>

#include "core/stream_io.h"

namespace lccs {
namespace core {

namespace {

constexpr char kMagic[8] = {'L', 'C', 'C', 'S', 'I', 'D', 'X', '1'};

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

}  // namespace core
}  // namespace lccs
