#include "core/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace lccs {
namespace core {

namespace {

// Bytes 0-6 name the format, byte 7 its version. Version 1 stored the CSA
// arrays after the descriptor; version 2 stores the row count instead.
constexpr char kMagic[8] = {'L', 'C', 'C', 'S', 'I', 'D', 'X', '2'};
constexpr size_t kVersionByte = sizeof(kMagic) - 1;

// The packed heap key's shift field caps m (CircularShiftArray::PackHeapKey).
constexpr uint64_t kMaxM = 0xFFF;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Little-endian-native read that throws on a short file, so a truncated
/// file surfaces as an error, never as a half-read descriptor.
template <typename T>
void ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  if (!in) throw std::runtime_error("truncated index file");
}

struct IndexFile {
  IndexDescriptor descriptor;
  uint64_t n = 0;
};

/// Parses and validates everything of an index file that does not depend
/// on the vectors it is bound to (LoadIndex checks n and dim against them).
IndexFile ReadIndexFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + kVersionByte, kMagic)) {
    throw std::runtime_error("not an LCCS index file: " + path);
  }
  if (magic[kVersionByte] != kMagic[kVersionByte]) {
    throw std::runtime_error(
        "unsupported LCCS index file version " +
        std::string(magic, sizeof(magic)) + " (this build reads " +
        std::string(kMagic, sizeof(kMagic)) + "; rebuild the index): " +
        path);
  }
  IndexFile file;
  IndexDescriptor& descriptor = file.descriptor;
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
  ReadPod(in, &file.n);
  if (in.peek() != std::ifstream::traits_type::eof()) {
    throw std::runtime_error("index file corrupt: trailing bytes: " + path);
  }
  if (num_probes == 0 || max_gap < 1 ||
      max_gap > std::numeric_limits<int>::max()) {
    throw std::runtime_error("index file corrupt: invalid probe parameters: " +
                             path);
  }
  if (file.n == 0 ||
      file.n > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    throw std::runtime_error("index file corrupt: row count out of range: " +
                             path);
  }
  if (descriptor.dim == 0 || descriptor.m == 0 || descriptor.m > kMaxM) {
    throw std::runtime_error("index file corrupt: dim or m out of range: " +
                             path);
  }
  if (!std::isfinite(descriptor.w) || descriptor.w <= 0.0) {
    throw std::runtime_error("index file corrupt: invalid bucket width: " +
                             path);
  }
  descriptor.probes.num_probes = num_probes;
  descriptor.probes.max_gap = static_cast<int>(max_gap);
  descriptor.probes.num_alternatives = num_alternatives;
  descriptor.probes.skip_unaffected = skip_unaffected != 0;
  return file;
}

}  // namespace

void SaveIndex(const std::string& path, const IndexDescriptor& descriptor,
               size_t n) {
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
  WritePod(out, static_cast<uint64_t>(n));
  if (!out) throw std::runtime_error("write error: " + path);
}

IndexDescriptor ReadIndexDescriptor(const std::string& path) {
  return ReadIndexFile(path).descriptor;
}

std::unique_ptr<LccsLsh> LoadIndex(const std::string& path,
                                   const float* data, size_t n, size_t d) {
  const IndexFile file = ReadIndexFile(path);
  const IndexDescriptor& descriptor = file.descriptor;
  if (file.n != n) {
    throw std::runtime_error("index size does not match supplied data");
  }
  if (descriptor.dim != d) {
    throw std::runtime_error("index dimension mismatch");
  }
  auto index = std::make_unique<LccsLsh>(
      lsh::MakeFamily(descriptor.family, descriptor.dim, descriptor.m,
                      descriptor.w, descriptor.seed),
      descriptor.metric, descriptor.probes);
  index->Build(data, n, d);
  return index;
}

}  // namespace core
}  // namespace lccs
