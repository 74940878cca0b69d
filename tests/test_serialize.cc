#include "core/serialize.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "csa_arrays.h"
#include "dataset/synthetic.h"

namespace lccs {
namespace core {
namespace {

class IndexSerializeTest : public ::testing::Test {
 protected:
  static std::string Path() {
    return testing::TempDir() + "/lccs_index_test.lccs";
  }

  void TearDown() override { std::remove(Path().c_str()); }

  static std::string ReadFile() {
    std::ifstream in(Path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  static void WriteFile(const std::string& bytes) {
    std::ofstream out(Path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Saves an index over 300 clustered 8-d rows (m = 32, 4 probes) and
  /// returns the rows.
  static dataset::Dataset SaveSmallIndex() {
    dataset::SyntheticConfig config;
    config.n = 300;
    config.num_queries = 2;
    config.dim = 8;
    config.seed = 13;
    auto data = dataset::GenerateClustered(config);
    IndexDescriptor descriptor;
    descriptor.dim = data.dim();
    descriptor.m = 32;
    descriptor.seed = 5;
    descriptor.probes.num_probes = 4;
    SaveIndex(Path(), descriptor, data.n());
    return data;
  }

  static std::unique_ptr<LccsLsh> Load(const dataset::Dataset& data) {
    return LoadIndex(Path(), data.data.data(), data.n(), data.dim());
  }
};

TEST_F(IndexSerializeTest, SaveLoadQueryEquivalence) {
  dataset::SyntheticConfig config;
  config.n = 800;
  config.num_queries = 10;
  config.dim = 16;
  const auto data = dataset::GenerateClustered(config);

  IndexDescriptor descriptor;
  descriptor.family = lsh::FamilyKind::kRandomProjection;
  descriptor.metric = util::Metric::kEuclidean;
  descriptor.dim = data.dim();
  descriptor.m = 24;
  descriptor.w = 6.0;
  descriptor.seed = 77;
  descriptor.probes.num_probes = 25;

  auto family = lsh::MakeFamily(descriptor.family, data.dim(), descriptor.m,
                                descriptor.w, descriptor.seed);
  LccsLsh original(std::move(family), descriptor.metric, descriptor.probes);
  original.Build(data.data.data(), data.n(), data.dim());
  SaveIndex(Path(), descriptor, original.n());

  const auto loaded =
      LoadIndex(Path(), data.data.data(), data.n(), data.dim());
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->m(), descriptor.m);
  EXPECT_EQ(loaded->probe_params().num_probes, 25u);
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto a = original.Query(data.queries.Row(q), 5, 50);
    const auto b = loaded->Query(data.queries.Row(q), 5, 50);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_DOUBLE_EQ(a[i].dist, b[i].dist);
    }
  }
}

TEST_F(IndexSerializeTest, RejectsWrongData) {
  dataset::SyntheticConfig config;
  config.n = 100;
  config.num_queries = 2;
  config.dim = 8;
  const auto data = dataset::GenerateClustered(config);
  IndexDescriptor descriptor;
  descriptor.dim = data.dim();
  descriptor.m = 8;
  descriptor.seed = 5;
  auto family = lsh::MakeFamily(descriptor.family, data.dim(), descriptor.m,
                                descriptor.w, descriptor.seed);
  LccsLsh index(std::move(family), descriptor.metric, descriptor.probes);
  index.Build(data.data.data(), data.n(), data.dim());
  SaveIndex(Path(), descriptor, index.n());

  // Wrong n.
  EXPECT_THROW(LoadIndex(Path(), data.data.data(), 50, data.dim()),
               std::runtime_error);
  // Wrong dimension.
  EXPECT_THROW(LoadIndex(Path(), data.data.data(), data.n(), 4),
               std::runtime_error);
}

TEST_F(IndexSerializeTest, MissingFileThrows) {
  EXPECT_THROW(LoadIndex("/nonexistent/file.lccs", nullptr, 0, 0),
               std::runtime_error);
}

// Loading rebuilds the index with the ordinary Build, so for every family
// the loaded CSA must be array for array the one the saver built: each
// family is bit-reproducible from its seed.
TEST_F(IndexSerializeTest, LoadRebuildsTheSavedCsaForEveryFamily) {
  dataset::SyntheticConfig config;
  config.n = 400;
  config.num_queries = 1;
  config.dim = 12;
  const auto data = dataset::GenerateClustered(config);
  for (const lsh::FamilyKind family :
       {lsh::FamilyKind::kRandomProjection, lsh::FamilyKind::kCrossPolytope,
        lsh::FamilyKind::kSignProjection, lsh::FamilyKind::kBitSampling,
        lsh::FamilyKind::kMinHash}) {
    IndexDescriptor descriptor;
    descriptor.family = family;
    descriptor.dim = data.dim();
    descriptor.m = 16;
    descriptor.seed = 9;
    LccsLsh original(lsh::MakeFamily(family, data.dim(), descriptor.m,
                                     descriptor.w, descriptor.seed),
                     descriptor.metric, descriptor.probes);
    original.Build(data.data.data(), data.n(), data.dim());
    SaveIndex(Path(), descriptor, original.n());
    const auto loaded =
        LoadIndex(Path(), data.data.data(), data.n(), data.dim());
    EXPECT_EQ(CsaArrays(loaded->csa()), CsaArrays(original.csa()))
        << lsh::FamilyKindName(family);
  }
}

// A descriptor that names values no saver writes, or that disagrees with
// the vectors it is bound to, must be rejected before any hashing: Build
// only asserts m's heap-key cap, and an index over another n or dim is not
// the saved one.
TEST_F(IndexSerializeTest, CorruptDescriptorThrows) {
  const dataset::Dataset data = SaveSmallIndex();
  const std::string payload = ReadFile();
  // The intact file loads and answers.
  ASSERT_EQ(Load(data)->Query(data.queries.Row(0), 3, 20).size(), 3u);

  // Layout after the 8-byte magic: family u32 (8), metric u32 (12), dim u64
  // (16), m u64 (24), w f64 (32), seed u64 (40), num_probes u64 (48),
  // max_gap i64 (56), num_alternatives u64 (64), skip u8 (72), n u64 (73);
  // 81 bytes in all.
  ASSERT_EQ(payload.size(), 81u);
  struct Patch {
    const char* what;
    size_t offset;
    size_t width;
    uint64_t value;
    bool descriptor_only;  // ReadIndexDescriptor rejects it too
  };
  uint64_t nan_bits = 0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&nan_bits, &nan, sizeof(nan));
  const Patch patches[] = {
      {"m = 4096", 24, 8, 4096, true},
      {"w = 0", 32, 8, 0, true},
      {"w = NaN", 32, 8, nan_bits, true},
      {"n = n + 1", 73, 8, data.n() + 1, false},
      {"dim = 0", 16, 8, 0, true},
      {"m = 0", 24, 8, 0, true},
      {"family = 99", 8, 4, 99, true},
      {"metric = 99", 12, 4, 99, true},
      {"num_probes = 0", 48, 8, 0, true},
      {"max_gap = 0", 56, 8, 0, true},
      {"max_gap = -1", 56, 8, ~uint64_t{0}, true},
      {"max_gap = 2^32 + 1", 56, 8, (uint64_t{1} << 32) + 1, true},
  };
  for (const Patch& patch : patches) {
    std::string corrupt = payload;
    std::memcpy(&corrupt[patch.offset], &patch.value, patch.width);
    WriteFile(corrupt);
    EXPECT_THROW(Load(data), std::runtime_error) << patch.what;
    if (patch.descriptor_only) {
      EXPECT_THROW(ReadIndexDescriptor(Path()), std::runtime_error)
          << patch.what;
    }
  }
}

// Every file cut short of a whole descriptor, and one with a byte past it,
// is refused by both readers.
TEST_F(IndexSerializeTest, TruncatedOrOverlongFileThrows) {
  const dataset::Dataset data = SaveSmallIndex();
  const std::string payload = ReadFile();
  for (size_t size = 0; size < payload.size(); ++size) {
    WriteFile(payload.substr(0, size));
    EXPECT_THROW(Load(data), std::runtime_error) << "size " << size;
    EXPECT_THROW(ReadIndexDescriptor(Path()), std::runtime_error)
        << "size " << size;
  }
  WriteFile(payload + '\0');
  EXPECT_THROW(Load(data), std::runtime_error);
  EXPECT_THROW(ReadIndexDescriptor(Path()), std::runtime_error);
}

// Version 1 files stored the CSA after the descriptor. They are refused
// with an error that names their version, not parsed.
TEST_F(IndexSerializeTest, FirstVersionIsRefusedByName) {
  const dataset::Dataset data = SaveSmallIndex();
  std::string old = ReadFile();
  old[7] = '1';
  WriteFile(old);
  for (int reader = 0; reader < 2; ++reader) {
    try {
      if (reader == 0) {
        Load(data);
      } else {
        ReadIndexDescriptor(Path());
      }
      ADD_FAILURE() << "an LCCSIDX1 file was accepted by reader " << reader;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("LCCSIDX1"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace lccs
