#include "core/serialize.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "core/lccs.h"
#include "dataset/synthetic.h"
#include "util/random.h"

namespace lccs {
namespace core {
namespace {

std::vector<HashValue> RandomStrings(size_t n, size_t m, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<HashValue> data(n * m);
  for (auto& v : data) v = static_cast<HashValue>(rng.NextBounded(8));
  return data;
}

TEST(CsaSerializeTest, RoundTripPreservesEverything) {
  const size_t n = 64, m = 8;
  const auto strings = RandomStrings(n, m, 1);
  CircularShiftArray original;
  original.Build(strings.data(), n, m);

  std::stringstream stream;
  original.Serialize(stream);
  const auto restored = CircularShiftArray::Deserialize(stream);

  ASSERT_EQ(restored.n(), n);
  ASSERT_EQ(restored.m(), m);
  for (size_t shift = 0; shift < m; ++shift) {
    for (size_t pos = 0; pos < n; ++pos) {
      EXPECT_EQ(restored.SortedId(shift, pos), original.SortedId(shift, pos));
      EXPECT_EQ(restored.NextPosition(shift, pos),
                original.NextPosition(shift, pos));
    }
  }
  // Queries agree exactly.
  util::Rng rng(2);
  std::vector<HashValue> q(m);
  for (int trial = 0; trial < 10; ++trial) {
    for (auto& v : q) v = static_cast<HashValue>(rng.NextBounded(8));
    const auto a = original.Search(q.data(), 7);
    const auto b = restored.Search(q.data(), 7);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].len, b[i].len);
    }
  }
}

TEST(CsaSerializeTest, RejectsGarbage) {
  std::stringstream stream("this is not a CSA");
  EXPECT_THROW(CircularShiftArray::Deserialize(stream), std::runtime_error);
}

TEST(CsaSerializeTest, RejectsTruncation) {
  const auto strings = RandomStrings(16, 4, 3);
  CircularShiftArray csa;
  csa.Build(strings.data(), 16, 4);
  std::stringstream stream;
  csa.Serialize(stream);
  std::string payload = stream.str();
  payload.resize(payload.size() / 2);
  std::stringstream truncated(payload);
  EXPECT_THROW(CircularShiftArray::Deserialize(truncated),
               std::runtime_error);
}

class IndexSerializeTest : public ::testing::Test {
 protected:
  static std::string Path() {
    return testing::TempDir() + "/lccs_index_test.lccs";
  }

  void TearDown() override { std::remove(Path().c_str()); }
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
  SaveIndex(Path(), descriptor, original.csa());

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
  SaveIndex(Path(), descriptor, index.csa());

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

// A descriptor that disagrees with the CSA it carries, or names values no
// saver writes, must be rejected at load: the family would otherwise hash
// m values into a search that reads csa.m(), out of bounds either way.
TEST_F(IndexSerializeTest, CorruptDescriptorThrows) {
  dataset::SyntheticConfig config;
  config.n = 300;
  config.num_queries = 2;
  config.dim = 8;
  config.seed = 13;
  const auto data = dataset::GenerateClustered(config);
  IndexDescriptor descriptor;
  descriptor.dim = data.dim();
  descriptor.m = 32;
  descriptor.seed = 5;
  descriptor.probes.num_probes = 4;
  auto family = lsh::MakeFamily(descriptor.family, data.dim(), descriptor.m,
                                descriptor.w, descriptor.seed);
  LccsLsh index(std::move(family), descriptor.metric, descriptor.probes);
  index.Build(data.data.data(), data.n(), data.dim());
  SaveIndex(Path(), descriptor, index.csa());
  std::string payload;
  {
    std::ifstream in(Path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    payload = buffer.str();
  }
  // The intact file loads and answers.
  ASSERT_EQ(LoadIndex(Path(), data.data.data(), data.n(), data.dim())
                ->Query(data.queries.Row(0), 3, 20)
                .size(),
            3u);

  // Descriptor layout after the 8-byte magic: family u32 (8), metric u32
  // (12), dim u64 (16), m u64 (24), w f64 (32), seed u64 (40), num_probes
  // u64 (48), max_gap i64 (56), num_alternatives u64 (64), skip u8 (72).
  struct Patch {
    const char* what;
    size_t offset;
    size_t width;
    uint64_t value;
    bool descriptor_only;  // ReadIndexDescriptor rejects it too
  };
  const Patch patches[] = {
      {"m = 64", 24, 8, 64, false},
      {"m = 8", 24, 8, 8, false},
      {"m = 0", 24, 8, 0, false},
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
    {
      std::ofstream out(Path(), std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_THROW(LoadIndex(Path(), data.data.data(), data.n(), data.dim()),
                 std::runtime_error)
        << patch.what;
    if (patch.descriptor_only) {
      EXPECT_THROW(ReadIndexDescriptor(Path()), std::runtime_error)
          << patch.what;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace lccs
