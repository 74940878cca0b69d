#include "core/serialize.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "core/lccs.h"
#include "dataset/synthetic.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
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
  MpLccsLsh original(std::move(family), descriptor.metric, descriptor.probes);
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
  MpLccsLsh index(std::move(family), descriptor.metric, descriptor.probes);
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

// ---------------------------------------------------------------------------
// Dynamic index persistence: a mid-epoch index (live static rows, epoch
// tombstones, delta rows, delta tombstones) must round-trip with full query
// equivalence and keep mutating correctly afterwards.

class DynamicSerializeTest : public ::testing::Test {
 protected:
  static std::string Path() {
    return testing::TempDir() + "/lccs_dynamic_test.lccs";
  }

  static baselines::LccsLshIndex::Params ExactParams() {
    baselines::LccsLshIndex::Params params;
    params.m = 16;
    params.lambda = 4096;  // exact mode: equivalence checks are strict
    params.w = 6.0;
    params.seed = 21;
    return params;
  }

  /// Builds a dynamic LCCS index mid-epoch: 300 built points, 40 inserts in
  /// the delta, deletions in both regions. The huge threshold guarantees
  /// nothing consolidates, so the saved file genuinely carries a delta and
  /// tombstones.
  static std::unique_ptr<DynamicIndex> MakeMidEpochIndex(
      const dataset::Dataset& data) {
    const auto params = ExactParams();
    DynamicIndex::Options options;
    options.rebuild_threshold = size_t{1} << 30;
    options.background_rebuild = false;
    auto index = std::make_unique<DynamicIndex>(
        [params] { return std::make_unique<baselines::LccsLshIndex>(params); },
        options);
    index->Build(data);
    util::Rng rng(17);
    std::vector<float> vec(data.dim());
    for (int i = 0; i < 40; ++i) {
      rng.FillGaussian(vec.data(), vec.size());
      index->Insert(vec.data());
    }
    for (int32_t id = 0; id < 60; id += 2) index->Remove(id);      // epoch
    for (int32_t id = 300; id < 320; id += 2) index->Remove(id);   // delta
    return index;
  }

  void TearDown() override { std::remove(Path().c_str()); }
};

TEST_F(DynamicSerializeTest, MidEpochRoundTripPreservesEverything) {
  dataset::SyntheticConfig config;
  config.n = 300;
  config.num_queries = 15;
  config.dim = 12;
  config.seed = 19;
  const auto data = dataset::GenerateClustered(config);
  const auto original = MakeMidEpochIndex(data);
  ASSERT_EQ(original->delta_size(), 40u);
  ASSERT_EQ(original->tombstone_count(), 40u);

  SaveDynamicIndex(Path(), ExactParams(), *original);
  const auto loaded = LoadDynamicIndex(Path());
  ASSERT_NE(loaded, nullptr);

  EXPECT_EQ(loaded->live_count(), original->live_count());
  EXPECT_EQ(loaded->epoch_size(), original->epoch_size());
  EXPECT_EQ(loaded->delta_size(), original->delta_size());
  EXPECT_EQ(loaded->tombstone_count(), original->tombstone_count());
  EXPECT_EQ(loaded->dim(), original->dim());

  for (size_t q = 0; q < data.num_queries(); ++q) {
    EXPECT_EQ(loaded->Query(data.queries.Row(q), 10),
              original->Query(data.queries.Row(q), 10))
        << "query " << q;
  }

  // The loaded index must keep behaving like the original under further
  // mutations — including a consolidation, which exercises the restored
  // factory end to end.
  util::Rng rng(23);
  std::vector<float> vec(data.dim());
  for (int i = 0; i < 10; ++i) {
    rng.FillGaussian(vec.data(), vec.size());
    const auto id_a = original->Insert(vec.data());
    const auto id_b = loaded->Insert(vec.data());
    EXPECT_EQ(id_a, id_b);
  }
  original->Consolidate();
  loaded->Consolidate();
  EXPECT_EQ(loaded->tombstone_count(), 0u);
  for (size_t q = 0; q < data.num_queries(); ++q) {
    EXPECT_EQ(loaded->Query(data.queries.Row(q), 10),
              original->Query(data.queries.Row(q), 10))
        << "post-consolidation query " << q;
  }
}

TEST_F(DynamicSerializeTest, GarbageFileThrowsWithUsefulMessage) {
  {
    std::ofstream out(Path(), std::ios::binary);
    out << "these are not the bytes you are looking for";
  }
  try {
    LoadDynamicIndex(Path());
    FAIL() << "garbage file did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not an LCCS dynamic index"),
              std::string::npos)
        << "unhelpful message: " << e.what();
  }
}

TEST_F(DynamicSerializeTest, TruncatedFileThrowsAtEveryCutPoint) {
  dataset::SyntheticConfig config;
  config.n = 120;
  config.num_queries = 2;
  config.dim = 8;
  config.seed = 29;
  const auto data = dataset::GenerateClustered(config);
  const auto index = MakeMidEpochIndex(data);
  SaveDynamicIndex(Path(), ExactParams(), *index);

  std::string payload;
  {
    std::ifstream in(Path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    payload = buffer.str();
  }
  ASSERT_GT(payload.size(), 100u);
  // Cut the file at several depths: inside the header, the epoch snapshot,
  // the CSA, and the delta arrays. Every cut must throw std::runtime_error
  // (never crash or return a half-loaded index).
  for (const double fraction : {0.02, 0.2, 0.5, 0.8, 0.99}) {
    const auto cut = static_cast<size_t>(payload.size() * fraction);
    {
      std::ofstream out(Path(), std::ios::binary | std::ios::trunc);
      out.write(payload.data(), static_cast<std::streamsize>(cut));
    }
    try {
      LoadDynamicIndex(Path());
      FAIL() << "truncation at " << cut << " bytes did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_FALSE(std::string(e.what()).empty());
    }
  }
}

TEST_F(DynamicSerializeTest, CorruptedCountsThrowInsteadOfAllocating) {
  dataset::SyntheticConfig config;
  config.n = 60;
  config.num_queries = 2;
  config.dim = 8;
  config.seed = 31;
  const auto data = dataset::GenerateClustered(config);
  const auto index = MakeMidEpochIndex(data);
  SaveDynamicIndex(Path(), ExactParams(), *index);

  std::string payload;
  {
    std::ifstream in(Path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    payload = buffer.str();
  }
  // Stomp 8-byte windows with 0xFF at the family kind (8), the state magic
  // (70), the metric (76), the id counter (90) and the epoch row count
  // (104): each becomes absurd and must be rejected by a sanity check, not
  // passed to a multi-gigabyte allocation or a silently-wrong enum.
  for (const size_t offset :
       {size_t{8}, size_t{70}, size_t{76}, size_t{90}, size_t{104}}) {
    std::string corrupt = payload;
    for (size_t i = offset; i < std::min(offset + 8, corrupt.size()); ++i) {
      corrupt[i] = static_cast<char>(0xFF);
    }
    {
      std::ofstream out(Path(), std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_THROW(LoadDynamicIndex(Path()), std::runtime_error)
        << "corruption at offset " << offset;
  }
}

// The factory's m must agree with the epoch CSA it restores (a patched m
// would hash m values into a search that reads csa.m()), and its max_gap
// must be one Algorithm 3 accepts.
TEST_F(DynamicSerializeTest, CorruptFactoryParamsThrow) {
  dataset::SyntheticConfig config;
  config.n = 60;
  config.num_queries = 2;
  config.dim = 8;
  config.seed = 33;
  const auto data = dataset::GenerateClustered(config);
  const auto index = MakeMidEpochIndex(data);
  SaveDynamicIndex(Path(), ExactParams(), *index);
  std::string payload;
  {
    std::ifstream in(Path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    payload = buffer.str();
  }
  // The factory parameters follow the 8-byte magic: family u32 (8), m u64
  // (12), lambda u64 (20), num_probes u64 (28), max_gap i64 (36);
  // ExactParams saves m = 16.
  const std::pair<size_t, uint64_t> patches[] = {
      {12, 8}, {12, 64}, {36, 0}, {36, ~uint64_t{0}}};
  for (const auto& [offset, value] : patches) {
    std::string corrupt = payload;
    std::memcpy(&corrupt[offset], &value, sizeof(value));
    {
      std::ofstream out(Path(), std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_THROW(LoadDynamicIndex(Path()), std::runtime_error)
        << "offset " << offset << " value " << value;
  }
}

// A header can be corrupt without tripping any individual range check: dim
// and next_id at their legal maxima imply up to ~2^57 bytes of payload. Such
// counts must be rejected against the actual stream size — the promised
// std::runtime_error — never handed to the allocator (std::bad_alloc /
// std::length_error, or an OOM kill).
TEST_F(DynamicSerializeTest, RangeLegalButHugeCountsThrowInsteadOfAllocating) {
  dataset::SyntheticConfig config;
  config.n = 60;
  config.num_queries = 2;
  config.dim = 8;
  config.seed = 37;
  const auto data = dataset::GenerateClustered(config);
  const auto index = MakeMidEpochIndex(data);
  SaveDynamicIndex(Path(), ExactParams(), *index);

  std::string payload;
  {
    std::ifstream in(Path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    payload = buffer.str();
  }
  // Fixed-size prefix: LCCS params end at 68, state magic 68..75, metric
  // @76, dim @80, next_id @88, epoch_sequence @96, epoch row count @104;
  // with an empty epoch the delta row count follows at 112.
  const auto patch_u64 = [](std::string* s, size_t offset, uint64_t value) {
    std::memcpy(&(*s)[offset], &value, sizeof(value));
  };
  const auto rewrite = [&](const std::string& corrupt) {
    std::ofstream out(Path(), std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  };
  const uint64_t max_id =
      static_cast<uint64_t>(std::numeric_limits<int32_t>::max());

  // Epoch variant: a full epoch of 2^31-1 rows of 2^24-dim vectors.
  {
    std::string corrupt = payload;
    patch_u64(&corrupt, 80, uint64_t{1} << 24);   // dim
    patch_u64(&corrupt, 88, max_id);              // next_id
    patch_u64(&corrupt, 104, max_id);             // epoch rows
    rewrite(corrupt);
    try {
      LoadDynamicIndex(Path());
      FAIL() << "huge epoch header did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("larger than stream"),
                std::string::npos)
          << "unhelpful message: " << e.what();
    }
  }
  // Delta variant: empty epoch, delta row count 2^50 — below the id-space
  // cap of next_id * dim but far beyond the file.
  {
    std::string corrupt = payload;
    patch_u64(&corrupt, 80, uint64_t{1} << 24);   // dim
    patch_u64(&corrupt, 88, max_id);              // next_id
    patch_u64(&corrupt, 104, 0);                  // epoch rows
    patch_u64(&corrupt, 112, uint64_t{1} << 50);  // delta row count
    rewrite(corrupt);
    try {
      LoadDynamicIndex(Path());
      FAIL() << "huge delta count did not throw";
    } catch (const std::runtime_error& e) {
      // Specifically the byte-budget rejection, not some unrelated parse
      // error that would leave this path uncovered.
      EXPECT_NE(std::string(e.what()).find("exceeds limit"),
                std::string::npos)
          << "unhelpful message: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Out-of-line (external-vectors) persistence: a mmap-backed index records
// its flat file by path + checksum instead of inlining the floats.

class ExternalSerializeTest : public DynamicSerializeTest {
 protected:
  std::string FlatPath() const {
    return testing::TempDir() + "/lccs_external_epoch.flat";
  }

  /// A mid-epoch index whose epoch store is a memory-mapped flat file.
  struct MappedFixture {
    dataset::Dataset data;
    std::unique_ptr<DynamicIndex> index;
  };
  MappedFixture MakeMappedIndex() {
    dataset::SyntheticConfig config;
    config.n = 300;
    config.num_queries = 15;
    config.dim = 12;
    config.seed = 29;
    const auto heap = dataset::GenerateClustered(config);
    storage::WriteFlatFile(FlatPath(), *heap.data.store());
    MappedFixture fixture;
    fixture.data.name = "mapped";
    fixture.data.metric = heap.metric;
    fixture.data.data = storage::MmapStore::Open(FlatPath());
    fixture.data.queries = heap.queries;
    fixture.index = MakeMidEpochIndex(fixture.data);
    return fixture;
  }

  void TearDown() override {
    DynamicSerializeTest::TearDown();
    std::remove(FlatPath().c_str());
  }
};

TEST_F(ExternalSerializeTest, ExternalVectorsRoundTrip) {
  const auto fixture = MakeMappedIndex();
  const auto file_bytes = [&](SaveMode mode) {
    SaveDynamicIndex(Path(), ExactParams(), *fixture.index, mode);
    std::ifstream probe(Path(), std::ios::binary | std::ios::ate);
    return static_cast<size_t>(probe.tellg());
  };
  // The epoch floats (300 x 12 = 14.4 KB) must stay out-of-line: the
  // external file is smaller than the inline one by almost exactly them.
  const size_t inline_bytes = file_bytes(SaveMode::kInlineVectors);
  const size_t external_bytes = file_bytes(SaveMode::kExternalVectors);
  const size_t epoch_floats = 300 * 12 * sizeof(float);
  EXPECT_LT(external_bytes + epoch_floats / 2, inline_bytes)
      << "external save did not stay out-of-line";

  const auto loaded = LoadDynamicIndex(Path());
  EXPECT_EQ(loaded->live_count(), fixture.index->live_count());
  EXPECT_EQ(loaded->epoch_size(), fixture.index->epoch_size());
  EXPECT_EQ(loaded->delta_size(), fixture.index->delta_size());
  for (size_t q = 0; q < fixture.data.num_queries(); ++q) {
    EXPECT_EQ(loaded->Query(fixture.data.queries.Row(q), 10),
              fixture.index->Query(fixture.data.queries.Row(q), 10))
        << "query " << q;
  }
}

TEST_F(ExternalSerializeTest, ExternalModeRefusesHeapEpoch) {
  dataset::SyntheticConfig config;
  config.n = 50;
  config.num_queries = 2;
  config.dim = 8;
  const auto data = dataset::GenerateClustered(config);
  const auto index = MakeMidEpochIndex(data);
  EXPECT_THROW(SaveDynamicIndex(Path(), ExactParams(), *index,
                                SaveMode::kExternalVectors),
               std::invalid_argument);
}

TEST_F(ExternalSerializeTest, LoadRejectsReplacedFlatFile) {
  const auto fixture = MakeMappedIndex();
  SaveDynamicIndex(Path(), ExactParams(), *fixture.index,
                   SaveMode::kExternalVectors);
  // Rewrite the flat file with different contents (valid header, different
  // checksum): the recorded checksum no longer matches.
  {
    util::Matrix other(300, 12);
    util::Rng rng(99);
    rng.FillGaussian(other.data(), 300 * 12);
    storage::WriteFlatFile(FlatPath(), other);
  }
  try {
    LoadDynamicIndex(Path());
    FAIL() << "replaced flat file did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << "unhelpful message: " << e.what();
  }
}

TEST_F(ExternalSerializeTest, LoadRejectsMissingFlatFile) {
  const auto fixture = MakeMappedIndex();
  SaveDynamicIndex(Path(), ExactParams(), *fixture.index,
                   SaveMode::kExternalVectors);
  std::remove(FlatPath().c_str());
  EXPECT_THROW(LoadDynamicIndex(Path()), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Spill consolidation: with Options::spill_dir, consolidation streams
// survivors to a flat file and serves the new epoch memory-mapped. Results
// must match the heap consolidation bit for bit.

TEST_F(ExternalSerializeTest, SpillConsolidationMatchesHeapConsolidation) {
  dataset::SyntheticConfig config;
  config.n = 300;
  config.num_queries = 15;
  config.dim = 12;
  config.seed = 31;
  const auto data = dataset::GenerateClustered(config);

  const auto params = ExactParams();
  DynamicIndex::Options heap_options;
  heap_options.rebuild_threshold = size_t{1} << 30;
  heap_options.background_rebuild = false;
  DynamicIndex::Options spill_options = heap_options;
  spill_options.spill_dir = testing::TempDir();

  const auto factory = [params] {
    return std::make_unique<baselines::LccsLshIndex>(params);
  };
  DynamicIndex heap_index(factory, heap_options);
  DynamicIndex spill_index(factory, spill_options);
  heap_index.Build(data);
  spill_index.Build(data);

  util::Rng rng(41);
  std::vector<float> vec(data.dim());
  for (int i = 0; i < 50; ++i) {
    rng.FillGaussian(vec.data(), vec.size());
    heap_index.Insert(vec.data());
    spill_index.Insert(vec.data());
  }
  for (int32_t id = 0; id < 80; id += 3) {
    EXPECT_EQ(heap_index.Remove(id), spill_index.Remove(id));
  }
  heap_index.Consolidate();
  spill_index.Consolidate();
  EXPECT_EQ(heap_index.epoch_size(), spill_index.epoch_size());
  for (size_t q = 0; q < data.num_queries(); ++q) {
    EXPECT_EQ(heap_index.Query(data.queries.Row(q), 10),
              spill_index.Query(data.queries.Row(q), 10))
        << "query " << q;
  }

  // A spilled epoch is mmap-backed but its flat file self-deletes when the
  // epoch is retired, so recording it by path must be refused — an
  // external save referencing it would silently stop loading after the
  // next consolidation. Inline saving still round-trips.
  EXPECT_THROW(SaveDynamicIndex(Path(), params, spill_index,
                                SaveMode::kExternalVectors),
               std::invalid_argument);
  SaveDynamicIndex(Path(), params, spill_index);
  const auto loaded = LoadDynamicIndex(Path());
  EXPECT_EQ(loaded->live_count(), spill_index.live_count());

  // A second consolidation replaces the spill epoch, unlinking the retired
  // file; the index keeps serving.
  for (int i = 0; i < 10; ++i) {
    rng.FillGaussian(vec.data(), vec.size());
    spill_index.Insert(vec.data());
  }
  spill_index.Consolidate();
  EXPECT_EQ(spill_index.delta_size(), 0u);
}

}  // namespace
}  // namespace core
}  // namespace lccs
