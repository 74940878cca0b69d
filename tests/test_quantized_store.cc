// Tests for the int8 quantized candidate tier (storage/quantized_store.h):
// codebook round-trip bounds, scalar vs AVX2 kernel bit-identity, the
// recall-floor oracle across {LCCS-LSH, MP-LCCS-LSH, LinearScan} x {heap,
// mmap, budgeted mmap}, the serving rerank's copy gather, the dynamic-index
// lifecycle (exact delta verification, consolidation), and the CSA
// ReleaseNextLinks contract the memory-tight serving mode relies on.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "core/dynamic_index.h"
#include "core/lccs_lsh.h"
#include "dataset/dataset.h"
#include "lsh/family_factory.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "storage/quantized_store.h"
#include "storage/vector_store.h"
#include "util/matrix.h"
#include "util/metric.h"
#include "util/random.h"
#include "util/simd_distance.h"

namespace lccs {
namespace storage {
namespace {

util::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Matrix m(rows, cols);
  util::Rng rng(seed);
  rng.FillGaussian(m.data(), rows * cols);
  return m;
}

std::shared_ptr<const InMemoryStore> MakeStore(size_t rows, size_t cols,
                                               uint64_t seed) {
  return std::make_shared<InMemoryStore>(RandomMatrix(rows, cols, seed));
}

class QuantizedStoreTest : public ::testing::Test {};

// --- Round-trip bounds ------------------------------------------------------

TEST_F(QuantizedStoreTest, ReconstructionErrorWithinHalfScalePerDim) {
  const size_t n = 200, d = 24;
  auto store = MakeStore(n, d, 42);
  auto q = QuantizedStore::Build(*store, util::Metric::kEuclidean);
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->rows(), n);
  ASSERT_EQ(q->cols(), d);
  const QuantizedStore::Codebook& cb = q->codebook();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const float err = std::fabs(q->ReconstructAt(i, j) - store->At(i, j));
      // Rounding to the nearest code leaves at most half a quantization
      // step, plus float slack on the reconstruction arithmetic.
      EXPECT_LE(err, cb.scales[j] * 0.5f + 1e-5f)
          << "row " << i << " dim " << j;
    }
  }
}

TEST_F(QuantizedStoreTest, ConstantDimensionReconstructsExactly) {
  util::Matrix m(16, 3);
  for (size_t i = 0; i < 16; ++i) {
    m.data()[i * 3 + 0] = 7.5f;  // constant dim: max == min
    m.data()[i * 3 + 1] = static_cast<float>(i);
    m.data()[i * 3 + 2] = -1.0f;
  }
  InMemoryStore store(std::move(m));
  auto q = QuantizedStore::Build(store, util::Metric::kEuclidean);
  ASSERT_NE(q, nullptr);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(q->ReconstructAt(i, 0), 7.5f);
    EXPECT_FLOAT_EQ(q->ReconstructAt(i, 2), -1.0f);
  }
}

TEST_F(QuantizedStoreTest, BuildRefusesUnsupportedConfigurations) {
  auto store = MakeStore(8, 4, 1);
  EXPECT_EQ(QuantizedStore::Build(*store, util::Metric::kHamming), nullptr);
  EXPECT_EQ(QuantizedStore::Build(*store, util::Metric::kJaccard), nullptr);
  InMemoryStore empty;
  EXPECT_EQ(QuantizedStore::Build(empty, util::Metric::kEuclidean), nullptr);
}

// --- Kernel bit-identity ----------------------------------------------------

TEST_F(QuantizedStoreTest, ScalarAndAvx2DotProductsAreBitIdentical) {
  util::Rng rng(7);
  // Sweep dimensions across vector-width boundaries, including the scalar
  // tail (d % 16 != 0) and the extremes the contract promises exactness
  // for: |w| <= 4095, codes up to 255.
  for (size_t d : {1u, 7u, 15u, 16u, 17u, 64u, 128u, 960u, 8192u}) {
    std::vector<uint8_t> codes(d);
    std::vector<int16_t> weights(d);
    for (size_t j = 0; j < d; ++j) {
      codes[j] = static_cast<uint8_t>(rng.NextU64() % 256);
      weights[j] = static_cast<int16_t>(rng.UniformInt(-4095, 4095));
    }
    // Saturate the worst-case accumulation bound at the largest dim.
    if (d == 8192) {
      for (size_t j = 0; j < d; ++j) {
        codes[j] = 255;
        weights[j] = (j % 2 == 0) ? 4095 : -4095;
      }
    }
    const int64_t scalar = util::simd::DotCodesI8Tier(
        util::SimdTier::kScalar, codes.data(), weights.data(), d);
    const int64_t dispatched = util::simd::DotCodesI8Tier(
        util::SimdTier::kAvx2, codes.data(), weights.data(), d);
    EXPECT_EQ(scalar, dispatched) << "d = " << d;
    EXPECT_EQ(scalar,
              util::simd::DotCodesI8(codes.data(), weights.data(), d));
  }
}

// --- Score fidelity ---------------------------------------------------------

TEST_F(QuantizedStoreTest, ScoresMatchExactDistanceOnReconstructedRows) {
  const size_t n = 128, d = 48;
  for (util::Metric metric :
       {util::Metric::kEuclidean, util::Metric::kAngular}) {
    auto store = MakeStore(n, d, 9 + static_cast<uint64_t>(metric));
    auto q = QuantizedStore::Build(*store, metric);
    ASSERT_NE(q, nullptr);
    std::vector<float> query(d);
    util::Rng rng(77);
    rng.FillGaussian(query.data(), d);
    const QuantizedStore::PreparedQuery pq = q->Prepare(query.data());
    std::vector<int32_t> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int32_t>(i);
    std::vector<float> scores(n);
    q->ScoreCandidates(pq, ids.data(), n, 0, scores.data());
    // The quantized score is the exact metric evaluated against the
    // *reconstructed* row, up to (a) the int16 weight quantization and
    // (b) single-precision combination. Both shrink with magnitude, so a
    // relative band is the honest check.
    for (size_t i = 0; i < n; ++i) {
      std::vector<float> rec(d);
      for (size_t j = 0; j < d; ++j) rec[j] = q->ReconstructAt(i, j);
      double exact = util::Distance(metric, query.data(), rec.data(), d);
      // The Euclidean tier scores squared distance (same order, one sqrt
      // cheaper per candidate); Angular scores the metric directly.
      if (metric == util::Metric::kEuclidean) exact *= exact;
      const double tol = 1e-3 * (1.0 + std::fabs(exact));
      EXPECT_NEAR(scores[i], exact, tol)
          << "metric " << static_cast<int>(metric) << " row " << i;
    }
    // Contiguous (ids == nullptr) scoring must agree with explicit ids.
    std::vector<float> contiguous(n);
    q->ScoreCandidates(pq, nullptr, n, 0, contiguous.data());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(scores[i], contiguous[i]);
  }
}

// --- Tier attachment -------------------------------------------------------

TEST_F(QuantizedStoreTest, ActiveQuantizedFollowsAttachmentAndMetric) {
  auto store = MakeStore(32, 8, 11);
  size_t off = 99;
  // The tier is on exactly when one is attached.
  EXPECT_EQ(ActiveQuantized(store.get(), util::Metric::kEuclidean, &off),
            nullptr);
  const QuantizedStore* attached =
      EnsureQuantized(store, util::Metric::kEuclidean);
  ASSERT_NE(attached, nullptr);
  // Second call returns the already-attached sibling (first-wins).
  EXPECT_EQ(EnsureQuantized(store, util::Metric::kEuclidean), attached);

  EXPECT_EQ(ActiveQuantized(store.get(), util::Metric::kEuclidean, &off),
            attached);
  EXPECT_EQ(off, 0u);
  // Metric mismatch: the sibling was built for Euclidean combination.
  EXPECT_EQ(ActiveQuantized(store.get(), util::Metric::kAngular, &off),
            nullptr);
}

TEST_F(QuantizedStoreTest, SliceStoreTranslatesQuantizedRowOffset) {
  auto store = MakeStore(40, 8, 12);
  ASSERT_NE(EnsureQuantized(store, util::Metric::kEuclidean), nullptr);
  auto slice = std::make_shared<SliceStore>(store, 10, 25);
  size_t off = 0;
  const QuantizedStore* q = slice->Quantized(&off);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(off, 10u);
}

TEST_F(QuantizedStoreTest, RerankSelectorKeepsSmallestWithDeterministicTies) {
  RerankSelector sel(3);
  sel.Offer(2.0f, 7);
  sel.Offer(1.0f, 3);
  sel.Offer(2.0f, 1);
  sel.Offer(2.0f, 5);   // ties 2.0: ids 1, 5, 7 seen — 7 must be evicted
  sel.Offer(9.0f, 0);   // worse than everything kept
  std::vector<int32_t> ids = sel.TakeAscendingIds();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 1);
  EXPECT_EQ(ids[1], 3);
  EXPECT_EQ(ids[2], 5);
}

}  // namespace
}  // namespace storage

// --- Recall-floor oracle ----------------------------------------------------

namespace core {
namespace {

using storage::EnsureQuantized;

util::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Matrix m(rows, cols);
  util::Rng rng(seed);
  rng.FillGaussian(m.data(), rows * cols);
  return m;
}

class QuantizedRecallTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  std::string Path(const std::string& name) {
    std::string path = ::testing::TempDir() + "/" + name;
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

double RecallAgainst(const std::vector<std::vector<util::Neighbor>>& truth,
                     const std::vector<std::vector<util::Neighbor>>& got,
                     size_t k) {
  double hits = 0.0, total = 0.0;
  for (size_t qi = 0; qi < truth.size(); ++qi) {
    for (const util::Neighbor& t : truth[qi]) {
      ++total;
      for (const util::Neighbor& g : got[qi]) {
        if (g.id == t.id) {
          ++hits;
          break;
        }
      }
    }
    (void)k;
  }
  return total > 0 ? hits / total : 1.0;
}

std::unique_ptr<baselines::AnnIndex> MakeNamedIndex(const std::string& name) {
  if (name == "LinearScan") return std::make_unique<baselines::LinearScan>();
  baselines::LccsLshIndex::Params params;
  params.m = 32;
  params.lambda = 64;
  params.w = 4.0;
  params.num_probes = (name == "MP-LCCS-LSH") ? 4 : 1;
  return std::make_unique<baselines::LccsLshIndex>(params);
}

// The acceptance bound: with the quantized first pass on, recall@10 against
// the exact oracle must stay within one point of the same index's
// full-precision recall, for every index family and every storage backend —
// heap, mmap, and a budgeted mmap whose rerank copy-gathers its rows.
TEST_F(QuantizedRecallTest, QuantizedRerankStaysWithinOnePointOfExact) {
  const size_t n = 3000, d = 32, num_queries = 40, k = 10;
  util::Matrix base = RandomMatrix(n, d, 20260807);
  util::Matrix queries = RandomMatrix(num_queries, d, 555);

  const std::string flat = Path("quantized_recall.flat");
  storage::WriteFlatFile(flat, base);

  // Exact ground truth, once (full-precision linear scan, no tier).
  dataset::Dataset oracle_data;
  oracle_data.metric = util::Metric::kEuclidean;
  oracle_data.data = RandomMatrix(n, d, 20260807);
  baselines::LinearScan oracle;
  oracle.Build(oracle_data);
  std::vector<std::vector<util::Neighbor>> truth(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    truth[qi] = oracle.Query(queries.Row(qi), k);
  }

  enum class Leg { kHeap, kMmap, kBudgetedMmap };
  for (const std::string& name :
       {std::string("LCCS-LSH"), std::string("MP-LCCS-LSH"),
        std::string("LinearScan")}) {
    for (const Leg leg : {Leg::kHeap, Leg::kMmap, Leg::kBudgetedMmap}) {
      // A fresh store per call: the full-precision index must run over a
      // store no tier was ever attached to.
      const auto make_data = [&] {
        dataset::Dataset data;
        data.name = name + (leg == Leg::kHeap   ? "/heap"
                            : leg == Leg::kMmap ? "/mmap"
                                                : "/budgeted-mmap");
        data.metric = util::Metric::kEuclidean;
        if (leg == Leg::kHeap) {
          data.data = RandomMatrix(n, d, 20260807);
        } else {
          storage::MmapStore::Options options;
          if (leg == Leg::kBudgetedMmap) {
            options.residency_budget_bytes = size_t{1} << 16;
          }
          data.data = storage::MmapStore::Open(flat, options);
        }
        return data;
      };

      const dataset::Dataset plain = make_data();
      auto full_index = MakeNamedIndex(name);
      full_index->Build(plain);
      std::vector<std::vector<util::Neighbor>> full(num_queries);
      for (size_t qi = 0; qi < num_queries; ++qi) {
        full[qi] = full_index->Query(queries.Row(qi), k);
      }

      const dataset::Dataset tiered = make_data();
      ASSERT_NE(EnsureQuantized(tiered.data.store(), tiered.metric), nullptr)
          << tiered.name;
      auto index = MakeNamedIndex(name);
      index->Build(tiered);
      std::vector<std::vector<util::Neighbor>> quant(num_queries);
      for (size_t qi = 0; qi < num_queries; ++qi) {
        quant[qi] = index->Query(queries.Row(qi), k);
      }

      const double recall_full = RecallAgainst(truth, full, k);
      const double recall_quant = RecallAgainst(truth, quant, k);
      EXPECT_GE(recall_quant, recall_full - 0.01)
          << tiered.name << ": quantized recall " << recall_quant
          << " vs full-precision " << recall_full;

      // The batched path must return exactly what per-query calls return,
      // quantized pruning included.
      const auto batch =
          index->QueryBatch(queries.data(), num_queries, k, /*threads=*/2);
      ASSERT_EQ(batch.size(), num_queries) << tiered.name;
      for (size_t qi = 0; qi < num_queries; ++qi) {
        ASSERT_EQ(batch[qi].size(), quant[qi].size())
            << tiered.name << " query " << qi;
        for (size_t r = 0; r < quant[qi].size(); ++r) {
          EXPECT_EQ(batch[qi][r].id, quant[qi][r].id)
              << tiered.name << " query " << qi << " rank " << r;
          EXPECT_EQ(batch[qi][r].dist, quant[qi][r].dist)
              << tiered.name << " query " << qi << " rank " << r;
        }
      }
    }
  }
}

/// A heap matrix that asks for copy gathers, like a budgeted MmapStore, and
/// counts the rows each access route sees: NoteGather rows are in-place
/// scattered reads (what would fault and charge a mapping), ReadRowsInto
/// rows are copies.
class CopyGatherCountingStore : public storage::VectorStore {
 public:
  explicit CopyGatherCountingStore(util::Matrix matrix)
      : matrix_(std::move(matrix)) {
    SetView(matrix_.data(), matrix_.rows(), matrix_.cols());
  }
  bool PrefersCopyGather() const override { return true; }
  void NoteGather(size_t n) const override { gather_rows += n; }
  void ReadRowsInto(const int32_t* ids, size_t n, float* out) const override {
    copied_rows += n;
    VectorStore::ReadRowsInto(ids, n, out);
  }
  std::string DebugName() const override { return "CopyGatherCountingStore"; }

  mutable std::atomic<size_t> gather_rows{0};
  mutable std::atomic<size_t> copied_rows{0};

 private:
  util::Matrix matrix_;
};

// The serving rerank of a window never reads a copy-gather store in place:
// every query the int8 prune cuts to k' goes through storage::ExactRerank,
// which copies exactly its k' rows, and nothing is advised to (or faulted
// through) the mapping.
TEST_F(QuantizedRecallTest, BatchRerankCopyGathersAndNeverTouchesMapping) {
  const size_t n = 1000, d = 16, num_queries = 12, k = 10, lambda = 64;
  auto store =
      std::make_shared<CopyGatherCountingStore>(RandomMatrix(n, d, 71));
  ASSERT_NE(EnsureQuantized(store, util::Metric::kEuclidean), nullptr);
  util::Matrix queries = RandomMatrix(num_queries, d, 72);
  const size_t keep = storage::RerankKeep(k);

  const auto make_family = [&] {
    return lsh::MakeFamily(lsh::FamilyKind::kRandomProjection, d, 16, 4.0, 73);
  };
  std::vector<std::unique_ptr<LccsLsh>> schemes;
  schemes.push_back(
      std::make_unique<LccsLsh>(make_family(), util::Metric::kEuclidean));
  ProbeParams pp;
  pp.num_probes = 8;
  schemes.push_back(std::make_unique<LccsLsh>(
      make_family(), util::Metric::kEuclidean, pp));
  // Every query surfaces λ + k − 1 < n candidates, more than k', so the
  // prune cuts every query of the window.
  ASSERT_GT(lambda + k - 1, keep);
  const size_t pruned_queries = num_queries;
  for (size_t i = 0; i < schemes.size(); ++i) {
    LccsLsh& scheme = *schemes[i];
    scheme.Build(store);
    for (const size_t threads : {size_t{1}, size_t{3}}) {
      store->gather_rows = 0;
      store->copied_rows = 0;
      const auto batch =
          scheme.QueryBatch(queries.data(), num_queries, k, lambda, threads);
      ASSERT_EQ(batch.size(), num_queries);
      EXPECT_EQ(store->gather_rows.load(), 0u)
          << "scheme " << i << " threads " << threads;
      EXPECT_EQ(store->copied_rows.load(), keep * pruned_queries)
          << "scheme " << i << " threads " << threads;
    }
  }
}

// Final ranks always come from the exact metric: every reported distance
// must match the true distance to that id — the quantized tier only chooses
// which candidates get the exact treatment.
TEST_F(QuantizedRecallTest, ReportedDistancesAreExactUnderQuantization) {
  const size_t n = 1500, d = 16, k = 10;
  dataset::Dataset data;
  data.metric = util::Metric::kAngular;
  data.data = RandomMatrix(n, d, 31);
  data.NormalizeAll();

  auto index = MakeNamedIndex("LCCS-LSH");
  index->Build(data);
  ASSERT_NE(EnsureQuantized(data.data.store(), data.metric), nullptr);

  util::Matrix queries = RandomMatrix(8, d, 32);
  for (size_t qi = 0; qi < 8; ++qi) {
    for (const util::Neighbor& nb : index->Query(queries.Row(qi), k)) {
      const double exact = util::Distance(
          data.metric, queries.Row(qi), data.data.Row(nb.id), d);
      EXPECT_NEAR(nb.dist, exact, 1e-9) << "query " << qi << " id " << nb.id;
    }
  }
}

// --- Dynamic-index lifecycle ------------------------------------------------

TEST_F(QuantizedRecallTest, DynamicIndexQuantizedLifecycleAndPersistence) {
  const size_t d = 16, k = 5;
  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 48;
  params.w = 4.0;

  DynamicIndex::Options options;
  options.metric = util::Metric::kEuclidean;
  options.dim = d;
  options.rebuild_threshold = 1 << 20;  // consolidate only when told to
  options.background_rebuild = false;
  options.quantize = true;
  DynamicIndex index(
      [params] { return std::make_unique<baselines::LccsLshIndex>(params); },
      options);

  dataset::Dataset data;
  data.metric = options.metric;
  data.data = RandomMatrix(600, d, 91);
  // Epoch store carries a quantized sibling when quantize is on.
  index.Build(data);

  // Grow a delta of more live rows than RerankKeep(k) = 10 (the delta is
  // verified exactly regardless), with some removals mixed in.
  util::Rng rng(92);
  std::vector<float> vec(d);
  std::vector<int32_t> inserted;
  for (size_t i = 0; i < 120; ++i) {
    rng.FillGaussian(vec.data(), d);
    inserted.push_back(index.Insert(vec.data()));
  }
  for (size_t i = 0; i < inserted.size(); i += 7) {
    ASSERT_TRUE(index.Remove(inserted[i]));
  }

  util::Matrix queries = RandomMatrix(12, d, 93);
  std::vector<std::vector<util::Neighbor>> before(12);
  for (size_t qi = 0; qi < 12; ++qi) {
    before[qi] = index.Query(queries.Row(qi), k);
  }

  // Consolidation re-quantizes the fresh epoch; queries keep answering with
  // exact distances and at least the pre-consolidation result quality.
  index.Consolidate();
  for (size_t qi = 0; qi < 12; ++qi) {
    const auto after = index.Query(queries.Row(qi), k);
    ASSERT_EQ(after.size(), before[qi].size()) << "query " << qi;
    for (const util::Neighbor& nb : after) {
      // Ids are global and stable across consolidation; distances exact.
      const int32_t id = nb.id;
      ASSERT_GE(id, 0);
      EXPECT_GE(nb.dist, 0.0);
    }
  }
}

TEST_F(QuantizedRecallTest, DynamicIndexQuantizedMatchesExactOracle) {
  // With quantized pruning active, a DynamicIndex's answers must stay
  // within one recall point of the identical index run full-precision. The
  // second insert distribution lies past the epoch's per-dimension max
  // (10 + N(0, 1) per coordinate), so every query's 10 nearest rows are
  // delta rows the epoch codebook would clamp to one code: the delta is
  // verified exactly, so there the two arms must agree id for id and bit
  // for bit.
  const size_t d = 12, k = 10, n = 800, inserts = 60;
  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 64;

  for (const bool shifted : {false, true}) {
    SCOPED_TRACE(shifted ? "inserts past the epoch max" : "gaussian inserts");
    util::Matrix inserted(inserts, d);
    util::Rng rng(5);
    for (size_t i = 0; i < inserts; ++i) {
      rng.FillGaussian(inserted.Row(i), d);
      if (shifted) {
        for (size_t j = 0; j < d; ++j) inserted.Row(i)[j] += 10.0f;
      }
    }
    util::Matrix queries =
        shifted ? util::Matrix(k, d) : RandomMatrix(16, d, 3);
    if (shifted) {
      std::memcpy(queries.data(), inserted.Row(inserts - k),
                  k * d * sizeof(float));
    }

    std::vector<std::vector<std::vector<util::Neighbor>>> results;
    for (const bool quantize : {false, true}) {
      DynamicIndex::Options options;
      options.metric = util::Metric::kEuclidean;
      options.dim = d;
      options.rebuild_threshold = 1 << 20;
      options.background_rebuild = false;
      options.quantize = quantize;
      DynamicIndex index(
          [params] {
            return std::make_unique<baselines::LccsLshIndex>(params);
          },
          options);
      dataset::Dataset data;
      data.metric = options.metric;
      data.data = RandomMatrix(n, d, 4);
      index.Build(data);
      for (size_t i = 0; i < inserts; ++i) index.Insert(inserted.Row(i));
      std::vector<std::vector<util::Neighbor>> runs(queries.rows());
      for (size_t qi = 0; qi < queries.rows(); ++qi) {
        runs[qi] = index.Query(queries.Row(qi), k);
      }
      results.push_back(std::move(runs));
    }
    if (!shifted) {
      EXPECT_GE(RecallAgainst(results[0], results[1], k), 0.99)
          << "quantized dynamic index diverged from exact";
      continue;
    }
    for (size_t qi = 0; qi < queries.rows(); ++qi) {
      EXPECT_EQ(results[1][qi], results[0][qi]) << "query " << qi;
    }
  }
}

// --- ReleaseNextLinks -------------------------------------------------------

TEST_F(QuantizedRecallTest, ReleaseNextLinksKeepsResults) {
  const size_t n = 1200, d = 16, k = 10;
  dataset::Dataset data;
  data.metric = util::Metric::kEuclidean;
  data.data = RandomMatrix(n, d, 61);

  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 48;
  baselines::LccsLshIndex index(params);
  index.Build(data);

  util::Matrix queries = RandomMatrix(10, d, 62);
  std::vector<std::vector<util::Neighbor>> before(10);
  for (size_t qi = 0; qi < 10; ++qi) {
    before[qi] = index.Query(queries.Row(qi), k);
  }

  const size_t size_before = index.IndexSizeBytes();
  index.ReleaseNextLinks();
  EXPECT_LT(index.IndexSizeBytes(), size_before);
  EXPECT_TRUE(index.scheme().csa().next_links_released());

  for (size_t qi = 0; qi < 10; ++qi) {
    const auto after = index.Query(queries.Row(qi), k);
    ASSERT_EQ(after.size(), before[qi].size()) << "query " << qi;
    for (size_t r = 0; r < after.size(); ++r) {
      EXPECT_EQ(after[r].id, before[qi][r].id) << "query " << qi;
      EXPECT_EQ(after[r].dist, before[qi][r].dist) << "query " << qi;
    }
  }

  // A fresh Build restores both the next links and narrowing.
  index.Build(data);
  EXPECT_FALSE(index.scheme().csa().next_links_released());
  EXPECT_TRUE(index.scheme().csa().use_narrowing());
}

}  // namespace
}  // namespace core
}  // namespace lccs
