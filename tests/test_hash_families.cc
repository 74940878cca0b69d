#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lsh/bit_sampling.h"
#include "lsh/cross_polytope.h"
#include "lsh/family_factory.h"
#include "lsh/projection.h"
#include "lsh/random_projection.h"
#include "lsh/sign_projection.h"
#include "util/matrix.h"
#include "util/random.h"
#include "util/simd_distance.h"

namespace lccs {
namespace lsh {
namespace {

std::vector<float> RandomUnitVector(size_t d, util::Rng* rng) {
  std::vector<float> v(d);
  rng->FillGaussian(v.data(), d);
  util::NormalizeInPlace(v.data(), d);
  return v;
}

// ---------------------------------------------------------------------------
// Scalar references the families are checked against.

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The m x d Gaussian rows a projection family built from `seed` uses, and
// (for random projection, which draws them next) its m offsets in [0, w).
struct ReferenceProjections {
  util::Matrix a;
  std::vector<float> b;
};

ReferenceProjections DrawReference(size_t d, size_t m, double w,
                                   uint64_t seed) {
  ReferenceProjections ref{util::Matrix(m, d), std::vector<float>(m)};
  util::Rng rng(seed);
  rng.FillGaussian(ref.a.data(), m * d);
  for (float& b : ref.b) b = static_cast<float>(rng.Uniform(0.0, w));
  return ref;
}

// Query vectors for a shape: two Gaussian ones, and both scaled by 1000.
std::vector<std::vector<float>> KernelInputs(size_t d, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> inputs;
  for (int r = 0; r < 2; ++r) {
    std::vector<float> v(d);
    rng.FillGaussian(v.data(), d);
    std::vector<float> scaled(v);
    for (float& x : scaled) x *= 1000.0f;
    inputs.push_back(v);
    inputs.push_back(scaled);
  }
  return inputs;
}

constexpr size_t kKernelDims[] = {1,  7,   8,   9,   15,  16,  17,
                                  31, 32,  33,  255, 256, 257, 420};
constexpr size_t kKernelFuncs[] = {1, 15, 16, 17, 64, 100};
constexpr util::SimdTier kTiers[] = {util::SimdTier::kScalar,
                                     util::SimdTier::kAvx2};

// The Lv et al. probing sequence computed straight from a reference
// projection: what RandomProjectionFamily's alternatives must equal, value
// for value, for every in-range projection.
std::vector<AltHash> ReferenceProbes(double proj, size_t max_alts) {
  std::vector<AltHash> out;
  if (max_alts == 0) return out;
  const auto base = static_cast<HashValue>(std::floor(proj));
  const double frac = proj - std::floor(proj);
  for (int step = 1; out.size() < max_alts; ++step) {
    const double up = (static_cast<double>(step) - frac);
    const double down = (frac + static_cast<double>(step) - 1.0);
    if (down <= up) {
      out.push_back({base - step, down * down});
      if (out.size() < max_alts) out.push_back({base + step, up * up});
    } else {
      out.push_back({base + step, up * up});
      if (out.size() < max_alts) out.push_back({base - step, down * down});
    }
    if (step > 64) break;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const AltHash& x, const AltHash& y) {
                     return x.score < y.score;
                   });
  if (out.size() > max_alts) out.resize(max_alts);
  return out;
}

void ExpectSameAlternatives(const std::vector<AltHash>& got,
                            const std::vector<AltHash>& want,
                            const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << where << " alt " << i;
    EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << where << " alt " << i;
  }
}

// ---------------------------------------------------------------------------
// Random projection family (Euclidean, Eq. (1)-(2)).

TEST(RandomProjectionTest, DeterministicGivenSeed) {
  RandomProjectionFamily a(16, 8, 4.0, 99), b(16, 8, 4.0, 99);
  util::Rng rng(1);
  std::vector<float> v(16);
  rng.FillGaussian(v.data(), v.size());
  std::vector<HashValue> ha(8), hb(8);
  a.Hash(v.data(), ha.data());
  b.Hash(v.data(), hb.data());
  EXPECT_EQ(ha, hb);
}

TEST(RandomProjectionTest, TranslationByWShiftsBucketByOne) {
  // h = floor((a·v + b)/w): moving v so that a·v increases by exactly w must
  // increase the bucket by exactly 1. Construct the move along a itself:
  // v' = v + (w/|a|²)·a, with a the reference draw of the same seed.
  const size_t d = 8;
  const double w = 3.0;
  RandomProjectionFamily family(d, 1, w, 21);
  const ReferenceProjections ref = DrawReference(d, 1, w, 21);
  const float* a = ref.a.Row(0);
  const double scale = w / util::Dot(a, a, d);
  auto projection = [&](const std::vector<float>& v) {
    return (util::Dot(a, v.data(), d) + ref.b[0]) / w;
  };
  // Float rounding of v' moves its projection by far less than 0.01, so
  // away from a bucket edge the floor is unambiguous on both sides.
  auto clear_of_edge = [](double p) {
    const double frac = p - std::floor(p);
    return frac >= 0.01 && frac <= 0.99;
  };
  util::Rng rng(3);
  size_t checked = 0;
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<float> v(d);
    rng.FillGaussian(v.data(), d);
    std::vector<float> moved(d);
    for (size_t j = 0; j < d; ++j) {
      moved[j] = static_cast<float>(v[j] + scale * a[j]);
    }
    const double p0 = projection(v);
    const double p1 = projection(moved);
    if (!clear_of_edge(p0) || !clear_of_edge(p1)) continue;
    HashValue h0 = 0, h1 = 0;
    family.Hash(v.data(), &h0);
    family.Hash(moved.data(), &h1);
    EXPECT_EQ(h0, static_cast<HashValue>(std::floor(p0))) << "trial " << trial;
    EXPECT_EQ(h1, h0 + 1) << "trial " << trial;
    ++checked;
  }
  EXPECT_GE(checked, 12u);
}

TEST(RandomProjectionTest, CollisionProbabilityFormulaEndpoints) {
  RandomProjectionFamily family(4, 1, 4.0, 5);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(0.0), 1.0);
  // Monotone decreasing in distance.
  double prev = 1.0;
  for (double tau = 0.25; tau < 40.0; tau *= 2.0) {
    const double p = family.CollisionProbability(tau);
    EXPECT_LT(p, prev);
    EXPECT_GT(p, 0.0);
    prev = p;
  }
}

// Empirical collision rate must match Eq. (2) — this is the property the
// entire theory of Section 5 rests on.
class RandomProjectionCollisionSweep
    : public ::testing::TestWithParam<double> {};

TEST_P(RandomProjectionCollisionSweep, EmpiricalMatchesFormula) {
  const double tau = GetParam();
  const size_t d = 32;
  const double w = 4.0;
  const size_t m = 4000;  // one collision sample per function
  RandomProjectionFamily family(d, m, w, 1234);
  util::Rng rng(777);
  // Two points at Euclidean distance tau along a random direction.
  std::vector<float> a(d), b(d);
  rng.FillGaussian(a.data(), d);
  auto dir = RandomUnitVector(d, &rng);
  for (size_t j = 0; j < d; ++j) {
    b[j] = a[j] + static_cast<float>(tau * dir[j]);
  }
  std::vector<HashValue> ha(m), hb(m);
  family.Hash(a.data(), ha.data());
  family.Hash(b.data(), hb.data());
  size_t collisions = 0;
  for (size_t f = 0; f < m; ++f) collisions += (ha[f] == hb[f]);
  const double empirical = static_cast<double>(collisions) / m;
  const double expected = family.CollisionProbability(tau);
  EXPECT_NEAR(empirical, expected, 0.03) << "tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(Distances, RandomProjectionCollisionSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0, 16.0));

TEST(RandomProjectionTest, AlternativesSortedAndExcludePrimary) {
  RandomProjectionFamily family(8, 4, 2.0, 31);
  util::Rng rng(4);
  std::vector<float> v(8);
  rng.FillGaussian(v.data(), 8);
  std::vector<HashValue> h(4);
  std::vector<std::vector<AltHash>> all_alts;
  family.HashWithAlternatives(v.data(), 6, h.data(), &all_alts);
  for (size_t f = 0; f < 4; ++f) {
    const std::vector<AltHash>& alts = all_alts[f];
    ASSERT_EQ(alts.size(), 6u);
    const HashValue primary = h[f];
    double prev = -1.0;
    std::set<HashValue> seen;
    for (const auto& alt : alts) {
      EXPECT_NE(alt.value, primary);
      EXPECT_GE(alt.score, prev);
      prev = alt.score;
      EXPECT_TRUE(seen.insert(alt.value).second) << "duplicate alternative";
    }
    // The two nearest buckets (h±1) must be the first two alternatives.
    std::set<HashValue> first_two{alts[0].value, alts[1].value};
    EXPECT_TRUE(first_two.count(primary + 1) == 1);
    EXPECT_TRUE(first_two.count(primary - 1) == 1);
  }
}

TEST(RandomProjectionTest, SizeBytesCountsParameters) {
  RandomProjectionFamily family(10, 3, 1.0, 8);
  EXPECT_EQ(family.SizeBytes(), (10 * 3 + 3) * sizeof(float));
}

// ---------------------------------------------------------------------------
// Cross-polytope family (Angular, Eq. (3)-(4)).

TEST(FastHadamardTest, MatchesDefinitionOnSize4) {
  // H_4 rows: ++++, +-+-, ++--, +--+ (unnormalized).
  float v[] = {1.0f, 2.0f, 3.0f, 4.0f};
  FastHadamardTransform(v, 4);
  EXPECT_FLOAT_EQ(v[0], 10.0f);
  EXPECT_FLOAT_EQ(v[1], -2.0f);
  EXPECT_FLOAT_EQ(v[2], -4.0f);
  EXPECT_FLOAT_EQ(v[3], 0.0f);
}

TEST(FastHadamardTest, PreservesNormUpToSqrtN) {
  util::Rng rng(5);
  std::vector<float> v(64);
  rng.FillGaussian(v.data(), v.size());
  const double norm_before = util::Norm(v.data(), v.size());
  FastHadamardTransform(v.data(), v.size());
  const double norm_after = util::Norm(v.data(), v.size());
  EXPECT_NEAR(norm_after, norm_before * 8.0, 1e-3);  // sqrt(64) = 8
}

TEST(FastHadamardTest, InvolutionUpToScale) {
  util::Rng rng(6);
  std::vector<float> v(16), orig;
  rng.FillGaussian(v.data(), v.size());
  orig.assign(v.begin(), v.end());
  FastHadamardTransform(v.data(), 16);
  FastHadamardTransform(v.data(), 16);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(v[i], orig[i] * 16.0f, 1e-3);
  }
}

TEST(CrossPolytopeTest, HashRangeIsTwoDpad) {
  CrossPolytopeFamily family(10, 32, 77);  // dpad = 16
  EXPECT_EQ(family.padded_dim(), 16u);
  EXPECT_EQ(family.num_buckets(), 32u);
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    auto v = RandomUnitVector(10, &rng);
    std::vector<HashValue> h(32);
    family.Hash(v.data(), h.data());
    for (HashValue value : h) {
      EXPECT_GE(value, 0);
      EXPECT_LT(value, 32);
    }
  }
}

TEST(CrossPolytopeTest, ScaleInvariant) {
  CrossPolytopeFamily family(8, 16, 13);
  util::Rng rng(8);
  auto v = RandomUnitVector(8, &rng);
  std::vector<float> scaled(v);
  for (auto& x : scaled) x *= 42.0f;
  std::vector<HashValue> h1(16), h2(16);
  family.Hash(v.data(), h1.data());
  family.Hash(scaled.data(), h2.data());
  EXPECT_EQ(h1, h2);
}

TEST(CrossPolytopeTest, OppositeVectorsGetOppositeVertex) {
  CrossPolytopeFamily family(8, 16, 17);
  util::Rng rng(9);
  auto v = RandomUnitVector(8, &rng);
  std::vector<float> neg(v);
  for (auto& x : neg) x = -x;
  const auto dpad = static_cast<HashValue>(family.padded_dim());
  std::vector<HashValue> hv(16), hn(16);
  family.Hash(v.data(), hv.data());
  family.Hash(neg.data(), hn.data());
  for (size_t f = 0; f < 16; ++f) {
    EXPECT_EQ((hv[f] + dpad) % (2 * dpad), hn[f]);
  }
}

TEST(CrossPolytopeTest, CloserPairsCollideMoreOften) {
  const size_t d = 24;
  const size_t m = 1500;
  CrossPolytopeFamily family(d, m, 2024);
  util::Rng rng(10);
  auto base = RandomUnitVector(d, &rng);
  auto make_at_angle = [&](double angle) {
    auto ortho = RandomUnitVector(d, &rng);
    // Gram-Schmidt against base.
    const double proj = util::Dot(ortho.data(), base.data(), d);
    for (size_t j = 0; j < d; ++j) {
      ortho[j] -= static_cast<float>(proj * base[j]);
    }
    util::NormalizeInPlace(ortho.data(), d);
    std::vector<float> out(d);
    for (size_t j = 0; j < d; ++j) {
      out[j] = static_cast<float>(std::cos(angle) * base[j] +
                                  std::sin(angle) * ortho[j]);
    }
    return out;
  };
  auto collision_rate = [&](const std::vector<float>& other) {
    std::vector<HashValue> h1(m), h2(m);
    family.Hash(base.data(), h1.data());
    family.Hash(other.data(), h2.data());
    size_t collisions = 0;
    for (size_t f = 0; f < m; ++f) collisions += (h1[f] == h2[f]);
    return static_cast<double>(collisions) / m;
  };
  const double near = collision_rate(make_at_angle(0.3));
  const double far = collision_rate(make_at_angle(1.2));
  EXPECT_GT(near, far + 0.05);
}

TEST(CrossPolytopeTest, AlternativesAreValidVertices) {
  CrossPolytopeFamily family(8, 4, 3);
  util::Rng rng(11);
  auto v = RandomUnitVector(8, &rng);
  std::vector<HashValue> h(4);
  std::vector<std::vector<AltHash>> all_alts;
  family.HashWithAlternatives(v.data(), 5, h.data(), &all_alts);
  for (size_t f = 0; f < 4; ++f) {
    const std::vector<AltHash>& alts = all_alts[f];
    ASSERT_EQ(alts.size(), 5u);
    const HashValue primary = h[f];
    double prev = -1.0;
    for (const auto& alt : alts) {
      EXPECT_NE(alt.value, primary);
      EXPECT_GE(alt.value, 0);
      EXPECT_LT(alt.value, static_cast<HashValue>(family.num_buckets()));
      EXPECT_GE(alt.score, prev);
      prev = alt.score;
    }
  }
}

TEST(CrossPolytopeTest, CollisionProbabilityMonotone) {
  CrossPolytopeFamily family(64, 1, 1);
  double prev = 1.0;
  for (double tau = 0.1; tau < 1.9; tau += 0.2) {
    const double p = family.CollisionProbability(tau);
    EXPECT_LT(p, prev);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(family.CollisionProbability(0.0), 1.0);
}

// ---------------------------------------------------------------------------
// Sign projection (hyperplane) family.

TEST(SignProjectionTest, BinaryOutput) {
  SignProjectionFamily family(16, 20, 101);
  util::Rng rng(12);
  auto v = RandomUnitVector(16, &rng);
  std::vector<HashValue> h(20);
  family.Hash(v.data(), h.data());
  for (HashValue value : h) {
    EXPECT_TRUE(value == 0 || value == 1);
  }
}

TEST(SignProjectionTest, CollisionProbabilityIsOneMinusThetaOverPi) {
  SignProjectionFamily family(8, 1, 2);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(M_PI), 0.0);
  EXPECT_NEAR(family.CollisionProbability(M_PI / 2), 0.5, 1e-12);
}

TEST(SignProjectionTest, EmpiricalCollisionMatchesTheta) {
  const size_t d = 24;
  const size_t m = 4000;
  SignProjectionFamily family(d, m, 303);
  util::Rng rng(13);
  auto a = RandomUnitVector(d, &rng);
  auto b = RandomUnitVector(d, &rng);
  const double theta = util::AngularDistance(a.data(), b.data(), d);
  std::vector<HashValue> ha(m), hb(m);
  family.Hash(a.data(), ha.data());
  family.Hash(b.data(), hb.data());
  size_t collisions = 0;
  for (size_t f = 0; f < m; ++f) collisions += (ha[f] == hb[f]);
  EXPECT_NEAR(static_cast<double>(collisions) / m, 1.0 - theta / M_PI, 0.03);
}

TEST(SignProjectionTest, AlternativeIsTheFlip) {
  SignProjectionFamily family(8, 4, 5);
  util::Rng rng(14);
  auto v = RandomUnitVector(8, &rng);
  std::vector<HashValue> h(4);
  std::vector<std::vector<AltHash>> alts;
  family.HashWithAlternatives(v.data(), 3, h.data(), &alts);
  for (size_t f = 0; f < 4; ++f) {
    ASSERT_EQ(alts[f].size(), 1u);  // only one possible flip
    EXPECT_EQ(alts[f][0].value, 1 - h[f]);
  }
}

// ---------------------------------------------------------------------------
// Bit sampling family (Hamming).

TEST(BitSamplingTest, HashReadsSampledCoordinates) {
  BitSamplingFamily family(32, 16, 404);
  std::vector<float> v(32, 0.0f);
  v[family.sampled_index(3)] = 1.0f;
  std::vector<HashValue> h(16);
  family.Hash(v.data(), h.data());
  EXPECT_EQ(h[3], 1);
  for (size_t f = 0; f < 16; ++f) {
    EXPECT_EQ(h[f], family.sampled_index(f) == family.sampled_index(3) ? 1 : 0);
  }
}

TEST(BitSamplingTest, AlternativeIsTheFlip) {
  BitSamplingFamily family(32, 16, 405);
  util::Rng rng(15);
  std::vector<float> v(32);
  for (float& bit : v) bit = rng.UniformDouble() < 0.5 ? 1.0f : 0.0f;
  std::vector<HashValue> expected_h(16);
  family.Hash(v.data(), expected_h.data());
  for (size_t max_alts : {0, 1, 3}) {
    std::vector<HashValue> h(16);
    std::vector<std::vector<AltHash>> alts;
    family.HashWithAlternatives(v.data(), max_alts, h.data(), &alts);
    EXPECT_EQ(h, expected_h);
    ASSERT_EQ(alts.size(), 16u);
    for (size_t f = 0; f < 16; ++f) {
      if (max_alts == 0) {
        EXPECT_TRUE(alts[f].empty()) << "f=" << f;
        continue;
      }
      ASSERT_EQ(alts[f].size(), 1u) << "max_alts=" << max_alts << " f=" << f;
      EXPECT_EQ(alts[f][0].value, 1 - h[f]);
      EXPECT_EQ(alts[f][0].score, 1.0);
    }
  }
}

TEST(BitSamplingTest, CollisionProbabilityLinearInDistance) {
  BitSamplingFamily family(100, 1, 1);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(25.0), 0.75);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(100.0), 0.0);
  EXPECT_DOUBLE_EQ(family.CollisionProbability(200.0), 0.0);
}

// ---------------------------------------------------------------------------
// Factory.

TEST(FamilyFactoryTest, ProducesRequestedKinds) {
  for (FamilyKind kind :
       {FamilyKind::kRandomProjection, FamilyKind::kCrossPolytope,
        FamilyKind::kSignProjection, FamilyKind::kBitSampling}) {
    auto family = MakeFamily(kind, 16, 4, 2.0, 9);
    ASSERT_NE(family, nullptr);
    EXPECT_EQ(family->num_functions(), 4u);
    EXPECT_EQ(family->dim(), 16u);
    EXPECT_EQ(family->name(), FamilyKindName(kind));
  }
}

TEST(FamilyFactoryTest, DefaultFamilies) {
  EXPECT_EQ(DefaultFamilyFor(util::Metric::kEuclidean),
            FamilyKind::kRandomProjection);
  EXPECT_EQ(DefaultFamilyFor(util::Metric::kAngular),
            FamilyKind::kCrossPolytope);
  EXPECT_EQ(DefaultFamilyFor(util::Metric::kHamming),
            FamilyKind::kBitSampling);
}

// ---------------------------------------------------------------------------
// Transposed projection kernel: every dot, projection and hash is bit-equal
// to a scalar util::Dot over the m x d matrix the same seed draws (the
// references are at the top of this file).

TEST(ProjectionMatrixTest, DotsBitEqualScalarDotOnBothTiers) {
  for (size_t d : kKernelDims) {
    for (size_t m : kKernelFuncs) {
      const uint64_t seed = 1000 + d * 7 + m;
      util::Rng rng(seed);
      const ProjectionMatrix proj(d, m, &rng);
      ASSERT_EQ(proj.dim(), d);
      ASSERT_EQ(proj.num_functions(), m);
      const ReferenceProjections ref = DrawReference(d, m, 1.0, seed);
      for (const std::vector<float>& v : KernelInputs(d, seed)) {
        for (util::SimdTier tier : kTiers) {
          std::vector<double> dots(m);
          size_t next = 0;
          proj.ForEachBlock(
              v.data(),
              [&](size_t first, size_t count, const double* block) {
                ASSERT_EQ(first, next);
                ASSERT_EQ(count, std::min(ProjectionMatrix::kBlock,
                                          m - first));
                for (size_t j = 0; j < count; ++j) dots[first + j] = block[j];
                next = first + count;
              },
              tier);
          ASSERT_EQ(next, m);
          for (size_t f = 0; f < m; ++f) {
            const double expected = util::Dot(ref.a.Row(f), v.data(), d);
            ASSERT_EQ(Bits(dots[f]), Bits(expected))
                << "d=" << d << " m=" << m << " f=" << f
                << " tier=" << util::SimdTierName(tier);
          }
        }
      }
    }
  }
}

TEST(RandomProjectionTest, HashBitExactAgainstScalarReference) {
  const double w = 4.0;
  for (size_t d : kKernelDims) {
    for (size_t m : kKernelFuncs) {
      const uint64_t seed = 2000 + d * 7 + m;
      const RandomProjectionFamily family(d, m, w, seed);
      const ReferenceProjections ref = DrawReference(d, m, w, seed);
      std::vector<HashValue> h(m), h_alt(m);
      std::vector<std::vector<AltHash>> alts;
      for (const std::vector<float>& v : KernelInputs(d, seed)) {
        family.Hash(v.data(), h.data());
        family.HashWithAlternatives(v.data(), 2, h_alt.data(), &alts);
        ASSERT_EQ(h_alt, h);
        for (size_t f = 0; f < m; ++f) {
          const double proj =
              (util::Dot(ref.a.Row(f), v.data(), d) + ref.b[f]) / w;
          const std::string where = "d=" + std::to_string(d) +
                                    " m=" + std::to_string(m) +
                                    " f=" + std::to_string(f);
          ASSERT_EQ(h[f], static_cast<HashValue>(std::floor(proj))) << where;
          // The two nearest probes are scored by the squared distances from
          // the projection to both bucket boundaries, so they expose it.
          ExpectSameAlternatives(alts[f], ReferenceProbes(proj, 2), where);
        }
      }
    }
  }
}

TEST(SignProjectionTest, HashBitExactAgainstScalarReference) {
  for (size_t d : kKernelDims) {
    for (size_t m : kKernelFuncs) {
      const uint64_t seed = 3000 + d * 7 + m;
      const SignProjectionFamily family(d, m, seed);
      const ReferenceProjections ref = DrawReference(d, m, 1.0, seed);
      std::vector<HashValue> h(m), h_alt(m);
      std::vector<std::vector<AltHash>> all_alts;
      for (const std::vector<float>& v : KernelInputs(d, seed)) {
        family.Hash(v.data(), h.data());
        family.HashWithAlternatives(v.data(), 1, h_alt.data(), &all_alts);
        ASSERT_EQ(h_alt, h);
        for (size_t f = 0; f < m; ++f) {
          const double dot = util::Dot(ref.a.Row(f), v.data(), d);
          ASSERT_EQ(h[f], dot >= 0.0 ? 1 : 0)
              << "d=" << d << " m=" << m << " f=" << f;
          // The flip alternative's score is the squared margin, so it
          // exposes the dot.
          ASSERT_EQ(all_alts[f].size(), 1u);
          ASSERT_EQ(Bits(all_alts[f][0].score), Bits(dot * dot))
              << "d=" << d << " m=" << m << " f=" << f;
        }
      }
    }
  }
}

TEST(HashWithAlternativesTest, RandomProjectionMatchesReferenceProbes) {
  const double w = 4.0;
  for (size_t d : {7, 128, 420}) {
    for (size_t m : {1, 17, 64}) {
      const uint64_t seed = 4000 + d + m;
      const RandomProjectionFamily family(d, m, w, seed);
      const ReferenceProjections ref = DrawReference(d, m, w, seed);
      for (const std::vector<float>& v : KernelInputs(d, seed)) {
        for (size_t max_alts : {0, 1, 4, 7, 200}) {
          std::vector<HashValue> h(m), expected_h(m);
          std::vector<std::vector<AltHash>> alts;
          family.HashWithAlternatives(v.data(), max_alts, h.data(), &alts);
          family.Hash(v.data(), expected_h.data());
          EXPECT_EQ(h, expected_h);
          ASSERT_EQ(alts.size(), m);
          for (size_t f = 0; f < m; ++f) {
            const double proj =
                (util::Dot(ref.a.Row(f), v.data(), d) + ref.b[f]) / w;
            const std::string where = "d=" + std::to_string(d) +
                                      " m=" + std::to_string(m) +
                                      " f=" + std::to_string(f);
            ExpectSameAlternatives(alts[f], ReferenceProbes(proj, max_alts),
                                   where);
          }
        }
      }
    }
  }
}

// The HashWithAlternatives contract, for every family: the hash string is
// Hash's, and each function's list replaces what `alts` held, holds at most
// max_alts values other than the primary one, and ascends in score.
TEST(HashWithAlternativesTest, EveryFamilyKeepsTheContract) {
  for (FamilyKind kind :
       {FamilyKind::kRandomProjection, FamilyKind::kSignProjection,
        FamilyKind::kCrossPolytope, FamilyKind::kBitSampling,
        FamilyKind::kMinHash}) {
    const size_t d = 20, m = 18;
    const auto family = MakeFamily(kind, d, m, 2.0, 77);
    util::Rng rng(78);
    std::vector<float> v(d);
    rng.FillGaussian(v.data(), d);
    for (size_t max_alts : {0, 1, 3, 9}) {
      std::vector<HashValue> h(m), expected_h(m);
      // Stale contents must be replaced, not appended to.
      std::vector<std::vector<AltHash>> alts(m + 3,
                                             std::vector<AltHash>(2));
      family->HashWithAlternatives(v.data(), max_alts, h.data(), &alts);
      family->Hash(v.data(), expected_h.data());
      EXPECT_EQ(h, expected_h) << FamilyKindName(kind);
      ASSERT_EQ(alts.size(), m);
      for (size_t f = 0; f < m; ++f) {
        const std::string where = std::string(FamilyKindName(kind)) +
                                  " max_alts=" + std::to_string(max_alts) +
                                  " f=" + std::to_string(f);
        EXPECT_LE(alts[f].size(), max_alts) << where;
        for (size_t i = 0; i < alts[f].size(); ++i) {
          EXPECT_NE(alts[f][i].value, h[f]) << where << " alt " << i;
          if (i > 0) {
            EXPECT_GE(alts[f][i].score, alts[f][i - 1].score)
                << where << " alt " << i;
          }
        }
      }
    }
  }
}

// NaN, ±inf and out-of-range coordinates: each dot is the same on both
// tiers (bit for bit, or NaN on both), and the floor step saturates to
// [INT32_MIN, INT32_MAX] with NaN at INT32_MIN instead of an undefined cast.
TEST(RandomProjectionTest, NonFiniteAndHugeCoordinatesHashDeterministically) {
  const size_t d = 9, m = 20;
  const double w = 4.0;
  const uint64_t seed = 55;
  const RandomProjectionFamily family(d, m, w, seed);
  const ReferenceProjections ref = DrawReference(d, m, w, seed);
  util::Rng rng(seed);
  const ProjectionMatrix proj(d, m, &rng);
  constexpr HashValue kMin = std::numeric_limits<HashValue>::min();
  constexpr HashValue kMax = std::numeric_limits<HashValue>::max();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), 1e30f,
                            -1e30f};
  util::Rng vrng(56);
  size_t saw_nan = 0, saw_max = 0, saw_min = 0;
  for (float special : specials) {
    for (size_t pos : {size_t{0}, size_t{4}, d - 1}) {
      std::vector<float> v(d);
      vrng.FillGaussian(v.data(), d);
      v[pos] = special;
      std::vector<double> tier_dots[2];
      for (int t = 0; t < 2; ++t) {
        tier_dots[t].resize(m);
        proj.ForEachBlock(
            v.data(),
            [&](size_t first, size_t count, const double* block) {
              for (size_t j = 0; j < count; ++j) {
                tier_dots[t][first + j] = block[j];
              }
            },
            kTiers[t]);
      }
      std::vector<HashValue> h(m), again(m);
      std::vector<std::vector<AltHash>> alts;
      family.Hash(v.data(), h.data());
      family.HashWithAlternatives(v.data(), 4, again.data(), &alts);
      EXPECT_EQ(h, again);
      for (size_t f = 0; f < m; ++f) {
        const double dot = util::Dot(ref.a.Row(f), v.data(), d);
        for (int t = 0; t < 2; ++t) {
          if (std::isnan(dot)) {
            EXPECT_TRUE(std::isnan(tier_dots[t][f]));
          } else {
            EXPECT_EQ(Bits(tier_dots[t][f]), Bits(dot));
          }
        }
        const double p = (dot + ref.b[f]) / w;
        HashValue expected;
        if (std::isnan(p)) {
          expected = kMin;
          ++saw_nan;
        } else if (p >= static_cast<double>(kMax)) {
          expected = kMax;
          ++saw_max;
        } else if (p <= static_cast<double>(kMin)) {
          expected = kMin;
          ++saw_min;
        } else {
          expected = static_cast<HashValue>(std::floor(p));
        }
        EXPECT_EQ(h[f], expected) << "special=" << special << " f=" << f;
        // A saturated or NaN bucket has no neighbours to probe.
        if (expected == kMin || expected == kMax) {
          EXPECT_TRUE(alts[f].empty());
        }
      }
    }
  }
  EXPECT_GT(saw_nan, 0u);
  EXPECT_GT(saw_max, 0u);
  EXPECT_GT(saw_min, 0u);
}

TEST(SignProjectionTest, NonFiniteCoordinatesHashDeterministically) {
  const size_t d = 9, m = 20;
  const SignProjectionFamily family(d, m, 66);
  const ReferenceProjections ref = DrawReference(d, m, 1.0, 66);
  for (float special : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(), 1e30f}) {
    std::vector<float> v(d, 0.5f);
    v[3] = special;
    std::vector<HashValue> h(m);
    family.Hash(v.data(), h.data());
    for (size_t f = 0; f < m; ++f) {
      const double dot = util::Dot(ref.a.Row(f), v.data(), d);
      EXPECT_EQ(h[f], dot >= 0.0 ? 1 : 0);  // NaN hashes to 0
    }
  }
}

}  // namespace
}  // namespace lsh
}  // namespace lccs
