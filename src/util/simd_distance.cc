#include "util/simd_distance.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/matrix.h"

#if defined(__x86_64__) || defined(__i386__)
#define LCCS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace lccs {
namespace util {
namespace {

// Rows scored per unrolled step of the batched kernels. Four rows keep one
// accumulator register per row (plus the shared query lanes) without
// spilling, and give the out-of-order core independent FMA chains to hide
// the load latency of the gathered candidate rows.
constexpr size_t kGroup = 4;

// ---------------------------------------------------------------------------
// Scalar reference kernels (the kScalar tier, and the ground truth the AVX2
// kernels are tested against). L2 / dot / angular live in matrix.cc; only
// the binary metrics are defined here.

double ScalarHamming(const float* a, const float* b, size_t d) {
  size_t diff = 0;
  for (size_t i = 0; i < d; ++i) {
    diff += (IsSetCoordinate(a[i]) != IsSetCoordinate(b[i])) ? 1 : 0;
  }
  return static_cast<double>(diff);
}

double ScalarJaccard(const float* a, const float* b, size_t d) {
  size_t inter = 0, uni = 0;
  for (size_t i = 0; i < d; ++i) {
    const bool ba = IsSetCoordinate(a[i]);
    const bool bb = IsSetCoordinate(b[i]);
    inter += (ba && bb) ? 1 : 0;
    uni += (ba || bb) ? 1 : 0;
  }
  if (uni == 0) return 0.0;  // two empty sets are identical
  return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
}

// Shared final step of the angular distance so the batched path (query norm
// hoisted out of the row loop) and the single-pair path combine the three
// accumulators identically.
double CombineAngular(double dot, double norm2_a, double norm2_b) {
  if (norm2_a == 0.0 || norm2_b == 0.0) return 0.0;
  double cosine = dot / (std::sqrt(norm2_a) * std::sqrt(norm2_b));
  cosine = std::clamp(cosine, -1.0, 1.0);
  return std::acos(cosine);
}

#if LCCS_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels. All are compiled with a `target` attribute, so the
// translation unit itself needs no -mavx2 flag and the binary stays runnable
// on any x86-64: the dispatch below only routes here after a CPUID check.
//
// Every kernel processes up to kGroup rows against one query. Each row owns
// its accumulators and sees exactly the same operation sequence regardless
// of the group size, so a batched call is bit-identical to scoring the rows
// one at a time — which test_simd_distance.cc asserts, and which keeps
// QueryBatch results reproducible no matter how candidates are grouped.
//
// The tail (d % 8 lanes) is handled with masked loads; masked-off lanes
// read as 0.0f, which contributes nothing to any of the accumulators (and
// maps to "bit unset" for the binary metrics).

alignas(32) const int32_t kTailMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};

__attribute__((target("avx2"))) inline __m256i TailMaskFor(size_t rem) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 8 - rem));
}

__attribute__((target("avx2"))) inline double HorizontalSum(__m256 v) {
  __m128 lo = _mm_add_ps(_mm256_castps256_ps128(v),
                         _mm256_extractf128_ps(v, 1));
  __m128 shuf = _mm_movehdup_ps(lo);
  const __m128 sums = _mm_add_ps(lo, shuf);
  shuf = _mm_movehl_ps(shuf, sums);
  return static_cast<double>(_mm_cvtss_f32(_mm_add_ss(sums, shuf)));
}

__attribute__((target("avx2,fma")))
void L2SqRowsAvx2(const float* const* rows, size_t nrows, const float* q,
                  size_t d, double* out) {
  __m256 acc[kGroup];
  for (size_t r = 0; r < nrows; ++r) acc[r] = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 qv = _mm256_loadu_ps(q + j);
    for (size_t r = 0; r < nrows; ++r) {
      const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(rows[r] + j), qv);
      acc[r] = _mm256_fmadd_ps(diff, diff, acc[r]);
    }
  }
  if (j < d) {
    const __m256i mask = TailMaskFor(d - j);
    const __m256 qv = _mm256_maskload_ps(q + j, mask);
    for (size_t r = 0; r < nrows; ++r) {
      const __m256 diff =
          _mm256_sub_ps(_mm256_maskload_ps(rows[r] + j, mask), qv);
      acc[r] = _mm256_fmadd_ps(diff, diff, acc[r]);
    }
  }
  for (size_t r = 0; r < nrows; ++r) out[r] = HorizontalSum(acc[r]);
}

// Floats each lane of the bounded scatter advances between bound checks:
// four 8-float steps.
constexpr size_t kRound = 32;

// Partial distance search (Bei & Gray, IEEE Trans. Commun. 1985) over a
// scatter list: kGroup lanes each own one candidate row and its accumulator
// and advance in lockstep, one round at a time, so the FMA chains stay as
// independent as in L2SqRowsAvx2. After every round the four partial sums
// are reduced together; a lane whose sum exceeds `reject_above` — (float)
// (b·b)·(1 + 2⁻¹⁶) for the caller's distance bound b — writes +inf and takes
// the next candidate. A lane with less than one round left finishes alone.
// Idle lanes (list exhausted) score the query against itself: their sum
// stays 0, so they are never rejected, and they are never reported. Needs
// d >= kRound, so every fresh row owes at least one round.
//
// Exactness:
//  * A completed row ran L2SqRowsAvx2's sequence — zeroed accumulator, the
//    8-float FMA steps in order, the masked tail — then HorizontalSum and
//    sqrt, so its value is bit-identical to the unbounded kernel's.
//  * Let f be the float sum behind b, so b = sqrt(f) in double. b·b is
//    within 3·2⁻⁵³ relative of f, far inside half a float ulp, so (float)
//    (b·b) == f.
//  * Each lane accumulator only grows (fma(x, x, acc) >= acc, rounding is
//    monotone), so every partial lane value is at most its final value. The
//    partial sum P (hadd order) and the final sum F (HorizontalSum order)
//    each add 8 nonnegative floats, and any such order is within 7·2⁻²⁴
//    relative of the exact sum. So F >= P·(1 - 2⁻²⁰), and P above the
//    threshold, itself >= f·(1 + 2⁻¹⁶)·(1 - 2⁻²⁴) after rounding, gives
//    F > f. The double sqrt of two distinct floats stays distinct, so the
//    row's distance sqrt(F) > b.
//    A row at distance exactly b (a duplicate of the seed row) is kept:
//    the same bound gives P <= f·(1 + 2⁻²⁰), below the threshold.
__attribute__((target("avx2,fma")))
void L2ScatterBoundedAvx2(const float* data, size_t d, const float* q,
                          const int32_t* ids, const int32_t* slots, size_t n,
                          float reject_above, double* out) {
  // Most rows are abandoned after a round or two, so lanes cycle through
  // candidates fast: warm only the first round of a row, well ahead.
  constexpr size_t kLaneLookahead = 16;
  const float* row[kGroup] = {};
  size_t pos[kGroup] = {};
  int32_t slot[kGroup] = {};
  __m256 acc[kGroup] = {};
  size_t next = 0;
  size_t live = 0;
  // Loads lane l with the next candidate, or parks it idle on the query.
  // (The caller zeroes acc[l]: a lambda does not inherit the AVX target.)
  const auto fill = [&](size_t l) {
    pos[l] = 0;
    if (next == n) {
      row[l] = q;
      slot[l] = -1;
      return;
    }
    if (next + kLaneLookahead < n) {
      const float* ahead =
          data + static_cast<size_t>(ids[next + kLaneLookahead]) * d;
      for (size_t f = 0; f < kRound; f += 16) __builtin_prefetch(ahead + f);
    }
    row[l] = data + static_cast<size_t>(ids[next]) * d;
    slot[l] = slots[next];
    ++next;
    ++live;
  };
  for (size_t l = 0; l < kGroup; ++l) fill(l);
  while (live > 0) {
    for (size_t s = 0; s < kRound; s += 8) {
      for (size_t l = 0; l < kGroup; ++l) {
        const __m256 qv = _mm256_loadu_ps(q + pos[l] + s);
        const __m256 diff =
            _mm256_sub_ps(_mm256_loadu_ps(row[l] + pos[l] + s), qv);
        acc[l] = _mm256_fmadd_ps(diff, diff, acc[l]);
      }
    }
    const __m256 t = _mm256_hadd_ps(_mm256_hadd_ps(acc[0], acc[1]),
                                    _mm256_hadd_ps(acc[2], acc[3]));
    const __m128 sums = _mm_add_ps(_mm256_castps256_ps128(t),
                                   _mm256_extractf128_ps(t, 1));
    const int over = _mm_movemask_ps(
        _mm_cmpgt_ps(sums, _mm_set1_ps(reject_above)));
    for (size_t l = 0; l < kGroup; ++l) {
      if (slot[l] < 0) continue;
      if (over & (1 << l)) {
        out[slot[l]] = std::numeric_limits<double>::infinity();
      } else if ((pos[l] += kRound) + kRound > d) {
        __m256 a = acc[l];
        size_t j = pos[l];
        for (; j + 8 <= d; j += 8) {
          const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(row[l] + j),
                                            _mm256_loadu_ps(q + j));
          a = _mm256_fmadd_ps(diff, diff, a);
        }
        if (j < d) {
          const __m256i mask = TailMaskFor(d - j);
          const __m256 diff =
              _mm256_sub_ps(_mm256_maskload_ps(row[l] + j, mask),
                            _mm256_maskload_ps(q + j, mask));
          a = _mm256_fmadd_ps(diff, diff, a);
        }
        out[slot[l]] = std::sqrt(HorizontalSum(a));
      } else {
        continue;
      }
      --live;
      acc[l] = _mm256_setzero_ps();
      fill(l);
    }
  }
}

__attribute__((target("avx2,fma")))
void DotRowsAvx2(const float* const* rows, size_t nrows, const float* q,
                 size_t d, double* out) {
  __m256 acc[kGroup];
  for (size_t r = 0; r < nrows; ++r) acc[r] = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 qv = _mm256_loadu_ps(q + j);
    for (size_t r = 0; r < nrows; ++r) {
      acc[r] = _mm256_fmadd_ps(_mm256_loadu_ps(rows[r] + j), qv, acc[r]);
    }
  }
  if (j < d) {
    const __m256i mask = TailMaskFor(d - j);
    const __m256 qv = _mm256_maskload_ps(q + j, mask);
    for (size_t r = 0; r < nrows; ++r) {
      acc[r] =
          _mm256_fmadd_ps(_mm256_maskload_ps(rows[r] + j, mask), qv, acc[r]);
    }
  }
  for (size_t r = 0; r < nrows; ++r) out[r] = HorizontalSum(acc[r]);
}

// dot(rows[r], q) and ||rows[r]||² in one pass over each row — the angular
// distance needs both, and the query's own norm is hoisted out and computed
// once per batch with Norm2Avx2.
__attribute__((target("avx2,fma")))
void DotNormRowsAvx2(const float* const* rows, size_t nrows, const float* q,
                     size_t d, double* out_dot, double* out_norm2) {
  __m256 dot[kGroup], nrm[kGroup];
  for (size_t r = 0; r < nrows; ++r) {
    dot[r] = _mm256_setzero_ps();
    nrm[r] = _mm256_setzero_ps();
  }
  size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 qv = _mm256_loadu_ps(q + j);
    for (size_t r = 0; r < nrows; ++r) {
      const __m256 rv = _mm256_loadu_ps(rows[r] + j);
      dot[r] = _mm256_fmadd_ps(rv, qv, dot[r]);
      nrm[r] = _mm256_fmadd_ps(rv, rv, nrm[r]);
    }
  }
  if (j < d) {
    const __m256i mask = TailMaskFor(d - j);
    const __m256 qv = _mm256_maskload_ps(q + j, mask);
    for (size_t r = 0; r < nrows; ++r) {
      const __m256 rv = _mm256_maskload_ps(rows[r] + j, mask);
      dot[r] = _mm256_fmadd_ps(rv, qv, dot[r]);
      nrm[r] = _mm256_fmadd_ps(rv, rv, nrm[r]);
    }
  }
  for (size_t r = 0; r < nrows; ++r) {
    out_dot[r] = HorizontalSum(dot[r]);
    out_norm2[r] = HorizontalSum(nrm[r]);
  }
}

__attribute__((target("avx2,fma")))
double Norm2Avx2(const float* a, size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const __m256 av = _mm256_loadu_ps(a + j);
    acc = _mm256_fmadd_ps(av, av, acc);
  }
  if (j < d) {
    const __m256 av = _mm256_maskload_ps(a + j, TailMaskFor(d - j));
    acc = _mm256_fmadd_ps(av, av, acc);
  }
  return HorizontalSum(acc);
}

// Binary metrics: threshold 8 lanes at once against 0.5 (the SIMD mirror of
// IsSetCoordinate), compress each block to an 8-bit mask with movemask, and
// popcount the combined masks. Counts are exact integers, so these agree
// with the scalar tier bit-for-bit.

__attribute__((target("avx2")))
void HammingRowsAvx2(const float* const* rows, size_t nrows, const float* q,
                     size_t d, double* out) {
  const __m256 half = _mm256_set1_ps(0.5f);
  size_t diff[kGroup] = {0, 0, 0, 0};
  size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const unsigned qbits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(q + j), half, _CMP_GE_OQ)));
    for (size_t r = 0; r < nrows; ++r) {
      const unsigned rbits = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_loadu_ps(rows[r] + j), half, _CMP_GE_OQ)));
      diff[r] += static_cast<size_t>(__builtin_popcount(qbits ^ rbits));
    }
  }
  if (j < d) {
    // Masked-off lanes load 0.0f and threshold to "unset" for query and row
    // alike, so they never differ.
    const __m256i mask = TailMaskFor(d - j);
    const unsigned qbits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_maskload_ps(q + j, mask), half, _CMP_GE_OQ)));
    for (size_t r = 0; r < nrows; ++r) {
      const unsigned rbits = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(
              _mm256_maskload_ps(rows[r] + j, mask), half, _CMP_GE_OQ)));
      diff[r] += static_cast<size_t>(__builtin_popcount(qbits ^ rbits));
    }
  }
  for (size_t r = 0; r < nrows; ++r) out[r] = static_cast<double>(diff[r]);
}

__attribute__((target("avx2")))
void JaccardRowsAvx2(const float* const* rows, size_t nrows, const float* q,
                     size_t d, double* out) {
  const __m256 half = _mm256_set1_ps(0.5f);
  size_t inter[kGroup] = {0, 0, 0, 0};
  size_t uni[kGroup] = {0, 0, 0, 0};
  size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    const unsigned qbits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(q + j), half, _CMP_GE_OQ)));
    for (size_t r = 0; r < nrows; ++r) {
      const unsigned rbits = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_loadu_ps(rows[r] + j), half, _CMP_GE_OQ)));
      inter[r] += static_cast<size_t>(__builtin_popcount(qbits & rbits));
      uni[r] += static_cast<size_t>(__builtin_popcount(qbits | rbits));
    }
  }
  if (j < d) {
    const __m256i mask = TailMaskFor(d - j);
    const unsigned qbits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_maskload_ps(q + j, mask), half, _CMP_GE_OQ)));
    for (size_t r = 0; r < nrows; ++r) {
      const unsigned rbits = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(
              _mm256_maskload_ps(rows[r] + j, mask), half, _CMP_GE_OQ)));
      inter[r] += static_cast<size_t>(__builtin_popcount(qbits & rbits));
      uni[r] += static_cast<size_t>(__builtin_popcount(qbits | rbits));
    }
  }
  for (size_t r = 0; r < nrows; ++r) {
    out[r] = (uni[r] == 0)
                 ? 0.0
                 : 1.0 - static_cast<double>(inter[r]) /
                             static_cast<double>(uni[r]);
  }
}

// Integer kernel of the quantized tier: sum of codes[j] * weights[j].
// `_mm256_maddubs_epi16` (u8 x s8 pairs) would halve the widening work, but
// it saturates its int16 pair sums — two products of up to 255 * 127 exceed
// 32767 — so codes are widened to int16 and accumulated with
// `_mm256_madd_epi16`, whose int32 pair sums are exact for the |w| <= 4095,
// d <= 8192 contract in the header. The horizontal reduction widens the
// eight int32 lanes to int64 (their total may exceed int32), making the
// result the exact integer the scalar loop computes.
__attribute__((target("avx2")))
int64_t DotCodesI8Avx2(const uint8_t* codes, const int16_t* weights,
                       size_t d) {
  __m256i acc = _mm256_setzero_si256();
  size_t j = 0;
  for (; j + 16 <= d; j += 16) {
    const __m256i c = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + j)));
    const __m256i w = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(weights + j));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(c, w));
  }
  alignas(32) int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t sum = 0;
  for (int lane = 0; lane < 8; ++lane) sum += lanes[lane];
  for (; j < d; ++j) {
    sum += static_cast<int64_t>(codes[j]) * weights[j];
  }
  return sum;
}

#endif  // LCCS_SIMD_X86

int64_t DotCodesI8Scalar(const uint8_t* codes, const int16_t* weights,
                         size_t d) {
  int64_t sum = 0;
  for (size_t j = 0; j < d; ++j) {
    sum += static_cast<int64_t>(codes[j]) * weights[j];
  }
  return sum;
}

SimdTier DetectTier() {
#if LCCS_SIMD_X86
  const bool cpu_ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  const char* env = std::getenv("LCCS_SIMD");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "scalar") == 0) return SimdTier::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      return cpu_ok ? SimdTier::kAvx2 : SimdTier::kScalar;
    }
    // Unrecognized value: fall through to auto-detection.
  }
  return cpu_ok ? SimdTier::kAvx2 : SimdTier::kScalar;
#else
  return SimdTier::kScalar;
#endif
}

// Query-side norm² for the angular metric, hoisted out of the row loop of
// the batched kernels. Unused (0.0) for the other metrics and on the scalar
// tier, whose per-pair reference recomputes it internally.
double QueryNorm2(Metric metric, const float* query, size_t d) {
#if LCCS_SIMD_X86
  if (metric == Metric::kAngular && ActiveSimdTier() == SimdTier::kAvx2) {
    return Norm2Avx2(query, d);
  }
#else
  (void)metric;
  (void)query;
  (void)d;
#endif
  return 0.0;
}

// Scores `nrows` (≤ kGroup) rows against the query under `metric`.
void DistanceGroup(Metric metric, const float* const* rows, size_t nrows,
                   const float* query, size_t d, double qnorm2, double* out) {
#if LCCS_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    switch (metric) {
      case Metric::kEuclidean:
        L2SqRowsAvx2(rows, nrows, query, d, out);
        for (size_t r = 0; r < nrows; ++r) out[r] = std::sqrt(out[r]);
        return;
      case Metric::kAngular: {
        double dot[kGroup], norm2[kGroup];
        DotNormRowsAvx2(rows, nrows, query, d, dot, norm2);
        for (size_t r = 0; r < nrows; ++r) {
          out[r] = CombineAngular(dot[r], norm2[r], qnorm2);
        }
        return;
      }
      case Metric::kHamming:
        HammingRowsAvx2(rows, nrows, query, d, out);
        return;
      case Metric::kJaccard:
        JaccardRowsAvx2(rows, nrows, query, d, out);
        return;
    }
    return;
  }
#endif
  (void)qnorm2;
  for (size_t r = 0; r < nrows; ++r) {
    out[r] = Distance(metric, rows[r], query, d);
  }
}

// Warms the first cache lines of a candidate row before its group is
// scored; the hardware prefetcher picks up the sequential remainder.
inline void PrefetchRow(const float* row, size_t d) {
  constexpr size_t kLineFloats = 16;  // 64-byte lines
  const size_t lines =
      std::min<size_t>((d + kLineFloats - 1) / kLineFloats, 8);
  for (size_t l = 0; l < lines; ++l) {
    __builtin_prefetch(row + l * kLineFloats, 0, 3);
  }
}

}  // namespace

SimdTier ActiveSimdTier() {
  static const SimdTier tier = DetectTier();
  return tier;
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

namespace simd {

double SquaredL2(const float* a, const float* b, size_t d) {
#if LCCS_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    const float* rows[1] = {a};
    double out;
    L2SqRowsAvx2(rows, 1, b, d, &out);
    return out;
  }
#endif
  return util::SquaredL2(a, b, d);
}

double L2(const float* a, const float* b, size_t d) {
  return std::sqrt(simd::SquaredL2(a, b, d));
}

double Dot(const float* a, const float* b, size_t d) {
#if LCCS_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    const float* rows[1] = {a};
    double out;
    DotRowsAvx2(rows, 1, b, d, &out);
    return out;
  }
#endif
  return util::Dot(a, b, d);
}

double Angular(const float* a, const float* b, size_t d) {
#if LCCS_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    const float* rows[1] = {a};
    double dot, norm2_a;
    DotNormRowsAvx2(rows, 1, b, d, &dot, &norm2_a);
    return CombineAngular(dot, norm2_a, Norm2Avx2(b, d));
  }
#endif
  return util::AngularDistance(a, b, d);
}

double Hamming(const float* a, const float* b, size_t d) {
#if LCCS_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    const float* rows[1] = {a};
    double out;
    HammingRowsAvx2(rows, 1, b, d, &out);
    return out;
  }
#endif
  return ScalarHamming(a, b, d);
}

double Jaccard(const float* a, const float* b, size_t d) {
#if LCCS_SIMD_X86
  if (ActiveSimdTier() == SimdTier::kAvx2) {
    const float* rows[1] = {a};
    double out;
    JaccardRowsAvx2(rows, 1, b, d, &out);
    return out;
  }
#endif
  return ScalarJaccard(a, b, d);
}

int64_t DotCodesI8(const uint8_t* codes, const int16_t* weights, size_t d) {
  return DotCodesI8Tier(ActiveSimdTier(), codes, weights, d);
}

int64_t DotCodesI8Tier(SimdTier tier, const uint8_t* codes,
                       const int16_t* weights, size_t d) {
#if LCCS_SIMD_X86
  if (tier == SimdTier::kAvx2 && __builtin_cpu_supports("avx2")) {
    return DotCodesI8Avx2(codes, weights, d);
  }
#else
  (void)tier;
#endif
  return DotCodesI8Scalar(codes, weights, d);
}

}  // namespace simd

double Distance(Metric metric, const float* a, const float* b, size_t d) {
  switch (metric) {
    case Metric::kEuclidean:
      return simd::L2(a, b, d);
    case Metric::kAngular:
      return simd::Angular(a, b, d);
    case Metric::kHamming:
      return simd::Hamming(a, b, d);
    case Metric::kJaccard:
      return simd::Jaccard(a, b, d);
  }
  return 0.0;
}

void DistanceMany(Metric metric, const float* data, size_t d,
                  const float* query, const int32_t* ids, size_t n,
                  double* out, int32_t first_id) {
  if (n == 0) return;
  const double qnorm2 = QueryNorm2(metric, query, d);
  auto row_ptr = [&](size_t i) {
    const auto id = ids ? ids[i] : first_id + static_cast<int32_t>(i);
    return data + static_cast<size_t>(id) * d;
  };
  const float* rows[kGroup];
  for (size_t i = 0; i < n; i += kGroup) {
    const size_t g = std::min(kGroup, n - i);
    for (size_t r = 0; r < g; ++r) rows[r] = row_ptr(i + r);
    for (size_t r = 0; r < kGroup && i + g + r < n; ++r) {
      PrefetchRow(row_ptr(i + g + r), d);
    }
    DistanceGroup(metric, rows, g, query, d, qnorm2, out + i);
  }
}

void DistanceScatter(Metric metric, const float* data, size_t d,
                     const float* query, const int32_t* ids,
                     const int32_t* slots, size_t n, double* out,
                     double bound) {
  if (n == 0) return;
#if LCCS_SIMD_X86
  if (bound < std::numeric_limits<double>::infinity() &&
      metric == Metric::kEuclidean && d >= kRound &&
      ActiveSimdTier() == SimdTier::kAvx2) {
    const float reject_above =
        static_cast<float>(bound * bound) * (1.0f + 0x1p-16f);
    L2ScatterBoundedAvx2(data, d, query, ids, slots, n, reject_above, out);
    return;
  }
#endif
  const double qnorm2 = QueryNorm2(metric, query, d);
  const float* rows[kGroup];
  double dist[kGroup];
  for (size_t i = 0; i < n; i += kGroup) {
    const size_t g = std::min(kGroup, n - i);
    for (size_t r = 0; r < g; ++r) {
      rows[r] = data + static_cast<size_t>(ids[i + r]) * d;
    }
    for (size_t r = 0; r < kGroup && i + g + r < n; ++r) {
      PrefetchRow(data + static_cast<size_t>(ids[i + g + r]) * d, d);
    }
    DistanceGroup(metric, rows, g, query, d, qnorm2, dist);
    for (size_t r = 0; r < g; ++r) {
      out[slots[i + r]] = dist[r];
    }
  }
}

void VerifyCandidates(Metric metric, const float* data, size_t d,
                      const float* query, const int32_t* ids, size_t n,
                      TopK& topk, int32_t first_id) {
  if (n == 0) return;
  const double qnorm2 = QueryNorm2(metric, query, d);
  auto row_id = [&](size_t i) {
    return ids ? ids[i] : first_id + static_cast<int32_t>(i);
  };
  const float* rows[kGroup];
  int32_t gid[kGroup];
  double dist[kGroup];
  for (size_t i = 0; i < n; i += kGroup) {
    const size_t g = std::min(kGroup, n - i);
    for (size_t r = 0; r < g; ++r) {
      gid[r] = row_id(i + r);
      rows[r] = data + static_cast<size_t>(gid[r]) * d;
    }
    for (size_t r = 0; r < kGroup && i + g + r < n; ++r) {
      PrefetchRow(data + static_cast<size_t>(row_id(i + g + r)) * d, d);
    }
    DistanceGroup(metric, rows, g, query, d, qnorm2, dist);
    // Pushes happen in candidate order, so ties resolve exactly as the old
    // one-Distance-call-per-candidate loops did.
    for (size_t r = 0; r < g; ++r) topk.Push(gid[r], dist[r]);
  }
}

}  // namespace util
}  // namespace lccs
