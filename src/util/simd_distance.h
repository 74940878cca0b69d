#ifndef LCCS_UTIL_SIMD_DISTANCE_H_
#define LCCS_UTIL_SIMD_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/metric.h"
#include "util/topk.h"

namespace lccs {
namespace util {

/// Instruction-set tier the distance kernels dispatch to at runtime. The
/// tier is detected once per process (CPUID) and can be pinned with the
/// LCCS_SIMD environment variable ("scalar" or "avx2"); requesting a tier
/// the CPU lacks silently falls back to scalar.
enum class SimdTier {
  kScalar,  ///< portable double-accumulator reference kernels
  kAvx2,    ///< AVX2 + FMA, 8 float lanes, masked tail loads
};

/// The tier every kernel in this header dispatches to. Cached after the
/// first call; all call sites in a process therefore agree bit-for-bit.
SimdTier ActiveSimdTier();

/// Human-readable tier name ("scalar" / "avx2").
const char* SimdTierName(SimdTier tier);

namespace simd {

/// Single-pair kernels. Same contracts as the scalar references in
/// matrix.h / the Hamming/Jaccard branches of util::Distance; the AVX2
/// versions accumulate in float lanes, so values may differ from the scalar
/// tier in the last bits (within 1e-5 relative — enforced by
/// tests/test_simd_distance.cc).
double SquaredL2(const float* a, const float* b, size_t d);
double L2(const float* a, const float* b, size_t d);
double Dot(const float* a, const float* b, size_t d);
double Angular(const float* a, const float* b, size_t d);
double Hamming(const float* a, const float* b, size_t d);
double Jaccard(const float* a, const float* b, size_t d);

/// Weighted dot product between a uint8 code row and an int16 weight vector
/// — the scoring primitive of the quantized candidate tier
/// (storage::QuantizedStore). The sum is an exact integer, so the scalar and
/// AVX2 tiers agree bit-for-bit (asserted by tests/test_quantized_store.cc);
/// the caller folds it into a float score with per-query constants.
///
/// Weights must satisfy |w| <= 4095 and d <= 8192: the AVX2 kernel
/// accumulates `madd_epi16` pairs in int32 lanes, and 255 * 4095 * 2 per
/// step times d/16 steps stays below 2^31 exactly up to that bound (the
/// QuantizedStore quantizes query weights into that range and refuses wider
/// dimensions).
int64_t DotCodesI8(const uint8_t* codes, const int16_t* weights, size_t d);

/// Tier-pinned variant for the bit-identity tests and microbenchmarks;
/// requesting kAvx2 on a CPU without it falls back to scalar.
int64_t DotCodesI8Tier(SimdTier tier, const uint8_t* codes,
                       const int16_t* weights, size_t d);

}  // namespace simd

/// Batched distances from `query` to `n` candidate rows of the row-major
/// matrix `data` (row stride `d`). Rows are scored matrix-at-a-time — four
/// rows per step with the next group prefetched — instead of one
/// util::Distance call per candidate. `ids == nullptr` means the contiguous
/// rows first_id .. first_id + n - 1. Each out[i] is bit-identical to
/// util::Distance(metric, data + ids[i] * d, query, d).
void DistanceMany(Metric metric, const float* data, size_t d,
                  const float* query, const int32_t* ids, size_t n,
                  double* out, int32_t first_id = 0);

/// Scatter-form DistanceMany for the cross-query batch engine: scores the
/// `n` rows `ids[i]` against `query` and writes each distance to
/// out[slots[i]] instead of out[i]. `ids` may be any subsequence of a
/// query's candidate list (the batch engine walks candidates in row-id
/// blocks), and because every distance is bit-identical to a standalone
/// util::Distance call, the scattered values are exactly what DistanceMany
/// would have produced at those slots in any other order.
///
/// A finite `bound` lets the Euclidean AVX2 kernel abandon a row early
/// (partial distance search): once a row's running squared sum proves its
/// distance is strictly greater than `bound`, out[slots[i]] is set to +inf
/// instead. Every row it does not abandon is still bit-identical to
/// util::Distance, and a row at distance exactly `bound` is never
/// abandoned. Other metrics, the scalar tier and rows shorter than 32
/// floats ignore the bound and score every row exactly.
void DistanceScatter(Metric metric, const float* data, size_t d,
                     const float* query, const int32_t* ids,
                     const int32_t* slots, size_t n, double* out,
                     double bound = std::numeric_limits<double>::infinity());

/// Batched candidate verification: scores candidates as DistanceMany and
/// pushes (id, distance) into `topk` in candidate order — drop-in for the
/// per-candidate Push loops that previously dominated query time.
void VerifyCandidates(Metric metric, const float* data, size_t d,
                      const float* query, const int32_t* ids, size_t n,
                      TopK& topk, int32_t first_id = 0);

}  // namespace util
}  // namespace lccs

#endif  // LCCS_UTIL_SIMD_DISTANCE_H_
