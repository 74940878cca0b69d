#include "lsh/projection.h"

#include <cassert>
#include <cstdint>

#include "util/matrix.h"

#if defined(__x86_64__) || defined(__i386__)
#define LCCS_PROJECTION_X86 1
#endif

namespace lccs {
namespace lsh {
namespace {

// Rows of a tile prefetched ahead of the one being read. A query's hash
// usually finds the matrix evicted from L2 by the previous query's
// verification gather, and the tile stream then waits on L3 misses unless
// they are issued early: 32 rows is 2 KB of a full tile.
constexpr size_t kPrefetchRows = 32;

// Dots of kWidth adjacent functions in one pass over v, one double
// accumulator per function, reading `stride` floats per row. The inner
// loops run across functions, so the compiler packs them into SIMD lanes
// without reordering any function's sum; grouping the accumulators by four
// (one 256-bit register of doubles) steers GCC's SLP vectorizer to one
// register per group. Always inlined: each tier's wrapper below compiles
// it for its own ISA.
template <size_t kWidth>
__attribute__((always_inline)) inline void DotsFixed(const float* at,
                                                     size_t d, size_t stride,
                                                     const float* v,
                                                     double* dots) {
  constexpr size_t kLanes = kWidth < 4 ? kWidth : 4;
  constexpr size_t kGroups = kWidth / kLanes;
  double acc[kGroups][kLanes] = {};
  // The prefetch address is integer arithmetic: near the end of the matrix
  // it points past the array, where pointer arithmetic would be undefined
  // (a prefetch never faults). A bounds check here instead costs a branch
  // that broke the vectorization of the loop below.
  const uintptr_t ahead = kPrefetchRows * stride * sizeof(float);
  for (size_t i = 0; i < d; ++i) {
    const double vi = v[i];
    const float* row = at + i * stride;
    const uintptr_t next = reinterpret_cast<uintptr_t>(row) + ahead;
    __builtin_prefetch(reinterpret_cast<const void*>(next));
    for (size_t g = 0; g < kGroups; ++g) {
      for (size_t j = 0; j < kLanes; ++j) {
        acc[g][j] += static_cast<double>(row[g * kLanes + j]) * vi;
      }
    }
  }
  for (size_t g = 0; g < kGroups; ++g) {
    for (size_t j = 0; j < kLanes; ++j) dots[g * kLanes + j] = acc[g][j];
  }
}

// A tail tile of count < 16 functions, as passes of 8, 4, 2 and 1 columns
// so every width is a compile-time constant.
__attribute__((always_inline)) inline void DotsTail(const float* at,
                                                    size_t d, size_t count,
                                                    const float* v,
                                                    double* dots) {
  size_t j = 0;
  if (count & 8) {
    DotsFixed<8>(at + j, d, count, v, dots + j);
    j += 8;
  }
  if (count & 4) {
    DotsFixed<4>(at + j, d, count, v, dots + j);
    j += 4;
  }
  if (count & 2) {
    DotsFixed<2>(at + j, d, count, v, dots + j);
    j += 2;
  }
  if (count & 1) DotsFixed<1>(at + j, d, count, v, dots + j);
}

// Each tier compiles the same two loops. A full tile gets a function of
// its own: inlined next to the tail passes, GCC 12 split its 16 lanes into
// uneven SLP groups and ran at half speed.
constexpr size_t kBlock = ProjectionMatrix::kBlock;

void BlockScalar(const float* at, size_t d, const float* v, double* dots) {
  DotsFixed<kBlock>(at, d, kBlock, v, dots);
}

void TailScalar(const float* at, size_t d, size_t count, const float* v,
                double* dots) {
  DotsTail(at, d, count, v, dots);
}

#if LCCS_PROJECTION_X86
// FMA contraction is allowed here: the product is exact, so the fused and
// the separate multiply-add round identically (see ProjectionMatrix).
__attribute__((target("avx2,fma"))) void BlockAvx2(const float* at, size_t d,
                                                   const float* v,
                                                   double* dots) {
  DotsFixed<kBlock>(at, d, kBlock, v, dots);
}

__attribute__((target("avx2,fma"))) void TailAvx2(const float* at, size_t d,
                                                  size_t count,
                                                  const float* v,
                                                  double* dots) {
  DotsTail(at, d, count, v, dots);
}
#endif

}  // namespace

ProjectionMatrix::ProjectionMatrix(size_t dim, size_t num_functions,
                                   util::Rng* rng)
    : dim_(dim), m_(num_functions) {
  // Drawn row-major first; util::Matrix also rejects a d·m that overflows.
  util::Matrix a(num_functions, dim);
  rng->FillGaussian(a.data(), num_functions * dim);
  at_.resize(num_functions * dim);
  for (size_t first = 0; first < m_; first += kBlock) {
    const size_t width = std::min(kBlock, m_ - first);
    float* tile = at_.data() + first * dim_;
    for (size_t i = 0; i < dim_; ++i) {
      for (size_t j = 0; j < width; ++j) {
        tile[i * width + j] = a.At(first + j, i);
      }
    }
  }
}

void ProjectionMatrix::TileDots(util::SimdTier tier, size_t first,
                                size_t count, const float* v,
                                double* dots) const {
  assert(first % kBlock == 0 && count == std::min(kBlock, m_ - first));
  // Every tile before this one is full, so it starts at first·d floats.
  const float* tile = at_.data() + first * dim_;
#if LCCS_PROJECTION_X86
  if (tier == util::SimdTier::kAvx2 && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    if (count == kBlock) {
      BlockAvx2(tile, dim_, v, dots);
    } else {
      TailAvx2(tile, dim_, count, v, dots);
    }
    return;
  }
#else
  (void)tier;
#endif
  if (count == kBlock) {
    BlockScalar(tile, dim_, v, dots);
  } else {
    TailScalar(tile, dim_, count, v, dots);
  }
}

}  // namespace lsh
}  // namespace lccs
