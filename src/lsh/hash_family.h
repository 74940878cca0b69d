#ifndef LCCS_LSH_HASH_FAMILY_H_
#define LCCS_LSH_HASH_FAMILY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lccs {
namespace lsh {

/// Discrete hash value produced by one LSH function.
using HashValue = int32_t;

/// One multi-probe alternative for a single hash function: a different hash
/// value the query is "close" to, plus a non-negative score. Smaller score
/// means the alternative is more likely to hold the query's near neighbors
/// (score 0 would be the primary hash value itself, which is never listed).
struct AltHash {
  HashValue value = 0;
  double score = 0.0;
};

/// A collection of m i.i.d. LSH functions h_1, ..., h_m drawn from one family.
///
/// This is the substrate interface of the paper: LCCS-LSH (Section 4) and all
/// static-concatenation baselines are family-independent and only interact
/// with LSH functions through this class. Implementations must be
/// deterministic given their construction seed.
class HashFamily {
 public:
  virtual ~HashFamily() = default;

  /// Number of hash functions m held by this family instance.
  virtual size_t num_functions() const = 0;

  /// Input dimensionality d.
  virtual size_t dim() const = 0;

  /// Evaluates all m functions on vector `v` (length dim()), writing the hash
  /// string H(v) = [h_1(v), ..., h_m(v)] into out[0..m).
  virtual void Hash(const float* v, HashValue* out) const = 0;

  /// Evaluates a single function h_{func}(v). Index in [0, m).
  virtual HashValue HashOne(size_t func, const float* v) const = 0;

  /// Multi-probe support: fills `out` with up to `max_alts` alternative hash
  /// values for function `func` on query `v`, sorted by ascending score.
  /// The primary hash value is excluded. Families without a natural probing
  /// sequence may leave `out` empty (the default).
  virtual void Alternatives(size_t func, const float* v, size_t max_alts,
                            std::vector<AltHash>* out) const {
    (void)func;
    (void)v;
    (void)max_alts;
    out->clear();
  }

  /// Hash plus every function's Alternatives in one call: fills out[0..m)
  /// as Hash does and resizes `alts` to m with (*alts)[f] equal to
  /// Alternatives(f, v, max_alts). Projection families derive both from one
  /// evaluation of the projections; the default evaluates each separately.
  virtual void HashWithAlternatives(
      const float* v, size_t max_alts, HashValue* out,
      std::vector<std::vector<AltHash>>* alts) const {
    Hash(v, out);
    alts->resize(num_functions());
    for (size_t f = 0; f < alts->size(); ++f) {
      Alternatives(f, v, max_alts, &(*alts)[f]);
    }
  }

  /// Collision probability p(τ) = Pr[h(o) = h(q)] of a single function for
  /// two points at distance τ (the family's native metric). Used by the
  /// theory module (Section 5) and by parameter selection.
  virtual double CollisionProbability(double dist) const = 0;

  /// Human-readable family name for reports.
  virtual std::string name() const = 0;

  /// Memory consumed by the family's parameters (counted in index size).
  virtual size_t SizeBytes() const = 0;
};

}  // namespace lsh
}  // namespace lccs

#endif  // LCCS_LSH_HASH_FAMILY_H_
