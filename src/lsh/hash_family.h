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

  /// Hash plus each function's multi-probe alternatives in one call: fills
  /// out[0..m) as Hash does and resizes `alts` to m, replacing any stale
  /// contents. (*alts)[f] holds up to `max_alts` hash values for h_f other
  /// than out[f], sorted by ascending score. Families without a natural
  /// probing sequence leave every list empty (the default).
  virtual void HashWithAlternatives(
      const float* v, size_t max_alts, HashValue* out,
      std::vector<std::vector<AltHash>>* alts) const {
    (void)max_alts;
    Hash(v, out);
    alts->assign(num_functions(), {});
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
