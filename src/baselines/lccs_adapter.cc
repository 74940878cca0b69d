#include "baselines/lccs_adapter.h"

#include <cassert>

namespace lccs {
namespace baselines {

LccsLshIndex::LccsLshIndex(Params params) : params_(params) {
  assert(params_.m >= 1 && params_.num_probes >= 1);
}

void LccsLshIndex::Build(const dataset::Dataset& data) {
  scheme_ = MakeScheme(data);
  scheme_->Build(data.data.store());
}

std::unique_ptr<core::LccsLsh> LccsLshIndex::MakeScheme(
    const dataset::Dataset& data) const {
  const lsh::FamilyKind kind =
      params_.family.value_or(lsh::DefaultFamilyFor(data.metric));
  auto family =
      lsh::MakeFamily(kind, data.dim(), params_.m, params_.w, params_.seed);
  core::ProbeParams probe;
  probe.num_probes = params_.num_probes;
  probe.max_gap = params_.max_gap;
  probe.num_alternatives = params_.num_alternatives;
  return std::make_unique<core::LccsLsh>(std::move(family), data.metric,
                                         probe);
}

void LccsLshIndex::set_num_probes(size_t num_probes) {
  assert(num_probes >= 1);
  params_.num_probes = num_probes;
  if (scheme_ != nullptr) {
    core::ProbeParams probe = scheme_->probe_params();
    probe.num_probes = num_probes;
    scheme_->set_probe_params(probe);
  }
}

std::vector<util::Neighbor> LccsLshIndex::Query(const float* query,
                                                size_t k) const {
  assert(scheme_ != nullptr);
  return scheme_->Query(query, k, params_.lambda);
}

std::vector<std::vector<util::Neighbor>> LccsLshIndex::QueryBatch(
    const float* queries, size_t num_queries, size_t k,
    size_t num_threads) const {
  if (num_queries == 0) return {};
  assert(scheme_ != nullptr);
  return scheme_->QueryBatch(queries, num_queries, k, params_.lambda,
                             num_threads);
}

size_t LccsLshIndex::IndexSizeBytes() const {
  return scheme_ != nullptr ? scheme_->SizeBytes() : 0;
}

}  // namespace baselines
}  // namespace lccs
