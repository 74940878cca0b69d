// Figure 10: impact of #probes on MP-LCCS-LSH over the Sift analogue with
// m = 128 fixed, #probes in {1, m+1, 2m+1, 4m+1, 8m+1} (#probes = 1 is
// exactly single-probe LCCS-LSH, footnote 13).
//
// Paper shape to reproduce: probing pays off at high recall levels (fewer
// verified candidates needed for the same recall); at low recall the extra
// probe cost makes single-probe faster — the curves cross.

#include "bench_common.h"

#include "baselines/lccs_adapter.h"
#include "dataset/ground_truth.h"
#include "util/timer.h"

namespace {

void RunMetric(lccs::util::Metric metric) {
  using namespace lccs;
  constexpr size_t kM = 128;
  const auto scale = eval::GetBenchScale();
  const auto data = eval::LoadAnalogue("sift", metric, scale);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  const double dist_scale = eval::EstimateDistanceScale(data);
  const std::vector<size_t> lambdas =
      bench::LambdaGrid({0.0005, 0.002, 0.01, 0.04}, data.n());
  baselines::LccsLshIndex::Params params;
  params.m = kM;
  params.w = 2.0 * dist_scale;
  baselines::LccsLshIndex index(params);
  util::Timer timer;
  index.Build(data);
  const double build_seconds = timer.ElapsedSeconds();
  util::Table table({"metric", "probes", "lambda", "recall%", "ratio",
                     "query_ms"});
  for (const size_t probes :
       {size_t{1}, kM + 1, 2 * kM + 1, 4 * kM + 1, 8 * kM + 1}) {
    index.set_num_probes(probes);
    for (const size_t lambda : lambdas) {
      index.set_lambda(lambda);
      const auto run = eval::EvaluateQueries(index, data, gt, 10,
                                             build_seconds,
                                             index.IndexSizeBytes(), "");
      table.AddRow({util::MetricName(metric), std::to_string(probes),
                    std::to_string(lambda),
                    util::FormatDouble(100.0 * run.recall, 1),
                    util::FormatDouble(run.ratio, 3),
                    util::FormatDouble(run.avg_query_ms, 3)});
    }
    std::printf("[%s probes=%zu done]\n", util::MetricName(metric).c_str(),
                probes);
  }
  std::printf("%s", table.ToString().c_str());
}

}  // namespace

int main() {
  using namespace lccs;
  bench::PrintHeader(
      "Figure 10 — impact of #probes for MP-LCCS-LSH (m=128, Sift analogue)");
  const auto scale = eval::GetBenchScale();
  std::printf("n=%zu, %zu queries, k=10\n", scale.n, scale.num_queries);
  RunMetric(util::Metric::kEuclidean);
  RunMetric(util::Metric::kAngular);
  return 0;
}
