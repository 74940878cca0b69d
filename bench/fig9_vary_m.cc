// Figure 9: impact of the hash string length m on single-probe LCCS-LSH over
// the Sift analogue, both metrics. For each m in {8..256} a λ sweep traces
// the query-time/recall curve of that m.
//
// Paper shape to reproduce: larger m gives lower query time at high recall
// levels; at low recall small m suffices and increasing m stops helping
// (the curves cross, Figure 9 of the paper).

#include "bench_common.h"

#include "baselines/lccs_adapter.h"
#include "dataset/ground_truth.h"
#include "util/timer.h"

namespace {

void RunMetric(lccs::util::Metric metric) {
  using namespace lccs;
  const auto scale = eval::GetBenchScale();
  const auto data = eval::LoadAnalogue("sift", metric, scale);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  const double dist_scale = eval::EstimateDistanceScale(data);
  const std::vector<size_t> lambdas =
      bench::LambdaGrid({0.0005, 0.002, 0.01, 0.04, 0.15}, data.n());
  util::Table table(
      {"metric", "m", "lambda", "recall%", "ratio", "query_ms", "index"});
  for (const size_t m : {8u, 16u, 32u, 64u, 128u, 256u}) {
    baselines::LccsLshIndex::Params params;
    params.m = m;
    params.w = 2.0 * dist_scale;
    baselines::LccsLshIndex index(params);
    util::Timer timer;
    index.Build(data);
    const double build_seconds = timer.ElapsedSeconds();
    for (const size_t lambda : lambdas) {
      index.set_lambda(lambda);
      const auto run = eval::EvaluateQueries(index, data, gt, 10,
                                             build_seconds,
                                             index.IndexSizeBytes(), "");
      table.AddRow({util::MetricName(metric), std::to_string(m),
                    std::to_string(lambda),
                    util::FormatDouble(100.0 * run.recall, 1),
                    util::FormatDouble(run.ratio, 3),
                    util::FormatDouble(run.avg_query_ms, 3),
                    util::FormatBytes(run.index_bytes)});
    }
    std::printf("[%s m=%zu done]\n", util::MetricName(metric).c_str(), m);
  }
  std::printf("%s", table.ToString().c_str());
}

}  // namespace

int main() {
  using namespace lccs;
  bench::PrintHeader("Figure 9 — impact of m for LCCS-LSH (Sift analogue)");
  const auto scale = eval::GetBenchScale();
  std::printf("n=%zu, %zu queries, k=10\n", scale.n, scale.num_queries);
  RunMetric(util::Metric::kEuclidean);
  RunMetric(util::Metric::kAngular);
  return 0;
}
