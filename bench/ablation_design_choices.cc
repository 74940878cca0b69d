// Ablation bench for the two query-path design choices DESIGN.md calls out:
//
//  (A) CSA narrowed binary search (Corollary 3.2 / next links) vs a full
//      binary search on every shift. Candidates are identical by
//      construction; only the per-shift search cost changes from
//      O(log(1/p)) to O(log n).
//
//  (B) MP-LCCS-LSH "skip unaffected positions" (Section 4.2) vs re-searching
//      all m shifts per probe. Again results are preserved; the probing cost
//      changes from (affected shifts) to m searches per probe.

#include "bench_common.h"

#include "baselines/lccs_adapter.h"
#include "dataset/ground_truth.h"
#include "util/timer.h"

int main() {
  using namespace lccs;
  bench::PrintHeader("Ablation — CSA narrowing & MP skip-unaffected");
  auto scale = eval::GetBenchScale();
  const auto data = eval::LoadAnalogue("sift", util::Metric::kEuclidean,
                                       scale);
  const auto gt = dataset::GroundTruth::Compute(data, 10);
  const double dist_scale = eval::EstimateDistanceScale(data);
  util::Table table({"variant", "recall%", "query_ms", "speedup"});

  // (A) narrowing on/off, single-probe, m = 128, lambda = 200.
  {
    baselines::LccsLshIndex::Params params;
    params.m = 128;
    params.lambda = 200;
    params.w = 2.0 * dist_scale;
    baselines::LccsLshIndex index(params);
    index.Build(data);
    double ms_on = 0.0, ms_off = 0.0;
    for (const bool narrowing : {true, false}) {
      const_cast<core::LccsLsh&>(index.scheme())
          .set_use_narrowing(narrowing);
      const auto run = eval::EvaluateQueries(index, data, gt, 10, 0.0, 0, "");
      (narrowing ? ms_on : ms_off) = run.avg_query_ms;
      table.AddRow({narrowing ? "CSA narrowed search (paper)"
                              : "CSA full binary searches",
                    util::FormatDouble(100.0 * run.recall, 1),
                    util::FormatDouble(run.avg_query_ms, 3), "-"});
    }
    table.AddRow({"  -> narrowing speedup", "-", "-",
                  util::FormatDouble(ms_off / ms_on, 2) + "x"});
  }

  // (B) skip-unaffected on/off, m = 64, 129 probes, lambda = 100.
  {
    baselines::LccsLshIndex::Params params;
    params.m = 64;
    params.lambda = 100;
    params.num_probes = 129;
    params.w = 2.0 * dist_scale;
    baselines::LccsLshIndex index(params);
    index.Build(data);
    double ms_on = 0.0, ms_off = 0.0;
    for (const bool skip : {true, false}) {
      auto& scheme = const_cast<core::LccsLsh&>(index.scheme());
      core::ProbeParams probe = scheme.probe_params();
      probe.skip_unaffected = skip;
      scheme.set_probe_params(probe);
      const auto run = eval::EvaluateQueries(index, data, gt, 10, 0.0, 0, "");
      (skip ? ms_on : ms_off) = run.avg_query_ms;
      table.AddRow({skip ? "MP skip unaffected (paper)"
                         : "MP re-search all shifts",
                    util::FormatDouble(100.0 * run.recall, 1),
                    util::FormatDouble(run.avg_query_ms, 3), "-"});
    }
    table.AddRow({"  -> skip-unaffected speedup", "-", "-",
                  util::FormatDouble(ms_off / ms_on, 2) + "x"});
  }

  std::printf("%s", table.ToString().c_str());
  return 0;
}
