// Regenerates Table 3: labelling sizes — QbS size(L) and size(Δ), PPL, and
// ParentPPL — per dataset, with -/DNF/OOE where a method's construction
// exceeds its budget, as in the paper.

#include <cstdio>

#include "baselines/parent_ppl.h"
#include "baselines/ppl.h"
#include "bench/bench_common.h"
#include "core/qbs_index.h"

namespace qbs::bench {
namespace {

void Run() {
  std::printf("Table 3: labelling sizes (|R| = 20; PPL budget %.1fs)\n",
              Args().budget_seconds);
  TablePrinter table("Table 3",
                     {"Dataset", "QbS size(L)", "QbS size(Delta)", "PPL",
                      "ParentPPL", "|G|"},
                     {12, 12, 15, 12, 12, 10});
  for (const auto& ref : Args().datasets) {
    const LoadedDataset d = LoadDataset(ref);
    QbsOptions options;
    options.num_landmarks = 20;
    options.num_threads = Args().threads;
    QbsIndex index = QbsIndex::Build(d.graph, options);

    PplBuildOptions budget;
    budget.time_budget_seconds = Args().budget_seconds;
    budget.max_label_entries = 80'000'000;
    BuildStatus ppl_status;
    auto ppl = PplIndex::Build(d.graph, budget, &ppl_status);
    BuildStatus pppl_status;
    auto pppl = ParentPplIndex::Build(d.graph, budget, &pppl_status);

    table.Row(
        {d.spec.abbrev, HumanBytes(index.LabelingSizeBytes()),
         HumanBytes(index.DeltaSizeBytes()),
         ppl.has_value() ? HumanBytes(ppl->SizeBytes())
                         : (ppl_status == BuildStatus::kTimeBudgetExceeded
                                ? "DNF"
                                : "OOE"),
         pppl.has_value() ? HumanBytes(pppl->SizeBytes())
                          : (pppl_status == BuildStatus::kTimeBudgetExceeded
                                 ? "DNF"
                                 : "OOE"),
         HumanBytes(d.graph.SizeBytes())});
  }
  table.Footer();
}

}  // namespace
}  // namespace qbs::bench

int main(int argc, char** argv) {
  qbs::bench::InitBenchArgs(argc, argv);
  qbs::bench::Run();
}
