// Ablation A (paper Section 5.2) — where the Early Condition Evaluation
// captures register values:
//   commit      threshold 4 (base scheme: update at register commit)
//   post-EX     threshold 3 (forwarding path right after execute)
//   EX-end      threshold 2 (evaluate inside the execute stage)
//
// A lower threshold makes more branches foldable (smaller def-to-branch
// distances qualify) and reduces validity-counter blocking, so folds rise
// and cycles fall monotonically from commit to EX-end.
#include <cstdio>

#include "bench_util.hpp"
#include "util/stats.hpp"

using namespace asbr;
using namespace asbr::bench;

int main(int argc, char** argv) {
    const Options options = parseOptions(argc, argv);
    SimEngine engine({.threads = options.threads});
    ReportSink sink("ablation_threshold", options);

    TextTable table(
        "Ablation: BDT update stage (threshold) vs foldability and cycles");
    table.setHeader({"benchmark", "update stage", "threshold", "BIT entries used",
                     "folds", "blocked (stale)", "cycles", "improvement vs bimodal"});

    struct StageRow {
        ValueStage stage;
        const char* name;
    };
    const StageRow stages[] = {
        {ValueStage::kCommit, "commit"},
        {ValueStage::kMemEnd, "post-EX forward"},
        {ValueStage::kExEnd, "EX-end"},
    };

    // Per benchmark: one bimodal baseline, then one ASBR job per update
    // stage.  All three selections share the cached workload + profile +
    // baseline-accuracy artifacts.
    const std::vector<BenchId> benches = benchList(options, kAllBenches);
    std::vector<SimJob> jobs;
    for (const BenchId id : benches) {
        jobs.push_back(baseJob(options, id, "bimodal", "ablation_threshold"));
        for (const StageRow& stage : stages) {
            SimJob job = baseJob(options, id, "bi512", "ablation_threshold");
            job.asbr = true;
            job.updateStage = stage.stage;
            jobs.push_back(job);
        }
    }
    const std::vector<JobResult> results = engine.run(jobs);

    for (std::size_t b = 0; b < benches.size(); ++b) {
        const JobResult* group = &results[b * 4];
        const JobResult& base = group[0];
        for (std::size_t s = 0; s < 3; ++s) {
            const JobResult& r = group[1 + s];
            sink.add(r);
            table.addRow(
                {benchName(benches[b]), stages[s].name,
                 std::to_string(thresholdFor(stages[s].stage)),
                 std::to_string(r.selection.residents.size()),
                 formatWithCommas(r.unitStats.folds),
                 formatWithCommas(r.unitStats.blockedInvalid),
                 formatWithCommas(r.stats.cycles),
                 formatPercent(improvement(base.stats.cycles, r.stats.cycles))});
        }
    }
    printTable(options, table);
    sink.write();
    std::puts("Expected shape: folds(commit) <= folds(post-EX) <= folds(EX-end)");
    std::puts("and cycles shrinking accordingly (the paper's threshold 4 -> 3 -> 2).");
    return 0;
}
