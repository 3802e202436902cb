#include "driver/sweep.hpp"

#include <iterator>

#include "report/sweep_report.hpp"
#include "util/ensure.hpp"

namespace asbr::driver {

std::vector<SimJob> expandSweep(const SweepGrid& grid,
                                const CliOptions& options) {
    std::vector<BenchId> workloads = grid.workloads;
    if (workloads.empty())
        workloads.assign(std::begin(kAllBenchesExtended),
                         std::end(kAllBenchesExtended));

    std::vector<SimJob> jobs;
    for (const BenchId id : workloads) {
        SimJob base;
        base.workload = id;
        base.seed = options.seed;
        base.samples = samplesFor(options, id);
        base.figure = "sweep";
        for (const std::string& predictor : grid.predictors) {
            base.predictor = predictor;
            if (grid.includeBaseline) {
                SimJob job = base;
                job.asbr = false;
                jobs.push_back(job);
            }
            for (const std::size_t bits : grid.bitSizes) {
                for (const ValueStage stage : grid.stages) {
                    SimJob job = base;
                    job.asbr = true;
                    job.bitEntries = bits;
                    job.updateStage = stage;
                    job.parityProtected = grid.parityProtected;
                    job.policy = grid.policy;
                    jobs.push_back(job);
                }
            }
        }
    }
    return jobs;
}

JsonValue sweepReportJson(const std::string& generator, JsonValue options,
                          const std::vector<CellOutcome>& cells) {
    JsonObject doc;
    doc.emplace_back("schema", kSweepReportSchema);
    doc.emplace_back("version", kSweepReportVersion);
    doc.emplace_back("generator", generator);
    doc.emplace_back("options", std::move(options));

    JsonArray cellArray;
    cellArray.reserve(cells.size());
    JsonArray failedArray;
    for (const CellOutcome& cell : cells) {
        ASBR_ENSURE(cell.status != CellStatus::kSkipped,
                    "sweep report: cell '" + cell.key + "' never ran");
        const bool ok = cell.status == CellStatus::kOk;
        JsonObject c;
        c.emplace_back("job", cell.key);
        c.emplace_back("status", ok ? "ok" : "failed");
        c.emplace_back("attempts", cell.attempts);
        if (ok) {
            c.emplace_back("report", cell.report);
        } else {
            c.emplace_back("error", cell.error);
            JsonObject f;
            f.emplace_back("job", cell.key);
            f.emplace_back("attempts", cell.attempts);
            f.emplace_back("error", cell.error);
            failedArray.push_back(JsonValue(std::move(f)));
        }
        cellArray.push_back(JsonValue(std::move(c)));
    }
    doc.emplace_back("cells", JsonValue(std::move(cellArray)));
    doc.emplace_back("failed_jobs", JsonValue(std::move(failedArray)));
    return JsonValue(std::move(doc));
}

}  // namespace asbr::driver
