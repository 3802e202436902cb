#include "report/sweep_report.hpp"

namespace asbr {

JsonValue sweepReportJson(const std::string& generator, JsonValue options,
                          const std::vector<SweepCell>& cells) {
    JsonObject doc;
    doc.emplace_back("schema", kSweepReportSchema);
    doc.emplace_back("version", kSweepReportVersion);
    doc.emplace_back("generator", generator);
    doc.emplace_back("options", std::move(options));

    JsonArray cellArray;
    cellArray.reserve(cells.size());
    JsonArray failedArray;
    for (const SweepCell& cell : cells) {
        JsonObject c;
        c.emplace_back("job", cell.job);
        c.emplace_back("status", cell.status);
        c.emplace_back("attempts", cell.attempts);
        if (cell.status == "ok") {
            c.emplace_back("report", cell.report);
        } else {
            c.emplace_back("error", cell.error);
            JsonObject f;
            f.emplace_back("job", cell.job);
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

}  // namespace asbr
