#include "report/report.hpp"

#include <cstdio>

#include "asbr/asbr_unit.hpp"
#include "bp/predictor.hpp"

namespace asbr {

const char* valueStageName(ValueStage stage) {
    switch (stage) {
        case ValueStage::kExEnd: return "ex_end";
        case ValueStage::kMemEnd: return "mem_end";
        case ValueStage::kCommit: return "commit";
    }
    return "?";
}

SimReport makeSimReport(RunMeta meta, const PipelineStats& stats,
                        const BranchPredictor* predictor,
                        const AsbrUnit* unit) {
    SimReport report;
    report.meta = std::move(meta);
    stats.publish(report.registry);
    if (predictor != nullptr) predictor->publishMetrics(report.registry);
    if (unit != nullptr) unit->publishMetrics(report.registry);
    report.cpi = stats.cpi();
    report.predictorAccuracy = stats.predictorAccuracy();
    report.resolutionAccuracy = stats.resolutionAccuracy();
    report.foldRate = stats.foldRate();
    report.branchFraction = stats.branchFraction();
    report.icacheMissRate = stats.icache.missRate();
    report.dcacheMissRate = stats.dcache.missRate();
    return report;
}

namespace {

std::string pcKey(std::uint32_t pc) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", pc);
    return buf;
}

JsonValue metaJson(const RunMeta& meta) {
    JsonObject out;
    out.emplace_back("benchmark", meta.benchmark);
    out.emplace_back("predictor", meta.predictor);
    if (!meta.predictorToken.empty())
        out.emplace_back("predictor_token", meta.predictorToken);
    if (!meta.figure.empty()) out.emplace_back("figure", meta.figure);
    out.emplace_back("seed", meta.seed);
    out.emplace_back("samples", meta.samples);
    out.emplace_back("scheduled", meta.scheduled);
    out.emplace_back("asbr", meta.asbr);
    if (meta.asbr) {
        out.emplace_back("bit_entries", meta.bitEntries);
        out.emplace_back("update_stage", meta.updateStage);
        if (meta.predictorAware) out.emplace_back("predictor_aware", true);
    }
    return JsonValue(std::move(out));
}

}  // namespace

JsonValue simReportJson(const SimReport& report) {
    JsonObject doc;
    doc.emplace_back("schema", kSimReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);
    doc.emplace_back("meta", metaJson(report.meta));

    JsonObject counters;
    for (const auto& [name, counter] : report.registry.counters())
        counters.emplace_back(name, counter.value());
    doc.emplace_back("counters", JsonValue(std::move(counters)));

    JsonObject derived;
    derived.emplace_back("cpi", report.cpi);
    derived.emplace_back("predictor_accuracy", report.predictorAccuracy);
    derived.emplace_back("resolution_accuracy", report.resolutionAccuracy);
    derived.emplace_back("fold_rate", report.foldRate);
    derived.emplace_back("branch_fraction", report.branchFraction);
    derived.emplace_back("icache_miss_rate", report.icacheMissRate);
    derived.emplace_back("dcache_miss_rate", report.dcacheMissRate);
    doc.emplace_back("derived", JsonValue(std::move(derived)));

    JsonObject histograms;
    for (const auto& [name, histogram] : report.registry.histograms()) {
        JsonObject h;
        JsonArray bounds;
        for (const double b : histogram.bounds()) bounds.emplace_back(b);
        JsonArray counts;
        for (const std::uint64_t c : histogram.counts()) counts.emplace_back(c);
        h.emplace_back("bounds", JsonValue(std::move(bounds)));
        h.emplace_back("counts", JsonValue(std::move(counts)));
        h.emplace_back("total", histogram.total());
        h.emplace_back("sum", histogram.sum());
        h.emplace_back("min", histogram.min());
        h.emplace_back("max", histogram.max());
        histograms.emplace_back(name, JsonValue(std::move(h)));
    }
    doc.emplace_back("histograms", JsonValue(std::move(histograms)));

    JsonObject sites;
    for (const auto& [name, table] : report.registry.siteTables()) {
        JsonObject perPc;
        for (const auto& [pc, value] : table.values())
            perPc.emplace_back(pcKey(pc), value);
        sites.emplace_back(name, JsonValue(std::move(perPc)));
    }
    doc.emplace_back("sites", JsonValue(std::move(sites)));

    return JsonValue(std::move(doc));
}

JsonValue benchReportJson(const std::string& generator, JsonValue options,
                          const std::vector<SimReport>& runs) {
    JsonObject doc;
    doc.emplace_back("schema", kBenchReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);
    doc.emplace_back("generator", generator);
    doc.emplace_back("options", std::move(options));
    JsonArray runArray;
    runArray.reserve(runs.size());
    for (const SimReport& run : runs) runArray.push_back(simReportJson(run));
    doc.emplace_back("runs", JsonValue(std::move(runArray)));
    return JsonValue(std::move(doc));
}

}  // namespace asbr
