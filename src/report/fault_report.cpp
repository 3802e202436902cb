#include "report/fault_report.hpp"

namespace asbr {

JsonValue injectionRecordJson(const InjectionRecord& record) {
    JsonObject r;
    r.emplace_back("site", faultSiteJson(record.injection.site));
    r.emplace_back("cycle", record.injection.cycle);
    r.emplace_back("outcome", faultOutcomeName(record.outcome));
    r.emplace_back("cycles", record.cycles);
    r.emplace_back("recoveries", record.recoveries);
    if (!record.detail.empty()) r.emplace_back("detail", record.detail);
    return JsonValue(std::move(r));
}

InjectionRecord injectionRecordFromJson(const JsonValue& value) {
    ASBR_ENSURE(value.isObject(), "injection record: not a JSON object");
    InjectionRecord record;
    const JsonValue* site = value.find("site");
    ASBR_ENSURE(site != nullptr, "injection record: missing site");
    record.injection.site = faultSiteFromJson(*site);
    for (const char* key : {"cycle", "cycles", "recoveries"}) {
        const JsonValue* v = value.find(key);
        ASBR_ENSURE(v != nullptr && v->isNumber(),
                    std::string("injection record: ") + key +
                        " missing or not a number");
    }
    record.injection.cycle = value.find("cycle")->asUint();
    record.cycles = value.find("cycles")->asUint();
    record.recoveries = value.find("recoveries")->asUint();
    const JsonValue* outcome = value.find("outcome");
    ASBR_ENSURE(outcome != nullptr && outcome->isString(),
                "injection record: outcome missing or not a string");
    const auto parsed = faultOutcomeFromName(outcome->asString());
    ASBR_ENSURE(parsed.has_value(), "injection record: unknown outcome '" +
                                        outcome->asString() + "'");
    record.outcome = *parsed;
    if (const JsonValue* detail = value.find("detail")) {
        ASBR_ENSURE(detail->isString(),
                    "injection record: detail is not a string");
        record.detail = detail->asString();
    }
    return record;
}

JsonValue faultReportJson(const FaultReportMeta& meta,
                          const CampaignConfig& config,
                          const CampaignResult& result,
                          const std::vector<FailedInjection>& failed) {
    JsonObject doc;
    doc.emplace_back("schema", kFaultReportSchema);
    doc.emplace_back("version", kFaultReportVersion);

    JsonObject m;
    m.emplace_back("benchmark", meta.benchmark);
    m.emplace_back("predictor", meta.predictor);
    m.emplace_back("seed", meta.seed);
    m.emplace_back("samples", meta.samples);
    m.emplace_back("protected", meta.protectedMode);
    m.emplace_back("bit_entries", meta.bitEntries);
    m.emplace_back("update_stage", meta.updateStage);
    doc.emplace_back("meta", JsonValue(std::move(m)));

    JsonObject campaign;
    campaign.emplace_back("fault_seed", config.seed);
    campaign.emplace_back("injections", config.injections);
    campaign.emplace_back("max_cycle_factor", config.maxCycleFactor);
    JsonObject targets;
    targets.emplace_back("bdt", config.faultBdt);
    targets.emplace_back("bit", config.faultBit);
    targets.emplace_back("bp", config.faultBp);
    campaign.emplace_back("targets", JsonValue(std::move(targets)));
    campaign.emplace_back("clean_cycles", result.context.cleanCycles);
    doc.emplace_back("campaign", JsonValue(std::move(campaign)));

    JsonObject outcomes;
    for (std::size_t o = 0; o < kNumFaultOutcomes; ++o)
        outcomes.emplace_back(faultOutcomeName(static_cast<FaultOutcome>(o)),
                              result.outcomes[o]);
    doc.emplace_back("outcomes", JsonValue(std::move(outcomes)));

    JsonArray injections;
    injections.reserve(result.records.size());
    for (const InjectionRecord& record : result.records)
        injections.push_back(injectionRecordJson(record));
    doc.emplace_back("injections", JsonValue(std::move(injections)));

    JsonArray failedJobs;
    failedJobs.reserve(failed.size());
    for (const FailedInjection& f : failed) {
        JsonObject r;
        r.emplace_back("index", f.index);
        r.emplace_back("site", faultSiteJson(f.injection.site));
        r.emplace_back("cycle", f.injection.cycle);
        r.emplace_back("attempts", f.attempts);
        r.emplace_back("error", f.error);
        failedJobs.push_back(JsonValue(std::move(r)));
    }
    doc.emplace_back("failed_jobs", JsonValue(std::move(failedJobs)));

    return JsonValue(std::move(doc));
}

std::optional<FaultOutcome> faultOutcomeFromName(const std::string& name) {
    for (std::size_t o = 0; o < kNumFaultOutcomes; ++o)
        if (name == faultOutcomeName(static_cast<FaultOutcome>(o)))
            return static_cast<FaultOutcome>(o);
    return std::nullopt;
}

}  // namespace asbr
