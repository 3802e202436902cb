#include "report/wcet_report.hpp"

namespace asbr {

namespace {

using analysis::timing::BoundSource;

JsonValue boundJson(const analysis::timing::WcetResult& result) {
    JsonObject b;
    b.emplace_back("bounded", result.bounded);
    b.emplace_back("cycles", result.cycles);
    b.emplace_back("reason", result.reason);
    return JsonValue(std::move(b));
}

}  // namespace

JsonValue wcetReportJson(const WcetReportMeta& meta,
                         const analysis::timing::WcetEngine& engine,
                         const analysis::timing::WcetResult& baseline,
                         const analysis::timing::WcetResult& folded,
                         const std::set<std::uint32_t>& foldedPcs,
                         std::uint64_t measuredBaselineCycles,
                         std::uint64_t measuredFoldedCycles) {
    JsonObject doc;
    doc.emplace_back("schema", kWcetReportSchema);
    doc.emplace_back("version", kReportSchemaVersion);

    JsonObject m;
    m.emplace_back("benchmark", meta.benchmark);
    m.emplace_back("threshold", static_cast<std::uint64_t>(meta.threshold));
    m.emplace_back("scheduled", meta.scheduled);
    m.emplace_back("seed", meta.seed);
    m.emplace_back("samples", meta.samples);
    doc.emplace_back("meta", JsonValue(std::move(m)));

    const analysis::timing::TimingCostModel& model = engine.model();
    JsonObject cost;
    cost.emplace_back("mul_stall", static_cast<std::uint64_t>(model.mulStall));
    cost.emplace_back("div_stall", static_cast<std::uint64_t>(model.divStall));
    cost.emplace_back("mispredict_penalty",
                      static_cast<std::uint64_t>(model.mispredictPenalty));
    cost.emplace_back("icache_miss_penalty",
                      static_cast<std::uint64_t>(model.icacheMissPenalty));
    cost.emplace_back("dcache_miss_penalty",
                      static_cast<std::uint64_t>(model.dcacheMissPenalty));
    cost.emplace_back("icache_line_bytes",
                      static_cast<std::uint64_t>(model.icacheLineBytes));
    cost.emplace_back("pipeline_fill_cycles",
                      static_cast<std::uint64_t>(model.pipelineFillCycles));
    doc.emplace_back("cost_model", JsonValue(std::move(cost)));

    std::uint64_t annotated = 0, inferred = 0, profiled = 0, unbounded = 0;
    JsonArray loops;
    for (const analysis::timing::LoopRecord& loop : engine.loops()) {
        switch (loop.bound.source) {
            case BoundSource::kAnnotation: ++annotated; break;
            case BoundSource::kInferred: ++inferred; break;
            case BoundSource::kProfile: ++profiled; break;
            case BoundSource::kNone: ++unbounded; break;
        }
        JsonObject l;
        l.emplace_back("head_pc", static_cast<std::uint64_t>(loop.headPc));
        l.emplace_back("line", loop.sourceLine);
        l.emplace_back("depth", static_cast<std::uint64_t>(loop.depth));
        l.emplace_back("bound", loop.bound.iterations);
        l.emplace_back("source",
                       analysis::timing::boundSourceName(loop.bound.source));
        l.emplace_back("bounded", loop.bound.bounded());
        loops.push_back(JsonValue(std::move(l)));
    }

    std::uint64_t foldedBranches = 0;
    JsonArray branches;
    for (const analysis::timing::BranchCostRecord& r : baseline.branches) {
        const bool isFolded = foldedPcs.count(r.pc) != 0;
        foldedBranches += isFolded ? 1 : 0;
        JsonObject b;
        b.emplace_back("pc", static_cast<std::uint64_t>(r.pc));
        b.emplace_back("line", r.sourceLine);
        b.emplace_back("exec_bound", r.execBound);
        b.emplace_back("unit_cost", r.unitCost);
        b.emplace_back("total_cost", r.totalCost);
        b.emplace_back("folded", isFolded);
        branches.push_back(JsonValue(std::move(b)));
    }

    JsonObject bounds;
    bounds.emplace_back("baseline", boundJson(baseline));
    bounds.emplace_back("folded", boundJson(folded));
    doc.emplace_back("bounds", JsonValue(std::move(bounds)));

    JsonObject measured;
    measured.emplace_back("baseline_cycles", measuredBaselineCycles);
    measured.emplace_back("folded_cycles", measuredFoldedCycles);
    doc.emplace_back("measured", JsonValue(std::move(measured)));

    JsonObject soundness;
    soundness.emplace_back(
        "baseline_sound",
        baseline.bounded && baseline.cycles >= measuredBaselineCycles);
    soundness.emplace_back(
        "folded_sound", folded.bounded && folded.cycles >= measuredFoldedCycles);
    soundness.emplace_back("folded_tighter",
                           baseline.bounded && folded.bounded &&
                               folded.cycles < baseline.cycles);
    doc.emplace_back("soundness", JsonValue(std::move(soundness)));

    JsonObject summary;
    summary.emplace_back("loops", static_cast<std::uint64_t>(loops.size()));
    summary.emplace_back("loops_annotated", annotated);
    summary.emplace_back("loops_inferred", inferred);
    summary.emplace_back("loops_profiled", profiled);
    summary.emplace_back("loops_unbounded", unbounded);
    summary.emplace_back("branches",
                         static_cast<std::uint64_t>(branches.size()));
    summary.emplace_back("folded_branches", foldedBranches);
    doc.emplace_back("summary", JsonValue(std::move(summary)));

    doc.emplace_back("loops", JsonValue(std::move(loops)));
    doc.emplace_back("branches", JsonValue(std::move(branches)));
    return JsonValue(std::move(doc));
}

}  // namespace asbr
