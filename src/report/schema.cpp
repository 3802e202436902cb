#include "report/schema.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "report/analysis_report.hpp"
#include "report/fault_report.hpp"
#include "report/ipa_report.hpp"
#include "report/sampling_report.hpp"
#include "report/sweep_report.hpp"
#include "report/wcet_report.hpp"

namespace asbr {

namespace {

// ---------------------------------------------------------------- engine ----

/// A test on one value and the phrase that names it in error messages.
struct Check {
    std::function<bool(const JsonValue&)> test;
    std::string what;
};

const Check kNumber{[](const JsonValue& v) { return v.isNumber(); },
                    "a number"};
const Check kString{[](const JsonValue& v) { return v.isString(); },
                    "a string"};
const Check kBool{[](const JsonValue& v) { return v.isBool(); }, "a bool"};
const Check kArray{[](const JsonValue& v) { return v.isArray(); }, "an array"};
const Check kObject{[](const JsonValue& v) { return v.isObject(); },
                    "an object"};
const Check kNonEmptyArray{
    [](const JsonValue& v) { return v.isArray() && !v.asArray().empty(); },
    "a non-empty array"};

/// A string equal to one of `names`.
Check oneOf(std::vector<std::string> names) {
    std::string what = names.size() > 1 ? "one of " : "";
    for (std::size_t i = 0; i < names.size(); ++i)
        what += (i == 0 ? "'" : "/'") + names[i] + "'";
    return {[names = std::move(names)](const JsonValue& v) {
                return v.isString() && std::find(names.begin(), names.end(),
                                                 v.asString()) != names.end();
            },
            std::move(what)};
}

/// One of the labels `name` gives the enumerators `values`.
template <typename E>
Check labelOf(std::initializer_list<E> values, const char* (*name)(E)) {
    std::vector<std::string> names;
    for (const E value : values) names.emplace_back(name(value));
    return oneOf(std::move(names));
}

/// A non-negative integer in [lo, hi].
Check range(std::uint64_t lo, std::uint64_t hi) {
    std::string what = std::to_string(lo);
    if (hi == std::numeric_limits<std::uint64_t>::max())
        what = "at least " + what;
    else if (hi != lo)
        what += ".." + std::to_string(hi);
    return {[lo, hi](const JsonValue& v) {
                if (!v.isNumber()) return false;
                const double d = v.asDouble();
                return d == std::floor(d) && d >= static_cast<double>(lo) &&
                       d <= static_cast<double>(hi);
            },
            std::move(what)};
}

struct Field {
    std::string_view path;  ///< see schema.hpp for the syntax
    Check check;
};

using Errors = std::vector<std::string>;

struct Schema {
    Schema(const char* schemaId, std::uint64_t schemaVersion,
           std::vector<Field> table,
           void (*checkInvariants)(const JsonValue&, Errors&))
        : id(schemaId), invariants(checkInvariants) {
        fields.push_back({"schema", oneOf({schemaId})});
        fields.push_back({"version", range(schemaVersion, schemaVersion)});
        fields.insert(fields.end(), table.begin(), table.end());
    }

    const char* id;
    std::vector<Field> fields;
    /// Cross-field invariants, run once every field conforms.
    void (*invariants)(const JsonValue& doc, Errors& errors);
};

void walk(const JsonValue* v, std::string_view path, std::string& at,
          const Check& check, Errors& errors);

/// Walks member `key` of `v` (with its `?` and `[]` marks), then `rest`.
void walkMember(const JsonValue* v, std::string_view key,
                std::string_view rest, std::string& at, const Check& check,
                Errors& errors) {
    const bool each = key.ends_with("[]");
    if (each) key.remove_suffix(2);
    const bool optional = key.ends_with('?');
    if (optional) key.remove_suffix(1);
    const JsonValue* child = v == nullptr ? nullptr : v->find(key);
    if (child == nullptr && optional) return;
    const std::size_t mark = at.size();
    at.append(at.empty() ? "" : ".").append(key);
    if (!each) {
        walk(child, rest, at, check, errors);
    } else if (child == nullptr || !child->isArray()) {
        errors.push_back(at + "[]" + (rest.empty() ? "" : ".") +
                         std::string(rest) + " missing or not " + check.what);
    } else {
        const std::size_t element = at.size();
        for (std::size_t i = 0; i < child->asArray().size(); ++i) {
            at.append("[").append(std::to_string(i)).append("]");
            walk(&child->asArray()[i], rest, at, check, errors);
            at.resize(element);
        }
    }
    at.resize(mark);
}

/// Applies one field entry to `v`, the value at the concrete path `at`
/// (restored on return); `path` is what is left of the entry's path.
void walk(const JsonValue* v, std::string_view path, std::string& at,
          const Check& check, Errors& errors) {
    if (path.empty()) {
        if (v == nullptr || !check.test(*v))
            errors.push_back(at + " missing or not " + check.what);
        return;
    }
    // The first step ends at the first '.' outside a {...} group.
    std::size_t end = 0;
    for (int depth = 0; end < path.size() && (depth > 0 || path[end] != '.');
         ++end)
        depth += path[end] == '{' ? 1 : path[end] == '}' ? -1 : 0;
    std::string_view step = path.substr(0, end);
    const std::string_view rest =
        end < path.size() ? path.substr(end + 1) : std::string_view();
    if (step == "*") {
        if (v == nullptr || !v->isObject()) {
            errors.push_back(at + (at.empty() ? "" : ".") + std::string(path) +
                             " missing or not " + check.what);
            return;
        }
        const std::size_t mark = at.size();
        for (const auto& [key, member] : v->asObject()) {
            at.append(at.empty() ? "" : ".").append(key);
            walk(&member, rest, at, check, errors);
            at.resize(mark);
        }
    } else if (step.starts_with('{')) {
        step = step.substr(1, step.size() - 2);
        for (std::size_t comma = 0; comma != std::string_view::npos;) {
            comma = step.find(',');
            walkMember(v, step.substr(0, comma), rest, at, check, errors);
            step.remove_prefix(comma == std::string_view::npos ? step.size()
                                                               : comma + 1);
        }
    } else {
        walkMember(v, step, rest, at, check, errors);
    }
}

ReportValidation check(const Schema& schema, const JsonValue& doc) {
    Errors errors;
    if (!doc.isObject()) {
        errors.push_back("not a JSON object");
    } else {
        std::string at;
        for (const Field& field : schema.fields)
            walk(&doc, field.path, at, field.check, errors);
        // A number an invariant cannot read as an unsigned integer (a
        // negative or fractional count) rejects the document.
        try {
            if (errors.empty()) schema.invariants(doc, errors);
        } catch (const EnsureError& e) {
            errors.emplace_back(e.what());
        }
    }
    // Messages name the schema without its "asbr." prefix.
    const std::string name = std::string(schema.id + 5) + ": ";
    ReportValidation out;
    for (const std::string& error : errors) out.errors.push_back(name + error);
    return out;
}

// ------------------------------------------------- invariant helpers ----

/// The value at a dotted path of plain keys, present by the field table.
const JsonValue& get(const JsonValue& v, std::string_view path) {
    const JsonValue* at = &v;
    while (true) {
        const std::size_t dot = path.find('.');
        at = at->find(path.substr(0, dot));
        if (dot == std::string_view::npos) return *at;
        path.remove_prefix(dot + 1);
    }
}

std::uint64_t uintAt(const JsonValue& v, std::string_view path) {
    return get(v, path).asUint();
}

const JsonArray& arrayAt(const JsonValue& v, std::string_view path) {
    return get(v, path).asArray();
}

std::uint64_t countWhere(const JsonArray& records, std::string_view key,
                         const std::function<bool(const JsonValue&)>& pred) {
    return static_cast<std::uint64_t>(
        std::count_if(records.begin(), records.end(),
                      [&](const JsonValue& r) { return pred(get(r, key)); }));
}

void require(bool holds, const char* message, Errors& errors) {
    if (!holds) errors.emplace_back(message);
}

std::string indexed(const char* array, std::size_t i) {
    return std::string(array) + "[" + std::to_string(i) + "]";
}

/// An embedded sim report's errors, under the path that holds it.
void nestedSimReport(const JsonValue& doc, const std::string& where,
                     Errors& errors) {
    for (const std::string& error : validateSimReportJson(doc).errors)
        errors.push_back(where + " " + error);
}

// ------------------------------------------- asbr.sim_report / bench ----

void simInvariants(const JsonValue& doc, Errors& errors) {
    const JsonValue& counters = get(doc, "counters");
    const auto counter = [&](const char* name) {
        return counters.find(name)->asUint();
    };
    // Every executed conditional branch is either folded or handed to the
    // predictor, never both.
    require(counter("pipeline.folded_branches") +
                    counter("pipeline.predicted_branches") ==
                counter("pipeline.cond_branches"),
            "folded_branches + predicted_branches != cond_branches", errors);
    for (const auto& [name, h] : get(doc, "histograms").asObject())
        if (arrayAt(h, "counts").size() != arrayAt(h, "bounds").size() + 1)
            errors.push_back("histogram '" + name +
                             "' needs counts.size == bounds.size + 1");
}

const Schema kSim{
    kSimReportSchema,
    kReportSchemaVersion,
    {{"meta.{benchmark,predictor}", kString},
     {"counters.*", kNumber},
     // The counters the Fig. 6 (cycles/CPI/accuracy/mispredicts) and
     // Fig. 11 (cycles/folds/activity/storage) tables are generated from.
     {"counters.{pipeline.cycles,pipeline.committed,pipeline.fetched,"
      "pipeline.cond_branches,pipeline.folded_branches,"
      "pipeline.predicted_branches,pipeline.predicted_correct,"
      "pipeline.mispredicts,mem.icache.accesses,mem.icache.misses,"
      "mem.dcache.accesses,mem.dcache.misses}",
      kNumber},
     {"derived.{cpi,predictor_accuracy,resolution_accuracy,fold_rate,"
      "branch_fraction}",
      kNumber},
     {"histograms.*.{bounds,counts}", kArray},
     {"sites", kObject}},
    simInvariants};

void benchInvariants(const JsonValue& doc, Errors& errors) {
    const JsonArray& runs = arrayAt(doc, "runs");
    for (std::size_t i = 0; i < runs.size(); ++i)
        nestedSimReport(runs[i], indexed("runs", i), errors);
}

const Schema kBench{kBenchReportSchema,
                    kReportSchemaVersion,
                    {{"generator", kString}, {"runs", kNonEmptyArray}},
                    benchInvariants};

// ---------------------------------------------------- asbr.sweep_report ----

void sweepInvariants(const JsonValue& doc, Errors& errors) {
    const JsonArray& cells = arrayAt(doc, "cells");
    std::size_t failed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string where = indexed("cells", i);
        if (get(cells[i], "status").asString() == "ok") {
            if (const JsonValue* report = cells[i].find("report"))
                nestedSimReport(*report, where + ".report", errors);
            else
                errors.push_back(where + " has status ok but no report");
        } else {
            ++failed;
            const JsonValue* error = cells[i].find("error");
            if (error == nullptr || !error->isString())
                errors.push_back(where +
                                 " has status failed but no error string");
        }
    }
    // The summary must mirror the quarantined cells exactly.
    require(arrayAt(doc, "failed_jobs").size() == failed,
            "failed_jobs does not match the number of failed cells", errors);
}

const Schema kSweep{kSweepReportSchema,
                    kSweepReportVersion,
                    {{"generator", kString},
                     {"cells", kNonEmptyArray},
                     {"cells[].job", kString},
                     {"cells[].attempts", kNumber},
                     {"cells[].status", oneOf({"ok", "failed"})},
                     {"failed_jobs[].{job,error}", kString},
                     {"failed_jobs[].attempts", kNumber}},
                    sweepInvariants};

// ---------------------------------------------------- asbr.fault_report ----

void faultInvariants(const JsonValue& doc, Errors& errors) {
    // Records and sites parse through the same code resume uses.
    const JsonArray& injections = arrayAt(doc, "injections");
    for (std::size_t i = 0; i < injections.size(); ++i) {
        try {
            (void)injectionRecordFromJson(injections[i]);
        } catch (const EnsureError& e) {
            errors.push_back(indexed("injections", i) + ": " + e.what());
        }
    }
    const JsonArray& failed = arrayAt(doc, "failed_jobs");
    for (std::size_t i = 0; i < failed.size(); ++i) {
        try {
            (void)faultSiteFromJson(get(failed[i], "site"));
        } catch (const EnsureError& e) {
            errors.push_back(indexed("failed_jobs", i) + ".site: " + e.what());
        }
    }
    // The histogram must account for every injected run, no more, no less.
    std::uint64_t outcomes = 0;
    for (std::size_t o = 0; o < kNumFaultOutcomes; ++o)
        outcomes += get(doc, "outcomes")
                        .find(faultOutcomeName(static_cast<FaultOutcome>(o)))
                        ->asUint();
    require(outcomes == injections.size(),
            "outcome counts do not sum to the number of injections", errors);
    // Classified + quarantined must cover the configured campaign: reports
    // are only written for complete (possibly degraded) campaigns.
    require(injections.size() + failed.size() ==
                uintAt(doc, "campaign.injections"),
            "injections + failed_jobs do not cover campaign.injections",
            errors);
}

static_assert(kNumFaultOutcomes == 5, "list every outcome in kFault");
const Schema kFault{
    kFaultReportSchema,
    kFaultReportVersion,
    {{"meta.{benchmark,predictor,update_stage}", kString},
     {"meta.{seed,samples,bit_entries}", kNumber},
     {"meta.protected", kBool},
     {"campaign.{fault_seed,injections,max_cycle_factor,clean_cycles}",
      kNumber},
     {"campaign.targets", kObject},
     {"outcomes.{masked,detected_recovered,detected_aborted,sdc,hang}",
      kNumber},
     {"injections", kArray},
     {"failed_jobs[].{index,cycle,attempts}", kNumber},
     {"failed_jobs[].error", kString},
     {"failed_jobs[].site", kObject}},
    faultInvariants};

// ------------------------------------------------- asbr.analysis_report ----

using analysis::BranchDirection;
using analysis::FoldLegality;
using analysis::StaticLint;

void analysisInvariants(const JsonValue& doc, Errors& errors) {
    const JsonArray& branches = arrayAt(doc, "branches");
    const auto decided = [](const JsonValue& direction) {
        for (const BranchDirection d :
             {BranchDirection::kAlwaysTaken, BranchDirection::kNeverTaken})
            if (direction.asString() == analysis::branchDirectionName(d))
                return true;
        return false;
    };
    require(uintAt(doc, "summary.branches") == branches.size(),
            "summary.branches does not match the branches array", errors);
    require(uintAt(doc, "summary.lints") == arrayAt(doc, "lints").size(),
            "summary.lints does not match the lints array", errors);
    require(uintAt(doc, "summary.statically_decided") ==
                countWhere(branches, "direction", decided),
            "summary.statically_decided does not match the direction "
            "histogram",
            errors);
}

const Schema kAnalysis{
    kAnalysisReportSchema,
    kReportSchemaVersion,
    {{"meta.benchmark", kString},
     {"meta.threshold", range(2, 4)},
     {"meta.scheduled", kBool},
     {"cfg.{instructions,blocks,edges,call_sites,function_entries}", kNumber},
     {"cfg.unresolved_indirect", kBool},
     {"loops.{count,max_depth,widening_points}", kNumber},
     {"fixpoint.converged", kBool},
     {"fixpoint.iterations", kNumber},
     {"branches[].{pc,line,static_min_distance,unrefined_min_distance}",
      kNumber},
     {"branches[].{instr,cond_value}", kString},
     {"branches[].{reachable,extractable}", kBool},
     {"branches[].direction",
      labelOf({BranchDirection::kAlwaysTaken, BranchDirection::kNeverTaken,
               BranchDirection::kDynamic, BranchDirection::kUnreachable},
              analysis::branchDirectionName)},
     {"branches[].legality",
      labelOf({FoldLegality::kProvablySafe, FoldLegality::kSafeOnProfiledPaths,
               FoldLegality::kIllegal},
              analysis::foldLegalityName)},
     {"lints[].kind",
      labelOf({StaticLint::Kind::kUnreachableBlock,
               StaticLint::Kind::kDeadBranchArm,
               StaticLint::Kind::kRefinementWin,
               StaticLint::Kind::kUnboundedLoop,
               StaticLint::Kind::kDanglingLoopBound,
               StaticLint::Kind::kDeadStore,
               StaticLint::Kind::kNeverWrittenRead,
               StaticLint::Kind::kCorrelatedBranch},
              analysis::staticLintKindName)},
     {"lints[].{pc,line}", kNumber},
     {"lints[].message", kString},
     {"summary.{branches,always_taken,never_taken,dynamic,unreachable,"
      "statically_decided,provably_safe,illegal,refinement_wins,lints}",
      kNumber}},
    analysisInvariants};

// ------------------------------------------------------ asbr.ipa_report ----

void ipaInvariants(const JsonValue& doc, Errors& errors) {
    // The reduced product can only add decided branches.
    require(uintAt(doc, "pipeline.merged_decided") >=
                uintAt(doc, "pipeline.dense_decided"),
            "pipeline.merged_decided is below dense_decided (reduced product "
            "lost precision)",
            errors);
    require(uintAt(doc, "resolution.resolved_calls") +
                    uintAt(doc, "resolution.resolved_gotos") ==
                arrayAt(doc, "resolution.sites").size(),
            "resolution counters do not match the sites array", errors);
    const JsonArray& nodes = arrayAt(doc, "callgraph.nodes");
    std::uint64_t edges = 0;
    for (const JsonValue& node : nodes)
        edges += arrayAt(node, "callees").size();
    require(uintAt(doc, "callgraph.functions") == nodes.size(),
            "callgraph.functions does not match the nodes array", errors);
    require(uintAt(doc, "callgraph.edges") == edges,
            "callgraph.edges does not match the summed callee lists", errors);
}

const Schema kIpa{
    kIpaReportSchema,
    kReportSchemaVersion,
    {{"meta.benchmark", kString},
     {"pipeline.{rounds,ssa_defs,ssa_phis,ssa_uses,sccp_iterations,"
      "dense_decided,sccp_decided,merged_decided}",
      kNumber},
     {"pipeline.sccp_converged", kBool},
     {"resolution.{resolved_calls,resolved_gotos,unresolved_sites,"
      "table_loads}",
      kNumber},
     {"resolution.sites[].pc", kNumber},
     {"resolution.sites[].kind", oneOf({"call", "goto"})},
     {"resolution.sites[].targets", kNonEmptyArray},
     {"callgraph.{functions,edges,main_pc}", kNumber},
     {"callgraph.recursive", kBool},
     {"callgraph.nodes[].{entry_pc,blocks,clobber_mask,clobber_count,"
      "wcet_cycles}",
      kNumber},
     {"callgraph.nodes[].{symbol,return_value}", kString},
     {"callgraph.nodes[].{unresolved_indirect,reachable_from_main,"
      "wcet_bounded}",
      kBool},
     {"callgraph.nodes[].{callees,call_site_pcs}", kArray},
     {"wcet.bounded", kBool},
     {"wcet.cycles", kNumber},
     {"wcet.reason", kString}},
    ipaInvariants};

// ------------------------------------------------- asbr.sampling_report ----

void samplingInvariants(const JsonValue& doc, Errors& errors) {
    const std::uint64_t cpi = uintAt(doc, "estimate.cpi_micro");
    const std::uint64_t bound = uintAt(doc, "estimate.error_bound_micro");
    // The bound is a pure integer function of the other two fields.
    require(bound == std::max(uintAt(doc, "estimate.ci95_half_width_micro"),
                              cpi / 100),
            "estimate.error_bound_micro is not max(ci95_half_width_micro, "
            "cpi_micro/100)",
            errors);
    if (const JsonValue* reference = doc.find("reference")) {
        const std::uint64_t refCpi = uintAt(*reference, "cpi_micro");
        const std::uint64_t absError = uintAt(*reference, "abs_error_micro");
        require(absError == (refCpi > cpi ? refCpi - cpi : cpi - refCpi),
                "reference.abs_error_micro contradicts the CPI fields", errors);
        require(get(*reference, "within_bound").asBool() == (absError <= bound),
                "reference.within_bound contradicts abs_error/error_bound",
                errors);
    }
    const JsonArray& windows = arrayAt(doc, "windows");
    std::uint64_t instructions = 0, cycles = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        instructions += uintAt(windows[i], "instructions");
        cycles += uintAt(windows[i], "cycles");
        if (i > 0 && uintAt(windows[i], "start_instruction") <=
                         uintAt(windows[i - 1], "start_instruction"))
            errors.push_back(indexed("windows", i) +
                             ".start_instruction is not strictly increasing");
    }
    require(uintAt(doc, "totals.windows") == windows.size(),
            "totals.windows does not match the windows array", errors);
    require(uintAt(doc, "totals.measured_instructions") == instructions,
            "totals.measured_instructions does not match the windows array",
            errors);
    require(uintAt(doc, "totals.measured_cycles") == cycles,
            "totals.measured_cycles does not match the windows array", errors);
}

const Schema kSampling{
    kSamplingReportSchema,
    kReportSchemaVersion,
    {{"meta.{benchmark,predictor}", kString},
     {"meta.{seed,samples}", kNumber},
     {"meta.{scheduled,asbr}", kBool},
     {"sampling.{warmup,skip}", kNumber},
     {"sampling.measure", range(1, std::numeric_limits<std::uint64_t>::max())},
     {"totals.{windows,measured_instructions,measured_cycles,"
      "fast_forward_instructions,total_instructions,cond_branches,"
      "folded_branches,exit_code}",
      kNumber},
     {"totals.exited", kBool},
     {"estimate.{cpi_micro,ci95_half_width_micro,error_bound_micro,"
      "fold_rate_micro}",
      kNumber},
     {"reference?.{cycles,committed,cpi_micro,abs_error_micro}", kNumber},
     {"reference?.within_bound", kBool},
     {"windows[].{start_instruction,instructions,cycles}", kNumber}},
    samplingInvariants};

// ----------------------------------------------------- asbr.wcet_report ----

using analysis::timing::BoundSource;

void wcetInvariants(const JsonValue& doc, Errors& errors) {
    // The soundness booleans must restate the numbers.
    const JsonValue& base = get(doc, "bounds.baseline");
    const JsonValue& fold = get(doc, "bounds.folded");
    const bool baseBounded = get(base, "bounded").asBool();
    const bool foldBounded = get(fold, "bounded").asBool();
    require(get(doc, "soundness.baseline_sound").asBool() ==
                (baseBounded && uintAt(base, "cycles") >=
                                    uintAt(doc, "measured.baseline_cycles")),
            "soundness.baseline_sound contradicts bounds/measured", errors);
    require(get(doc, "soundness.folded_sound").asBool() ==
                (foldBounded && uintAt(fold, "cycles") >=
                                    uintAt(doc, "measured.folded_cycles")),
            "soundness.folded_sound contradicts bounds/measured", errors);
    require(get(doc, "soundness.folded_tighter").asBool() ==
                (baseBounded && foldBounded &&
                 uintAt(fold, "cycles") < uintAt(base, "cycles")),
            "soundness.folded_tighter contradicts the bounds", errors);

    const JsonArray& branches = arrayAt(doc, "branches");
    // The ranking invariant: total_cost is non-increasing.
    for (std::size_t i = 1; i < branches.size(); ++i)
        if (uintAt(branches[i], "total_cost") >
            uintAt(branches[i - 1], "total_cost"))
            errors.push_back(indexed("branches", i) +
                             ".total_cost breaks the descending ranking");
    const JsonArray& loops = arrayAt(doc, "loops");
    const auto isFalse = [](const JsonValue& v) { return !v.asBool(); };
    const auto isTrue = [](const JsonValue& v) { return v.asBool(); };
    require(uintAt(doc, "summary.loops") == loops.size(),
            "summary.loops does not match the loops array", errors);
    require(uintAt(doc, "summary.loops_unbounded") ==
                countWhere(loops, "bounded", isFalse),
            "summary.loops_unbounded does not match the loops array", errors);
    require(uintAt(doc, "summary.branches") == branches.size(),
            "summary.branches does not match the branches array", errors);
    require(uintAt(doc, "summary.folded_branches") ==
                countWhere(branches, "folded", isTrue),
            "summary.folded_branches does not match the branches array",
            errors);
}

const Schema kWcet{
    kWcetReportSchema,
    kReportSchemaVersion,
    {{"meta.benchmark", kString},
     {"meta.threshold", range(2, 4)},
     {"meta.scheduled", kBool},
     {"meta.{seed,samples}", kNumber},
     {"cost_model.{mul_stall,div_stall,mispredict_penalty,"
      "icache_miss_penalty,dcache_miss_penalty,icache_line_bytes,"
      "pipeline_fill_cycles}",
      kNumber},
     {"bounds.{baseline,folded}.bounded", kBool},
     {"bounds.{baseline,folded}.cycles", kNumber},
     {"bounds.{baseline,folded}.reason", kString},
     {"measured.{baseline_cycles,folded_cycles}", kNumber},
     {"soundness.{baseline_sound,folded_sound,folded_tighter}", kBool},
     {"loops[].{head_pc,line,depth,bound}", kNumber},
     {"loops[].source",
      labelOf({BoundSource::kAnnotation, BoundSource::kInferred,
               BoundSource::kProfile, BoundSource::kNone},
              analysis::timing::boundSourceName)},
     {"loops[].bounded", kBool},
     {"branches[].{pc,line,exec_bound,unit_cost,total_cost}", kNumber},
     {"branches[].folded", kBool},
     {"summary.{loops,loops_annotated,loops_inferred,loops_profiled,"
      "loops_unbounded,branches,folded_branches}",
      kNumber}},
    wcetInvariants};

const ReportSchema kReportSchemas[] = {
    {kSimReportSchema, kReportSchemaVersion, validateSimReportJson},
    {kBenchReportSchema, kReportSchemaVersion, validateBenchReportJson},
    {kSweepReportSchema, kSweepReportVersion, validateSweepReportJson},
    {kFaultReportSchema, kFaultReportVersion, validateFaultReportJson},
    {kAnalysisReportSchema, kReportSchemaVersion, validateAnalysisReportJson},
    {kIpaReportSchema, kReportSchemaVersion, validateIpaReportJson},
    {kSamplingReportSchema, kReportSchemaVersion, validateSamplingReportJson},
    {kWcetReportSchema, kReportSchemaVersion, validateWcetReportJson},
};

}  // namespace

ReportValidation validateSimReportJson(const JsonValue& doc) {
    return check(kSim, doc);
}
ReportValidation validateBenchReportJson(const JsonValue& doc) {
    return check(kBench, doc);
}
ReportValidation validateSweepReportJson(const JsonValue& doc) {
    return check(kSweep, doc);
}
ReportValidation validateFaultReportJson(const JsonValue& doc) {
    return check(kFault, doc);
}
ReportValidation validateAnalysisReportJson(const JsonValue& doc) {
    return check(kAnalysis, doc);
}
ReportValidation validateIpaReportJson(const JsonValue& doc) {
    return check(kIpa, doc);
}
ReportValidation validateSamplingReportJson(const JsonValue& doc) {
    return check(kSampling, doc);
}
ReportValidation validateWcetReportJson(const JsonValue& doc) {
    return check(kWcet, doc);
}

const ReportSchema* findReportSchema(std::string_view id) {
    for (const ReportSchema& schema : kReportSchemas)
        if (id == schema.id) return &schema;
    return nullptr;
}

}  // namespace asbr
