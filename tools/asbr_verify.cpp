// asbr-verify — static fold-legality linter for assembled/compiled programs.
//
// Builds the CFG, the abstract-interpretation value analysis and the
// reaching-producer dataflow over the linked program, verifies the fold
// legality of either the profiler-driven selection (default) or every
// conditional branch (--all), checks the BIT geometry for conflicts and the
// extracted bank for BTA/BTI/BFI consistency, and exits nonzero when any
// verified branch is Illegal (or any conflict / inconsistency is found) —
// suitable as a CI gate.
//
//   asbr-verify prog.c                      # verify the default selection
//   asbr-verify prog.s --all                # lint every conditional branch
//   asbr-verify prog.c --threshold=2 --require-safe
//   asbr-verify prog.s --all --no-profile   # purely static verdicts
//   asbr-verify prog.s --strict             # value-analysis lints are fatal
//   asbr-verify prog.s --dump-cfg=cfg.dot   # Graphviz render of the analysis
//   asbr-verify analyze --bench=adpcm-enc --out=report.json
//
// Every mode shares one argument struct, one flag loop (which rejects the
// flags the chosen mode does not take) and one <file> | --bench=B resolver.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/dot.hpp"
#include "analysis/timing/wcet.hpp"
#include "analysis/verify.hpp"
#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "driver/artifacts.hpp"
#include "driver/cli.hpp"
#include "driver/names.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "report/analysis_report.hpp"
#include "report/ipa_report.hpp"
#include "report/schema.hpp"
#include "report/wcet_report.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace asbr;

constexpr const char* kTool = "asbr-verify";

[[noreturn]] void usage() {
    std::fputs(
        "usage: asbr-verify <file.c|file.s> [options]\n"
        "       asbr-verify analyze <file.c|file.s> | --bench=B [options]\n"
        "       asbr-verify wcet <file.c|file.s> | --bench=B [options]\n"
        "       asbr-verify ipa <file.c|file.s> | --bench=B [options]\n"
        "       asbr-verify callgraph <file.c|file.s> | --bench=B [options]\n"
        "  --threshold=2|3|4   fold-distance threshold (default 3)\n"
        "  --bit=N             BIT ways per set (default 16)\n"
        "  --sets=N            BIT sets (default 1 = fully associative)\n"
        "  --all               verify every conditional branch, not just the\n"
        "                      profiler-driven selection\n"
        "  --no-profile        skip the dynamic profile (purely static run;\n"
        "                      implies --all)\n"
        "  --require-safe      selection drops Illegal candidates\n"
        "  --no-schedule       disable the condition-scheduling pass\n"
        "  --dump-cfg=FILE     write the analyzed CFG as a Graphviz digraph\n"
        "  --strict            unreachable-block / dead-branch-arm lints are\n"
        "                      errors (nonzero exit)\n"
        "  --quiet             summary only, no per-branch table\n"
        "analyze options (also --threshold --dump-cfg --no-schedule --strict\n"
        "--quiet):\n"
        "  --bench=adpcm-enc|adpcm-dec|g721-enc|g721-dec|g711-enc|g711-dec\n"
        "  --out=FILE          asbr.analysis_report destination (default -)\n"
        "wcet options (also --threshold --no-schedule --strict --quiet):\n"
        "  --bench=B           workload token (same set as analyze)\n"
        "  --out=FILE          asbr.wcet_report destination (default -)\n"
        "  --seed=N            workload input seed (default 2001)\n"
        "  --samples=N         workload input samples (0 = capacity)\n"
        "  --threads=N         run the two measured pipeline runs in\n"
        "                      parallel (the report is byte-identical at any\n"
        "                      N; default 1)\n"
        "ipa options (also --no-schedule --quiet):\n"
        "  --bench=B           workload token (same set as analyze)\n"
        "  --out=FILE          asbr.ipa_report destination (default -)\n"
        "callgraph options (also --no-schedule):\n"
        "  --bench=B           workload token (same set as analyze)\n"
        "  --out=FILE          Graphviz digraph destination (default -)\n"
        "durable sweeps (--journal=DIR --resume --job-timeout=MS\n"
        "--max-attempts=N) live in asbr-sweep and asbr-faults campaign — see\n"
        "docs/robustness.md.\n",
        stdout);
    std::exit(0);
}

/// One bit per flag; each mode takes a fixed set of them.
enum Flag : unsigned {
    kBench = 1u << 0,
    kOut = 1u << 1,
    kThreshold = 1u << 2,
    kBit = 1u << 3,
    kSets = 1u << 4,
    kDumpCfg = 1u << 5,
    kAll = 1u << 6,
    kNoProfile = 1u << 7,
    kRequireSafe = 1u << 8,
    kNoSchedule = 1u << 9,
    kStrict = 1u << 10,
    kQuiet = 1u << 11,
    kSeed = 1u << 12,
    kSamples = 1u << 13,
    kThreads = 1u << 14,
};

/// The parsed command line of every mode.
struct Args {
    std::string who;   ///< diagnostic prefix: "asbr-verify[ <mode>]"
    std::string path;  ///< <file.c|file.s>
    std::string bench;
    std::string out = "-";
    std::string dumpCfg;
    std::uint32_t threshold = 3;
    std::size_t ways = 16;
    std::size_t sets = 1;
    std::uint64_t seed = 2001;
    std::size_t samples = 0;
    std::size_t threads = 1;
    bool all = false;
    bool useProfile = true;
    bool requireSafe = false;
    bool schedule = true;
    bool strict = false;
    bool quiet = false;
};

/// A resolved <file> | --bench=B: the program (a bench also gets its input)
/// and the name reports carry.
struct Target {
    driver::Prepared prepared;
    std::string name;
};

/// The one <file> | --bench=B resolver.  A bench gets `samples` input
/// samples (0 = the buffer capacity); a file has no input.
Target resolveTarget(const Args& a) {
    if (a.bench.empty()) {
        const std::size_t slash = a.path.find_last_of('/');
        return {driver::prepareFile(a.path, a.schedule),
                slash == std::string::npos ? a.path : a.path.substr(slash + 1)};
    }
    const auto id = driver::benchFromToken(a.bench);
    if (!id)
        driver::cliFail(a.who.c_str(), "unknown bench '" + a.bench + "' (" +
                                           driver::benchTokenList() + ")");
    const std::size_t capacity = benchMaxSamples(*id);
    const std::size_t samples =
        a.samples == 0 ? capacity : std::min(a.samples, capacity);
    return {driver::prepare(*id, a.schedule, a.seed, samples), a.bench};
}

/// Self-check `doc` against its own schema, then write it to --out.  False
/// (after printing every schema error) when it does not validate.
bool writeReport(const Args& a, const JsonValue& doc, const char* what) {
    const ReportValidation validation =
        findReportSchema(doc.find("schema")->asString())->validate(doc);
    for (const std::string& error : validation.errors)
        std::fprintf(stderr, "schema error: %s\n", error.c_str());
    if (!validation.ok()) return false;
    driver::writeOutput(a.who.c_str(), a.out, doc.dump(2) + "\n", what);
    return true;
}

/// --dump-cfg=FILE: Graphviz render of the analyzed supergraph.  A bad path
/// is a hard error — CI must not silently lose the artifact.
void dumpCfg(const Args& a, const analysis::FoldLegalityVerifier& verifier,
             const analysis::VerifyConfig& config) {
    if (a.dumpCfg.empty()) return;
    std::ostringstream dot;
    analysis::dumpCfgDot(dot, verifier, config);
    driver::writeOutput(a.who.c_str(), a.dumpCfg, dot.str(), "CFG dump");
}

/// Print the value-analysis lints; returns the number of *error* lints
/// (see isErrorLint — refinement wins and the SSA diagnostics are
/// informational).  Lints are diagnostics, so they go to stderr —
/// `analyze --out=-` owns stdout for the JSON document.
std::size_t printLints(const analysis::FoldLegalityVerifier& verifier,
                       const analysis::VerifyConfig& config, bool quiet) {
    std::size_t errors = 0;
    for (const analysis::StaticLint& lint : verifier.lints(config)) {
        if (analysis::isErrorLint(lint.kind)) ++errors;
        if (!quiet)
            std::fprintf(stderr, "lint: %s\n",
                         analysis::formatLint(lint).c_str());
    }
    return errors;
}

/// `asbr-verify analyze`: the schema-versioned asbr.analysis_report.
int runAnalyze(const Args& a, const Target& target) {
    AnalysisReportMeta meta;
    meta.benchmark = target.name;
    meta.threshold = a.threshold;
    meta.scheduled = a.schedule;
    analysis::VerifyConfig config;
    config.threshold = a.threshold;
    const analysis::FoldLegalityVerifier verifier(target.prepared.program);

    if (!writeReport(a, analysisReportJson(meta, verifier, config),
                     "analysis report"))
        return 1;
    dumpCfg(a, verifier, config);
    const std::size_t errorLints = printLints(verifier, config, a.quiet);
    if (!verifier.values().converged) {
        std::fprintf(stderr,
                     "asbr-verify analyze: fixpoint iteration budget "
                     "exhausted (verdicts degraded to Dynamic)\n");
        return 1;
    }
    return a.strict && errorLints != 0 ? 1 : 0;
}

/// `asbr-verify wcet`: static cycle bound vs measured pipeline cycles.
///
/// Computes the structured-IPET WCET twice — once with no folds (baseline)
/// and once with the cost-aware static-cost selection folded — runs the
/// pipeline under the same two configurations, and emits the schema-
/// versioned asbr.wcet_report.  Exits nonzero when either bound is missing
/// or below its measured run (an unsound cost model is a bug, not a
/// warning).
int runWcet(const Args& a, const Target& target) {
    const driver::Prepared& prepared = target.prepared;
    const Program& program = prepared.program;
    WcetReportMeta meta;
    meta.benchmark = target.name;
    meta.threshold = a.threshold;
    meta.scheduled = a.schedule;
    meta.seed = a.seed;
    meta.samples = prepared.hasInput ? prepared.pcm.size() : 0;

    analysis::VerifyConfig config;
    config.threshold = a.threshold;
    const analysis::FoldLegalityVerifier verifier(program);

    const PipelineConfig pipeConfig;
    analysis::timing::WcetEngine engine(
        verifier.cfg(), verifier.values(),
        analysis::timing::TimingCostModel::fromPipeline(pipeConfig),
        &verifier.ipa().resolution.map);

    // Loops neither annotation nor inference could bound fall back to a
    // measured per-entry maximum (flagged `profile` in the report).
    {
        Memory observeMemory = driver::makeMemory(prepared);
        engine.applyObservedBounds(analysis::timing::observeLoopBounds(
            program, observeMemory, engine.loops()));
    }

    const analysis::timing::WcetResult baseline = engine.compute({});

    // Cost-aware selection from the baseline ranking; the fold set of the
    // folded bound is exactly what the measured folded run loads.
    SelectionConfig selCfg;
    selCfg.threshold = a.threshold;
    const Selection selection =
        selectBranches(program, baseline.branches, selCfg);
    std::set<std::uint32_t> foldedPcs;
    for (const StaticFoldCandidate& s : selection.statics)
        foldedPcs.insert(s.pc);
    for (const Candidate& c : selection.residents) foldedPcs.insert(c.pc);

    const analysis::timing::WcetResult folded = engine.compute(foldedPcs);

    // Publish the run's counters through the metric registry — the same
    // duplicate-rejecting namespace `asbr-stats counters` catalogues.
    MetricRegistry metrics;
    analysis::timing::WcetMetrics wcetMetrics;
    wcetMetrics.countLoops(engine.loops());
    wcetMetrics.boundBaselineCycles = baseline.bounded ? baseline.cycles : 0;
    wcetMetrics.boundFoldedCycles = folded.bounded ? folded.cycles : 0;
    wcetMetrics.publish(metrics);
    StaticCostSelectionMetrics selectionMetrics;
    selectionMetrics.candidates = baseline.branches.size();
    selectionMetrics.countSelection(selection);
    selectionMetrics.publish(metrics);

    const auto makeUnit = [&] {
        AsbrConfig unitConfig;
        unitConfig.updateStage = driver::stageForThreshold(a.threshold);
        auto unit = std::make_unique<AsbrUnit>(unitConfig);
        loadSelection(*unit, program, selection);
        return unit;
    };

    // The two measured runs are independent; --threads=2 overlaps them.
    // Either way each run builds its own memory/predictor/unit, so the
    // cycle counts (and therefore the report) never depend on N.
    const auto measure = [&](AsbrUnit* unit) -> std::uint64_t {
        const auto predictor = driver::makePredictorByToken("bimodal");
        return driver::runPipeline(prepared, *predictor, unit, pipeConfig)
            .stats.cycles;
    };
    std::uint64_t measuredBaseline = 0;
    std::uint64_t measuredFolded = 0;
    if (a.threads > 1) {
        std::thread baselineThread(
            [&] { measuredBaseline = measure(nullptr); });
        const auto unit = makeUnit();
        measuredFolded = measure(unit.get());
        baselineThread.join();
    } else {
        measuredBaseline = measure(nullptr);
        const auto unit = makeUnit();
        measuredFolded = measure(unit.get());
    }

    if (!writeReport(a,
                     wcetReportJson(meta, engine, baseline, folded, foldedPcs,
                                    measuredBaseline, measuredFolded),
                     "wcet report"))
        return 1;

    std::size_t unbounded = 0;
    for (const auto& loop : engine.loops())
        if (!loop.bound.bounded()) ++unbounded;
    if (!a.quiet) {
        std::fprintf(stderr,
                     "asbr-verify wcet: baseline bound %llu (measured "
                     "%llu), folded bound %llu (measured %llu), %zu "
                     "loops (%zu unbounded), %zu branches folded\n",
                     static_cast<unsigned long long>(baseline.cycles),
                     static_cast<unsigned long long>(measuredBaseline),
                     static_cast<unsigned long long>(folded.cycles),
                     static_cast<unsigned long long>(measuredFolded),
                     engine.loops().size(), unbounded, foldedPcs.size());
        for (const auto& [name, counter] : metrics.counters())
            std::fprintf(stderr, "  %s = %llu\n", name.c_str(),
                         static_cast<unsigned long long>(counter.value()));
    }

    const std::size_t errorLints = printLints(verifier, config, a.quiet);

    int exitCode = 0;
    const auto check = [&](const char* which,
                           const analysis::timing::WcetResult& bound,
                           std::uint64_t measured) {
        if (!bound.bounded) {
            std::fprintf(stderr, "asbr-verify wcet: no %s bound: %s\n", which,
                         bound.reason.c_str());
            exitCode = 1;
        } else if (bound.cycles < measured) {
            std::fprintf(stderr,
                         "asbr-verify wcet: UNSOUND %s bound (%llu < "
                         "measured %llu)\n",
                         which, static_cast<unsigned long long>(bound.cycles),
                         static_cast<unsigned long long>(measured));
            exitCode = 1;
        }
    };
    check("baseline", baseline, measuredBaseline);
    check("folded", folded, measuredFolded);
    if (a.strict && errorLints != 0) {
        std::fprintf(stderr,
                     "asbr-verify wcet: %zu lint error(s) under --strict\n",
                     errorLints);
        exitCode = 1;
    }
    return exitCode;
}

/// `asbr-verify ipa`: emit the schema-versioned asbr.ipa_report — SSA/SCCP
/// pipeline statistics, indirect-jump resolution, call-graph summaries and
/// the resolution-aware static WCET.  Purely static and byte-stable.
int runIpa(const Args& a, const Target& target) {
    IpaReportMeta meta;
    meta.benchmark = target.name;
    const analysis::FoldLegalityVerifier verifier(target.prepared.program);
    if (!writeReport(a, ipaReportJson(meta, verifier), "ipa report")) return 1;
    if (!a.quiet) {
        const analysis::ipa::IpaAnalysis& ipa = verifier.ipa();
        std::fprintf(stderr,
                     "asbr-verify ipa: %zu round(s), %zu defs (%zu phis), "
                     "%zu/%zu indirect sites resolved, %zu functions, "
                     "%zu decided branches (dense %zu)\n",
                     ipa.stats.rounds, ipa.stats.ssaDefs, ipa.stats.ssaPhis,
                     ipa.resolution.map.size(),
                     ipa.resolution.map.size() + ipa.resolution.unresolvedSites,
                     ipa.callGraph.functions.size(), ipa.stats.mergedDecided,
                     ipa.stats.denseDecided);
    }
    return 0;
}

/// `asbr-verify callgraph`: Graphviz render of the whole-program call graph
/// with the per-function WCET bounds filled in.
int runCallgraph(const Args& a, const Target& target) {
    const analysis::FoldLegalityVerifier verifier(target.prepared.program);
    const analysis::ipa::IpaAnalysis& ipa = verifier.ipa();

    // Fill the per-function WCET bounds from a resolution-aware static run
    // (default cost model, no profile) before rendering.
    analysis::ipa::CallGraph graph = ipa.callGraph;
    analysis::timing::WcetEngine engine(ipa.cfg, ipa.values,
                                        analysis::timing::TimingCostModel{},
                                        &ipa.resolution.map);
    const analysis::timing::WcetResult wcet = engine.compute({});
    for (const auto& [entryPc, cycles] : wcet.functionCycles)
        for (analysis::ipa::FunctionSummary& f : graph.functions)
            if (f.entryPc == entryPc) {
                f.wcetCycles = cycles;
                f.wcetBounded = true;
            }

    driver::writeOutput(a.who.c_str(), a.out,
                        analysis::ipa::callGraphDot(graph), "call graph");
    return 0;
}

/// The default mode: lint the profiler-driven selection (or, with --all,
/// every conditional branch) and print one verdict per branch.
int runLint(const Args& a, const Target& target) {
    const Program& program = target.prepared.program;
    analysis::VerifyConfig config;
    config.threshold = a.threshold;
    config.geometry = {a.sets, a.ways};
    const analysis::FoldLegalityVerifier verifier(program);

    ProgramProfile profile;
    analysis::ObservedMinDistances observed;
    if (a.useProfile) {
        Memory memory = driver::makeMemory(target.prepared);
        profile = profileProgram(program, memory);
        for (const auto& [pc, bp] : profile.branches)
            if (bp.execs > 0) observed.emplace(pc, bp.minDistance);
    }

    analysis::VerifyReport report;
    if (a.all) {
        const auto pcs = allConditionalBranches(program);
        // Non-extractable branches never make it into allConditional-
        // Branches; fold them back in so --all lints those too.
        std::vector<std::uint32_t> lintSet = pcs;
        for (std::size_t i = 0; i < program.code.size(); ++i) {
            const std::uint32_t pc =
                program.textBase + static_cast<std::uint32_t>(i) * kInstrBytes;
            if (isCondBranch(program.code[i].op) &&
                !isExtractableBranch(program, pc))
                lintSet.push_back(pc);
        }
        // --all lints the whole program, not one BIT bank: disable the
        // capacity/conflict geometry checks unless explicitly set.
        analysis::VerifyConfig allConfig = config;
        if (a.sets == 1) allConfig.geometry.ways = lintSet.size() + 1;
        report = verifier.verify(lintSet, allConfig,
                                 a.useProfile ? &observed : nullptr);
    } else {
        SelectionConfig selCfg;
        selCfg.bitCapacity = a.sets * a.ways;
        selCfg.threshold = a.threshold;
        selCfg.minExecFraction = 0.0;
        selCfg.requireStaticallySafe = a.requireSafe;
        std::vector<std::uint32_t> pcs;
        for (const Candidate& c :
             selectBranches(program, profile, {}, selCfg).residents)
            pcs.push_back(c.pc);
        report = verifier.verifyBank(extractBranchInfos(program, pcs), config,
                                     &observed);
    }

    if (!a.quiet) {
        std::printf("%-10s %-6s %-8s %-12s %-21s %s\n", "pc", "line",
                    "static", "direction", "verdict", "why");
        for (const auto& b : report.branches) {
            char dist[16];
            if (b.staticMinDistance >= analysis::kFarAway)
                std::snprintf(dist, sizeof dist, "far");
            else
                std::snprintf(dist, sizeof dist, "%u",
                              unsigned{b.staticMinDistance});
            std::printf("0x%08x %-6d %-8s %-12s %-21s %s\n", b.pc,
                        b.sourceLine, dist,
                        analysis::branchDirectionName(b.direction),
                        analysis::foldLegalityName(b.verdict),
                        b.reason.c_str());
        }
        for (const auto& c : report.conflicts)
            std::printf("conflict: %s\n", c.c_str());
        for (const auto& m : report.inconsistencies)
            std::printf("inconsistent: %s\n", m.c_str());
    }
    const std::size_t errorLints = printLints(verifier, config, a.quiet);
    dumpCfg(a, verifier, config);

    std::printf(
        "asbr-verify: %zu branches, %zu provably safe, %zu safe on "
        "profiled paths, %zu illegal, %zu conflicts, %zu inconsistencies "
        "(threshold %u)\n",
        report.branches.size(),
        report.count(analysis::FoldLegality::kProvablySafe),
        report.count(analysis::FoldLegality::kSafeOnProfiledPaths),
        report.count(analysis::FoldLegality::kIllegal),
        report.conflicts.size(), report.inconsistencies.size(), a.threshold);
    if (a.strict && errorLints != 0) {
        std::printf("asbr-verify: %zu lint error(s) under --strict\n",
                    errorLints);
        return 1;
    }
    return report.ok() ? 0 : 1;
}

struct Mode {
    const char* name;  ///< argv[1]; "" = the default lint
    unsigned flags;
    int (*run)(const Args&, const Target&);
};

constexpr Mode kModes[] = {
    {"", kThreshold | kBit | kSets | kDumpCfg | kAll | kNoProfile |
             kRequireSafe | kNoSchedule | kStrict | kQuiet,
     runLint},
    {"analyze",
     kBench | kOut | kThreshold | kDumpCfg | kNoSchedule | kStrict | kQuiet,
     runAnalyze},
    {"wcet",
     kBench | kOut | kThreshold | kSeed | kSamples | kThreads | kNoSchedule |
         kStrict | kQuiet,
     runWcet},
    {"ipa", kBench | kOut | kNoSchedule | kQuiet, runIpa},
    {"callgraph", kBench | kOut | kNoSchedule, runCallgraph},
};

/// Parse argv into the mode it names and that mode's arguments.  Any flag
/// the mode does not take, and any bad value, is a one-line exit 2.
const Mode& parseArgs(int argc, char** argv, Args& a) {
    const Mode* mode = &kModes[0];
    for (const Mode& m : kModes)
        if (argc > 1 && *m.name != '\0' && argv[1] == std::string(m.name))
            mode = &m;
    const bool named = mode != &kModes[0];
    a.who = named ? std::string(kTool) + " " + mode->name : kTool;
    const char* who = a.who.c_str();
    const auto takes = [&](unsigned bit) { return (mode->flags & bit) != 0; };
    for (int i = named ? 2 : 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto is = [&](const char* flag, unsigned bit) {
            return takes(bit) && arg == flag;
        };
        const auto text = [&](const char* prefix, unsigned bit) {
            return takes(bit) && arg.starts_with(prefix);
        };
        std::uint64_t n = 0;
        const auto num = [&](const char* prefix, unsigned bit) {
            const auto v =
                takes(bit) ? driver::numArg(arg, prefix, who) : std::nullopt;
            n = v.value_or(0);
            return v.has_value();
        };
        if (arg == "--help" || arg == "-h") {
            usage();
        } else if (text("--bench=", kBench)) {
            a.bench = arg.substr(8);
        } else if (text("--out=", kOut)) {
            a.out = arg.substr(6);
        } else if (text("--dump-cfg=", kDumpCfg)) {
            a.dumpCfg = arg.substr(11);
        } else if (num("--threshold=", kThreshold)) {
            // Range-checked on the full 64-bit value: no wrap into range.
            if (n < 2 || n > 4)
                driver::cliFail(who, "bad --threshold value '" +
                                         arg.substr(12) + "' (want 2, 3 or 4)");
            a.threshold = static_cast<std::uint32_t>(n);
        } else if (num("--bit=", kBit)) {
            a.ways = n;
        } else if (num("--sets=", kSets)) {
            a.sets = n;
        } else if (num("--seed=", kSeed)) {
            a.seed = n;
        } else if (num("--samples=", kSamples)) {
            a.samples = n;
        } else if (num("--threads=", kThreads)) {
            a.threads = n;
        } else if (is("--all", kAll)) {
            a.all = true;
        } else if (is("--no-profile", kNoProfile)) {
            a.useProfile = false;
            a.all = true;
        } else if (is("--require-safe", kRequireSafe)) {
            a.requireSafe = true;
        } else if (is("--no-schedule", kNoSchedule)) {
            a.schedule = false;
        } else if (is("--strict", kStrict)) {
            a.strict = true;
        } else if (is("--quiet", kQuiet)) {
            a.quiet = true;
        } else if (arg.starts_with("-")) {
            driver::cliFail(who, "unknown option '" + arg + "' (try --help)");
        } else if (a.path.empty()) {
            a.path = arg;
        } else {
            driver::cliFail(who, "extra argument '" + arg + "' (try --help)");
        }
    }
    if (a.path.empty() == a.bench.empty())
        driver::cliFail(who, takes(kBench)
                                 ? "need exactly one of <file> or --bench=B"
                                 : "need a <file.c|file.s> or a mode "
                                   "(try --help)");
    return *mode;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    const Mode& mode = parseArgs(argc, argv, args);
    try {
        return mode.run(args, resolveTarget(args));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", kTool, e.what());
        return 1;
    }
}
