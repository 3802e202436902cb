#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>

namespace asbr::bench {

Options parseOptions(int argc, char** argv) {
    Options options;
    std::string error;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (driver::consumeSharedOption(arg, options, error)) {
            if (!error.empty()) driver::cliFail(argv[0], error);
        } else if (arg == "--help" || arg == "-h") {
            std::printf("options: %s --csv\n"
                        "(--journal=DIR / --resume apply to asbr-sweep and "
                        "asbr-faults campaign only)\n",
                        driver::sharedOptionsHelp());
            std::exit(0);
        } else {
            driver::cliFail(argv[0],
                            "unknown option '" + arg + "' (try --help)");
        }
    }
    // The table regenerators have no journal; rejecting the flag beats
    // silently dropping a persistence request.
    if (!options.journalDir.empty() || options.resume)
        driver::cliFail(argv[0],
                        "--journal/--resume apply to asbr-sweep and "
                        "asbr-faults campaign (docs/robustness.md)");
    return options;
}

std::vector<BenchId> benchList(const Options& options,
                               std::span<const BenchId> all) {
    if (options.workload.has_value()) return {*options.workload};
    return {all.begin(), all.end()};
}

SimJob baseJob(const Options& options, BenchId id, std::string predictor,
               std::string figure) {
    SimJob job;
    job.workload = id;
    job.seed = options.seed;
    job.samples = samplesFor(options, id);
    job.predictor = std::move(predictor);
    job.figure = std::move(figure);
    return job;
}

void printTable(const Options& options, const TextTable& table) {
    std::fputs(table.render().c_str(), stdout);
    if (options.csv) std::fputs(table.toCsv().c_str(), stdout);
    std::fputs("\n", stdout);
}

ReportSink::ReportSink(std::string generator, const Options& options)
    : generator_(std::move(generator)), options_(options) {}

void ReportSink::add(const JobResult& result) {
    if (options_.jsonPath.empty()) return;  // nothing will consume the report
    runs_.push_back(result.report);
}

std::string ReportSink::write() const {
    if (options_.jsonPath.empty()) return {};
    JsonObject optionsJson;
    optionsJson.emplace_back(
        "adpcm_samples", static_cast<std::uint64_t>(options_.adpcmSamples));
    optionsJson.emplace_back("g721_samples",
                             static_cast<std::uint64_t>(options_.g721Samples));
    optionsJson.emplace_back("seed", options_.seed);
    const JsonValue doc =
        benchReportJson(generator_, JsonValue(std::move(optionsJson)), runs_);
    const std::string text = doc.dump(2) + "\n";
    driver::writeOutput(generator_.c_str(), options_.jsonPath, text,
                        std::to_string(runs_.size()) + " run report(s)");
    return text;
}

void reportSelectedBranches(SimEngine& engine, const Options& options,
                            BenchId id, const std::string& figureLabel,
                            ReportSink* sink) {
    // Per-site accuracies under each reference predictor.
    const char* predictors[] = {"not-taken", "bimodal", "gshare"};
    std::vector<SimJob> jobs;
    for (const char* predictor : predictors)
        jobs.push_back(baseJob(options, id, predictor, figureLabel));
    const std::vector<JobResult> results = engine.run(jobs);
    if (sink != nullptr)
        for (const JobResult& result : results) sink->add(result);

    // Selection uses the bimodal-2048 accuracies as the hardness reference —
    // resolved through the artifact cache, no extra pipeline run needed.
    SimJob selectionJob = baseJob(options, id, "bimodal", figureLabel);
    selectionJob.asbr = true;
    const auto selection = engine.selectionFor(selectionJob);

    TextTable table("Figure " + figureLabel + ": branches selected for " +
                    std::string(benchName(id)));
    table.setHeader({"branch", "pc", "exec #", "taken", "acc not-taken",
                     "acc bimodal", "acc gshare", "foldable@3"});
    int index = 0;
    for (const Candidate& c : selection->selection().residents) {
        char pcText[16];
        std::snprintf(pcText, sizeof pcText, "0x%05x", c.pc);
        auto accOf = [&](std::size_t p) {
            const auto& sites = results[p].stats.branchSites;
            const auto it = sites.find(c.pc);
            return it == sites.end() ? 0.0 : it->second.accuracy();
        };
        table.addRow({"br" + std::to_string(index++), pcText,
                      formatWithCommas(c.execs), formatFixed(c.takenRate, 2),
                      formatFixed(accOf(0), 2), formatFixed(accOf(1), 2),
                      formatFixed(accOf(2), 2),
                      formatFixed(c.foldableFraction, 2)});
    }
    printTable(options, table);
}

}  // namespace asbr::bench
