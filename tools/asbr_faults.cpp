// asbr-faults — deterministic fault-injection campaigns against the ASBR
// hardware state (docs/fault-injection.md).
//
//   campaign   sweep seeded single-bit flips over BDT/BIT/predictor state on
//              one benchmark, classify every run against the golden model and
//              print/export the outcome histogram (asbr.fault_report)
//   replay     re-run one recorded injection from a fault report and check
//              that it reproduces the recorded outcome
//   validate   schema-check an asbr.fault_report document
//
// Everything is seeded and integer-valued: the same command line produces a
// byte-identical report, which ci/faults.sh diffs against committed goldens.
// Campaigns run on the driver::SimEngine worker pool — injections are
// sampled in serial RNG order and merged by index, so --threads=8 emits the
// same bytes as --threads=1.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "fault/campaign.hpp"
#include "report/fault_report.hpp"
#include "report/schema.hpp"

using namespace asbr;
using namespace asbr::bench;

namespace {

constexpr const char* kCampaign = "asbr-faults campaign";
constexpr const char* kReplay = "asbr-faults replay";

[[noreturn]] void usage() {
    std::fputs(
        "usage: asbr-faults <command> [options]\n"
        "\n"
        "commands:\n"
        "  campaign [options]      run a seeded injection campaign\n"
        "  replay FILE --index=K   re-run injection K of a fault report\n"
        "  validate FILE           schema-check a fault report\n"
        "\n"
        "campaign options:\n"
        "  --bench=adpcm-enc|adpcm-dec|g721-enc|g721-dec|g711-enc|g711-dec\n"
        "  --predictor=TOKEN     predictor registry token ('asbr-stats\n"
        "                        predictors' lists the grammar)\n"
        "  --protected             enable BDT/BIT parity protection\n"
        "  --injections=N          injected runs (default 48)\n"
        "  --fault-seed=N          site/cycle sampling seed (default 1)\n"
        "  --stage=ex_end|mem_end|commit   BDT update stage (default mem_end)\n"
        "  --no-bdt --no-bit --no-bp       exclude a fault class\n"
        "  --json=FILE             write the asbr.fault_report (\"-\" = stdout)\n"
        "\n"
        "campaign durability (docs/robustness.md):\n"
        "  --journal=DIR           write-ahead injection journal\n"
        "  --resume                resume DIR's journal (byte-identical)\n"
        "  --job-timeout=MS        per-injection wall-clock watchdog (0 = off)\n"
        "  --max-attempts=N        attempts before an injection lands in\n"
        "                          failed_jobs instead of aborting the grid\n"
        "  (--sample is rejected: injections are classified against the full\n"
        "   cycle-accurate golden run)\n"
        "\n"
        "shared options: --quick --seed=N --adpcm=N --g721=N --threads=N\n",
        stdout);
    std::exit(0);
}

std::atomic<bool> gInterrupted{false};

extern "C" void onSignal(int) { gInterrupted.store(true); }

/// The ASBR job a campaign (or replay) simulates: the paper's BIT size for
/// the benchmark, bimodal-2048 accuracy reference, chosen aux predictor.
SimJob campaignJob(BenchId id, const Options& options,
                   const std::string& predictor, bool protectedMode,
                   ValueStage stage) {
    SimJob job;
    job.workload = id;
    job.seed = options.seed;
    job.samples = samplesFor(options, id);
    job.predictor = predictor;
    job.figure = "faults";
    job.asbr = true;
    job.updateStage = stage;
    job.parityProtected = protectedMode;
    return job;
}

/// Report metadata in CLI tokens, so replay can rebuild the run.
FaultReportMeta metaFor(const SimEngine& engine, const SimJob& job) {
    FaultReportMeta meta;
    meta.benchmark = driver::benchToken(job.workload);
    meta.predictor = job.predictor;
    meta.seed = job.seed;
    meta.samples = engine.workloadKeyFor(job).samples;
    meta.protectedMode = job.parityProtected;
    meta.bitEntries = engine.selectionKeyFor(job).bitEntries;
    meta.updateStage = valueStageName(job.updateStage);
    return meta;
}

void printOutcomes(const CampaignResult& result) {
    std::printf("outcomes:");
    for (std::size_t o = 0; o < kNumFaultOutcomes; ++o)
        std::printf(" %s=%llu", faultOutcomeName(static_cast<FaultOutcome>(o)),
                    static_cast<unsigned long long>(result.outcomes[o]));
    std::printf("\n");
}

int cmdCampaign(int argc, char** argv) {
    Options options;
    std::string bench;
    std::string predictorName = "bimodal";
    bool protectedMode = false;
    ValueStage stage = ValueStage::kMemEnd;
    CampaignConfig campaign;
    campaign.injections = 48;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string error;
        if (driver::consumeSharedOption(arg, options, error)) {
            if (!error.empty()) driver::cliFail(kCampaign, error);
        } else if (arg.rfind("--bench=", 0) == 0) {
            bench = arg.substr(8);
        } else if (arg.rfind("--predictor=", 0) == 0) {
            predictorName = arg.substr(12);
        } else if (arg == "--protected") {
            protectedMode = true;
        } else if (const auto v =
                       driver::numArg(arg, "--injections=", kCampaign)) {
            campaign.injections = *v;
        } else if (const auto v =
                       driver::numArg(arg, "--fault-seed=", kCampaign)) {
            campaign.seed = *v;
        } else if (arg.rfind("--stage=", 0) == 0) {
            const auto s = driver::stageFromToken(arg.substr(8));
            if (!s)
                driver::cliFail(kCampaign, "unknown --stage '" + arg.substr(8) +
                                               "' (ex_end|mem_end|commit)");
            stage = *s;
        } else if (arg == "--no-bdt") {
            campaign.faultBdt = false;
        } else if (arg == "--no-bit") {
            campaign.faultBit = false;
        } else if (arg == "--no-bp") {
            campaign.faultBp = false;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else {
            driver::cliFail(kCampaign,
                            "unknown option '" + arg + "' (try --help)");
        }
    }

    auto id = bench.empty() ? options.workload : driver::benchFromToken(bench);
    if (!id)
        driver::cliFail(kCampaign, std::string("--bench is required (") +
                                       driver::benchTokenList() + ")");
    std::string predictorError;
    if (driver::makePredictorByToken(predictorName, &predictorError) ==
        nullptr)
        driver::cliFail(kCampaign, predictorError);
    if (options.sample.has_value())
        driver::cliFail(kCampaign,
                        "--sample is not supported here — injections are "
                        "classified against the full cycle-accurate golden "
                        "run");
    if (options.resume && options.journalDir.empty())
        driver::cliFail(kCampaign, "--resume requires --journal=DIR");

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    SimEngine engine(driver::engineConfigFor(options));
    const SimJob job =
        campaignJob(*id, options, predictorName, protectedMode, stage);
    const FaultReportMeta meta = metaFor(engine, job);

    driver::DurablePolicy policy;
    policy.journalDir = options.journalDir;
    policy.resume = options.resume;
    policy.maxAttempts = options.maxAttempts;
    policy.jobTimeoutMs = options.jobTimeoutMs;
    policy.interrupted = &gInterrupted;
    const driver::DurableCampaignResult durable =
        engine.runCampaignDurable(job, campaign, policy);
    const CampaignResult& result = durable.result;

    std::printf("campaign: %s / %s%s, %llu injections, fault seed %llu\n",
                meta.benchmark.c_str(), predictorName.c_str(),
                protectedMode ? " [protected]" : "",
                static_cast<unsigned long long>(campaign.injections),
                static_cast<unsigned long long>(campaign.seed));
    std::printf("clean cycles: %llu\n",
                static_cast<unsigned long long>(result.context.cleanCycles));
    printOutcomes(result);
    for (const FailedInjection& failed : durable.failed)
        std::fprintf(stderr,
                     "campaign: quarantined injection #%llu (%s @ cycle %llu) "
                     "after %llu attempt(s): %s\n",
                     static_cast<unsigned long long>(failed.index),
                     describeSite(failed.injection.site).c_str(),
                     static_cast<unsigned long long>(failed.injection.cycle),
                     static_cast<unsigned long long>(failed.attempts),
                     failed.error.c_str());

    if (durable.interrupted) {
        std::fprintf(stderr,
                     "campaign: interrupted — journal checkpointed; rerun "
                     "with --resume to continue\n");
        return 130;
    }

    if (!options.jsonPath.empty()) {
        const JsonValue doc =
            faultReportJson(meta, campaign, result, durable.failed);
        driver::writeOutput(kCampaign, options.jsonPath, doc.dump(2) + "\n",
                            "fault report");
    }
    return durable.failed.empty() ? 0 : 3;
}

/// Load + parse + schema-check a fault report file.  Returns nullopt (after
/// printing a one-line diagnosis) on any failure.
std::optional<JsonValue> loadFaultReport(const char* path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "asbr-faults: cannot open '%s'\n", path);
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const JsonParseResult parsed = parseJson(buffer.str());
    if (!parsed.ok()) {
        std::fprintf(stderr, "%s: JSON parse error: %s\n", path,
                     parsed.error.c_str());
        return std::nullopt;
    }
    return *parsed.value;
}

int cmdReplay(int argc, char** argv) {
    const char* path = nullptr;
    std::uint64_t index = 0;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (const auto v = driver::numArg(arg, "--index=", kReplay)) {
            index = *v;
        } else if (arg == "--help" || arg == "-h") {
            usage();
        } else if (!arg.empty() && arg[0] == '-') {
            driver::cliFail(kReplay,
                            "unknown option '" + arg + "' (try --help)");
        } else if (path == nullptr) {
            path = argv[i];
        } else {
            driver::cliFail(kReplay, "unexpected argument '" + arg + "'");
        }
    }
    if (path == nullptr)
        driver::cliFail(kReplay, "a fault report FILE is required");

    const auto doc = loadFaultReport(path);
    if (!doc) return 1;
    const ReportValidation validation = validateFaultReportJson(*doc);
    if (!validation.ok()) {
        std::fprintf(stderr, "%s: not a valid fault report (%s)\n", path,
                     validation.errors.front().c_str());
        return 1;
    }

    const JsonValue& meta = *doc->find("meta");
    const JsonValue& campaignJson = *doc->find("campaign");
    const JsonArray& injections = doc->find("injections")->asArray();
    if (index >= injections.size()) {
        std::fprintf(stderr, "%s: --index=%llu out of range (%zu injections)\n",
                     path, static_cast<unsigned long long>(index),
                     injections.size());
        return 2;
    }

    const auto id = driver::benchFromToken(meta.find("benchmark")->asString());
    if (!id) {
        std::fprintf(stderr, "%s: meta.benchmark is not a known workload\n",
                     path);
        return 1;
    }
    const auto stage =
        driver::stageFromToken(meta.find("update_stage")->asString());
    if (!stage) {
        std::fprintf(stderr, "%s: meta.update_stage is not a known stage\n",
                     path);
        return 1;
    }
    const std::string predictorName = meta.find("predictor")->asString();
    std::string predictorError;
    if (driver::makePredictorByToken(predictorName, &predictorError) ==
        nullptr) {
        std::fprintf(stderr, "%s: meta.predictor: %s\n", path,
                     predictorError.c_str());
        return 1;
    }

    Options options;
    options.seed = meta.find("seed")->asUint();
    const std::uint64_t samples = meta.find("samples")->asUint();
    options.adpcmSamples = samples;
    options.g721Samples = samples;

    const JsonValue& record = injections[index];
    Injection injection;
    injection.site = faultSiteFromJson(*record.find("site"));
    injection.cycle = record.find("cycle")->asUint();
    const std::string expected = record.find("outcome")->asString();

    SimEngine engine;
    const SimJob job =
        campaignJob(*id, options, predictorName,
                    meta.find("protected")->asBool(), *stage);
    const InjectionRecord replayed = engine.replayInjection(
        job, injection, campaignJson.find("max_cycle_factor")->asUint());

    const char* got = faultOutcomeName(replayed.outcome);
    std::printf("replay #%llu: %s @ cycle %llu -> %s (recorded %s)%s%s\n",
                static_cast<unsigned long long>(index),
                describeSite(injection.site).c_str(),
                static_cast<unsigned long long>(injection.cycle), got,
                expected.c_str(),
                replayed.detail.empty() ? "" : " — ",
                replayed.detail.c_str());
    if (expected != got) {
        std::fprintf(stderr, "%s: outcome mismatch (report not "
                             "reproducible)\n", kReplay);
        return 1;
    }
    return 0;
}

int cmdValidate(const char* path) {
    const auto doc = loadFaultReport(path);
    if (!doc) return 1;
    const ReportSchema& kind = *findReportSchema(kFaultReportSchema);
    const ReportValidation validation = kind.validate(*doc);
    if (!validation.ok()) {
        // One line: the first schema error and how many follow it.
        std::fprintf(stderr, "%s: %s (%zu schema error(s) in all)\n", path,
                     validation.errors.front().c_str(),
                     validation.errors.size());
        return 1;
    }
    std::printf("%s: valid %s v%llu document\n", path, kind.id,
                static_cast<unsigned long long>(kind.version));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const std::string command = argc < 2 ? "" : argv[1];
        if (command == "--help" || command == "-h" || command == "help")
            usage();
        if (command == "campaign") return cmdCampaign(argc - 2, argv + 2);
        if (command == "replay") return cmdReplay(argc - 2, argv + 2);
        if (command == "validate") {
            if (argc != 3)
                driver::cliFail("asbr-faults validate",
                                "need exactly one FILE (try --help)");
            return cmdValidate(argv[2]);
        }
        driver::cliFail("asbr-faults",
                        command.empty()
                            ? "need a command (try --help)"
                            : "unknown command '" + command + "' (try --help)");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "asbr-faults: error: %s\n", e.what());
        return 1;
    }
}
