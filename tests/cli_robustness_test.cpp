// CLI robustness (docs/fault-injection.md, "Robustness"): every asbr-* tool
// must turn bad input — unknown flags, missing files, malformed JSON,
// wrong-schema documents — into a one-line structured error and a non-zero
// exit code.  No tool may die from an uncaught exception or a signal.
//
// The tests shell out to the real binaries (ASBR_TOOLS_DIR is injected by
// CMake as the tool build directory) and inspect exit status + combined
// stdout/stderr.  Report writes that do not land (a full device) must fail
// the command too, and `asbr-stats run --program=FILE` is pinned on the
// assembly fixtures (ASBR_FIXTURES_DIR).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>

namespace {

struct RunResult {
    int exitCode = -1;
    bool exitedNormally = false;  ///< false = killed by a signal (crash)
    std::string output;           ///< combined stdout + stderr
};

RunResult runTool(const std::string& tool, const std::string& args) {
    const std::string cmd =
        std::string(ASBR_TOOLS_DIR) + "/" + tool + " " + args + " 2>&1";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    RunResult result;
    if (pipe == nullptr) return result;
    char buffer[4096];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
        result.output += buffer;
    const int status = pclose(pipe);
    result.exitedNormally = WIFEXITED(status);
    result.exitCode = result.exitedNormally ? WEXITSTATUS(status) : -1;
    return result;
}

/// The shared contract for every rejection: normal exit, non-zero code,
/// a diagnostic on exactly one line, and no uncaught-exception traces.
void expectCleanRejection(const RunResult& r, const std::string& what) {
    EXPECT_TRUE(r.exitedNormally) << what << " died from a signal:\n"
                                  << r.output;
    EXPECT_NE(r.exitCode, 0) << what << " accepted bad input:\n" << r.output;
    EXPECT_FALSE(r.output.empty()) << what << " rejected silently";
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1)
        << what << " did not print exactly one line:\n" << r.output;
    EXPECT_EQ(r.output.npos, r.output.find("terminate called")) << r.output;
    EXPECT_EQ(r.output.npos, r.output.find("Segmentation")) << r.output;
}

std::string writeTemp(const std::string& name, const std::string& content) {
    const std::string path =
        testing::TempDir() + "asbr_cli_robustness_" + name;
    std::ofstream out(path);
    out << content;
    return path;
}

class CliRobustnessTest : public testing::TestWithParam<const char*> {};

TEST_P(CliRobustnessTest, UnknownFlagIsRejected) {
    const RunResult r = runTool(GetParam(), "--definitely-not-a-flag");
    expectCleanRejection(r, GetParam());
}

TEST_P(CliRobustnessTest, HelpSucceeds) {
    const RunResult r = runTool(GetParam(), "--help");
    EXPECT_TRUE(r.exitedNormally);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("usage"), r.output.npos) << r.output;
}

INSTANTIATE_TEST_SUITE_P(Tools, CliRobustnessTest,
                         testing::Values("asbr-stats", "asbr-verify",
                                         "asbr-faults", "asbr-sweep"));

TEST(CliRobustness, StatsUnknownCommand) {
    expectCleanRejection(runTool("asbr-stats", "frobnicate"), "asbr-stats");
}

TEST(CliRobustness, StatsValidateMissingFile) {
    expectCleanRejection(
        runTool("asbr-stats", "validate /nonexistent/report.json"),
        "asbr-stats validate");
}

TEST(CliRobustness, StatsValidateMalformedJson) {
    const std::string path = writeTemp("bad.json", "{ this is : not json");
    expectCleanRejection(runTool("asbr-stats", "validate " + path),
                         "asbr-stats validate");
}

TEST(CliRobustness, StatsValidateWrongSchema) {
    const std::string path = writeTemp(
        "schema.json", R"({"schema":"asbr.made_up_schema","version":1})");
    expectCleanRejection(runTool("asbr-stats", "validate " + path),
                         "asbr-stats validate");
}

TEST(CliRobustness, StatsRunUnknownBench) {
    expectCleanRejection(
        runTool("asbr-stats", "run --bench=quake3 --predictor=bimodal"),
        "asbr-stats run");
}

TEST(CliRobustness, StatsRunProgramWithBenchIsRejected) {
    const RunResult r = runTool(
        "asbr-stats", std::string("run --program=") + ASBR_FIXTURES_DIR +
                          "/legal_far_producer.s --bench=adpcm-enc");
    expectCleanRejection(r, "asbr-stats run --program --bench");
    EXPECT_EQ(r.exitCode, 2) << r.output;
}

TEST(CliRobustness, StatsRunUnknownPredictor) {
    expectCleanRejection(
        runTool("asbr-stats", "run --bench=adpcm-enc --predictor=oracle2"),
        "asbr-stats run");
}

TEST(CliRobustness, VerifyMissingFile) {
    expectCleanRejection(runTool("asbr-verify", "/nonexistent/prog.s"),
                         "asbr-verify");
}

TEST(CliRobustness, VerifyNoArguments) {
    expectCleanRejection(runTool("asbr-verify", ""), "asbr-verify");
}

TEST(CliRobustness, VerifyUnknownFlagAfterFile) {
    expectCleanRejection(runTool("asbr-verify", "prog.s --frob"),
                         "asbr-verify");
}

TEST(CliRobustness, VerifyRejectsFlagsTheModeDoesNotTake) {
    expectCleanRejection(
        runTool("asbr-verify", "analyze --bench=adpcm-enc --all"),
        "asbr-verify analyze --all");
    expectCleanRejection(
        runTool("asbr-verify", "ipa --bench=adpcm-enc --threshold=3"),
        "asbr-verify ipa --threshold");
}

TEST(CliRobustness, VerifyAnalyzeMissingFile) {
    expectCleanRejection(runTool("asbr-verify", "analyze /nonexistent/prog.s"),
                         "asbr-verify analyze");
}

TEST(CliRobustness, VerifyAnalyzeUnknownBench) {
    expectCleanRejection(runTool("asbr-verify", "analyze --bench=mpeg9"),
                         "asbr-verify analyze");
}

TEST(CliRobustness, VerifyAnalyzeFileAndBenchConflict) {
    expectCleanRejection(
        runTool("asbr-verify", "analyze prog.s --bench=adpcm-enc"),
        "asbr-verify analyze");
}

TEST(CliRobustness, VerifyAnalyzeUnwritableOutput) {
    expectCleanRejection(
        runTool("asbr-verify",
                "analyze --bench=adpcm-enc --out=/nonexistent/dir/r.json"),
        "asbr-verify analyze");
}

TEST(CliRobustness, VerifyDumpCfgUnwritablePath) {
    const std::string src = writeTemp("dump_cfg.s",
                                      "main:   li v0, 1\n"
                                      "        li a0, 0\n"
                                      "        sys\n");
    expectCleanRejection(
        runTool("asbr-verify",
                src + " --no-profile --quiet --dump-cfg=/nonexistent/dir/g.dot"),
        "asbr-verify --dump-cfg");
}

TEST(CliRobustness, VerifyDumpCfgWritesAValidDigraph) {
    // The nops keep the branch's producer distance at the fold threshold,
    // so the verify pass itself exits 0 and only the dump is under test.
    const std::string src = writeTemp("dump_cfg_ok.s",
                                      "main:   li s0, 3\n"
                                      "loop:   addiu s0, s0, -1\n"
                                      "        nop\n"
                                      "        nop\n"
                                      "        nop\n"
                                      "        bgtz s0, loop\n"
                                      "        li v0, 1\n"
                                      "        li a0, 0\n"
                                      "        sys\n");
    const std::string dot = testing::TempDir() + "asbr_cli_robustness_cfg.dot";
    const RunResult r = runTool(
        "asbr-verify", src + " --no-profile --quiet --dump-cfg=" + dot);
    EXPECT_TRUE(r.exitedNormally);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    std::ifstream in(dot);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("digraph"), text.npos);
    EXPECT_NE(text.find("->"), text.npos);
}

TEST(CliRobustness, FaultsUnknownCommand) {
    expectCleanRejection(runTool("asbr-faults", "inject-everything"),
                         "asbr-faults");
}

TEST(CliRobustness, FaultsCampaignUnknownBench) {
    expectCleanRejection(
        runTool("asbr-faults", "campaign --bench=doom --injections=1"),
        "asbr-faults campaign");
}

TEST(CliRobustness, FaultsReplayMissingFile) {
    expectCleanRejection(runTool("asbr-faults", "replay /nonexistent/fr.json"),
                         "asbr-faults replay");
}

TEST(CliRobustness, FaultsReplayMalformedJson) {
    const std::string path = writeTemp("fr_bad.json", "[1, 2, oops");
    expectCleanRejection(runTool("asbr-faults", "replay " + path),
                         "asbr-faults replay");
}

TEST(CliRobustness, FaultsValidateTruncatedReport) {
    // Structurally valid JSON that fails schema validation.
    const std::string path = writeTemp(
        "fr_trunc.json",
        R"({"schema":"asbr.fault_report","version":1,"meta":{}})");
    expectCleanRejection(runTool("asbr-faults", "validate " + path),
                         "asbr-faults validate");
}

TEST(CliRobustness, SweepUnknownWorkloadToken) {
    expectCleanRejection(runTool("asbr-sweep", "--workloads=adpcm-enc,doom"),
                         "asbr-sweep");
}

TEST(CliRobustness, SweepUnknownPredictorToken) {
    expectCleanRejection(runTool("asbr-sweep", "--predictors=oracle2"),
                         "asbr-sweep");
}

TEST(CliRobustness, SweepUnknownStageToken) {
    expectCleanRejection(runTool("asbr-sweep", "--stages=wb_end"),
                         "asbr-sweep");
}

TEST(CliRobustness, SweepEmptyAxisIsRejected) {
    expectCleanRejection(runTool("asbr-sweep", "--bits="), "asbr-sweep");
}

TEST(CliRobustness, FaultsReplayIndexOutOfRange) {
    const std::string path = writeTemp("fr_empty.json", "{}");
    expectCleanRejection(runTool("asbr-faults", "replay " + path +
                                                    " --index=999999"),
                         "asbr-faults replay");
}

// ---- durable-execution flags (docs/robustness.md) -------------------------

TEST(CliRobustness, SweepResumeWithoutJournalIsRejected) {
    expectCleanRejection(runTool("asbr-sweep", "--resume"), "asbr-sweep");
}

TEST(CliRobustness, SweepEmptyJournalDirIsRejected) {
    expectCleanRejection(runTool("asbr-sweep", "--journal="), "asbr-sweep");
}

TEST(CliRobustness, SweepZeroMaxAttemptsIsRejected) {
    const RunResult r = runTool("asbr-sweep", "--max-attempts=0");
    expectCleanRejection(r, "asbr-sweep");
    EXPECT_NE(r.output.find("must be >= 1"), r.output.npos) << r.output;
}

TEST(CliRobustness, FaultsCampaignResumeWithoutJournalIsRejected) {
    expectCleanRejection(
        runTool("asbr-faults", "campaign --bench=adpcm-enc --resume"),
        "asbr-faults campaign");
}

TEST(CliRobustness, FaultsCampaignRejectsSampledSimulation) {
    const RunResult r = runTool(
        "asbr-faults", "campaign --bench=adpcm-enc --sample=1000:1000:8000");
    expectCleanRejection(r, "asbr-faults campaign");
    EXPECT_NE(r.output.find("--sample"), r.output.npos) << r.output;
}

TEST(CliRobustness, StatsRunRejectsJournalFlags) {
    expectCleanRejection(
        runTool("asbr-stats",
                "run --bench=adpcm-enc --journal=/tmp/nope --quick"),
        "asbr-stats run");
}

TEST(CliRobustness, BenchBinariesRejectJournalFlags) {
    expectCleanRejection(
        runTool("../bench/fig6_baseline", "--quick --resume"),
        "fig6_baseline");
}

/// A numeric flag with an empty, signed, non-digit, trailing-garbage or
/// overflowing value: exit 2 with exactly one line, naming the value.
struct BadNumber {
    const char* tool;
    const char* args;
    const char* value;  ///< the rejected text, echoed in the diagnostic
};

void PrintTo(const BadNumber& c, std::ostream* out) {
    *out << c.tool << ' ' << c.args;
}

class BadNumericFlagTest : public testing::TestWithParam<BadNumber> {};

TEST_P(BadNumericFlagTest, ExitsTwoWithOneLine) {
    const BadNumber& c = GetParam();
    const RunResult r = runTool(c.tool, c.args);
    const std::string what = std::string(c.tool) + " " + c.args;
    expectCleanRejection(r, what);
    EXPECT_EQ(r.exitCode, 2) << what << "\n" << r.output;
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1)
        << what << " did not print exactly one line:\n" << r.output;
    EXPECT_NE(r.output.find(std::string("'") + c.value + "'"), r.output.npos)
        << what << "\n" << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    Surfaces, BadNumericFlagTest,
    testing::Values(
        // Shared options (driver::consumeSharedOption).
        BadNumber{"asbr-stats", "run --bench=adpcm-enc --seed=abc", "abc"},
        BadNumber{"asbr-stats", "run --bench=adpcm-enc --threads=x", "x"},
        BadNumber{"asbr-stats", "run --bench=adpcm-enc --adpcm=-5", "-5"},
        BadNumber{"asbr-stats", "run --bench=adpcm-enc --g721=", ""},
        BadNumber{"asbr-stats", "run --bench=adpcm-enc --g721=+7", "+7"},
        BadNumber{"asbr-stats",
                  "run --bench=adpcm-enc --seed=18446744073709551616",
                  "18446744073709551616"},
        BadNumber{"asbr-stats", "report --max-attempts=2x", "2x"},
        BadNumber{"asbr-stats", "run --bench=adpcm-enc --sample=1:-5:3",
                  "1:-5:3"},
        // Tool-specific flags (driver::numArg).
        BadNumber{"asbr-stats", "run --bench=adpcm-enc --bit=4k", "4k"},
        BadNumber{"asbr-stats", "run --bench=adpcm-enc --min-mips=1.5",
                  "1.5"},
        BadNumber{"asbr-faults", "campaign --bench=adpcm-enc --injections=-1",
                  "-1"},
        BadNumber{"asbr-faults", "campaign --bench=adpcm-enc --fault-seed=0x9",
                  "0x9"},
        BadNumber{"asbr-faults", "replay report.json --index= 3", ""},
        // asbr-sweep's --bits list.
        BadNumber{"asbr-sweep", "--bits=abc", "abc"},
        BadNumber{"asbr-sweep", "--bits=4,-5", "-5"},
        // asbr-verify's subcommands.
        BadNumber{"asbr-verify", "wcet --bench=adpcm-enc --samples=-5", "-5"},
        BadNumber{"asbr-verify", "analyze --bench=adpcm-enc --threshold=3x",
                  "3x"},
        // --threshold is range-checked (2..4) on its full value: no wrap
        // into range through a 32-bit narrowing, no internal check firing.
        BadNumber{"asbr-verify", "wcet --bench=adpcm-enc --threshold=4294967298",
                  "4294967298"},
        BadNumber{"asbr-verify",
                  "analyze --bench=adpcm-enc --threshold=4294967299",
                  "4294967299"},
        BadNumber{"asbr-verify", "analyze --bench=adpcm-enc --threshold=7",
                  "7"},
        BadNumber{"asbr-verify", "prog.s --threshold=1", "1"},
        BadNumber{"asbr-verify", "prog.s --bit=sixteen", "sixteen"}));

/// A report write whose bytes do not land must fail the command with exit 1
/// and a "cannot write" line, never claim success.
struct FullDeviceWrite {
    const char* tool;
    const char* args;  ///< writes its report to /dev/full
};

void PrintTo(const FullDeviceWrite& c, std::ostream* out) {
    *out << c.tool << ' ' << c.args;
}

class FullDeviceWriteTest : public testing::TestWithParam<FullDeviceWrite> {};

TEST_P(FullDeviceWriteTest, FailsTheCommand) {
    if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
    const FullDeviceWrite& c = GetParam();
    const RunResult r = runTool(c.tool, c.args);
    const std::string what = std::string(c.tool) + " " + c.args;
    EXPECT_TRUE(r.exitedNormally) << what << "\n" << r.output;
    EXPECT_EQ(r.exitCode, 1) << what << "\n" << r.output;
    EXPECT_NE(r.output.find("cannot write"), r.output.npos)
        << what << "\n" << r.output;
    EXPECT_EQ(r.output.find("wrote "), r.output.npos)
        << what << "\n" << r.output;
}

INSTANTIATE_TEST_SUITE_P(
    Writers, FullDeviceWriteTest,
    testing::Values(
        FullDeviceWrite{"asbr-stats",
                        "run --quick --bench=adpcm-enc --json=/dev/full"},
        FullDeviceWrite{"asbr-verify",
                        "analyze --bench=adpcm-enc --out=/dev/full"},
        FullDeviceWrite{"asbr-sweep",
                        "--quick --workloads=adpcm-enc --json=/dev/full"},
        FullDeviceWrite{"asbr-faults",
                        "campaign --quick --bench=adpcm-enc --injections=1 "
                        "--json=/dev/full"},
        FullDeviceWrite{"../bench/fig6_baseline",
                        "--quick --workload=adpcm-enc --json=/dev/full"}));

/// counters["<name>"] as printed in an indented sim report; -1 when absent.
long long reportCounter(const std::string& report, const std::string& name) {
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = report.find(key);
    return at == report.npos ? -1 : std::stoll(report.substr(at + key.size()));
}

TEST(StatsRunProgram, PinsCyclesAndFoldsOnEveryFixture) {
    // `asbr-stats run --program=F --asbr` on each assembly fixture: the
    // cycles and folds the standalone driver it replaced printed.
    struct Pin {
        const char* fixture;
        long long cycles;
        long long folds;
    };
    for (const Pin& pin : {Pin{"dangling_loopbound.s", 43, 6},
                           Pin{"illegal_short_distance.s", 28, 0},
                           Pin{"jalr_dispatch.s", 41, 0},
                           Pin{"legal_call_return.s", 84, 6},
                           Pin{"legal_far_producer.s", 65, 10},
                           Pin{"unbounded_loop.s", 63, 5}}) {
        const RunResult r = runTool(
            "asbr-stats", std::string("run --asbr --json=- --program=") +
                              ASBR_FIXTURES_DIR + "/" + pin.fixture);
        EXPECT_EQ(r.exitCode, 0) << pin.fixture << "\n" << r.output;
        EXPECT_NE(r.output.find(std::string("\"benchmark\": \"") +
                                pin.fixture + "\""),
                  r.output.npos)
            << pin.fixture;
        EXPECT_EQ(reportCounter(r.output, "pipeline.cycles"), pin.cycles)
            << pin.fixture;
        EXPECT_EQ(reportCounter(r.output, "asbr.folds"), pin.folds)
            << pin.fixture;
    }
}

TEST_P(CliRobustnessTest, HelpMentionsDurabilityFlags) {
    const RunResult r = runTool(GetParam(), "--help");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    for (const char* flag :
         {"--journal", "--resume", "--job-timeout", "--max-attempts"})
        EXPECT_NE(r.output.find(flag), r.output.npos)
            << GetParam() << " --help does not mention " << flag;
}

}  // namespace
