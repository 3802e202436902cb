// Pins every branch selection the selection pass makes.
//
// Six workloads at --quick sizes, crossed with thresholds 2/3/4 and every
// selection mode a tool can ask for:
//
//   plain         profiled benefit, bimodal accuracy reference (the figures)
//   plain-noacc   profiled benefit without an accuracy reference
//   verify        asbr-verify's default path: legality verdicts consumed,
//                 no execution floor, no accuracy reference
//   static-folds  always/never-taken sites to the static fold table
//   aware-tage, aware-perceptron
//                 predictor-aware selection under a strong fallback
//   static-cost   profile-free, from the WCET misprediction-cost ranking
//
// Each case records the BIT PCs in rank order (with the legality verdict
// when one was consumed), the static folds as pc:taken:execs, the reclaimed
// BIT slots, the four hardness counts and the selection.* counters the mode
// publishes.  tests/selection_pin_expected.txt holds one line per case field;
// a mismatch names the case and its first differing field, and prints the
// workload's actual lines.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/timing/wcet.hpp"
#include "analysis/verify.hpp"
#include "driver/artifacts.hpp"
#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/names.hpp"
#include "profile/selection.hpp"
#include "util/metrics.hpp"

namespace asbr {
namespace {

using driver::SimEngine;
using driver::SimJob;

/// One case: its name plus (field, value) pairs in a fixed order.
struct PinCase {
    std::string name;
    std::vector<std::pair<std::string, std::string>> fields;
};

std::string hex(std::uint32_t pc) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", pc);
    return buf;
}

std::string joined(const std::vector<std::string>& parts) {
    if (parts.empty()) return "-";
    std::string out;
    for (const std::string& p : parts) out += (out.empty() ? "" : ",") + p;
    return out;
}

std::string bitField(const std::vector<Candidate>& residents) {
    std::vector<std::string> parts;
    for (const Candidate& c : residents)
        parts.push_back(hex(c.pc) + ":" +
                        (c.verdict ? analysis::foldLegalityName(*c.verdict)
                                   : "-"));
    return joined(parts);
}

std::string staticsField(const std::vector<StaticFoldCandidate>& statics) {
    std::vector<std::string> parts;
    for (const StaticFoldCandidate& s : statics)
        parts.push_back(hex(s.pc) + ":" + (s.taken ? "T" : "N") + ":" +
                        std::to_string(s.execs));
    return joined(parts);
}

std::string countersField(const MetricRegistry& registry) {
    std::vector<std::string> parts;
    for (const auto& [name, counter] : registry.counters())
        if (name.rfind("selection.", 0) == 0)
            parts.push_back(name + "=" + std::to_string(counter.value()));
    return joined(parts);
}

PinCase pinCase(std::string name, const Selection& selection,
                const MetricRegistry& registry) {
    std::vector<std::string> counts;
    for (const std::uint64_t n : selection.hardness)
        counts.push_back(std::to_string(n));
    return {std::move(name),
            {{"bit", bitField(selection.residents)},
             {"statics", staticsField(selection.statics)},
             {"reclaimed", std::to_string(selection.bitSlotsReclaimed)},
             {"hardness", joined(counts)},
             {"counters", countersField(registry)}}};
}

/// Every case of one workload, in a fixed order.
std::vector<PinCase> casesFor(BenchId id) {
    driver::CliOptions quick;
    quick.adpcmSamples = 8'000;
    quick.g721Samples = 2'000;
    SimEngine engine;
    SimJob base;
    base.workload = id;
    base.samples = driver::samplesFor(quick, id);
    base.asbr = true;
    const auto workload = engine.workloadFor(base);
    const Program& program = workload->prepared().program;
    const std::size_t capacity = driver::paperBitEntries(id);

    // The WCET cost ranking, built the way `asbr-verify wcet --bench` does.
    const analysis::FoldLegalityVerifier verifier(program);
    analysis::timing::WcetEngine wcet(
        verifier.cfg(), verifier.values(),
        analysis::timing::TimingCostModel::fromPipeline(PipelineConfig{}),
        &verifier.ipa().resolution.map);
    {
        Memory observeMemory = driver::makeMemory(workload->prepared());
        wcet.applyObservedBounds(analysis::timing::observeLoopBounds(
            program, observeMemory, wcet.loops()));
    }
    const analysis::timing::WcetResult ranking = wcet.compute({});
    EXPECT_TRUE(ranking.bounded) << ranking.reason;

    std::vector<PinCase> cases;
    for (const std::uint32_t threshold : {2u, 3u, 4u}) {
        const std::string prefix = std::string(driver::benchToken(id)) +
                                   "/t" + std::to_string(threshold) + "/";
        const auto viaEngine = [&](const char* mode, SimJob job) {
            job.updateStage = driver::stageForThreshold(threshold);
            const Selection& selection = engine.selectionFor(job)->selection();
            MetricRegistry registry;
            if (job.policy == SelectionPolicy::kPredictorAware) {
                PredictorAwareSelectionMetrics metrics;
                metrics.countSelection(selection);
                metrics.publish(registry);
            }
            cases.push_back(pinCase(prefix + mode, selection, registry));
        };
        viaEngine("plain", base);
        SimJob noAcc = base;
        noAcc.accuracyRef = false;
        viaEngine("plain-noacc", noAcc);

        SelectionConfig verifyConfig;
        verifyConfig.bitCapacity = capacity;
        verifyConfig.threshold = threshold;
        verifyConfig.minExecFraction = 0.0;
        verifyConfig.requireStaticallySafe = true;
        cases.push_back(pinCase(
            prefix + "verify",
            selectBranches(program, workload->profile(), {}, verifyConfig),
            MetricRegistry{}));

        SimJob folds = base;
        folds.policy = SelectionPolicy::kStaticFolds;
        viaEngine("static-folds", folds);
        for (const char* token : {"tage", "perceptron"}) {
            SimJob aware = base;
            aware.policy = SelectionPolicy::kPredictorAware;
            aware.predictor = token;
            viaEngine((std::string("aware-") + token).c_str(), aware);
        }

        SelectionConfig costConfig;
        costConfig.bitCapacity = capacity;
        costConfig.threshold = threshold;
        const Selection cost =
            selectBranches(program, ranking.branches, costConfig);
        StaticCostSelectionMetrics costMetrics;
        costMetrics.candidates = ranking.branches.size();
        costMetrics.countSelection(cost);
        MetricRegistry registry;
        costMetrics.publish(registry);
        cases.push_back(pinCase(prefix + "static-cost", cost, registry));
    }
    return cases;
}

/// Expected (field, value) pairs per case name.
std::map<std::string, std::vector<std::pair<std::string, std::string>>>
loadExpectations() {
    std::map<std::string, std::vector<std::pair<std::string, std::string>>>
        out;
    std::ifstream in(ASBR_SELECTION_PIN_EXPECTED);
    EXPECT_TRUE(in.good()) << ASBR_SELECTION_PIN_EXPECTED;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line.front() == '#') continue;
        std::istringstream fields(line);
        std::string name, field, value;
        fields >> name >> field >> value;
        out[name].emplace_back(field, value);
    }
    return out;
}

std::string lines(const std::vector<PinCase>& cases) {
    std::string out;
    for (const PinCase& c : cases)
        for (const auto& [field, value] : c.fields)
            out += c.name + " " + field + " " + value + "\n";
    return out;
}

class SelectionPinTest : public ::testing::TestWithParam<BenchId> {};

TEST_P(SelectionPinTest, SelectionsMatchExpectations) {
    static const auto expected = loadExpectations();
    const std::vector<PinCase> cases = casesFor(GetParam());
    int mismatches = 0;
    for (const PinCase& c : cases) {
        const auto it = expected.find(c.name);
        if (it == expected.end()) {
            ++mismatches;
            ADD_FAILURE() << c.name << ": no expectation";
            continue;
        }
        for (std::size_t i = 0; i < c.fields.size(); ++i) {
            const auto& [field, value] = c.fields[i];
            const bool same = i < it->second.size() &&
                              it->second[i].first == field &&
                              it->second[i].second == value;
            if (same) continue;
            ++mismatches;
            ADD_FAILURE() << c.name << ": field '" << field << "' is " << value
                          << ", expected "
                          << (i < it->second.size() ? it->second[i].second
                                                    : "(missing)");
            break;
        }
    }
    EXPECT_EQ(mismatches, 0) << "actual lines:\n" << lines(cases);
}

INSTANTIATE_TEST_SUITE_P(
    SixWorkloads, SelectionPinTest, ::testing::ValuesIn(kAllBenchesExtended),
    [](const ::testing::TestParamInfo<BenchId>& info) {
        std::string name = driver::benchToken(info.param);
        for (char& c : name)
            if (c == '-') c = '_';
        return name;
    });

}  // namespace
}  // namespace asbr
