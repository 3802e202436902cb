#include "driver/artifacts.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "asm/assembler.hpp"
#include "cc/compile.hpp"
#include "cc/schedule.hpp"
#include "driver/names.hpp"
#include "util/ensure.hpp"
#include "workloads/input_gen.hpp"

namespace asbr::driver {

Prepared prepare(BenchId id, bool scheduled, std::uint64_t seed,
                 std::size_t samples) {
    Prepared prepared;
    prepared.id = id;
    prepared.scheduled = scheduled;
    prepared.program = buildBench(id, scheduled);
    prepared.pcm = generateSpeech(std::min(samples, benchMaxSamples(id)), seed);
    if (!benchIsEncoder(id)) {
        // Decoders consume the matching encoder's output, as in MediaBench.
        switch (id) {
            case BenchId::kAdpcmDecode:
                prepared.codes = adpcmEncodeRef(prepared.pcm);
                break;
            case BenchId::kG721Decode:
                prepared.codes = g721EncodeRef(prepared.pcm);
                break;
            case BenchId::kG711Decode:
                prepared.codes = g711EncodeRef(prepared.pcm);
                break;
            default:
                ASBR_ENSURE(false, "prepare: unexpected decoder");
        }
    }
    return prepared;
}

Program loadProgramFile(const std::string& path, bool scheduled) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open '" + path + "'");
    std::ostringstream source;
    source << in.rdbuf();
    try {
        if (path.ends_with(".s") || path.ends_with(".asm")) {
            Program program = assemble(source.str());
            if (scheduled) cc::scheduleConditionChains(program);
            return program;
        }
        cc::CompileOptions options;
        options.scheduleConditions = scheduled;
        return cc::compile(source.str(), options).program;
    } catch (const std::exception& e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

Prepared prepareFile(const std::string& path, bool scheduled) {
    Prepared prepared;
    prepared.scheduled = scheduled;
    prepared.hasInput = false;
    prepared.program = loadProgramFile(path, scheduled);
    return prepared;
}

Memory makeMemory(const Prepared& prepared) {
    Memory memory;
    memory.loadProgram(prepared.program);
    if (!prepared.hasInput) return memory;
    if (benchIsEncoder(prepared.id)) {
        loadPcmInput(memory, prepared.program, prepared.pcm);
    } else {
        loadCodeInput(memory, prepared.program, prepared.codes);
    }
    return memory;
}

PipelineResult runPipeline(const Prepared& prepared, BranchPredictor& predictor,
                           FetchCustomizer* customizer,
                           const PipelineConfig& config) {
    Memory memory = makeMemory(prepared);
    predictor.reset();
    PipelineSim sim(prepared.program, memory, predictor, config, customizer);
    PipelineResult result = sim.run();
    ASBR_ENSURE(result.exited && result.exitCode == 0,
                "benchmark did not exit cleanly");
    return result;
}

SampledResult runSampledPipeline(const Prepared& prepared,
                                 BranchPredictor& predictor,
                                 FetchCustomizer* customizer,
                                 const SamplingConfig& sampling,
                                 const PipelineConfig& config) {
    Memory memory = makeMemory(prepared);
    predictor.reset();
    SampledResult result = runSampled(prepared.program, memory, predictor,
                                      sampling, config, customizer);
    ASBR_ENSURE(result.exited && result.exitCode == 0,
                "benchmark did not exit cleanly");
    return result;
}

WorkloadArtifacts::WorkloadArtifacts(const WorkloadKey& key)
    : key_(key),
      prepared_(key.programFile.empty()
                    ? prepare(key.workload, key.scheduled, key.seed,
                              key.samples)
                    : prepareFile(key.programFile, key.scheduled)) {}

const ProgramProfile& WorkloadArtifacts::profile() const {
    std::call_once(profileOnce_, [this] {
        Memory memory = makeMemory(prepared_);
        profile_ = profileProgram(prepared_.program, memory);
    });
    return *profile_;
}

std::map<std::uint32_t, double> WorkloadArtifacts::baselineAccuracy() const {
    return predictionProfile("bimodal")->accuracyMap();
}

std::shared_ptr<const PredictionProfile> WorkloadArtifacts::predictionProfile(
    const std::string& token) const {
    return predictions_.get(token, [&] {
        std::string error;
        auto predictor = makePredictorByToken(token, &error);
        ASBR_ENSURE(predictor != nullptr, error);
        Memory memory = makeMemory(prepared_);
        return std::make_shared<const PredictionProfile>(
            profilePredictions(prepared_.program, memory, *predictor));
    });
}

SelectionArtifacts::SelectionArtifacts(
    std::shared_ptr<const WorkloadArtifacts> workload, const SelectionKey& key)
    : workload_(std::move(workload)), key_(key) {
    ASBR_ENSURE(key_.bitEntries > 0, "selection: BIT capacity must be resolved");
    const bool aware = key_.policy == SelectionPolicy::kPredictorAware;
    ASBR_ENSURE(!aware || !key_.predictorToken.empty(),
                "selection: predictor-aware needs a predictor token");
    SelectionConfig config;
    config.policy = key_.policy;
    config.bitCapacity = key_.bitEntries;
    config.threshold = thresholdFor(key_.updateStage);
    // Predictor-aware reclaimed slots are measured against the policy the
    // paper's figures used, so it keeps the bimodal reference even when
    // useAccuracy is off.
    const std::map<std::uint32_t, double> accuracy =
        (key_.useAccuracy || aware) ? workload_->baselineAccuracy()
                                    : std::map<std::uint32_t, double>{};
    std::map<std::uint32_t, double> strong;
    if (aware)
        strong = workload_->predictionProfile(key_.predictorToken)->accuracyMap();
    selection_ = selectBranches(workload_->prepared().program,
                                workload_->profile(), accuracy, config,
                                aware ? &strong : nullptr);
}

std::unique_ptr<AsbrUnit> SelectionArtifacts::makeUnit(
    bool parityProtected) const {
    AsbrConfig config;
    config.updateStage = key_.updateStage;
    config.bitCapacity = key_.bitEntries;
    config.parityProtected = parityProtected;
    auto unit = std::make_unique<AsbrUnit>(config);
    loadSelection(*unit, workload_->prepared().program, selection_);
    return unit;
}

std::shared_ptr<const WorkloadArtifacts> ArtifactCache::workload(
    const WorkloadKey& key) {
    return workloads_.get(key, [&key] {
        return std::make_shared<const WorkloadArtifacts>(key);
    });
}

std::shared_ptr<const SelectionArtifacts> ArtifactCache::selection(
    const SelectionKey& key) {
    return selections_.get(key, [this, &key] {
        return std::make_shared<const SelectionArtifacts>(workload(key.workload),
                                                          key);
    });
}

ArtifactCache::Stats ArtifactCache::stats() const {
    return {workloads_.computes(), selections_.computes(),
            workloads_.hits() + selections_.hits()};
}

}  // namespace asbr::driver
