// Workload validation: the mcc-compiled benchmarks running on the simulated
// core must produce bit-identical results to the native golden references,
// with and without condition scheduling and with ASBR folding enabled.
#include <gtest/gtest.h>

#include "asbr/asbr_unit.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"
#include "workloads/input_gen.hpp"
#include "workloads/workloads.hpp"

namespace asbr {
namespace {

constexpr std::size_t kTestSamples = 3000;

std::vector<std::int16_t> testInput() { return generateSpeech(kTestSamples, 7); }

/// Run a benchmark program functionally over the given input; returns the
/// output buffer read back from simulated memory.
template <typename LoadFn, typename ReadFn>
auto runFunctional(const Program& p, LoadFn load, ReadFn read, std::size_t n) {
    Memory mem;
    mem.loadProgram(p);
    load(mem, p);
    FunctionalSim sim(p, mem);
    const FunctionalResult r = sim.run(500'000'000);
    EXPECT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, 0);
    return read(mem, p, n);
}

TEST(InputGenTest, DeterministicAndBounded) {
    const auto a = generateSpeech(5000, 42);
    const auto b = generateSpeech(5000, 42);
    const auto c = generateSpeech(5000, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // Should carry real signal energy, not silence or rail-to-rail noise.
    std::int64_t sumAbs = 0;
    int extremes = 0;
    for (std::int16_t s : a) {
        sumAbs += s < 0 ? -s : s;
        if (s == -32768 || s == 32767) ++extremes;
    }
    EXPECT_GT(sumAbs / static_cast<std::int64_t>(a.size()), 200);
    EXPECT_LT(extremes, 500);
}

TEST(WorkloadsTest, AdpcmEncoderMatchesReference) {
    const auto pcm = testInput();
    const Program p = buildBench(BenchId::kAdpcmEncode);
    const auto simCodes = runFunctional(
        p,
        [&pcm](Memory& m, const Program& prog) { loadPcmInput(m, prog, pcm); },
        [](const Memory& m, const Program& prog, std::size_t n) {
            return readCodes(m, prog, n);
        },
        pcm.size());
    EXPECT_EQ(simCodes, adpcmEncodeRef(pcm));
}

TEST(WorkloadsTest, AdpcmDecoderMatchesReference) {
    const auto pcm = testInput();
    const auto codes = adpcmEncodeRef(pcm);
    const Program p = buildBench(BenchId::kAdpcmDecode);
    const auto simPcm = runFunctional(
        p,
        [&codes](Memory& m, const Program& prog) { loadCodeInput(m, prog, codes); },
        [](const Memory& m, const Program& prog, std::size_t n) {
            return readPcm(m, prog, n);
        },
        codes.size());
    EXPECT_EQ(simPcm, adpcmDecodeRef(codes));
}

TEST(WorkloadsTest, AdpcmRoundTripTracksInput) {
    // Codec sanity: decode(encode(x)) approximates x.
    const auto pcm = testInput();
    const auto decoded = adpcmDecodeRef(adpcmEncodeRef(pcm));
    std::int64_t err = 0, energy = 0;
    for (std::size_t i = 100; i < pcm.size(); ++i) {
        err += std::abs(pcm[i] - decoded[i]);
        energy += std::abs(static_cast<int>(pcm[i]));
    }
    EXPECT_LT(err, energy / 2);  // reconstruction error well below signal
}

TEST(WorkloadsTest, G721EncoderMatchesReference) {
    const auto pcm = testInput();
    const Program p = buildBench(BenchId::kG721Encode);
    const auto simCodes = runFunctional(
        p,
        [&pcm](Memory& m, const Program& prog) { loadPcmInput(m, prog, pcm); },
        [](const Memory& m, const Program& prog, std::size_t n) {
            return readCodes(m, prog, n);
        },
        pcm.size());
    EXPECT_EQ(simCodes, g721EncodeRef(pcm));
}

TEST(WorkloadsTest, G721DecoderMatchesReference) {
    const auto pcm = testInput();
    const auto codes = g721EncodeRef(pcm);
    const Program p = buildBench(BenchId::kG721Decode);
    const auto simPcm = runFunctional(
        p,
        [&codes](Memory& m, const Program& prog) { loadCodeInput(m, prog, codes); },
        [](const Memory& m, const Program& prog, std::size_t n) {
            return readPcm(m, prog, n);
        },
        codes.size());
    EXPECT_EQ(simPcm, g721DecodeRef(codes));
}

TEST(WorkloadsTest, G721EncoderDecoderRoundTrip) {
    const auto pcm = testInput();
    const auto decoded = g721DecodeRef(g721EncodeRef(pcm));
    // G.721 is a waveform codec: after convergence the output should track
    // the input with bounded error.
    std::int64_t err = 0, energy = 0;
    for (std::size_t i = 500; i < pcm.size(); ++i) {
        err += std::abs(pcm[i] - decoded[i]);
        energy += std::abs(static_cast<int>(pcm[i]));
    }
    EXPECT_LT(err, energy);
}

TEST(WorkloadsTest, SchedulingDoesNotChangeOutputs) {
    const auto pcm = testInput();
    for (const bool schedule : {false, true}) {
        const Program p = buildBench(BenchId::kG721Encode, schedule);
        const auto codes = runFunctional(
            p,
            [&pcm](Memory& m, const Program& prog) { loadPcmInput(m, prog, pcm); },
            [](const Memory& m, const Program& prog, std::size_t n) {
                return readCodes(m, prog, n);
            },
            pcm.size());
        EXPECT_EQ(codes, g721EncodeRef(pcm)) << "schedule=" << schedule;
    }
}

// The headline correctness property of the whole reproduction: enabling ASBR
// folding on profiler-selected branches changes *nothing* about program
// results while removing branches from the pipeline.
TEST(WorkloadsTest, AsbrFoldingPreservesBenchmarkResults) {
    const auto pcm = generateSpeech(1500, 11);
    for (const BenchId id : {BenchId::kAdpcmEncode, BenchId::kG721Encode}) {
        const Program p = buildBench(id);

        Memory profMem;
        profMem.loadProgram(p);
        loadPcmInput(profMem, p, pcm);
        const ProgramProfile profile = profileProgram(p, profMem);

        SelectionConfig selCfg;
        selCfg.threshold = 3;
        selCfg.bitCapacity = 16;
        const Selection selection = selectBranches(p, profile, {}, selCfg);
        ASSERT_FALSE(selection.residents.empty()) << benchName(id);

        AsbrUnit unit({ValueStage::kMemEnd, 16, 1});
        loadSelection(unit, p, selection);

        Memory baseMem, asbrMem;
        baseMem.loadProgram(p);
        asbrMem.loadProgram(p);
        loadPcmInput(baseMem, p, pcm);
        loadPcmInput(asbrMem, p, pcm);

        auto basePred = makeBimodal2048();
        auto asbrPred = makeBimodal(512, 512);
        PipelineSim base(p, baseMem, *basePred);
        PipelineSim folded(p, asbrMem, *asbrPred, PipelineConfig{}, &unit);
        const PipelineResult rb = base.run();
        const PipelineResult rf = folded.run();

        EXPECT_GT(unit.stats().folds, 0u) << benchName(id);
        EXPECT_EQ(readCodes(baseMem, p, pcm.size()),
                  readCodes(asbrMem, p, pcm.size()))
            << benchName(id);
        EXPECT_EQ(rb.exitCode, rf.exitCode);
        EXPECT_EQ(rb.stats.committed,
                  rf.stats.committed + rf.stats.foldedBranches);
    }
}

TEST(WorkloadsTest, G711EncoderMatchesReference) {
    const auto pcm = testInput();
    const Program p = buildBench(BenchId::kG711Encode);
    const auto simCodes = runFunctional(
        p,
        [&pcm](Memory& m, const Program& prog) { loadPcmInput(m, prog, pcm); },
        [](const Memory& m, const Program& prog, std::size_t n) {
            return readCodes(m, prog, n);
        },
        pcm.size());
    EXPECT_EQ(simCodes, g711EncodeRef(pcm));
}

TEST(WorkloadsTest, G711DecoderMatchesReference) {
    const auto pcm = testInput();
    const auto codes = g711EncodeRef(pcm);
    const Program p = buildBench(BenchId::kG711Decode);
    const auto simPcm = runFunctional(
        p,
        [&codes](Memory& m, const Program& prog) { loadCodeInput(m, prog, codes); },
        [](const Memory& m, const Program& prog, std::size_t n) {
            return readPcm(m, prog, n);
        },
        codes.size());
    EXPECT_EQ(simPcm, g711DecodeRef(codes));
}

TEST(WorkloadsTest, G711RoundTripWithinUlawError) {
    // mu-law is logarithmic: relative error bounded (~1/16 of magnitude),
    // exact around zero.
    EXPECT_EQ(ulawToLinear(linearToUlaw(0)), 0);
    for (std::int32_t v : {-30000, -5000, -100, -1, 1, 100, 5000, 30000}) {
        const std::int16_t round =
            ulawToLinear(linearToUlaw(static_cast<std::int16_t>(v)));
        EXPECT_NEAR(round, v, std::abs(v) / 8.0 + 40) << v;
    }
}

TEST(WorkloadsTest, G711UlawCodesCoverFullByte) {
    // Encoder output spans the 8-bit code space on a realistic signal.
    const auto codes = g711EncodeRef(testInput());
    bool sawSign[2] = {false, false};
    for (std::uint8_t c : codes) sawSign[(c >> 7) & 1] = true;
    EXPECT_TRUE(sawSign[0]);
    EXPECT_TRUE(sawSign[1]);
}

TEST(WorkloadsTest, BenchMetadataConsistent) {
    for (const BenchId id : kAllBenchesExtended) {
        EXPECT_FALSE(benchSource(id).empty());
        EXPECT_GT(benchMaxSamples(id), 0u);
        EXPECT_NE(benchName(id), nullptr);
    }
    EXPECT_TRUE(benchIsEncoder(BenchId::kAdpcmEncode));
    EXPECT_FALSE(benchIsEncoder(BenchId::kG721Decode));
}

TEST(WorkloadsTest, ProgramsHaveControlDominatedProfile) {
    // The paper targets control-dominated code: conditional branches should
    // be a sizeable fraction of dynamic instructions.
    const auto pcm = generateSpeech(1000, 3);
    for (const BenchId id : {BenchId::kAdpcmEncode, BenchId::kG721Encode}) {
        const Program p = buildBench(id);
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcm);
        const ProgramProfile prof = profileProgram(p, mem);
        std::uint64_t branchExecs = 0;
        for (const auto& [pc, bp] : prof.branches) branchExecs += bp.execs;
        const double fraction =
            static_cast<double>(branchExecs) /
            static_cast<double>(prof.instructions);
        EXPECT_GT(fraction, 0.08) << benchName(id);
        EXPECT_LT(fraction, 0.5) << benchName(id);
    }
}

}  // namespace
}  // namespace asbr
