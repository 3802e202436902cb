// Micro-benchmarks (google-benchmark) for the simulation infrastructure
// itself: simulator cycle throughput, predictor lookup/update cost, ASBR
// fold cost, assembler and compiler speed.  These are engineering numbers
// for users of the library, not paper results.
#include <benchmark/benchmark.h>

#include <span>
#include <utility>
#include <vector>

#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"
#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "bp/gshare.hpp"
#include "bp/perceptron.hpp"
#include "bp/tage.hpp"
#include "cc/compile.hpp"
#include "sim/functional.hpp"
#include "sim/pipeline.hpp"
#include "sim/sampling.hpp"
#include "util/rng.hpp"
#include "workloads/input_gen.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace asbr;

const Program& adpcmProgram() {
    static const Program program = buildBench(BenchId::kAdpcmEncode);
    return program;
}

const std::vector<std::int16_t>& pcmInput() {
    static const std::vector<std::int16_t> pcm = generateSpeech(4000, 5);
    return pcm;
}

void BM_FunctionalSim(benchmark::State& state) {
    const Program& p = adpcmProgram();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        FunctionalSim sim(p, mem);
        instructions += sim.run().instructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalSim)->Unit(benchmark::kMillisecond);

void BM_PipelineSim(benchmark::State& state) {
    const Program& p = adpcmProgram();
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        auto bp = makeBimodal2048();
        PipelineSim sim(p, mem, *bp);
        cycles += sim.run().stats.cycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineSim)->Unit(benchmark::kMillisecond);

void BM_PipelineSimWithAsbr(benchmark::State& state) {
    const Program& p = adpcmProgram();
    const auto pcs = allConditionalBranches(p);
    std::vector<std::uint32_t> selected(
        pcs.begin(), pcs.begin() + std::min<std::size_t>(pcs.size(), 16));
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        auto bp = makeBimodal(512, 512);
        AsbrUnit unit;
        unit.loadBank(0, extractBranchInfos(p, selected));
        PipelineSim sim(p, mem, *bp, PipelineConfig{}, &unit);
        cycles += sim.run().stats.cycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineSimWithAsbr)->Unit(benchmark::kMillisecond);

void BM_SampledSim(benchmark::State& state) {
    const Program& p = adpcmProgram();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        auto bp = makeBimodal2048();
        // Default window geometry (2k warmup / 10k measure / 100k skip);
        // instr/s here is the headline sim-speed number docs/simulation.md
        // quotes, measured on the same input as BM_PipelineSim above.
        instructions += runSampled(p, mem, *bp, SamplingConfig{})
                            .totalInstructions;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SampledSim)->Unit(benchmark::kMillisecond);

template <typename MakePredictor>
void predictorLoop(benchmark::State& state, MakePredictor make) {
    auto predictor = make();
    Xorshift64 rng(7);
    std::vector<std::uint32_t> pcs;
    std::vector<bool> outcomes;
    for (int i = 0; i < 4096; ++i) {
        pcs.push_back(0x1000 + static_cast<std::uint32_t>(rng.below(256)) * 4);
        outcomes.push_back(rng.chance(0.7));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint32_t pc = pcs[i & 4095];
        benchmark::DoNotOptimize(predictor->predict(pc));
        predictor->update(pc, outcomes[i & 4095], pc + 64);
        ++i;
    }
}

void BM_BimodalPredict(benchmark::State& state) {
    predictorLoop(state, [] { return makeBimodal2048(); });
}
BENCHMARK(BM_BimodalPredict);

void BM_GSharePredict(benchmark::State& state) {
    predictorLoop(state, [] { return makeGshare2048(); });
}
BENCHMARK(BM_GSharePredict);

void BM_TagePredict(benchmark::State& state) {
    predictorLoop(state, [] { return makeTage(); });
}
BENCHMARK(BM_TagePredict);

void BM_PerceptronPredict(benchmark::State& state) {
    predictorLoop(state, [] { return makePerceptron(); });
}
BENCHMARK(BM_PerceptronPredict);

void BM_BitLookup(benchmark::State& state) {
    const Program& p = adpcmProgram();
    const auto pcs = allConditionalBranches(p);
    AsbrUnit unit;
    unit.loadBank(0, extractBranchInfos(
                         p, std::span(pcs).subspan(
                                0, std::min<std::size_t>(pcs.size(), 16))));
    std::size_t i = 0;
    for (auto _ : state) {
        const std::uint32_t pc = pcs[i % pcs.size()];
        benchmark::DoNotOptimize(unit.bit().lookup(pc));
        ++i;
    }
}
BENCHMARK(BM_BitLookup);

/// The in-order stream of fetched text PCs (the committed path of the
/// adpcm-enc ISS run), with the instruction at each — recorded once.
const std::vector<std::pair<std::uint32_t, const Instruction*>>&
fetchStream() {
    static const auto stream = [] {
        const Program& p = adpcmProgram();
        Memory mem;
        mem.loadProgram(p);
        loadPcmInput(mem, p, pcmInput());
        FunctionalSim sim(p, mem);
        std::vector<std::pair<std::uint32_t, const Instruction*>> out;
        sim.setTraceHook([&](const Instruction&, const StepResult& sr) {
            out.emplace_back(sr.pc, &p.at(sr.pc));
        });
        (void)sim.run();
        return out;
    }();
    return stream;
}

void BM_AsbrFetch(benchmark::State& state) {
    // Unlike BM_BitLookup (hits only), this is the per-fetch cost the
    // pipeline pays: a 16-entry BIT consulted on every fetched PC, where
    // almost every PC is in no table.
    const Program& p = adpcmProgram();
    const auto pcs = allConditionalBranches(p);
    AsbrUnit unit;
    unit.loadBank(0, extractBranchInfos(
                         p, std::span(pcs).subspan(
                                0, std::min<std::size_t>(pcs.size(), 16))));
    const auto& stream = fetchStream();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& [pc, ins] = stream[i];
        benchmark::DoNotOptimize(unit.onFetch(pc, *ins));
        if (++i == stream.size()) i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsbrFetch);

void BM_Assemble(benchmark::State& state) {
    std::string src = "main:\n";
    for (int i = 0; i < 500; ++i)
        src += "  addiu t0, t0, 1\n  bnez t0, main\n";
    src += "  li v0, 1\n  li a0, 0\n  sys\n";
    for (auto _ : state) benchmark::DoNotOptimize(assemble(src));
    state.SetItemsProcessed(state.iterations() * 1003);
}
BENCHMARK(BM_Assemble)->Unit(benchmark::kMicrosecond);

void BM_CompileG721(benchmark::State& state) {
    const std::string src = g721EncoderSource();
    for (auto _ : state) benchmark::DoNotOptimize(cc::compile(src));
}
BENCHMARK(BM_CompileG721)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
