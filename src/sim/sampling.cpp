#include "sim/sampling.hpp"

#include <cmath>

#include "sim/customizer_dispatch.hpp"
#include "util/ensure.hpp"
#include "util/metrics.hpp"

namespace asbr {

namespace {

/// One fast-forward burst: decode-cached functional execution with the
/// customizer fed the exact event stream the pipeline would emit
/// (replayArchStep via the batched onArchStep hook).  Templated on the
/// concrete customizer type (withCustomizer) so that for the common AsbrUnit
/// case every hook body inlines into the loop — the replay then costs a
/// couple of table writes per instruction instead of a chain of virtual
/// calls — and a run without a customizer replays nothing.
template <class Customizer>
std::uint64_t fastForwardBurst(Customizer& customizer, DecodeCache& cache,
                               ArchState& state, Memory& memory, IoContext& io,
                               std::uint64_t budget) {
    std::uint64_t skipped = 0;
    while (skipped < budget && !io.exited) {
        const DecodedOp& dec = cache.lookup(state.pc);
        const StepResult sr = stepDecoded(state, memory, dec, io);
        ++skipped;
        customizer.onArchStep(dec, sr);
    }
    return skipped;
}

}  // namespace

void SampledResult::publish(MetricRegistry& registry) const {
    registry
        .counter("sim.sampled_windows",
                 "cycle-accurate measurement windows in a sampled run")
        .add(windows.size());
    registry
        .counter("sim.sampled_instructions",
                 "instructions measured inside cycle-accurate windows")
        .add(measuredInstructions);
    registry
        .counter("sim.fast_forward_instructions",
                 "instructions executed on the functional fast-forward path "
                 "between windows")
        .add(fastForwardInstructions);
}

void SimSpeed::publish(MetricRegistry& registry) const {
    registry
        .counter("sim.mips",
                 "host throughput in million simulated instructions per "
                 "second (host-dependent: human-facing output only, never "
                 "JSON artifacts)")
        .add(mips);
}

SampledResult runSampled(const Program& program, Memory& memory,
                         BranchPredictor& predictor,
                         const SamplingConfig& sampling,
                         const PipelineConfig& config,
                         FetchCustomizer* customizer) {
    ASBR_ENSURE(sampling.measure > 0,
                "sampling: the measure window must be nonzero");

    PipelineSim sim(program, memory, predictor, config, customizer);
    DecodeCache fastForward(program);
    SampledResult out;

    // Architectural thread state, handed back and forth between the pipeline
    // and the functional fast-forward loop.
    ArchState state;
    state.pc = program.entry;
    state.setReg(reg::sp, static_cast<std::int32_t>(kStackTop));
    state.setReg(reg::gp, static_cast<std::int32_t>(program.dataBase + 0x8000));
    IoContext io;

    while (!io.exited) {
        // Detailed unit: warmup (discarded) then the measured slice.  Each
        // phase starts from a drained pipeline; warmup exists to re-warm the
        // short-lived state the drain loses, while caches/predictor/BDT stay
        // warm across the whole run.
        sim.warmStart(state, io);
        if (sampling.warmup > 0) {
            sim.advance(sampling.warmup);
            sim.warmStart(sim.archState(), sim.io());
        }
        const std::uint64_t preCycles = sim.counters().cycles;
        const std::uint64_t preCommitted = sim.counters().committed;
        if (!sim.io().exited) sim.advance(sampling.measure);
        const std::uint64_t windowInstructions =
            sim.counters().committed - preCommitted;
        const std::uint64_t windowCycles = sim.counters().cycles - preCycles;
        state = sim.archState();
        io = sim.io();
        if (windowInstructions > 0) {
            out.windows.push_back(SampleWindow{
                preCommitted + out.fastForwardInstructions, windowInstructions,
                windowCycles});
            out.measuredInstructions += windowInstructions;
            out.measuredCycles += windowCycles;
        }
        if (io.exited) break;

        // Fast-forward between detailed windows.
        out.fastForwardInstructions +=
            withCustomizer(customizer, [&](auto& c) {
                return fastForwardBurst(c, fastForward, state, memory, io,
                                        sampling.skip);
            });
    }

    // Cumulative detailed-window stats; the cache/decode-cache snapshot
    // fields were refreshed when the last advance() call returned.
    out.stats = sim.stats();
    out.totalInstructions = out.stats.committed + out.fastForwardInstructions;
    out.exited = io.exited;
    out.exitCode = io.exitCode;
    out.output = std::move(io.output);

    out.cpiEstimate =
        out.measuredInstructions == 0
            ? 0.0
            : static_cast<double>(out.measuredCycles) /
                  static_cast<double>(out.measuredInstructions);
    const std::size_t n = out.windows.size();
    if (n >= 2) {
        double mean = 0.0;
        for (const SampleWindow& w : out.windows) mean += w.cpi();
        mean /= static_cast<double>(n);
        double varSum = 0.0;
        for (const SampleWindow& w : out.windows) {
            const double d = w.cpi() - mean;
            varSum += d * d;
        }
        const double stddev = std::sqrt(varSum / static_cast<double>(n - 1));
        out.ci95HalfWidth = 1.96 * stddev / std::sqrt(static_cast<double>(n));
    }
    return out;
}

}  // namespace asbr
