// The full ASBR methodology on a user application, end to end:
//
//   C source  --mcc-->  ep32 program  --profile-->  branch statistics
//   --select-->  BIT contents  --fold-->  customized core, fewer cycles
//
// The application is a small reactive packet classifier — the kind of
// control-dominated code the paper's introduction motivates: a chain of
// data-dependent header tests with very little arithmetic in between.
//
//   $ ./examples/compile_and_customize
#include <cstdio>

#include "asbr/asbr_unit.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "cc/compile.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "sim/pipeline.hpp"
#include "util/rng.hpp"

namespace {

constexpr const char* kClassifierSource = R"(
int packets[4096];     /* synthetic "headers", filled by the harness */
int n_packets;
int accept_count;
int drop_count;
int slow_path_count;

int classify(int hdr) {
    int proto = hdr & 3;
    int flags = (hdr >> 2) & 15;
    int len = (hdr >> 6) & 1023;
    if (proto == 0) return 0;             /* unknown protocol: drop */
    if (len == 0) return 0;               /* empty: drop */
    if (flags & 8) return 2;              /* urgent: slow path */
    if (proto == 3 && len > 512) return 2;
    if (flags & 1) return 1;              /* established: accept */
    if (len < 64) return 1;               /* short control frame: accept */
    return 2;
}

int main() {
    int n = n_packets;
    for (int i = 0; i < n; i++) {
        int verdict = classify(packets[i]);
        if (verdict == 0) drop_count++;
        else if (verdict == 1) accept_count++;
        else slow_path_count++;
    }
    __putint(accept_count);
    __putchar(47);       /* '/' */
    __putint(drop_count);
    __putchar(47);
    __putint(slow_path_count);
    return 0;
}
)";

}  // namespace

int main() {
    using namespace asbr;

    // Compile (with the condition-scheduling pass) and prepare the input.
    const cc::Compiled compiled = cc::compile(kClassifierSource);
    std::printf("compiled classifier: %zu instructions, scheduling moved %u\n",
                compiled.program.code.size(),
                compiled.schedule.instructionsMoved);

    Xorshift64 rng(99);
    const std::uint32_t packetsAddr = compiled.program.symbol("packets");
    const int packetCount = 4096;
    auto fillInput = [&](Memory& memory) {
        Xorshift64 local(99);
        for (int i = 0; i < packetCount; ++i)
            memory.writeWord(packetsAddr + 4 * static_cast<std::uint32_t>(i),
                             static_cast<std::int32_t>(local.next() & 0xFFFF));
        memory.writeWord(compiled.program.symbol("n_packets"), packetCount);
    };
    (void)rng;

    // Profile and pick the BIT contents.
    Memory profileMemory;
    profileMemory.loadProgram(compiled.program);
    fillInput(profileMemory);
    const ProgramProfile profile = profileProgram(compiled.program, profileMemory);

    SelectionConfig config;
    config.bitCapacity = 8;
    config.threshold = 3;
    const Selection selection =
        selectBranches(compiled.program, profile, {}, config);
    std::printf("profiler: %zu branch sites, %zu selected for the BIT\n",
                profile.branches.size(), selection.residents.size());
    for (const Candidate& c : selection.residents)
        std::printf("  pc 0x%05x  execs %-8llu taken %.2f foldable %.2f\n",
                    c.pc, static_cast<unsigned long long>(c.execs), c.takenRate,
                    c.foldableFraction);

    // Run baseline vs customized core.
    auto runOnce = [&](AsbrUnit* unit) {
        Memory memory;
        memory.loadProgram(compiled.program);
        fillInput(memory);
        auto predictor = makeBimodal(512, 512);
        PipelineSim sim(compiled.program, memory, *predictor, PipelineConfig{},
                        unit);
        return sim.run();
    };
    const PipelineResult base = runOnce(nullptr);

    AsbrUnit unit;
    loadSelection(unit, compiled.program, selection);
    const PipelineResult custom = runOnce(&unit);

    std::printf("\nbaseline  : %llu cycles, CPI %.2f, output %s\n",
                static_cast<unsigned long long>(base.stats.cycles),
                base.stats.cpi(), base.output.c_str());
    std::printf("customized: %llu cycles, CPI %.2f, %llu folds, output %s\n",
                static_cast<unsigned long long>(custom.stats.cycles),
                custom.stats.cpi(),
                static_cast<unsigned long long>(custom.stats.foldedBranches),
                custom.output.c_str());
    std::printf("improvement: %.1f%%\n",
                100.0 *
                    (static_cast<double>(base.stats.cycles) -
                     static_cast<double>(custom.stats.cycles)) /
                    static_cast<double>(base.stats.cycles));
    return base.output == custom.output ? 0 : 1;
}
