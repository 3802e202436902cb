// Decode-cache and sampled-simulation tests (docs/simulation.md).
//
// The decode cache must be invisible: rebinding discards stale records, and
// customizer-injected fold replacements are decoded fresh — never served
// from or written into the cache — so a scripted fold at one fetch does not
// change what later fetches of the same PC execute.  Sampling must be
// architecturally exact (same program output as a full run, ASBR included)
// and its report byte-identical across engine thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "bp/predictor.hpp"
#include "bp/bimodal.hpp"
#include "driver/artifacts.hpp"
#include "driver/engine.hpp"
#include "mem/memory.hpp"
#include "report/sampling_report.hpp"
#include "sim/decode_cache.hpp"
#include "sim/pipeline.hpp"
#include "sim/sampling.hpp"
#include "util/metrics.hpp"

namespace {

using namespace asbr;

constexpr const char* kExit = R"(
        li   v0, 1
        sys
)";

// ----------------------------------------------------------- decode cache --

TEST(DecodeCacheTest, LazyFillThenHit) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 3
        addiu t0, t0, 1
        move a0, t0
)") + kExit);
    DecodeCache cache(p);
    EXPECT_TRUE(cache.bound());
    const DecodedOp& first = cache.lookup(p.textBase);
    EXPECT_EQ(first.pc, p.textBase);
    EXPECT_EQ(first.fallthrough, p.textBase + 4);
    EXPECT_EQ(cache.stats().lookups, 1u);
    EXPECT_EQ(cache.stats().fills, 1u);
    cache.lookup(p.textBase);
    EXPECT_EQ(cache.stats().lookups, 2u);
    EXPECT_EQ(cache.stats().fills, 1u);
    EXPECT_EQ(cache.stats().hits(), 1u);
}

TEST(DecodeCacheTest, RebindDiscardsStaleRecords) {
    const Program a = assemble(std::string("main:   li   a0, 1\n") + kExit);
    const Program b = assemble(std::string("main:   li   a0, 2\n") + kExit);
    ASSERT_EQ(a.textBase, b.textBase);
    DecodeCache cache(a);
    EXPECT_EQ(cache.lookup(a.textBase).ins.imm, 1);
    // Program reload: records decoded from image A must never be served —
    // the lookup after rebind refills (a second fill, not a stale hit).
    cache.bind(b);
    EXPECT_EQ(cache.lookup(b.textBase).ins.imm, 2);
    EXPECT_EQ(cache.stats().fills, 2u);
    EXPECT_EQ(cache.stats().hits(), 0u);
}

TEST(DecodeCacheTest, DecodeOneResolvesBranchTargets) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 2
loop:   addiu t0, t0, -1
        bnez t0, loop
        move a0, t0
)") + kExit);
    const std::uint32_t branchPc = p.symbol("loop") + 4;
    const DecodedOp dec = decodeOne(p.at(branchPc), branchPc);
    EXPECT_TRUE(dec.condBranch);
    EXPECT_EQ(dec.cls, ExecClass::kCondBranch);
    EXPECT_EQ(dec.target, p.symbol("loop"));
    EXPECT_EQ(dec.fallthrough, branchPc + 4);
    EXPECT_EQ(dec.fetchNext, branchPc + 4);  // predictor decides, not decode
}

// A scripted customizer that folds the branch at `branchPc` exactly once,
// injecting the branch-target instruction (BTI semantics).  If the pipeline
// ever cached the replacement under the branch's fetch address, every later
// iteration would execute the replacement instead of the branch and the
// loop would terminate after one pass.
struct OneShotBtiFold final : FetchCustomizer {
    std::uint32_t branchPc = 0;
    DecodedOp replacement{};  ///< BTI decoded at its own address
    bool armed = true;
    int folds = 0;

    std::optional<FoldOutcome> onFetch(std::uint32_t pc,
                                       const Instruction&) override {
        if (pc != branchPc || !armed) return std::nullopt;
        armed = false;
        ++folds;
        return FoldOutcome{&replacement, true};
    }
    void onProducerDecoded(std::uint8_t) override {}
    void onValueAvailable(std::uint8_t, std::int32_t, ValueStage,
                          ValueStage) override {}
    void reset() override {
        armed = true;
        folds = 0;
    }
};

TEST(DecodeCacheTest, FoldReplacementIsNotCachedUnderBranchPc) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 5
        li   t1, 0
loop:   addiu t1, t1, 2
        addiu t0, t0, -1
        bnez t0, loop
        move a0, t1
)") + kExit);
    const std::uint32_t loop = p.symbol("loop");
    OneShotBtiFold fold;
    fold.branchPc = loop + 8;  // the bnez
    fold.replacement = decodeOne(p.at(loop), loop);

    Memory mem;
    mem.loadProgram(p);
    auto bp = makeBimodal2048();
    PipelineSim sim(p, mem, *bp, PipelineConfig{}, &fold);
    const PipelineResult r = sim.run();
    ASSERT_TRUE(r.exited);
    // 5 iterations of t1 += 2 regardless of the one-shot fold; a polluted
    // decode cache would exit after a single pass (exit code 4).
    EXPECT_EQ(r.exitCode, 10);
    EXPECT_EQ(fold.folds, 1);
    EXPECT_EQ(r.stats.foldedBranches, 1u);
    EXPECT_GT(r.stats.decodeCacheHits, 0u);
}

// Folds the same never-taken branch on *every* fetch (replacement executes
// at the branch's own PC — the self-referencing case): repeated bypass of
// one cache slot, with the architectural result of the unfolded run.
struct EveryFetchNopFold final : FetchCustomizer {
    std::uint32_t branchPc = 0;
    DecodedOp nop{};  ///< a nop decoded at branchPc
    int folds = 0;

    std::optional<FoldOutcome> onFetch(std::uint32_t pc,
                                       const Instruction&) override {
        if (pc != branchPc) return std::nullopt;
        ++folds;
        return FoldOutcome{&nop, false};
    }
    void onProducerDecoded(std::uint8_t) override {}
    void onValueAvailable(std::uint8_t, std::int32_t, ValueStage,
                          ValueStage) override {}
    void reset() override { folds = 0; }
};

TEST(DecodeCacheTest, RepeatedSelfReferencingFoldMatchesBaseline) {
    const Program p = assemble(std::string(R"(
main:   li   t0, 5
        li   t1, 0
        li   t2, 1
loop:   beqz t2, done
        addiu t1, t1, 2
        addiu t0, t0, -1
        bnez t0, loop
done:   move a0, t1
)") + kExit);
    Memory baseMem;
    baseMem.loadProgram(p);
    auto baseBp = makeBimodal2048();
    PipelineSim base(p, baseMem, *baseBp);
    const PipelineResult expected = base.run();

    EveryFetchNopFold fold;
    fold.branchPc = p.symbol("loop");
    fold.nop = decodeOne(Instruction{}, fold.branchPc);
    Memory mem;
    mem.loadProgram(p);
    auto bp = makeBimodal2048();
    PipelineSim sim(p, mem, *bp, PipelineConfig{}, &fold);
    const PipelineResult r = sim.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.exitCode, expected.exitCode);
    EXPECT_EQ(r.output, expected.output);
    EXPECT_EQ(r.stats.committed, expected.stats.committed);
    EXPECT_GE(fold.folds, 5);
    EXPECT_GT(r.stats.foldedBranches, 0u);
}

// --------------------------------------------------------------- sampling --

driver::Prepared tinyWorkload(BenchId id = BenchId::kAdpcmEncode) {
    return driver::prepare(id, /*scheduled=*/true, /*seed=*/2001,
                           /*samples=*/1'000);
}

constexpr SamplingConfig kTinyWindows{500, 2'000, 8'000};

TEST(SamplingTest, SampledRunMatchesFullRunArchitecturally) {
    const driver::Prepared prepared = tinyWorkload();
    auto fullBp = makeBimodal2048();
    const PipelineResult full = driver::runPipeline(prepared, *fullBp);

    auto bp = makeBimodal2048();
    const SampledResult s = driver::runSampledPipeline(
        prepared, *bp, /*customizer=*/nullptr, kTinyWindows);
    EXPECT_TRUE(s.exited);
    EXPECT_EQ(s.exitCode, full.exitCode);
    EXPECT_EQ(s.output, full.output);
    EXPECT_EQ(s.totalInstructions, full.stats.committed);
    ASSERT_GE(s.windows.size(), 2u);
    // Warmup instructions are detailed but neither measured nor
    // fast-forwarded, so the two tracked classes undercount the total.
    EXPECT_LT(s.measuredInstructions + s.fastForwardInstructions,
              s.totalInstructions);
    std::uint64_t windowInstructions = 0;
    std::uint64_t windowCycles = 0;
    for (const SampleWindow& w : s.windows) {
        windowInstructions += w.instructions;
        windowCycles += w.cycles;
    }
    EXPECT_EQ(windowInstructions, s.measuredInstructions);
    EXPECT_EQ(windowCycles, s.measuredCycles);
    EXPECT_GT(s.cpiEstimate, 1.0);
}

TEST(SamplingTest, AsbrSampledRunKeepsDirectionBitsExact) {
    driver::SimJob job;
    job.workload = BenchId::kAdpcmEncode;
    job.seed = 2001;
    job.samples = 1'000;
    job.asbr = true;
    driver::SimEngine engine;
    const auto workload = engine.workloadFor(job);
    const auto selection = engine.selectionFor(job);

    auto fullBp = makeBimodal2048();
    auto fullUnit = selection->makeUnit(false);
    const PipelineResult full =
        driver::runPipeline(workload->prepared(), *fullBp, fullUnit.get());

    auto bp = makeBimodal2048();
    auto unit = selection->makeUnit(false);
    const SampledResult s = driver::runSampledPipeline(
        workload->prepared(), *bp, unit.get(), kTinyWindows);
    // The fast-forward path replays the full pipeline event stream into the
    // ASBR unit, so the BDT — and therefore the program output — is exact.
    EXPECT_EQ(s.output, full.output);
    EXPECT_EQ(s.exitCode, full.exitCode);
    // A fold removes the branch from the committed stream (the replacement
    // commits in its place *and* covers the following instruction), so the
    // detailed full run commits fewer instructions than the architectural
    // count the fast-forward path reports.
    EXPECT_GE(s.totalInstructions, full.stats.committed);
    EXPECT_GT(s.stats.foldedBranches, 0u);
    const double refCpi = static_cast<double>(full.stats.cycles) /
                          static_cast<double>(full.stats.committed);
    EXPECT_NEAR(s.cpiEstimate, refCpi, refCpi * 0.05);
}

std::vector<driver::SimJob> sampledBatch() {
    std::vector<driver::SimJob> jobs;
    for (const BenchId id : {BenchId::kAdpcmEncode, BenchId::kAdpcmDecode}) {
        for (const bool asbr : {false, true}) {
            driver::SimJob job;
            job.workload = id;
            job.seed = 2001;
            job.samples = 1'000;
            job.asbr = asbr;
            job.sampled = true;
            job.sampling = kTinyWindows;
            job.sampleReference = true;
            jobs.push_back(job);
        }
    }
    return jobs;
}

std::vector<std::string> sampledReports(std::size_t threads) {
    driver::SimEngine engine({.threads = threads});
    std::vector<std::string> docs;
    for (const driver::JobResult& r : engine.run(sampledBatch())) {
        EXPECT_NE(r.sampled, nullptr);
        std::optional<SamplingReference> reference;
        if (r.hasReference)
            reference =
                SamplingReference{r.referenceCycles, r.referenceCommitted};
        docs.push_back(samplingReportJson(r.report.meta, kTinyWindows,
                                          *r.sampled, reference)
                           .dump(2));
    }
    return docs;
}

TEST(SamplingTest, ReportByteIdenticalAcrossThreadCounts) {
    const std::vector<std::string> serial = sampledReports(1);
    const std::vector<std::string> parallel = sampledReports(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
}

TEST(SamplingTest, ReportValidatesAndCatchesTampering) {
    const std::string doc = sampledReports(1).front();
    const JsonParseResult parsed = parseJson(doc);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(validateSamplingReportJson(*parsed.value).ok());

    // An edited error verdict must be caught: within_bound is recomputed
    // from the integer fields by the validator.
    std::string flipped = doc;
    const std::string key = "\"within_bound\": true";
    const std::size_t at = flipped.find(key);
    ASSERT_NE(at, std::string::npos);
    flipped.replace(at, key.size(), "\"within_bound\": false");
    const JsonParseResult reparsed = parseJson(flipped);
    ASSERT_TRUE(reparsed.ok());
    EXPECT_FALSE(validateSamplingReportJson(*reparsed.value).ok());

    std::string badVersion = doc;
    const std::string ver = "\"version\": 1";
    const std::size_t vat = badVersion.find(ver);
    ASSERT_NE(vat, std::string::npos);
    badVersion.replace(vat, ver.size(), "\"version\": 99");
    const JsonParseResult reparsed2 = parseJson(badVersion);
    ASSERT_TRUE(reparsed2.ok());
    EXPECT_FALSE(validateSamplingReportJson(*reparsed2.value).ok());
}

TEST(SamplingTest, PublishRegistersSimCounters) {
    MetricRegistry registry;
    SampledResult{}.publish(registry);
    SimSpeed{}.publish(registry);
    std::vector<std::string> names;
    for (const auto& entry : registry.catalogue()) names.push_back(entry.name);
    EXPECT_NE(std::find(names.begin(), names.end(), "sim.sampled_windows"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "sim.mips"), names.end());
}

}  // namespace
