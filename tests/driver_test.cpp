// Driver-layer tests: deterministic parallel execution and once-per-key
// artifact caching (docs/architecture.md, "Driver layer").
//
// The load-bearing property is byte-identity: a job batch, a fault campaign
// and a sweep must serialize to exactly the same JSON whether the engine ran
// them on 1 thread or 8 (and across repeated 8-thread runs).  These tests
// pin that down by diffing whole serialized documents, the same way
// ci/bench-report.sh and ci/faults.sh do with the real binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/names.hpp"
#include "driver/pool.hpp"
#include "driver/sweep.hpp"
#include "program_gen.hpp"
#include "report/fault_report.hpp"
#include "report/report.hpp"
#include "report/sweep_report.hpp"

namespace {

using namespace asbr;
using namespace asbr::driver;

CliOptions tinyOptions() {
    CliOptions options;
    options.adpcmSamples = 1'000;
    options.g721Samples = 400;
    return options;
}

SimJob tinyJob(BenchId id, const std::string& predictor, bool asbr) {
    const CliOptions options = tinyOptions();
    SimJob job;
    job.workload = id;
    job.seed = options.seed;
    job.samples = samplesFor(options, id);
    job.predictor = predictor;
    job.figure = "test";
    job.asbr = asbr;
    return job;
}

/// A batch mixing baseline and ASBR jobs, two workloads, one non-default
/// selection (EX-end stage) — enough key diversity to exercise the cache.
std::vector<SimJob> mixedBatch() {
    std::vector<SimJob> jobs;
    jobs.push_back(tinyJob(BenchId::kAdpcmEncode, "bimodal", false));
    jobs.push_back(tinyJob(BenchId::kAdpcmEncode, "bi512", true));
    jobs.push_back(tinyJob(BenchId::kAdpcmEncode, "not-taken", true));
    jobs.push_back(tinyJob(BenchId::kG721Encode, "gshare", false));
    jobs.push_back(tinyJob(BenchId::kG721Encode, "bi512", true));
    SimJob exEnd = tinyJob(BenchId::kG721Encode, "bi256", true);
    exEnd.updateStage = ValueStage::kExEnd;
    jobs.push_back(exEnd);
    return jobs;
}

/// Serialize every run report of a batch into one string for whole-document
/// comparison (the JSON layer is deterministic, so equal strings means equal
/// results down to the last counter).
std::string serializeBatch(const std::vector<JobResult>& results) {
    std::string text;
    for (const JobResult& r : results) text += simReportJson(r.report).dump(2);
    return text;
}

TEST(DriverDeterminism, BatchBytesIdenticalAcrossThreadCounts) {
    const std::vector<SimJob> jobs = mixedBatch();

    SimEngine serial({.threads = 1});
    SimEngine parallelA({.threads = 8});
    SimEngine parallelB({.threads = 8});
    const std::string s1 = serializeBatch(serial.run(jobs));
    const std::string p1 = serializeBatch(parallelA.run(jobs));
    const std::string p2 = serializeBatch(parallelB.run(jobs));

    EXPECT_FALSE(s1.empty());
    EXPECT_EQ(s1, p1) << "1-thread and 8-thread batches diverged";
    EXPECT_EQ(p1, p2) << "two 8-thread batches diverged";

    // The engine counters are deterministic functions of the submitted work,
    // so they must agree across thread counts too.
    const EngineStats a = serial.stats();
    const EngineStats b = parallelA.stats();
    EXPECT_EQ(a.jobsRun, jobs.size());
    EXPECT_EQ(a.jobsRun, b.jobsRun);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.workerBusyCycles, b.workerBusyCycles);
}

TEST(DriverDeterminism, CampaignBytesIdenticalAcrossThreadCounts) {
    const SimJob job = tinyJob(BenchId::kAdpcmEncode, "bimodal", true);
    CampaignConfig campaign;
    campaign.injections = 12;
    campaign.seed = 7;

    FaultReportMeta meta;  // fixed header; only the records/outcomes matter
    meta.benchmark = benchToken(job.workload);
    meta.predictor = job.predictor;
    meta.seed = job.seed;
    meta.samples = job.samples;
    meta.updateStage = valueStageName(job.updateStage);

    auto engineText = [&](std::size_t threads) {
        SimEngine engine({.threads = threads});
        const DurableCampaignResult durable =
            engine.runCampaignDurable(job, campaign, {});
        return faultReportJson(meta, campaign, durable.result, durable.failed)
            .dump(2);
    };
    SimEngine factoryEngine;
    const std::string reference =
        faultReportJson(meta, campaign,
                        asbr::runCampaign(factoryEngine.faultFactory(job),
                                          campaign))
            .dump(2);
    const std::string s1 = engineText(1);
    const std::string p1 = engineText(8);
    EXPECT_EQ(reference, s1)
        << "engine campaign diverged from the serial asbr::runCampaign";
    EXPECT_EQ(s1, p1) << "fault campaign diverged across thread counts";
}

TEST(DriverDeterminism, SweepReportBytesIdenticalAcrossThreadCounts) {
    SweepGrid grid;
    grid.workloads = {BenchId::kAdpcmEncode};
    grid.predictors = {"bi512"};
    grid.bitSizes = {2, 4};
    grid.includeBaseline = true;
    const CliOptions options = tinyOptions();
    const std::vector<SimJob> jobs = expandSweep(grid, options);
    ASSERT_EQ(jobs.size(), 3u);  // baseline + two BIT sizes

    auto sweepText = [&](std::size_t threads) {
        SimEngine engine({.threads = threads});
        // Durable executor without a journal — the code path asbr-sweep uses.
        const DurableRunResult outcome = engine.runDurable(jobs, {});
        return sweepReportJson("driver_test", JsonValue(JsonObject{}),
                               outcome.cells)
            .dump(2);
    };
    const std::string s1 = sweepText(1);
    const std::string p1 = sweepText(8);
    const std::string p2 = sweepText(8);
    EXPECT_EQ(s1, p1) << "sweep report diverged across thread counts";
    EXPECT_EQ(p1, p2) << "two 8-thread sweeps diverged";

    const JsonParseResult parsed = parseJson(s1);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_TRUE(validateSweepReportJson(*parsed.value).ok());
}

TEST(ArtifactCacheTest, ComputesOncePerKeyUnderConcurrentSubmission) {
    // 16 identical ASBR jobs race for the same two cache keys on 8 workers:
    // the workload must be loaded+profiled once and the selection computed
    // once, however the races fall.
    const std::vector<SimJob> jobs(16,
                                   tinyJob(BenchId::kAdpcmEncode, "bi512",
                                           true));
    SimEngine engine({.threads = 8});
    const std::vector<JobResult> results = engine.run(jobs);
    ASSERT_EQ(results.size(), jobs.size());
    for (const JobResult& r : results)
        EXPECT_EQ(r.stats.cycles, results.front().stats.cycles);

    const ArtifactCache::Stats stats = engine.cacheStats();
    EXPECT_EQ(stats.workloadComputes, 1u);
    EXPECT_EQ(stats.selectionComputes, 1u);
    // Requests: one workload + one selection per job, plus the selection
    // compute resolving its workload — minus the two actual computes.
    EXPECT_EQ(stats.hits, 2u * jobs.size() + 1 - 2);
}

TEST(ArtifactCacheTest, DistinctKeysDoNotShareArtifacts) {
    SimEngine engine({.threads = 4});
    SimJob a = tinyJob(BenchId::kAdpcmEncode, "bi512", true);
    SimJob b = a;
    b.bitEntries = 2;  // different selection, same workload
    SimJob c = a;
    c.scheduled = false;  // different workload key entirely
    (void)engine.run({a, b, c});
    const ArtifactCache::Stats stats = engine.cacheStats();
    EXPECT_EQ(stats.workloadComputes, 2u);
    EXPECT_EQ(stats.selectionComputes, 3u);
}

/// The selection's accuracy reference (bimodal-2048 replayed over the ISS
/// branch stream) against a bimodal-2048 pipeline run, the reference
/// implementation: same site set, and per site the same integer counts.
void expectReplayMatchesPipeline(const PredictionProfile& replay,
                                 const PipelineStats& pipeline,
                                 const std::string& what) {
    std::set<std::uint32_t> replayPcs;
    std::set<std::uint32_t> pipelinePcs;
    for (const auto& [pc, site] : replay.sites) replayPcs.insert(pc);
    for (const auto& [pc, site] : pipeline.branchSites) pipelinePcs.insert(pc);
    EXPECT_EQ(replayPcs, pipelinePcs) << what;
    for (const auto& [pc, site] : pipeline.branchSites) {
        const auto it = replay.sites.find(pc);
        if (it == replay.sites.end()) continue;
        EXPECT_EQ(it->second.execs, site.execs) << what << " pc " << pc;
        EXPECT_EQ(it->second.mispredicts, site.execs - site.predicted)
            << what << " pc " << pc;
    }
}

TEST(AccuracyReferenceTest, ReplayMatchesPipelineOnEveryWorkload) {
    CliOptions quick;
    std::string error;
    ASSERT_TRUE(consumeSharedOption("--quick", quick, error));
    for (const BenchId id : kAllBenchesExtended) {
        for (const bool scheduled : {true, false}) {
            const WorkloadArtifacts artifacts(
                {id, scheduled, quick.seed, samplesFor(quick, id), {}});
            const std::string what = std::string(benchToken(id)) +
                                     (scheduled ? " scheduled" : " unscheduled");
            auto bimodal = makePredictorByToken("bimodal");
            const PipelineResult pipeline =
                runPipeline(artifacts.prepared(), *bimodal);
            expectReplayMatchesPipeline(*artifacts.predictionProfile("bimodal"),
                                        pipeline.stats, what);
            std::map<std::uint32_t, double> pipelineAccuracy;
            for (const auto& [pc, site] : pipeline.stats.branchSites)
                pipelineAccuracy[pc] = site.accuracy();
            EXPECT_EQ(artifacts.baselineAccuracy(), pipelineAccuracy) << what;
        }
    }
}

TEST(AccuracyReferenceTest, ReplayMatchesPipelineOnGeneratedPrograms) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        for (int shape = 0; shape < 3; ++shape) {
            ProgramGen gen(seed * 104729 + shape);
            gen.withDispatch(shape == 1).withIrreducible(shape == 2);
            const Program program = assemble(gen.generate());
            const std::string what = "seed " + std::to_string(seed) +
                                     " shape " + std::to_string(shape);
            auto replayPredictor = makePredictorByToken("bimodal");
            Memory replayMemory;
            replayMemory.loadProgram(program);
            const PredictionProfile replay =
                profilePredictions(program, replayMemory, *replayPredictor);
            auto pipelinePredictor = makePredictorByToken("bimodal");
            Memory pipelineMemory;
            pipelineMemory.loadProgram(program);
            PipelineSim sim(program, pipelineMemory, *pipelinePredictor);
            const PipelineResult pipeline = sim.run();
            ASSERT_TRUE(pipeline.exited) << what;
            expectReplayMatchesPipeline(replay, pipeline.stats, what);
        }
    }
}

TEST(PoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
    std::vector<std::atomic<int>> visits(257);
    parallelFor(visits.size(), 8, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(PoolTest, ParallelForDrainsAndRethrowsFirstError) {
    std::atomic<std::size_t> visited{0};
    EXPECT_THROW(parallelFor(64, 8,
                             [&](std::size_t i) {
                                 visited.fetch_add(1,
                                                   std::memory_order_relaxed);
                                 if (i == 3)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // Errors must not abandon the rest of the batch.
    EXPECT_EQ(visited.load(), 64u);
}

TEST(CliOptionsTest, SharedOptionsParse) {
    CliOptions options;
    std::string error;
    EXPECT_TRUE(consumeSharedOption("--threads=8", options, error));
    EXPECT_EQ(options.threads, 8u);
    EXPECT_TRUE(consumeSharedOption("--seed=42", options, error));
    EXPECT_EQ(options.seed, 42u);
    EXPECT_TRUE(consumeSharedOption("--workload=g721-enc", options, error));
    EXPECT_TRUE(error.empty());
    ASSERT_TRUE(options.workload.has_value());
    EXPECT_EQ(*options.workload, BenchId::kG721Encode);
    EXPECT_FALSE(consumeSharedOption("--not-an-option", options, error));
}

TEST(CliOptionsTest, BadWorkloadYieldsStructuredError) {
    CliOptions options;
    std::string error;
    EXPECT_TRUE(consumeSharedOption("--workload=quake3", options, error));
    EXPECT_NE(error.find("unknown workload 'quake3'"), error.npos) << error;
    EXPECT_FALSE(options.workload.has_value());
}

TEST(CliOptionsTest, SamplesAreCappedAtWorkloadCapacity) {
    CliOptions options;
    options.adpcmSamples = 1u << 30;
    EXPECT_EQ(samplesFor(options, BenchId::kAdpcmEncode),
              benchMaxSamples(BenchId::kAdpcmEncode));
}

TEST(EngineTest, UnknownPredictorTokenIsRethrownFromBatch) {
    SimEngine engine({.threads = 4});
    std::vector<SimJob> jobs = mixedBatch();
    jobs[2].predictor = "oracle";  // not a known token
    EXPECT_THROW((void)engine.run(jobs), std::exception);
}

TEST(EngineTest, PublishedCountersMatchStats) {
    SimEngine engine({.threads = 2});
    (void)engine.run({tinyJob(BenchId::kAdpcmEncode, "bimodal", false),
                      tinyJob(BenchId::kAdpcmEncode, "bi512", true)});
    const EngineStats stats = engine.stats();
    MetricRegistry registry;
    engine.publishMetrics(registry);
    ASSERT_NE(registry.findCounter("engine.jobs_run"), nullptr);
    EXPECT_EQ(registry.findCounter("engine.jobs_run")->value(), stats.jobsRun);
    ASSERT_NE(registry.findCounter("engine.cache_hits"), nullptr);
    EXPECT_EQ(registry.findCounter("engine.cache_hits")->value(),
              stats.cacheHits);
    ASSERT_NE(registry.findCounter("engine.worker_busy_cycles"), nullptr);
    EXPECT_EQ(registry.findCounter("engine.worker_busy_cycles")->value(),
              stats.workerBusyCycles);
}

}  // namespace
