#include "driver/engine.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <functional>
#include <thread>
#include <utility>

#include "driver/cli.hpp"
#include "bp/bimodal.hpp"
#include "driver/deadline.hpp"
#include "driver/journal.hpp"
#include "driver/names.hpp"
#include "driver/pool.hpp"
#include "report/fault_report.hpp"
#include "report/report.hpp"
#include "util/ensure.hpp"

namespace asbr::driver {

SimEngine::SimEngine(EngineConfig config) : config_(config) {}

EngineConfig engineConfigFor(const CliOptions& options) {
    EngineConfig config;
    config.threads = options.threads;
    config.jobTimeoutMs = options.jobTimeoutMs;
    config.maxAttempts = options.maxAttempts;
    return config;
}

namespace {

std::atomic<bool> gCheckpointRequested{false};

extern "C" void requestCheckpoint(int) { gCheckpointRequested.store(true); }

bool raised(const std::atomic<bool>* flag) {
    return flag != nullptr && flag->load(std::memory_order_relaxed);
}

/// The policy's write-ahead journal pinned to `digest`; null without one.
std::unique_ptr<JobJournal> openJournal(const DurablePolicy& policy,
                                        const std::string& digest,
                                        std::uint64_t units) {
    ASBR_ENSURE(!policy.resume || !policy.journalDir.empty(),
                "engine: resume requires a journal directory");
    if (policy.journalDir.empty()) return nullptr;
    return std::make_unique<JobJournal>(policy.journalDir, policy.resume,
                                        digest, units);
}

/// The report name of a job's program: the workload's, or the file's
/// basename.
std::string programName(const SimJob& job) {
    if (job.programFile.empty()) return benchName(job.workload);
    const std::size_t slash = job.programFile.find_last_of('/');
    return slash == std::string::npos ? job.programFile
                                      : job.programFile.substr(slash + 1);
}

/// Keys double as journal artifact paths: map anything but [A-Za-z0-9-_.]
/// to '_'.
void appendFsSafe(std::string& key, std::string_view text) {
    for (const char c : text) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
        key.push_back(ok ? c : '_');
    }
}

}  // namespace

DurablePolicy durablePolicyFor(const CliOptions& options,
                               const char* program) {
    if (options.resume && options.journalDir.empty())
        cliFail(program, "--resume requires --journal=DIR");
    std::signal(SIGINT, requestCheckpoint);
    std::signal(SIGTERM, requestCheckpoint);
    DurablePolicy policy;
    policy.journalDir = options.journalDir;
    policy.resume = options.resume;
    policy.interrupted = &gCheckpointRequested;
    return policy;
}

WorkloadKey SimEngine::workloadKeyFor(const SimJob& job) const {
    WorkloadKey key;
    key.workload = job.workload;
    key.programFile = job.programFile;
    key.scheduled = job.scheduled;
    key.seed = job.seed;
    if (job.programFile.empty()) {
        const std::size_t capacity = benchMaxSamples(job.workload);
        key.samples =
            job.samples == 0 ? capacity : std::min(job.samples, capacity);
    }
    return key;
}

SelectionKey SimEngine::selectionKeyFor(const SimJob& job) const {
    SelectionKey key;
    key.workload = workloadKeyFor(job);
    key.bitEntries = job.bitEntries != 0        ? job.bitEntries
                     : job.programFile.empty() ? paperBitEntries(job.workload)
                                               : 16;
    key.updateStage = job.updateStage;
    key.useAccuracy = job.accuracyRef;
    key.policy = job.policy;
    if (job.policy == SelectionPolicy::kPredictorAware)
        key.predictorToken = job.predictor;
    return key;
}

std::shared_ptr<const WorkloadArtifacts> SimEngine::workloadFor(
    const SimJob& job) {
    return cache_.workload(workloadKeyFor(job));
}

std::shared_ptr<const SelectionArtifacts> SimEngine::selectionFor(
    const SimJob& job) {
    return cache_.selection(selectionKeyFor(job));
}

std::string SimEngine::jobKey(const SimJob& job) const {
    const WorkloadKey w = workloadKeyFor(job);
    std::string key;
    appendFsSafe(key, job.programFile.empty() ? benchToken(job.workload)
                                              : job.programFile);
    key += "-s" + std::to_string(w.seed);
    key += "-n" + std::to_string(w.samples);
    if (w.scheduled) key += "-sched";
    // Parameterized registry tokens contain ':' (e.g. "tage:h8-16"); keys
    // double as journal artifact paths, so map it to the fs-safe '+'.
    key += "-";
    for (const char c : job.predictor) key.push_back(c == ':' ? '+' : c);
    if (job.asbr) {
        const SelectionKey s = selectionKeyFor(job);
        key += "-asbr-bit" + std::to_string(s.bitEntries);
        key += "-";
        key += valueStageName(s.updateStage);
        if (job.parityProtected) key += "-pp";
        if (s.policy == SelectionPolicy::kStaticFolds) key += "-sf";
        if (s.policy == SelectionPolicy::kPredictorAware) key += "-pa";
        if (!s.useAccuracy) key += "-noacc";
    } else {
        key += "-base";
    }
    if (job.sampled) {
        key += "-sample" + std::to_string(job.sampling.warmup) + "x" +
               std::to_string(job.sampling.measure) + "x" +
               std::to_string(job.sampling.skip);
        if (job.sampleReference) key += "-ref";
    }
    // The figure label lands in the report meta, so two keys that differ
    // only by figure must not alias (sanitized: keys are fs-safe).
    if (!job.figure.empty()) {
        key += "-f";
        appendFsSafe(key, job.figure);
    }
    return key;
}

std::string SimEngine::manifestDigest(const std::vector<SimJob>& jobs) const {
    std::string all;
    for (const SimJob& job : jobs) {
        all += jobKey(job);
        all += '\n';
    }
    return fnv1a64Hex(all);
}

std::string SimEngine::campaignManifestDigest(
    const SimJob& job, const CampaignConfig& campaign) const {
    std::string all = jobKey(job);
    all += "|campaign|seed=" + std::to_string(campaign.seed);
    all += "|injections=" + std::to_string(campaign.injections);
    all += "|bdt=" + std::to_string(campaign.faultBdt);
    all += "|bit=" + std::to_string(campaign.faultBit);
    all += "|bp=" + std::to_string(campaign.faultBp);
    all += "|mcf=" + std::to_string(campaign.maxCycleFactor);
    return fnv1a64Hex(all);
}

void SimEngine::countRun(std::uint64_t cycles) {
    jobsRun_.fetch_add(1, std::memory_order_relaxed);
    busyCycles_.fetch_add(cycles, std::memory_order_relaxed);
}

JobResult SimEngine::execute(const SimJob& job, Deadline* deadline) {
    const WorkloadKey workloadKey = workloadKeyFor(job);
    const auto workload = cache_.workload(workloadKey);
    std::string predictorError;
    auto predictor = makePredictorByToken(job.predictor, &predictorError);
    ASBR_ENSURE(predictor != nullptr, "engine: " + predictorError);

    std::shared_ptr<const SelectionArtifacts> selection;
    std::unique_ptr<AsbrUnit> unit;
    if (job.asbr) {
        selection = cache_.selection(selectionKeyFor(job));
        unit = selection->makeUnit(job.parityProtected);
    }

    JobResult out;
    PipelineConfig pipelineConfig;
    if (job.trace) {
        out.tracer = std::make_shared<Tracer>(job.traceConfig);
        pipelineConfig.tracer = out.tracer.get();
    }
    pipelineConfig.cycleHook = deadline;

    const auto simStart = std::chrono::steady_clock::now();
    PipelineStats runStats;
    if (job.sampled) {
        auto sampled = std::make_shared<SampledResult>(
            runSampledPipeline(workload->prepared(), *predictor, unit.get(),
                               job.sampling, pipelineConfig));
        countRun(sampled->measuredCycles);
        runStats = sampled->stats;
        out.sampled = std::move(sampled);
        if (job.sampleReference) {
            // The full cycle-accurate reference runs on fresh hardware state
            // (the sampled run's predictor/unit are already warm-polluted).
            auto refPredictor = makePredictorByToken(job.predictor);
            std::unique_ptr<AsbrUnit> refUnit;
            if (selection != nullptr)
                refUnit = selection->makeUnit(job.parityProtected);
            const PipelineResult ref =
                runPipeline(workload->prepared(), *refPredictor, refUnit.get(),
                            pipelineConfig);
            countRun(ref.stats.cycles);
            out.hasReference = true;
            out.referenceCycles = ref.stats.cycles;
            out.referenceCommitted = ref.stats.committed;
        }
    } else {
        const PipelineResult result = runPipeline(
            workload->prepared(), *predictor, unit.get(), pipelineConfig);
        countRun(result.stats.cycles);
        runStats = result.stats;
    }
    out.simSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      simStart)
            .count();

    RunMeta meta;
    meta.benchmark = programName(job);
    meta.predictor = predictor->name();
    meta.predictorToken = predictor->token();
    meta.figure = job.figure;
    meta.seed = job.seed;
    meta.samples = workloadKey.samples;
    meta.scheduled = job.scheduled;
    if (unit != nullptr) {
        meta.asbr = true;
        meta.bitEntries = unit->config().bitCapacity;
        meta.updateStage = valueStageName(unit->config().updateStage);
        meta.predictorAware = job.policy == SelectionPolicy::kPredictorAware;
    }

    out.stats = runStats;
    out.report =
        makeSimReport(std::move(meta), runStats, predictor.get(), unit.get());
    if (out.sampled != nullptr) out.sampled->publish(out.report.registry);
    if (unit != nullptr) {
        out.asbr = true;
        out.selection = selection->selection();
        out.unitStats = unit->stats();
        out.unitStorageBits = unit->storageBits();
        if (job.policy == SelectionPolicy::kPredictorAware) {
            PredictorAwareSelectionMetrics aware;
            aware.countSelection(out.selection);
            aware.publish(out.report.registry);
        }
    }
    out.predictorStorageBits = predictor->storageBits();
    return out;
}

/// One unit of work as the attempt loop sees it: a batch job or a fault
/// injection.  The two differ only in their journal key and in how a result
/// becomes artifact bytes and back; the result itself lives in the caller.
struct SimEngine::Work {
    std::string key{};  ///< journal key: jobKey(job) or "inj<i>"
    /// One attempt; `watchdog` is null when there is nothing to watch.
    std::function<void(Deadline* watchdog)> run{};
    /// The successful attempt's result as artifact bytes (journal only).
    std::function<std::string()> bytes{};
    /// Restore the result from a verified journal artifact.
    std::function<void(JsonValue artifact)> splice{};
};

// Resume, sticky quarantine, then attempts: each one write-ahead journaled,
// run under a Deadline, concluded in the journal and backed off.
CellOutcome SimEngine::runAttempts(const Work& work, JobJournal* journal,
                                   const std::atomic<bool>* interrupted,
                                   bool rethrow) {
    CellOutcome cell;
    cell.key = work.key;

    const JournalEntry* prior =
        journal != nullptr ? journal->entry(work.key) : nullptr;
    const std::uint64_t priorFailures =
        prior != nullptr ? prior->failedAttempts : 0;
    if (prior != nullptr && prior->done) {
        if (const auto bytes = journal->readArtifact(prior->artifactPath,
                                                     prior->resultDigest)) {
            JsonParseResult parsed = parseJson(*bytes);
            if (parsed.ok()) {
                work.splice(std::move(*parsed.value));
                cell.status = CellStatus::kOk;
                cell.attempts = prior->doneAttempt;
                cell.resumed = true;
                jobsResumed_.fetch_add(1, std::memory_order_relaxed);
                return cell;
            }
        }
        // Missing/corrupt artifact: fall through and recompute.  Attempt
        // numbering is unaffected (the crash-free run's bytes must still
        // reproduce), and the fresh artifact overwrites the corrupt one.
    }

    const std::uint64_t maxAttempts =
        std::max<std::uint64_t>(1, config_.maxAttempts);
    if (priorFailures >= maxAttempts) {
        // Quarantined in a previous process; stays quarantined on resume
        // unless --max-attempts was raised.
        cell.status = CellStatus::kFailed;
        cell.attempts = priorFailures;
        cell.error = prior->lastError;
        return cell;
    }

    for (std::uint64_t attempt = priorFailures + 1;; ++attempt) {
        if (raised(interrupted)) return cell;  // kSkipped
        if (journal != nullptr) journal->recordStart(work.key, attempt);
        try {
            // The wall-clock watchdog rides the cycle-hook seam; an inert
            // deadline is never installed, so un-watched runs keep a null
            // cycleHook.
            Deadline deadline(config_.jobTimeoutMs, interrupted);
            work.run(deadline.active() ? &deadline : nullptr);
            if (journal != nullptr) {
                const std::string bytes = work.bytes();
                const std::string artifact =
                    JobJournal::artifactPathFor(work.key);
                journal->writeArtifact(artifact, bytes);
                journal->recordDone(work.key, attempt, artifact,
                                    fnv1a64Hex(bytes));
            }
            cell.status = CellStatus::kOk;
            cell.attempts = attempt;
            return cell;
        } catch (const JobInterruptedError&) {
            // Deliberately no journal record: the attempt never concluded,
            // exactly like a crash — resume re-runs it with the same
            // attempt number and reproduces the uninterrupted bytes.
            return cell;  // kSkipped
        } catch (const std::exception& e) {
            if (journal != nullptr)
                journal->recordFailed(work.key, attempt, e.what());
            if (attempt >= maxAttempts) {
                if (rethrow) throw;
                cell.status = CellStatus::kFailed;
                cell.attempts = attempt;
                cell.error = e.what();
                return cell;
            }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoffDelayMs(attempt + 1)));
    }
}

JobResult SimEngine::runOne(const SimJob& job) {
    JobResult result;
    (void)runAttempts(
        {.run = [&](Deadline* watchdog) { result = execute(job, watchdog); }},
        nullptr, nullptr, /*rethrow=*/true);
    return result;
}

std::vector<JobResult> SimEngine::run(const std::vector<SimJob>& jobs) {
    std::vector<JobResult> results(jobs.size());
    parallelFor(jobs.size(), config_.threads,
                [&](std::size_t i) { results[i] = runOne(jobs[i]); });
    return results;
}

DurableRunResult SimEngine::runDurable(const std::vector<SimJob>& jobs,
                                       const DurablePolicy& policy) {
    const auto journal =
        openJournal(policy, manifestDigest(jobs), jobs.size());
    DurableRunResult out;
    out.cells.resize(jobs.size());
    parallelFor(jobs.size(), config_.threads, [&](std::size_t i) {
        JsonValue report;
        out.cells[i] = runAttempts(
            {.key = jobKey(jobs[i]),
             .run =
                 [&](Deadline* watchdog) {
                     report = simReportJson(execute(jobs[i], watchdog).report);
                 },
             .bytes = [&] { return report.dump(2) + "\n"; },
             .splice =
                 [&](JsonValue artifact) { report = std::move(artifact); }},
            journal.get(), policy.interrupted, /*rethrow=*/false);
        if (out.cells[i].status == CellStatus::kOk)
            out.cells[i].report = std::move(report);
    });
    out.interrupted = out.countWith(CellStatus::kSkipped) > 0 ||
                      raised(policy.interrupted);
    return out;
}

FaultRunFactory SimEngine::faultFactory(const SimJob& job) {
    ASBR_ENSURE(job.asbr, "engine: fault campaigns require an ASBR job");
    const auto workload = workloadFor(job);
    const auto selection = selectionFor(job);
    const std::string token = job.predictor;
    const bool parityProtected = job.parityProtected;
    return [workload, selection, token, parityProtected] {
        FaultRun run;
        run.program = &workload->prepared().program;
        run.memory = makeMemory(workload->prepared());
        auto predictor = makePredictorByToken(token);
        ASBR_ENSURE(predictor != nullptr,
                    "engine: unknown predictor token '" + token + "'");
        run.bimodalTarget = dynamic_cast<BimodalPredictor*>(predictor.get());
        run.predictor = std::move(predictor);
        run.unit = selection->makeUnit(parityProtected);
        return run;
    };
}

DurableCampaignResult SimEngine::runCampaignDurable(
    const SimJob& job, const CampaignConfig& campaign,
    const DurablePolicy& policy) {
    const FaultRunFactory factory = faultFactory(job);
    DurableCampaignResult out;
    // Context + sampling are deterministic and cheap relative to the grid,
    // so every (re)start recomputes them instead of journaling them.  Every
    // injection is sampled up front in the serial campaign's RNG order and
    // the records merge in that order, so the result is bit-identical to
    // the serial loop at any thread count.
    out.result.context = computeContext(factory);
    const CampaignContext& context = out.result.context;
    const std::vector<Injection> injections =
        sampleInjections(campaignSiteClasses(factory, campaign), campaign,
                         context.cleanCycles);
    const auto journal = openJournal(
        policy, campaignManifestDigest(job, campaign), injections.size());

    std::vector<InjectionRecord> records(injections.size());
    std::vector<CellOutcome> cells(injections.size());
    parallelFor(injections.size(), config_.threads, [&](std::size_t i) {
        InjectionRecord& record = records[i];
        cells[i] = runAttempts(
            {.key = "inj" + std::to_string(i),
             .run =
                 [&](Deadline* watchdog) {
                     record = runInjection(factory, injections[i], context,
                                           campaign.maxCycleFactor, watchdog);
                     countRun(record.cycles);
                 },
             .bytes =
                 [&] { return injectionRecordJson(record).dump(2) + "\n"; },
             .splice =
                 [&](JsonValue artifact) {
                     record = injectionRecordFromJson(artifact);
                 }},
            journal.get(), policy.interrupted, /*rethrow=*/false);
    });

    for (std::size_t i = 0; i < injections.size(); ++i) {
        if (cells[i].status == CellStatus::kOk) {
            ++out.result
                  .outcomes[static_cast<std::size_t>(records[i].outcome)];
            out.result.records.push_back(std::move(records[i]));
        } else if (cells[i].status == CellStatus::kFailed) {
            out.failed.push_back({i, injections[i], cells[i].attempts,
                                  std::move(cells[i].error)});
        } else {
            out.interrupted = true;
        }
    }
    out.interrupted = out.interrupted || raised(policy.interrupted);
    return out;
}

InjectionRecord SimEngine::replayInjection(const SimJob& job,
                                           const Injection& injection,
                                           std::uint64_t maxCycleFactor) {
    const FaultRunFactory factory = faultFactory(job);
    const CampaignContext context = computeContext(factory);
    InjectionRecord record =
        runInjection(factory, injection, context, maxCycleFactor);
    countRun(record.cycles);
    return record;
}

EngineStats SimEngine::stats() const {
    EngineStats stats;
    stats.jobsRun = jobsRun_.load(std::memory_order_relaxed);
    stats.cacheHits = cache_.stats().hits;
    stats.workerBusyCycles = busyCycles_.load(std::memory_order_relaxed);
    stats.jobsResumed = jobsResumed_.load(std::memory_order_relaxed);
    return stats;
}

void SimEngine::publishMetrics(MetricRegistry& registry) const {
    const EngineStats s = stats();
    registry
        .counter("engine.jobs_run",
                 "pipeline simulations the engine executed (batch jobs + "
                 "fault injections)")
        .set(s.jobsRun);
    registry
        .counter("engine.cache_hits",
                 "artifact-cache requests served from an already-resolved "
                 "key")
        .set(s.cacheHits);
    registry
        .counter("engine.worker_busy_cycles",
                 "simulated cycles executed by engine workers (not host "
                 "time)")
        .set(s.workerBusyCycles);
    registry
        .counter("engine.jobs_resumed",
                 "durable jobs satisfied from a journal artifact instead of "
                 "re-simulating")
        .set(s.jobsResumed);
}

}  // namespace asbr::driver
