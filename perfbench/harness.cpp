// perfbench harness: one process that generates a workload's whole load,
// times calls into the toolchain's public layer functions from outside, and
// prints the raw measurements as one JSON document on stdout.
// perfbench/run.py builds this binary, runs it, checks the simulated
// statistics and turns the raw samples into metrics (README.md there).
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) drive the user-facing paths only: a cold job is
// SimEngine::selectionFor + runDurable on a fresh engine, exactly what
// `asbr-stats run --asbr` pays; a sweep pass is SimEngine::runDurable with
// no journal, the asbr-sweep path.  Traced runs (--trace 1) replay one cold
// op with every layer call wrapped in a span, plus the layer probes no
// workload path reaches (prediction profiles, branch-predictor replay).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/artifacts.hpp"
#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/names.hpp"
#include "driver/pool.hpp"
#include "driver/sweep.hpp"
#include "profile/profiler.hpp"
#include "report/report.hpp"
#include "sim/functional.hpp"
#include "util/json.hpp"

namespace {

using namespace asbr;
using namespace asbr::driver;
using Clock = std::chrono::steady_clock;

/// Below this many timed ops a run keeps going past --seconds.  Two, not
/// more: a cold g721-enc op takes ~10 s on an idle 4-vCPU host, and runs
/// must stay short on a loaded one.
constexpr std::size_t kMinOps = 2;
/// Cold set-ups per run of a warm workload; setup_s is their median.
constexpr std::size_t kSetupReps = 3;
/// Predictors replayed on recorded branch streams (bp.<token>.* metrics).
const std::vector<std::string> kReplayTokens = {"bimodal", "bi512", "gshare",
                                                "tage", "perceptron"};
/// Report counters copied into each cell record for run.py.
const std::vector<std::string> kCellCounters = {
    "pipeline.cycles",           "pipeline.committed",
    "pipeline.folded_branches",  "pipeline.mispredicts",
    "pipeline.cond_branches",    "sim.decode_cache_lookups",
    "sim.decode_cache_hits",     "mem.icache.accesses",
    "mem.icache.misses",         "mem.dcache.accesses",
    "mem.dcache.misses",         "sim.fast_forward_instructions"};

double since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A benchmark workload: the SimJobs of one op and how they are timed.
struct Workload {
    std::string name;
    std::vector<SimJob> jobs;
    std::size_t threads = 1;
    /// Every op starts from a fresh SimEngine (set-up is part of the job);
    /// otherwise set-up is timed kSetupReps times and passes run warm.
    bool cold = false;
};

Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      std::size_t threads) {
    CliOptions options;  // CLI defaults: 100k ADPCM/G.711, 20k G.721 samples
    options.seed = seed;
    Workload w;
    w.name = name;
    if (name == "asbr-cold") {
        // `asbr-stats run --bench=g721-enc --asbr`
        SimJob job;
        job.workload = BenchId::kG721Encode;
        job.seed = seed;
        job.samples = samplesFor(options, job.workload);
        job.figure = "run";
        job.asbr = true;
        w.jobs = {job};
        w.cold = true;
        return w;
    }
    SweepGrid grid;
    grid.includeBaseline = true;
    w.threads = threads;
    if (name == "predictor-sweep") {
        grid.workloads = {BenchId::kAdpcmEncode, BenchId::kG711Encode};
        grid.predictors = kReplayTokens;
        w.jobs = expandSweep(grid, options);
        return w;
    }
    if (name == "sampled-sweep") {
        grid.workloads = {BenchId::kG721Encode, BenchId::kG721Decode};
        grid.predictors = {"bimodal", "tage"};
        w.jobs = expandSweep(grid, options);
        for (SimJob& job : w.jobs) {
            job.sampled = true;
            job.sampling = SamplingConfig{2'000, 10'000, 200'000};
        }
        return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Span recorder: spans stay in memory and are written out once, at exit.

class SpanRecorder {
public:
    explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

    /// Open a span; returns its id (ids start at 1, parent 0 = none).
    std::size_t open(const std::string& name, std::size_t parent,
                     std::size_t op) {
        const double start = since(origin_);
        std::lock_guard<std::mutex> lock(mutex_);
        JsonValue span(JsonObject{});
        span.set("id", static_cast<std::uint64_t>(spans_.size() + 1));
        span.set("name", name);
        span.set("parent", static_cast<std::uint64_t>(parent));
        span.set("op", static_cast<std::uint64_t>(op));
        span.set("start", start);
        spans_.push_back(std::move(span));
        return spans_.size();
    }

    void close(std::size_t id, JsonObject attrs = {}) {
        const double end = since(origin_);
        std::lock_guard<std::mutex> lock(mutex_);
        JsonValue& span = spans_.at(id - 1);
        span.set("end", end);
        if (!attrs.empty()) span.set("attrs", JsonValue(std::move(attrs)));
    }

    [[nodiscard]] JsonValue json() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return JsonValue(spans_);
    }

private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;  ///< guards spans_
    JsonArray spans_;
};

/// Span around one call; attrs may be added before it closes.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder& recorder, const std::string& name,
               std::size_t parent, std::size_t op)
        : recorder_(recorder), id_(recorder.open(name, parent, op)) {}
    ~ScopedSpan() {
        try {
            recorder_.close(id_, std::move(attrs_));
        } catch (...) {
            // Out of memory only; run.py rejects a span left without "end".
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] std::size_t id() const { return id_; }
    void attr(std::string key, JsonValue value) {
        attrs_.emplace_back(std::move(key), std::move(value));
    }

private:
    SpanRecorder& recorder_;
    std::size_t id_;
    JsonObject attrs_;
};

// ---------------------------------------------------------------------------
// Cell records: what run.py checks against the pins.

std::uint64_t counter(const JsonValue& report, const std::string& name) {
    const JsonValue* counters = report.find("counters");
    const JsonValue* value =
        counters != nullptr ? counters->find(name) : nullptr;
    return value != nullptr && value->isNumber() ? value->asUint() : 0;
}

/// One simulated job's outcome.  `iss_instructions` is the functional
/// profile's instruction count — the reference committed count on seeds
/// that have no pins.
JsonValue cellRecord(SimEngine& engine, const SimJob& job, bool ok,
                     const std::string& error, const JsonValue& report) {
    // Cached by set-up; queried only after timing, outside any span.
    const std::uint64_t iss =
        ok ? engine.workloadFor(job)->profile().instructions : 0;
    JsonValue cell(JsonObject{});
    cell.set("key", engine.jobKey(job));
    cell.set("asbr", job.asbr);
    cell.set("sampled", job.sampled);
    cell.set("ok", ok);
    if (!ok) {
        cell.set("error", error);
        return cell;
    }
    cell.set("valid", validateSimReportJson(report).ok());
    JsonValue counters(JsonObject{});
    for (const std::string& name : kCellCounters)
        counters.set(name, counter(report, name));
    cell.set("counters", std::move(counters));
    cell.set("iss_instructions", iss);
    return cell;
}

/// Instructions a cell executed: committed by the pipeline, folded out of
/// the fetch stream by ASBR, and (sampled cells) fast-forwarded between
/// windows.  Equals the functional profile's count on a correct run.
std::uint64_t simulatedInstructions(const JsonValue& report) {
    return counter(report, "pipeline.committed") +
           counter(report, "pipeline.folded_branches") +
           counter(report, "sim.fast_forward_instructions");
}

// ---------------------------------------------------------------------------
// Untraced ops: the user-facing paths.

/// One representative job per distinct artifact key, in grid order.
template <typename Key>
std::vector<SimJob> distinctBy(const std::vector<SimJob>& jobs,
                               Key (SimEngine::*keyFor)(const SimJob&) const,
                               const SimEngine& engine, bool asbrOnly) {
    std::vector<SimJob> out;
    std::set<Key> seen;
    for (const SimJob& job : jobs)
        if (!asbrOnly || job.asbr)
            if (seen.insert((engine.*keyFor)(job)).second) out.push_back(job);
    return out;
}

/// Set-up: one pool task per distinct selection, which also loads, profiles
/// and references its workload.  Every workload of every grid here has
/// ASBR cells, so this resolves every artifact a pass needs.
double resolveArtifacts(SimEngine& engine, const Workload& w) {
    const auto start = Clock::now();
    const std::vector<SimJob> selections =
        distinctBy(w.jobs, &SimEngine::selectionKeyFor, engine, true);
    parallelFor(selections.size(), w.threads, [&](std::size_t i) {
        (void)engine.selectionFor(selections[i]);
    });
    return since(start);
}

struct PassResult {
    double wall = 0.0;
    std::uint64_t instructions = 0;
    std::size_t cells = 0;
};

PassResult runPass(SimEngine& engine, const Workload& w, JsonArray& cells) {
    const auto start = Clock::now();
    const DurableRunResult outcome = engine.runDurable(w.jobs, DurablePolicy{});
    PassResult pass;
    pass.wall = since(start);
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
        const CellOutcome& cell = outcome.cells[i];
        const bool ok = cell.status == CellStatus::kOk;
        cells.push_back(cellRecord(engine, w.jobs[i], ok,
                                   ok ? "" : cell.error, cell.report));
        if (!ok) continue;
        pass.instructions += simulatedInstructions(cell.report);
        ++pass.cells;
    }
    return pass;
}

JsonValue passJson(const PassResult& pass, double opSeconds) {
    JsonValue out(JsonObject{});
    out.set("op_s", opSeconds);
    out.set("pass_s", pass.wall);
    out.set("instructions", pass.instructions);
    out.set("cells", static_cast<std::uint64_t>(pass.cells));
    return out;
}

/// End-to-end samples for --seconds of measurement.
void measure(const Workload& w, EngineConfig config, double seconds,
             std::size_t minOps, JsonValue& doc, JsonArray& cells) {
    JsonArray setups;
    JsonArray passes;
    if (w.cold) {
        const auto start = Clock::now();
        while (since(start) < seconds || passes.size() < minOps) {
            SimEngine engine(config);
            const double setup = resolveArtifacts(engine, w);
            setups.emplace_back(setup);
            const PassResult pass = runPass(engine, w, cells);
            passes.push_back(passJson(pass, setup + pass.wall));
        }
    } else {
        std::unique_ptr<SimEngine> engine;
        for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
            engine = std::make_unique<SimEngine>(config);
            setups.emplace_back(resolveArtifacts(*engine, w));
        }
        const auto start = Clock::now();
        while (since(start) < seconds || passes.size() < minOps) {
            const PassResult pass = runPass(*engine, w, cells);
            passes.push_back(passJson(pass, pass.wall));
        }
    }
    doc.set("setup_s", JsonValue(std::move(setups)));
    doc.set("passes", JsonValue(std::move(passes)));
}

// ---------------------------------------------------------------------------
// Traced op: the same work as one cold op, every layer call in a span.

struct TracedCell {
    SimJob job;
    bool ok = false;
    std::string error;
    JsonValue report;
};

/// One simulated cell inside a span: SimEngine::runOne, then the report
/// layer (simReportJson + dump + validateSimReportJson).
void tracedCell(SpanRecorder& spans, SimEngine& engine, std::size_t parent,
                std::size_t op, TracedCell& cell) {
    ScopedSpan run(spans, "sim.run_one", parent, op);
    run.attr("key", engine.jobKey(cell.job));
    run.attr("asbr", cell.job.asbr);
    run.attr("sampled", cell.job.sampled);
    try {
        const JobResult result = engine.runOne(cell.job);
        ScopedSpan emit(spans, "report.emit", run.id(), op);
        cell.report = simReportJson(result.report);
        emit.attr("bytes",
                  static_cast<std::uint64_t>(cell.report.dump(2).size()));
        emit.attr("valid", validateSimReportJson(cell.report).ok());
        cell.ok = true;
    } catch (const std::exception& e) {
        cell.error = e.what();
    }
    // A sampled cell's cycles are the CPI estimate scaled to the whole run.
    const std::uint64_t instructions = simulatedInstructions(cell.report);
    const JsonValue* derived = cell.report.find("derived");
    const JsonValue* cpi = derived != nullptr ? derived->find("cpi") : nullptr;
    run.attr("instructions", instructions);
    run.attr("sim_cycles",
             cell.job.sampled && cpi != nullptr && cpi->isNumber()
                 ? static_cast<std::uint64_t>(
                       std::llround(cpi->asDouble() *
                                    static_cast<double>(instructions)))
                 : counter(cell.report, "pipeline.cycles"));
}

/// Traced op plus the probes outside it; returns the next free op id.
std::size_t tracedOp(SpanRecorder& spans, const Workload& w,
                     EngineConfig config, JsonValue& doc, JsonArray& cells) {
    SimEngine engine(config);
    const std::size_t op = 1;
    std::vector<TracedCell> traced;
    for (const SimJob& job : w.jobs)
        traced.push_back(TracedCell{job, false, {}, {}});
    {
        ScopedSpan root(spans, "op", 0, op);
        {
            ScopedSpan setup(spans, "setup", root.id(), op);
            const std::vector<SimJob> loads = distinctBy(
                w.jobs, &SimEngine::workloadKeyFor, engine, false);
            parallelFor(loads.size(), w.threads, [&](std::size_t i) {
                std::shared_ptr<const WorkloadArtifacts> artifacts;
                {
                    ScopedSpan s(spans, "driver.prepare", setup.id(), op);
                    artifacts = engine.workloadFor(loads[i]);
                }
                {
                    ScopedSpan s(spans, "profile.iss", setup.id(), op);
                    s.attr("instructions", artifacts->profile().instructions);
                }
                ScopedSpan s(spans, "driver.accuracy_ref", setup.id(), op);
                (void)artifacts->baselineAccuracy();
            });
            const std::vector<SimJob> selections = distinctBy(
                w.jobs, &SimEngine::selectionKeyFor, engine, true);
            parallelFor(selections.size(), w.threads, [&](std::size_t i) {
                ScopedSpan s(spans, "driver.select", setup.id(), op);
                (void)engine.selectionFor(selections[i]);
            });
        }
        ScopedSpan pass(spans, "pass", root.id(), op);
        pass.attr("workers", static_cast<std::uint64_t>(
                                 std::min(w.threads, w.jobs.size())));
        parallelFor(traced.size(), w.threads, [&](std::size_t i) {
            tracedCell(spans, engine, pass.id(), op, traced[i]);
        });
    }
    const ArtifactCache::Stats cache = engine.cacheStats();
    JsonValue cacheJson(JsonObject{});
    cacheJson.set("hits", cache.hits);
    cacheJson.set("computes", cache.workloadComputes + cache.selectionComputes);
    doc.set("cache", std::move(cacheJson));

    // Probes outside the op.  The prediction profile is the functional
    // alternative to the pipeline accuracy reference.  A workload without
    // baseline cells gets the baseline twin of each ASBR cell, so the
    // pipeline's baseline rate is measured on every workload.
    std::size_t next = op + 1;
    for (const SimJob& job :
         distinctBy(w.jobs, &SimEngine::workloadKeyFor, engine, false)) {
        ScopedSpan s(spans, "profile.predictions", 0, next++);
        (void)engine.workloadFor(job)->predictionProfile("bimodal");
    }
    if (std::none_of(w.jobs.begin(), w.jobs.end(),
                     [](const SimJob& j) { return !j.asbr; })) {
        for (const SimJob& job : w.jobs) {
            TracedCell twin{job, false, {}, {}};
            twin.job.asbr = false;
            tracedCell(spans, engine, 0, next++, twin);
            traced.push_back(std::move(twin));
        }
    }
    for (const TracedCell& cell : traced)
        cells.push_back(
            cellRecord(engine, cell.job, cell.ok, cell.error, cell.report));
    return next;
}

// ---------------------------------------------------------------------------
// Branch-predictor replay on recorded committed branch streams.

struct BranchEvent {
    std::uint32_t pc = 0;
    std::uint32_t target = 0;
    bool taken = false;
};

std::vector<BranchEvent> recordBranches(const Prepared& prepared) {
    std::vector<BranchEvent> stream;
    Memory memory = makeMemory(prepared);
    FunctionalSim sim(prepared.program, memory);
    sim.setTraceHook([&](const Instruction&, const StepResult& sr) {
        if (sr.isBranch)
            stream.push_back({sr.pc, sr.branchTarget, sr.branchTaken});
    });
    (void)sim.run();
    return stream;
}

/// Replays run after every other span, as op `op`; the streams are
/// recorded before any replay is timed.
void replayPredictors(SpanRecorder& spans, std::size_t op,
                      std::uint64_t seed) {
    CliOptions options;
    options.seed = seed;
    struct Stream {
        std::string key;
        std::vector<BranchEvent> events;
    };
    std::vector<Stream> streams;
    for (const BenchId id : {BenchId::kAdpcmEncode, BenchId::kG721Encode}) {
        ScopedSpan s(spans, "bp.record", 0, op);
        const std::size_t samples = samplesFor(options, id);
        Stream stream;
        stream.key = std::string(benchToken(id)) + "-s" +
                     std::to_string(seed) + "-n" + std::to_string(samples);
        stream.events = recordBranches(prepare(id, true, seed, samples));
        s.attr("branches", static_cast<std::uint64_t>(stream.events.size()));
        streams.push_back(std::move(stream));
    }
    for (const std::string& token : kReplayTokens) {
        for (const Stream& stream : streams) {
            std::string error;
            auto predictor = makePredictorByToken(token, &error);
            if (predictor == nullptr) throw std::invalid_argument(error);
            std::uint64_t correct = 0;
            ScopedSpan s(spans, "bp.replay", 0, op);
            predictor->reset();
            for (const BranchEvent& e : stream.events) {
                correct += predictor->predict(e.pc).taken == e.taken ? 1 : 0;
                predictor->update(e.pc, e.taken, e.target);
            }
            s.attr("token", token);
            s.attr("stream", stream.key);
            s.attr("branches",
                   static_cast<std::uint64_t>(stream.events.size()));
            s.attr("correct", correct);
        }
    }
}

// ---------------------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 2001;
    double seconds = 10.0;
    bool trace = false;
};

Args parseArgs(int argc, char** argv) {
    if ((argc - 1) % 2 != 0)
        throw std::invalid_argument("flags take one value each");
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") args.workload = value;
        else if (flag == "--seed") args.seed = std::stoull(value);
        else if (flag == "--seconds") args.seconds = std::stod(value);
        else if (flag == "--trace") args.trace = value == "1";
        else throw std::invalid_argument("unknown flag '" + flag + "'");
    }
    if (args.workload.empty()) throw std::invalid_argument("--workload needed");
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args args = parseArgs(argc, argv);
        const std::size_t threads = std::min<std::size_t>(4, resolveThreads(0));
        const Workload w = makeWorkload(args.workload, args.seed, threads);
        EngineConfig config;
        config.threads = w.threads;

        JsonValue doc(JsonObject{});
        doc.set("workload", w.name);
        doc.set("seed", args.seed);
        doc.set("threads", static_cast<std::uint64_t>(w.threads));
        doc.set("trace", args.trace);
        JsonArray cells;
        if (!args.trace) {
            measure(w, config, args.seconds, kMinOps, doc, cells);
        } else {
            // The untraced reference is one cold op on the user path; the
            // traced op repeats the same work with spans around each call.
            JsonValue reference(JsonObject{});
            measure(Workload{w.name, w.jobs, w.threads, true}, config, 0.0, 1,
                    reference, cells);
            doc.set("untraced", std::move(reference));
            SpanRecorder spans(Clock::now());
            const std::size_t next = tracedOp(spans, w, config, doc, cells);
            replayPredictors(spans, next, args.seed);
            doc.set("spans", spans.json());
        }
        doc.set("cells", JsonValue(std::move(cells)));
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        doc.set("peak_rss_kb", static_cast<std::uint64_t>(usage.ru_maxrss));
        std::cout << doc.dump() << "\n";
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 2;
    }
}
