#include "sim/pipeline.hpp"

#include "sim/customizer_dispatch.hpp"
#include "util/ensure.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace asbr {

void PipelineStats::publish(MetricRegistry& registry) const {
    const auto c = [&registry](const char* name, const char* help,
                               std::uint64_t value) {
        registry.counter(name, help).add(value);
    };
    c("pipeline.cycles", "total simulated cycles", cycles);
    c("pipeline.committed", "architecturally completed instructions",
      committed);
    c("pipeline.fetched",
      "instructions entering the pipeline (incl. wrong-path, excl. folded-out "
      "branches) — the paper's pipeline-activity power proxy",
      fetched);
    c("pipeline.cond_branches",
      "executed conditional branches (incl. folded)", condBranches);
    c("pipeline.folded_branches",
      "branches resolved by the fetch customizer (ASBR folds reaching EX)",
      foldedBranches);
    c("pipeline.predicted_branches",
      "branches handled by the direction predictor", predictedBranches);
    c("pipeline.predicted_correct",
      "predictor-handled branches with a correct fetch redirect",
      predictedCorrect);
    c("pipeline.mispredicts", "control flushes (branches + jr/jalr)",
      mispredicts);
    c("pipeline.load_use_stalls", "cycles lost to the load-use interlock",
      loadUseStalls);
    c("pipeline.redirect_stall_cycles",
      "fetch bubbles after control-flow redirects", redirectStallCycles);
    c("pipeline.parity_stall_cycles",
      "fetch bubbles spent resynchronizing after ASBR parity recoveries",
      parityStallCycles);
    c("pipeline.icache_stall_cycles", "fetch cycles stalled on I-cache misses",
      icacheStallCycles);
    c("pipeline.dcache_stall_cycles", "MEM cycles stalled on D-cache misses",
      dcacheStallCycles);
    c("pipeline.muldiv_stall_cycles",
      "extra EX occupancy cycles of multi-cycle mul/div", mulDivStallCycles);
    c("sim.decode_cache_lookups",
      "in-text fetches served through the decode cache", decodeCacheLookups);
    c("sim.decode_cache_hits",
      "decode-cache lookups reusing an already-decoded micro-op record "
      "(host-speed only; simulated timing is unaffected)",
      decodeCacheHits);
    icache.publish(registry, "mem.icache");
    dcache.publish(registry, "mem.dcache");

    SiteTable& execs = registry.sites("pipeline.site.execs",
                                      "per-branch-site dynamic executions");
    SiteTable& taken =
        registry.sites("pipeline.site.taken", "per-branch-site taken count");
    SiteTable& predicted = registry.sites(
        "pipeline.site.predicted",
        "per-branch-site correct fetch redirects (excl. folded)");
    SiteTable& folded = registry.sites(
        "pipeline.site.folded", "per-branch-site customizer-resolved count");
    Histogram& takenRate = registry.histogram(
        "pipeline.site.taken_rate_dist",
        "distribution of per-site taken rates across branch sites",
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
    Histogram& execDist = registry.histogram(
        "pipeline.site.exec_dist",
        "distribution of per-site dynamic execution counts",
        {1e2, 1e3, 1e4, 1e5, 1e6, 1e7});
    for (const auto& [pc, site] : branchSites) {
        execs.add(pc, site.execs);
        taken.add(pc, site.taken);
        predicted.add(pc, site.predicted);
        folded.add(pc, site.folded);
        takenRate.record(site.takenRate());
        execDist.record(static_cast<double>(site.execs));
    }
}

namespace {
/// Tracer lane indices (Tracer's default lane names match this order).
constexpr std::uint8_t kLaneIfId = 0;
constexpr std::uint8_t kLaneIdEx = 1;
constexpr std::uint8_t kLaneExMem = 2;
constexpr std::uint8_t kLaneMemWb = 3;
constexpr std::uint8_t kLaneResolve = 4;
}  // namespace

// Tracing hooks compile to nothing when the build disables ASBR_TRACING, so
// the simulator hot path carries no tracer reads at all.
#ifdef ASBR_TRACING
#define ASBR_TRACE(...)                                                 \
    do {                                                                \
        if (config_.tracer != nullptr)                                  \
            config_.tracer->record(TraceEvent{__VA_ARGS__});            \
    } while (false)
#else
#define ASBR_TRACE(...) \
    do {                \
    } while (false)
#endif

PipelineSim::PipelineSim(const Program& program, Memory& memory,
                         BranchPredictor& predictor, const PipelineConfig& config,
                         FetchCustomizer* customizer)
    : program_(program),
      memory_(memory),
      predictor_(predictor),
      config_(config),
      customizer_(customizer),
      icache_(config.icache),
      dcache_(config.dcache),
      decode_(program),
      sites_(program.code.size()),
      bubble_(decodeOne(Instruction{}, 0)) {
    state_.pc = program_.entry;
    state_.setReg(reg::sp, static_cast<std::int32_t>(kStackTop));
    state_.setReg(reg::gp, static_cast<std::int32_t>(program_.dataBase + 0x8000));
    fetchPc_ = program_.entry;
    // The customizer starts each simulation clean; resetting here (rather
    // than in run()) lets bounded runs resume without wiping warm BDT state.
    if (customizer_ != nullptr) customizer_->reset();
}

std::uint32_t PipelineSim::exOccupancy(Op op) const {
    if (op == Op::kMul || op == Op::kMulh) return config_.mulLatency;
    if (op == Op::kDiv || op == Op::kDivu || op == Op::kRem || op == Op::kRemu)
        return config_.divLatency;
    return 1;
}

BranchSiteStats& PipelineSim::siteStats(std::uint32_t pc) {
    if (program_.inText(pc)) [[likely]]
        return sites_[(pc - program_.textBase) / kInstrBytes];
    for (auto& [sitePc, site] : farSites_)
        if (sitePc == pc) return site;
    return farSites_.emplace_back(pc, BranchSiteStats{}).second;
}

PipelineStats PipelineSim::stats() const {
    PipelineStats out = stats_;
    // Every site that ever resolved has execs >= 1; untouched slots are not
    // sites.
    for (std::size_t i = 0; i < sites_.size(); ++i) {
        if (sites_[i].execs == 0) continue;
        out.branchSites.emplace_hint(
            out.branchSites.end(),
            program_.textBase + static_cast<std::uint32_t>(i) * kInstrBytes,
            sites_[i]);
    }
    for (const auto& [pc, site] : farSites_) out.branchSites.emplace(pc, site);
    return out;
}

template <class C>
void PipelineSim::emitValue(C& customizer, const Slot& slot, ValueStage stage) {
    if (!slot.exec.write) return;
    const ValueStage first =
        slot.exec.isLoadOp ? ValueStage::kMemEnd : ValueStage::kExEnd;
    customizer.onValueAvailable(slot.exec.write->reg, slot.exec.write->value,
                                stage, first);
}

template <class C>
void PipelineSim::stageWriteback(C& customizer) {
    if (!memWb_.valid) return;
    ++stats_.committed;
    emitValue(customizer, memWb_, ValueStage::kCommit);
    memWb_.valid = false;
}

template <class C>
void PipelineSim::stageMemory(C& customizer) {
    if (!exMem_.valid) return;
    if (!memStarted_) {
        memStarted_ = true;
        if (exMem_.exec.memAccess) {
            const std::uint32_t penalty = dcache_.access(exMem_.exec.memAddr);
            if (penalty > 0) {
                memBusy_ = penalty;
                stats_.dcacheStallCycles += penalty;
            }
        }
    }
    if (memBusy_ > 0) {
        --memBusy_;
        return;  // stalled; memWb_ is already drained by stageWriteback
    }
    if (exMem_.exec.isStoreOp)
        customizer.onStore(exMem_.exec.memAddr, exMem_.exec.storeValue);
    emitValue(customizer, exMem_, ValueStage::kMemEnd);
    memWb_ = exMem_;
    exMem_.valid = false;
    memStarted_ = false;
}

template <class C>
void PipelineSim::stageExecute(C& customizer) {
    if (!idEx_.valid) return;
    ASBR_ENSURE(!idEx_.outOfText,
                "executing outside the text segment (runaway control flow)");
    if (!exStarted_) {
        exStarted_ = true;
        idEx_.exec = stepDecoded(state_, memory_, *idEx_.dec, io_);
        const std::uint32_t occupancy = exOccupancy(idEx_.dec->ins.op);
        if (occupancy > 1) {
            exBusy_ = occupancy - 1;
            stats_.mulDivStallCycles += occupancy - 1;
        }
    }
    if (exBusy_ > 0) {
        --exBusy_;
        return;
    }
    if (exMem_.valid) return;  // structural stall: MEM is busy

    const StepResult& e = idEx_.exec;

    if (idEx_.wasFolded) {
        ++stats_.foldedBranches;
        ++stats_.condBranches;
        BranchSiteStats& site = siteStats(idEx_.foldOrigin);
        ++site.execs;
        ++site.folded;
        if (idEx_.foldTaken) ++site.taken;
        ASBR_TRACE(.cycle = stats_.cycles, .kind = TraceKind::kFold,
                   .lane = kLaneResolve, .flag = idEx_.foldTaken,
                   .pc = idEx_.foldOrigin, .arg = idEx_.pc,
                   .name = opName(idEx_.dec->ins.op));
    }
    if (e.isBranch) {
        ++stats_.condBranches;
        ++stats_.predictedBranches;
        BranchSiteStats& site = siteStats(idEx_.pc);
        ++site.execs;
        if (e.branchTaken) ++site.taken;
        predictor_.update(idEx_.pc, e.branchTaken, e.branchTarget);
        const bool correct = idEx_.predictedNext == e.nextPc;
        ASBR_TRACE(.cycle = stats_.cycles, .kind = TraceKind::kBranch,
                   .lane = kLaneResolve, .flag = e.branchTaken, .pc = idEx_.pc,
                   .arg = e.nextPc, .name = opName(idEx_.dec->ins.op));
        if (correct) {
            ++stats_.predictedCorrect;
            ++site.predicted;
        } else {
            ++stats_.mispredicts;
            ASBR_TRACE(.cycle = stats_.cycles, .kind = TraceKind::kMispredict,
                       .lane = kLaneResolve, .flag = e.branchTaken,
                       .pc = idEx_.pc, .arg = e.nextPc,
                       .name = opName(idEx_.dec->ins.op));
            redirect(e.nextPc);
        }
    } else if (e.nextPc != idEx_.predictedNext) {
        // Indirect jump (jr/jalr) resolving in EX.
        ++stats_.mispredicts;
        ASBR_TRACE(.cycle = stats_.cycles, .kind = TraceKind::kMispredict,
                   .lane = kLaneResolve, .flag = true, .pc = idEx_.pc,
                   .arg = e.nextPc, .name = opName(idEx_.dec->ins.op));
        redirect(e.nextPc);
    }

    if (io_.exited) {
        halting_ = true;
        ifId_.valid = false;
    }

    if (!e.isLoadOp) emitValue(customizer, idEx_, ValueStage::kExEnd);
    exMem_ = idEx_;
    idEx_.valid = false;
    exStarted_ = false;
}

const DecodedOp* PipelineSim::inject(const DecodedOp& dec) {
    DecodedOp& slot = injected_[injectedIdx_++ % injected_.size()];
    slot = dec;
    return &slot;
}

void PipelineSim::redirect(std::uint32_t target) {
    ifId_.valid = false;
    flushedThisCycle_ = true;
    fetchPc_ = target;
    ifBusy_ = 0;  // cancel any wrong-path I-cache fill in flight
    redirectStall_ = config_.redirectBubbles;
}

template <class C>
void PipelineSim::stageDecode(C& customizer) {
    if (!ifId_.valid || flushedThisCycle_ || halting_) return;
    if (idEx_.valid) return;  // EX occupied (multi-cycle op or structural stall)
    if (loadUseHazard_) {
        const SrcRegs& srcs = ifId_.dec->srcs;
        // loadUseHazard_ is only set when the EX instruction at cycle start
        // was a load; hazardReg_ is its destination.
        for (int i = 0; i < srcs.count; ++i) {
            if (srcs.regs[i] != reg::zero && srcs.regs[i] == hazardReg_) {
                ++stats_.loadUseStalls;
                return;
            }
        }
    }
    if (ifId_.dec->writesDest) customizer.onProducerDecoded(ifId_.dec->dest);
    idEx_ = ifId_;
    ifId_.valid = false;
}

template <class C>
void PipelineSim::stageFetch(C& customizer) {
    if (halting_ || flushedThisCycle_) return;
    if (ifId_.valid) return;  // ID did not drain the latch
    if (redirectStall_ > 0) {
        --redirectStall_;
        ++stats_.redirectStallCycles;
        return;
    }
    if (parityStall_ > 0) {
        --parityStall_;
        ++stats_.parityStallCycles;
        return;
    }
    if (!program_.inText(fetchPc_)) {
        // Speculative fetch past the text segment (prefetch beyond an exit
        // syscall or down a wrong path).  Deliver an inert bubble; it is an
        // error only if it reaches execute (genuine runaway control flow).
        Slot bubble;
        bubble.valid = true;
        bubble.pc = fetchPc_;
        bubble.dec = &bubble_;  // inert nop
        bubble.predictedNext = fetchPc_ + kInstrBytes;
        bubble.outOfText = true;
        fetchPc_ = bubble.predictedNext;
        ifId_ = bubble;
        return;
    }
    if (ifBusy_ > 0) {
        --ifBusy_;
        if (ifBusy_ > 0) {
            ++stats_.icacheStallCycles;
            return;
        }
        // Miss serviced; the instruction is delivered this cycle.
    } else {
        const std::uint32_t penalty = icache_.access(fetchPc_);
        if (penalty > 0) {
            ifBusy_ = penalty;
            ++stats_.icacheStallCycles;
            return;
        }
    }

    // Steady-state hot path: the text word at fetchPc_ was decoded the
    // first time it was fetched; every later trip is an indexed cache read.
    const DecodedOp& cached = decode_.lookup(fetchPc_);

    Slot slot;
    slot.dec = &cached;
    if (const auto fold = customizer.onFetch(fetchPc_, cached.ins)) {
        // Accounting happens when the replacement reaches EX — fetches on a
        // wrong path are squashed and must not count.  The replacement's
        // record comes from the customizer (a BTI/BFI is not guaranteed to
        // match the program image, so it never touches the decode cache)
        // and is copied here, so nothing the customizer does later can
        // change an op in flight.
        slot.wasFolded = true;
        slot.foldOrigin = fetchPc_;
        slot.foldTaken = fold->taken;
        slot.dec = inject(*fold->replacement);
    }
    // A parity recovery inside the customizer costs resync bubbles on the
    // fetches that follow (the fetched instruction itself proceeds).
    parityStall_ += customizer.takeRecoveryStall();

    slot.valid = true;
    slot.pc = slot.dec->pc;
    if (slot.dec->condBranch) {
        const Prediction p = predictor_.predict(slot.pc);
        slot.wasPredicted = true;
        slot.predictedNext =
            p.effectiveTaken() ? *p.target : slot.dec->fallthrough;
    } else {
        // Pre-resolved at decode time: j/jal redirect to their target,
        // everything else falls through.
        slot.predictedNext = slot.dec->fetchNext;
    }
    fetchPc_ = slot.predictedNext;
    ifId_ = slot;
    ++stats_.fetched;
}

void PipelineSim::traceLatches() {
    const auto occupied = [this](const Slot& slot, std::uint8_t lane) {
        if (!slot.valid) return;
        config_.tracer->record(TraceEvent{.cycle = stats_.cycles,
                                          .kind = TraceKind::kStage,
                                          .lane = lane,
                                          .flag = slot.wasFolded,
                                          .pc = slot.pc,
                                          .arg = 0,
                                          .name = opName(slot.dec->ins.op)});
    };
    // End-of-cycle snapshot of the four inter-stage latches.
    occupied(ifId_, kLaneIfId);
    occupied(idEx_, kLaneIdEx);
    occupied(exMem_, kLaneExMem);
    occupied(memWb_, kLaneMemWb);
}

void PipelineSim::warmStart(const ArchState& state, IoContext io) {
    state_ = state;
    io_ = std::move(io);
    ifId_ = Slot{};
    idEx_ = Slot{};
    exMem_ = Slot{};
    memWb_ = Slot{};
    fetchPc_ = state_.pc;
    commitLimit_ = 0;
    ifBusy_ = 0;
    exBusy_ = 0;
    memBusy_ = 0;
    redirectStall_ = 0;
    parityStall_ = 0;
    exStarted_ = false;
    memStarted_ = false;
    flushedThisCycle_ = false;
    halting_ = false;
    loadUseHazard_ = false;
    hazardReg_ = reg::zero;
    // Deliberately untouched: icache_/dcache_/decode_ contents, the
    // predictor, the customizer's BDT/BIT state, and cumulative stats_ —
    // a warm start resumes the microarchitecture, not the program.
}

PipelineResult PipelineSim::run(std::uint64_t maxCommits) {
    advance(maxCommits);
    PipelineResult result;
    result.stats = stats();
    result.exited = io_.exited;
    result.exitCode = io_.exitCode;
    result.output = io_.output;
    result.finalState = state_;
    return result;
}

void PipelineSim::advance(std::uint64_t maxCommits) {
    commitLimit_ = maxCommits == 0 ? 0 : stats_.committed + maxCommits;
    withCustomizer(customizer_, [this](auto& customizer) {
        cycleLoop(customizer);
    });
    stats_.icache = icache_.stats();
    stats_.dcache = dcache_.stats();
    stats_.decodeCacheLookups = decode_.stats().lookups;
    stats_.decodeCacheHits = decode_.stats().hits();
}

template <class C>
void PipelineSim::cycleLoop(C& customizer) {
    while (true) {
        ++stats_.cycles;
        if (stats_.cycles > config_.maxCycles)
            throw SimTimeoutError(
                watchdogMessage("pipeline", "cycle", config_.maxCycles,
                                "cycles"));
        if (config_.cycleHook != nullptr)
            config_.cycleHook->onCycle(stats_.cycles);
        flushedThisCycle_ = false;
        // Snapshot for the load-use interlock: the instruction occupying EX
        // at the start of the cycle.
        loadUseHazard_ = idEx_.valid && idEx_.dec->load;
        hazardReg_ = loadUseHazard_ ? idEx_.dec->ins.rd : reg::zero;

        stageWriteback(customizer);
        stageMemory(customizer);
        stageExecute(customizer);
        stageDecode(customizer);
        stageFetch(customizer);

#ifdef ASBR_TRACING
        if (config_.tracer != nullptr && config_.tracer->wants(stats_.cycles))
            traceLatches();
#endif

        // A spent commit budget halts fetch and drops the not-yet-executed
        // ifId_ instruction (it re-fetches on resume); in-flight EX/MEM/WB
        // work drains architecturally, so committed may overshoot slightly.
        if (commitLimit_ != 0 && stats_.committed >= commitLimit_ &&
            !halting_) {
            halting_ = true;
            ifId_.valid = false;
        }
        if ((io_.exited || halting_) && !idEx_.valid && !exMem_.valid &&
            !memWb_.valid)
            return;
    }
}

}  // namespace asbr
