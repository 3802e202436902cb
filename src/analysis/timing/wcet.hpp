// Structured IPET-style WCET engine over the CFG.
//
// Implicit path enumeration without an ILP solver: the engine decomposes
// the interprocedural supergraph into functions (call edges replaced by a
// call -> fall-through step weighted with the callee's own WCET, computed
// bottom-up over the call graph), detects each function's natural loops on
// its intraprocedural subgraph, and solves the longest-path problem
// structurally — innermost loops first, each loop contracted to a supernode
// of weight
//
//     (N - 1) * C_iter + C_exit
//
// where N bounds the head executions per entry (analysis/timing/loop_bounds),
// C_iter is the longest head-to-latch path through the (already-contracted)
// acyclic body, and C_exit the longest path from the head to any body node.
// After all loops collapse the remaining graph is acyclic and ordinary
// topological longest-path finishes the function.  Per-block cycle weights
// come from the declarative cost model (analysis/timing/cost_model).
//
// Unsupported shapes fail loudly instead of lying: recursion, indirect
// calls/jumps, irreducible cycles and unbounded loops all yield
// `bounded == false` with a reason string.
//
// Besides the cycle bound the engine ranks every conditional branch by its
// static worst-case misprediction cost (execution bound x penalty) — the
// input to cost-aware ASBR selection (the cost-ranking selectBranches).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/absint/absint.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dominators.hpp"
#include "analysis/loops.hpp"
#include "analysis/timing/cost_model.hpp"
#include "analysis/timing/loop_bounds.hpp"
#include "mem/memory.hpp"
#include "util/metrics.hpp"

namespace asbr::analysis::timing {

/// One analyzed natural loop, reported per distinct head pc.
struct LoopRecord {
    std::uint32_t headPc = 0;
    int sourceLine = -1;
    std::size_t depth = 1;  ///< nesting depth within the owning function
    LoopBound bound;
    /// Body instruction pcs (sorted, deduplicated) — consumed by the
    /// dynamic loop-bound observer, not the report.
    std::vector<std::uint32_t> memberPcs;
};

/// Static misprediction-cost ranking entry for one conditional branch.
struct BranchCostRecord {
    std::uint32_t pc = 0;
    int sourceLine = -1;
    std::uint64_t execBound = 0;  ///< worst-case executions on any path
    std::uint64_t unitCost = 0;   ///< mispredict penalty; 0 when folded
    std::uint64_t totalCost = 0;  ///< execBound * unitCost (saturating)
    bool folded = false;
};

struct WcetResult {
    bool bounded = false;
    std::string reason;        ///< failure cause when !bounded
    std::uint64_t cycles = 0;  ///< bound incl. the fill/drain allowance
    std::vector<BranchCostRecord> branches;  ///< totalCost desc, then pc asc
    /// Per-function bound (entry pc -> cycles), ascending pc; the callee
    /// summaries the interprocedural report publishes.  Empty when
    /// !bounded.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> functionCycles;
};

class WcetEngine {
public:
    /// `cfg` and `va` must outlive the engine (FoldLegalityVerifier owns
    /// both for the usual caller).  `resolved` (optional, must outlive the
    /// engine) carries value-set-resolved indirect sites: a resolved jalr
    /// becomes a direct call to each possible callee (the block is charged
    /// the *maximum* callee bound), a resolved jr a computed goto — instead
    /// of the blanket "indirect control flow" failure.
    WcetEngine(const Cfg& cfg, const ValueAnalysis& va, TimingCostModel model,
               const IndirectMap* resolved = nullptr);

    /// All loops across the program's functions, annotation and inference
    /// already applied, sorted by head pc.
    [[nodiscard]] const std::vector<LoopRecord>& loops() const {
        return records_;
    }

    /// Attach measured per-entry iteration maxima (head pc -> iterations)
    /// to loops that have no static bound.  Sound only for the observed
    /// input; such loops carry BoundSource::kProfile in the report.
    void applyObservedBounds(
        const std::map<std::uint32_t, std::uint64_t>& observed);

    /// Structured longest-path WCET with the given always-folding branch
    /// set (static fold table entries + ProvablySafe BIT residents).
    [[nodiscard]] WcetResult compute(
        const std::set<std::uint32_t>& foldedPcs) const;

    [[nodiscard]] const TimingCostModel& model() const { return model_; }

private:
    struct FunctionInfo {
        InstrIndex entryInstr = 0;
        std::vector<std::size_t> globalBlocks;  ///< local id -> cfg block id
        Cfg local;                              ///< intraprocedural subgraph
        DominatorTree doms;
        LoopForest forest;
        std::vector<LoopBound> loopBounds;  ///< parallel to forest.loops
        /// Direct calls: (local block id, callee function index).
        std::vector<std::pair<std::size_t, std::size_t>> calls;
        bool hasIndirect = false;    ///< jalr / unresolved jr in the body
        std::uint32_t regsWritten = 0;  ///< transitive callee-clobber mask
    };

    void buildFunction(std::size_t f);
    void rebuildRecords();
    /// Value-set resolution entry for instruction i, or nullptr.
    [[nodiscard]] const ResolvedIndirect* resolutionAt(InstrIndex i) const;
    [[nodiscard]] bool isResolvedCall(InstrIndex i) const;
    [[nodiscard]] bool callOrder(std::vector<std::size_t>& topo,
                                 std::string& reason) const;

    const Cfg& cfg_;
    const ValueAnalysis& va_;
    TimingCostModel model_;
    const IndirectMap* resolved_ = nullptr;
    std::vector<FunctionInfo> funcs_;
    std::map<InstrIndex, std::size_t> funcOfEntry_;
    std::size_t mainFunc_ = 0;
    std::vector<LoopRecord> records_;
};

/// Aggregate counters one static-timing run publishes (the `wcet.*`
/// namespace).  `asbr-verify wcet` fills this from the engine's loop table
/// and the two cycle bounds; a default-constructed snapshot publishes zeros
/// so `asbr-stats counters` can enumerate the names without running an
/// analysis.
struct WcetMetrics {
    std::uint64_t loopsTotal = 0;
    std::uint64_t loopsBoundedAnnotated = 0;
    std::uint64_t loopsBoundedInferred = 0;
    std::uint64_t loopsBoundedProfiled = 0;
    std::uint64_t loopsUnbounded = 0;
    std::uint64_t boundBaselineCycles = 0;
    std::uint64_t boundFoldedCycles = 0;

    /// Tally the loop-table counters from an engine's records.
    void countLoops(const std::vector<LoopRecord>& loops);
    void publish(MetricRegistry& registry) const;
};

/// Run the functional ISS over `memory` and record, per loop head pc, the
/// maximum number of head executions within one loop entry (an episode ends
/// when control reaches a pc outside the body at the same or a shallower
/// call depth).  Used as the kProfile bound source.
[[nodiscard]] std::map<std::uint32_t, std::uint64_t> observeLoopBounds(
    const Program& program, Memory& memory,
    const std::vector<LoopRecord>& loops,
    std::uint64_t maxInstructions = 500'000'000);

}  // namespace asbr::analysis::timing
