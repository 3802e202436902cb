// Fetch-stage customization hook.
//
// This is the seam the paper's microarchitectural customization plugs into:
// the pipeline consults the customizer on every fetch (before the branch
// predictor) and feeds it the register-production events the Early Condition
// Evaluation phase needs.  The ASBR unit (src/asbr) is the production
// implementation; tests install scripted fakes.
//
// A fold hands the pipeline its replacement as a ready DecodedOp record —
// decoded when the customization was loaded, at the address the replacement
// executes at — so the fetch stage never runs the decoder on the fold path.
#pragma once

#include <cstdint>
#include <optional>

#include "isa/isa.hpp"
#include "sim/exec.hpp"

namespace asbr {

/// Pipeline points at which a register value can be captured by the early
/// condition evaluation logic (Section 5.2 of the paper):
///   kExEnd  — end of the execute stage (most aggressive, threshold 2)
///   kMemEnd — forwarding path right after execute (threshold 3)
///   kCommit — register commit / writeback (baseline, threshold 4)
enum class ValueStage : std::uint8_t { kExEnd = 0, kMemEnd = 1, kCommit = 2 };

/// Replay, architecturally, the customizer event stream one instruction
/// generates on its way down the pipeline: producer registration at ID,
/// value captures at EX-end (non-loads), MEM-end and commit, and the store
/// port.  With zero instruction overlap this is exactly the in-order event
/// sequence, so BDT validity counters return to zero after every instruction
/// and direction bits track architectural values bit-for-bit.
///
/// This is THE definition of the per-instruction event stream — the
/// fast-forward path of sampled simulation replays it between detailed
/// windows.  It is a template so that a `final` customizer class (like
/// AsbrUnit) gets every inner hook devirtualized and inlined; the generic
/// FetchCustomizer::onArchStep default instantiates it with virtual dispatch.
template <class Customizer>
inline void replayArchStep(Customizer& customizer, const DecodedOp& dec,
                           const StepResult& sr) {
    if (dec.writesDest) customizer.onProducerDecoded(dec.dest);
    if (sr.write) {
        const ValueStage first =
            sr.isLoadOp ? ValueStage::kMemEnd : ValueStage::kExEnd;
        if (first == ValueStage::kExEnd)
            customizer.onValueAvailable(sr.write->reg, sr.write->value,
                                        ValueStage::kExEnd, first);
        customizer.onValueAvailable(sr.write->reg, sr.write->value,
                                    ValueStage::kMemEnd, first);
        customizer.onValueAvailable(sr.write->reg, sr.write->value,
                                    ValueStage::kCommit, first);
    }
    if (sr.isStoreOp) customizer.onStore(sr.memAddr, sr.storeValue);
    // There is no fetch stream to stall during a replay; drain any
    // parity-recovery debt so it cannot leak into later pipeline timing.
    (void)customizer.takeRecoveryStall();
}

class FetchCustomizer {
public:
    virtual ~FetchCustomizer() = default;

    /// Replacement produced by folding a branch out of the fetch slot.
    struct FoldOutcome {
        /// BTI or BFI, decoded at the address it executes at (its `pc`).
        /// Owned by the customizer; the pipeline copies the record at fetch,
        /// so later changes to the customizer's tables never reach an op
        /// already in flight.
        const DecodedOp* replacement = nullptr;
        bool taken = false;  ///< resolved branch direction
    };

    /// Called for every fetched instruction.  Returning a FoldOutcome removes
    /// the fetched instruction from the stream and injects the replacement;
    /// the next fetch continues at the replacement's own fetch successor.
    virtual std::optional<FoldOutcome> onFetch(std::uint32_t pc,
                                               const Instruction& fetched) = 0;

    /// An instruction producing `reg` completed decode (it will definitely
    /// execute — the pipeline never lets wrong-path instructions past
    /// decode).  Never called for r0.
    virtual void onProducerDecoded(std::uint8_t reg) = 0;

    /// `reg` now holds `value` as the producing instruction passes `stage`.
    /// Fired once per stage the value exists in: ALU results at kExEnd,
    /// kMemEnd and kCommit; load results at kMemEnd and kCommit.
    /// `firstStage` is the earliest stage the value exists at.
    virtual void onValueAvailable(std::uint8_t reg, std::int32_t value,
                                  ValueStage stage, ValueStage firstStage) = 0;

    /// A store to `addr` completed (MEM stage).  Default: ignored.  The ASBR
    /// unit watches a memory-mapped control register here to switch BIT banks
    /// at loop transitions (paper, Section 7).
    virtual void onStore(std::uint32_t addr, std::int32_t value) {
        (void)addr;
        (void)value;
    }

    /// Batched replay of the full event stream of one architecturally
    /// executed instruction (fast-forward hot path).  Semantically identical
    /// to firing the fine-grained hooks above in pipeline order — the default
    /// literally does that via replayArchStep().  A concrete customizer may
    /// override with replayArchStep(*this, ...) to collapse up to five
    /// virtual dispatches per instruction into one (AsbrUnit does).
    virtual void onArchStep(const DecodedOp& dec, const StepResult& sr) {
        replayArchStep(*this, dec, sr);
    }

    /// Fetch bubbles the customizer wants inserted after the current fetch —
    /// the resynchronization cost of an internal recovery (e.g. an ASBR
    /// parity-scrub after a detected soft error).  Called once per consulted
    /// fetch; the return value is consumed (the customizer must clear its
    /// pending debt).  Default: no stall.
    virtual std::uint32_t takeRecoveryStall() { return 0; }

    virtual void reset() = 0;
};

}  // namespace asbr
