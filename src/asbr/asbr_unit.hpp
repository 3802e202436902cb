// The Application-Specific Branch Resolution unit — the paper's core
// contribution, packaged as a FetchCustomizer the pipeline consults on every
// fetch.
//
// Phase 1 (Early Condition Evaluation): onValueAvailable events from the
// pipeline update the BDT at the configured pipeline point (commit,
// post-execute forwarding path, or execute end — Section 5.2's threshold
// optimization).
//
// Phase 2 (branch folding, paper Figure 4): onFetch looks the PC up in the
// active BIT bank; on a match with a valid (no in-flight producer) condition
// register, the branch is replaced by its target or fall-through instruction
// and the fetch stream is redirected, so the branch never enters the
// pipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "asbr/bdt.hpp"
#include "asbr/bit.hpp"
#include "asbr/static_fold.hpp"
#include "sim/fetch_customizer.hpp"

namespace asbr {

class MetricRegistry;

/// Memory-mapped control register: a store to this address selects the
/// active BIT bank (paper Section 7, "writing a special value to a control
/// register just before entering the loop").
inline constexpr std::uint32_t kBitBankSelectAddr = 0xFFFF'0000u;

/// Configuration of the ASBR hardware.
struct AsbrConfig {
    /// Pipeline point where the early condition evaluation captures values.
    /// kCommit  = paper's base scheme       (threshold 4 on a 5-stage pipe)
    /// kMemEnd  = forwarding path after EX  (threshold 3)
    /// kExEnd   = evaluate within EX        (threshold 2, most aggressive)
    ValueStage updateStage = ValueStage::kMemEnd;
    std::size_t bitCapacity = 16;
    std::size_t bitBanks = 1;
    /// Opt-in soft-error protection (docs/fault-injection.md): per-entry
    /// parity on the BDT and BIT is checked before every table read.  A
    /// mismatch takes the entry out of service — the branch falls back to
    /// the general predictor — and charges `parityRecoveryPenalty` fetch
    /// bubbles for the scrub.  Off by default: the unprotected unit is
    /// cycle-identical to the pre-parity hardware.
    bool parityProtected = false;
    std::uint32_t parityRecoveryPenalty = 2;
};

/// Fold statistics for cost/benefit reporting.
struct AsbrStats {
    std::uint64_t lookups = 0;        ///< fetches of BIT-resident branches
    std::uint64_t folds = 0;          ///< successfully folded
    std::uint64_t foldsTaken = 0;
    std::uint64_t blockedInvalid = 0; ///< producer in flight — fell back to predictor
    std::uint64_t bankSwitches = 0;
    std::uint64_t parityRecoveries = 0;  ///< parity mismatches detected + scrubbed
    std::uint64_t quarantinedBlocks = 0; ///< folds blocked by a quarantined BDT entry
    std::uint64_t staticFolds = 0;       ///< folds resolved by the static table

    /// Register these totals under `asbr.*` in the metric registry.
    void publish(MetricRegistry& registry) const;
};

class AsbrUnit final : public FetchCustomizer {
public:
    explicit AsbrUnit(const AsbrConfig& config = {});

    /// Customization: load branch information into a BIT bank (normally bank
    /// 0; additional banks cover further loops).
    void loadBank(std::size_t bank, std::vector<BranchInfo> entries);

    /// Customization: load statically-decided branches (src/analysis/absint
    /// verdicts).  These fold on every fetch with no BDT dependence and no
    /// BIT occupancy.  `bitSlotsReclaimed` records how many BIT slots the
    /// old dynamic-only policy would have spent on these branches — freed
    /// for the next-hottest dynamic candidates; it is a customization fact,
    /// so reset() leaves it (and the table) in place, like loadBank data.
    void loadStaticFolds(const std::vector<StaticFoldEntry>& entries,
                         std::uint64_t bitSlotsReclaimed = 0);

    /// FetchCustomizer interface --------------------------------------------
    // Every virtual member is defined inline: the pipeline and the sampled
    // fast-forward loop run with the concrete (final) type, which inlines the
    // hooks wholesale (sim/customizer_dispatch.hpp), and with no out-of-line
    // virtual the class's type information is emitted wherever it is used,
    // so the simulator library can test for it without linking this one.

    std::optional<FoldOutcome> onFetch(std::uint32_t pc,
                                       const Instruction& fetched) override {
        // Almost every fetch is of a PC in neither table; the two filters
        // reject those before any table scan.
        if (!staticFolds_.mayMatch(pc) && !bit_.mayMatch(pc))
            return std::nullopt;
        return foldCandidate(pc, fetched);
    }

    void reset() override {
        bdt_.reset();
        stats_ = AsbrStats{};
        bit_.selectBank(0);
        pendingRecoveryStall_ = 0;
    }

    void onProducerDecoded(std::uint8_t reg) override {
        if (!bdtGate(reg)) return;
        bdt_.producerDecoded(reg);
    }

    void onValueAvailable(std::uint8_t reg, std::int32_t value,
                          ValueStage stage, ValueStage firstStage) override {
        // Values are captured at the configured stage, or at first
        // availability when that is later (loads cannot be captured before
        // MEM).
        const ValueStage effective = std::max(config_.updateStage, firstStage);
        if (stage != effective) return;
        if (!bdtGate(reg)) return;
        bdt_.update(reg, value);
    }

    void onStore(std::uint32_t addr, std::int32_t value) override {
        if (addr != kBitBankSelectAddr) return;
        ++stats_.bankSwitches;
        bit_.selectBank(static_cast<std::size_t>(value));
    }

    void onArchStep(const DecodedOp& dec, const StepResult& sr) override {
        // Same event stream as the base default — instantiating the shared
        // replay body with the final class type devirtualizes and inlines
        // every inner hook, which is what makes functional fast-forward
        // cheap.
        replayArchStep(*this, dec, sr);
    }

    std::uint32_t takeRecoveryStall() override {
        const std::uint32_t stall = pendingRecoveryStall_;
        pendingRecoveryStall_ = 0;
        return stall;
    }

    [[nodiscard]] const AsbrStats& stats() const { return stats_; }
    [[nodiscard]] const AsbrConfig& config() const { return config_; }
    [[nodiscard]] const BranchIdentificationTable& bit() const { return bit_; }
    [[nodiscard]] const BranchDirectionTable& bdt() const { return bdt_; }
    [[nodiscard]] const StaticFoldTable& staticFolds() const {
        return staticFolds_;
    }
    [[nodiscard]] std::uint64_t bitSlotsReclaimed() const {
        return bitSlotsReclaimed_;
    }

    /// Fault-injection ports: mutable access to the tables so a campaign can
    /// flip stored bits mid-run (src/fault).  Not used on the fetch path.
    [[nodiscard]] BranchDirectionTable& bdtFaultPort() { return bdt_; }
    [[nodiscard]] BranchIdentificationTable& bitFaultPort() { return bit_; }

    /// Hardware cost proxy in bits (BIT + BDT + static fold table; parity
    /// bits when protected).
    [[nodiscard]] std::uint64_t storageBits() const {
        std::uint64_t bits = bit_.storageBits() +
                             BranchDirectionTable::storageBits() +
                             staticFolds_.storageBits();
        if (config_.parityProtected)
            bits += bit_.parityStorageBits() +
                    BranchDirectionTable::parityStorageBits();
        return bits;
    }

    /// Register fold statistics plus hardware-cost metrics (`asbr.*`).
    void publishMetrics(MetricRegistry& registry) const;

private:
    /// onFetch past the filters: the table lookups and the fold decision.
    std::optional<FoldOutcome> foldCandidate(std::uint32_t pc,
                                             const Instruction& fetched);

    /// Protected-mode gate in front of every BDT access: on a parity mismatch
    /// the entry is quarantined, a recovery is counted and the scrub penalty
    /// is queued.  Returns false when the entry must not be used this access.
    /// Inline so the unprotected configuration folds to a single compare on
    /// the replay hot path.
    [[nodiscard]] bool bdtGate(std::uint8_t reg) {
        if (!config_.parityProtected) return true;
        if (bdt_.isQuarantined(reg)) return false;
        if (!bdt_.parityOk(reg)) {
            // Detected soft error: scrub the entry out of service for the
            // rest of the run and pay the resynchronization penalty once.
            bdt_.quarantine(reg);
            chargeRecovery();
            return false;
        }
        return true;
    }

    void chargeRecovery() {
        ++stats_.parityRecoveries;
        pendingRecoveryStall_ += config_.parityRecoveryPenalty;
    }

    AsbrConfig config_;
    BranchIdentificationTable bit_;
    BranchDirectionTable bdt_;
    StaticFoldTable staticFolds_;
    AsbrStats stats_;
    std::uint64_t bitSlotsReclaimed_ = 0;
    std::uint32_t pendingRecoveryStall_ = 0;
};

inline std::optional<FetchCustomizer::FoldOutcome> AsbrUnit::foldCandidate(
    std::uint32_t pc, const Instruction& fetched) {
    // Statically-decided branches resolve before the BIT is even consulted:
    // the direction is a customization-time constant, so no BDT read, no
    // validity check, and no way to be blocked.
    if (const StaticFoldTable::Entry* sf =
            staticFolds_.mayMatch(pc) ? staticFolds_.lookup(pc) : nullptr) {
        ASBR_ENSURE(isCondBranch(fetched.op),
                    "static fold entry does not match the fetched instruction");
        ++stats_.staticFolds;
        ++stats_.folds;
        if (sf->taken) ++stats_.foldsTaken;
        return FoldOutcome{&sf->replacement, sf->taken};
    }
    const BranchIdentificationTable::Entry* stored = nullptr;
    if (config_.parityProtected) {
        bool recovered = false;
        stored = bit_.lookupProtected(pc, recovered);
        if (recovered) {
            chargeRecovery();
            return std::nullopt;  // entry scrubbed — predictor path
        }
    } else {
        stored = bit_.lookup(pc);
    }
    if (stored == nullptr) return std::nullopt;
    ++stats_.lookups;
    const BranchInfo* entry = &stored->info;
    // The BIT identifies branches by PC before decode; entries are extracted
    // from the same program image, so a mismatch means corrupted
    // customization data.
    ASBR_ENSURE(isCondBranch(fetched.op) && fetched.rs == entry->conditionReg,
                "BIT entry does not match the fetched instruction");
    if (!bdtGate(entry->conditionReg)) {
        ++stats_.quarantinedBlocks;
        return std::nullopt;  // BDT entry out of service — use predictor
    }
    if (!bdt_.isValid(entry->conditionReg)) {
        ++stats_.blockedInvalid;
        return std::nullopt;  // predicate producer in flight — use predictor
    }
    ++stats_.folds;
    if (bdt_.direction(entry->conditionReg, entry->cond)) {
        ++stats_.foldsTaken;
        return FoldOutcome{&stored->btiOp, true};
    }
    return FoldOutcome{&stored->bfiOp, false};
}

}  // namespace asbr
