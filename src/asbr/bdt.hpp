// Branch Direction Table (paper Section 4, Figure 8).
//
// One entry per architectural register.  Each entry holds the precomputed
// direction bit for every zero-comparison branch condition the ISA supports,
// plus a validity counter tracking in-flight producers of the register:
// the counter is incremented when a producing instruction is decoded and
// decremented when the value reaches the early-condition-evaluation logic.
// A branch may only be folded when the counter of its condition register is
// zero — otherwise the precomputed direction bits could be stale.
//
// Robustness (docs/fault-injection.md): every entry carries one even-parity
// bit over its condition bits and validity counter, maintained by all
// legitimate writes.  The fault-injection port (`flip*`) corrupts stored
// state *without* fixing parity, exactly like a radiation-induced bit flip;
// in the ASBR unit's protected mode a parity mismatch quarantines the entry,
// which permanently (for the run) disables folding on that register — the
// branch falls back to the general predictor path, preserving architectural
// correctness at a graceful fold-coverage cost.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "isa/isa.hpp"
#include "util/ensure.hpp"

namespace asbr {

class BranchDirectionTable {
public:
    /// The validity counter is 3 bits wide (paper area proxy; a 5-stage
    /// in-order pipeline can keep at most a handful of producers in flight).
    static constexpr std::uint8_t kMaxPending = 7;

    BranchDirectionTable() { reset(); }

    /// Early Condition Evaluation (paper Figure 3): recompute all condition
    /// bits for `r` from the freshly produced value and release one pending
    /// producer.  Quarantined entries ignore updates (they are dead for the
    /// rest of the run).
    void update(std::uint8_t r, std::int32_t value) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        Entry& e = entries_[r];
        if (e.quarantined) return;
        ASBR_ENSURE(e.pending > 0, "BDT: update without pending producer");
        --e.pending;
        e.bits = condMask(value);
        e.parity = computeParity(e);
    }

    /// A producer of `r` completed decode; direction bits for `r` are stale
    /// until the matching update() arrives.  The 3-bit counter must never
    /// saturate in a correctly tracking pipeline — overflow means the
    /// producer/update bookkeeping desynchronized.
    void producerDecoded(std::uint8_t r) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        Entry& e = entries_[r];
        if (e.quarantined) return;
        ASBR_ENSURE(e.pending < kMaxPending,
                    "BDT: validity counter saturated (producer tracking "
                    "desynchronized)");
        ++e.pending;
        e.parity = computeParity(e);
    }

    /// True when no producer of `r` is in flight (folding is legal).
    /// Quarantined entries are never valid.
    [[nodiscard]] bool isValid(std::uint8_t r) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        return !entries_[r].quarantined && entries_[r].pending == 0;
    }

    /// Precomputed direction for condition `c` on register `r`.  Only
    /// meaningful when isValid(r).
    [[nodiscard]] bool direction(std::uint8_t r, Cond c) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        ASBR_ENSURE(static_cast<int>(c) < kNumConds,
                    "BDT: bad condition index");
        return ((entries_[r].bits >> static_cast<unsigned>(c)) & 1u) != 0;
    }

    [[nodiscard]] std::uint32_t pendingCount(std::uint8_t r) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        return entries_[r].pending;
    }

    /// Parity check of entry `r` — true when the stored parity bit matches
    /// the entry contents (no detectable corruption).
    [[nodiscard]] bool parityOk(std::uint8_t r) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        return entries_[r].parity == computeParity(entries_[r]);
    }

    /// Take entry `r` out of service for the rest of the run (protected-mode
    /// recovery after a parity mismatch).  Folding on `r` is disabled and
    /// producer tracking for it becomes a no-op.
    void quarantine(std::uint8_t r) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        entries_[r].quarantined = true;
    }

    [[nodiscard]] bool isQuarantined(std::uint8_t r) const {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        return entries_[r].quarantined;
    }

    /// Fault-injection port: flip the stored direction bit for (`r`, `c`)
    /// WITHOUT updating parity (models a transient single-bit upset).
    void flipConditionBit(std::uint8_t r, Cond c) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        ASBR_ENSURE(static_cast<int>(c) < kNumConds,
                    "BDT: bad condition index");
        entries_[r].bits ^= static_cast<std::uint8_t>(1u << static_cast<unsigned>(c));
    }

    /// Fault-injection port: flip bit `bit` (0..2) of the validity counter.
    void flipPendingBit(std::uint8_t r, unsigned bit) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        ASBR_ENSURE(bit < 3, "BDT: counter is 3 bits wide");
        entries_[r].pending ^= static_cast<std::uint8_t>(1u << bit);
    }

    /// Fault-injection port: flip the parity bit itself.
    void flipParityBit(std::uint8_t r) {
        ASBR_ENSURE(r < kNumRegs, "BDT: bad register");
        entries_[r].parity = !entries_[r].parity;
    }

    /// All registers valid with value 0 (machine reset state).
    void reset() {
        for (Entry& e : entries_) {
            e.pending = 0;
            e.quarantined = false;
            e.bits = condMask(0);
            e.parity = computeParity(e);
        }
    }

    /// Storage cost in bits: per register, one bit per condition plus the
    /// 3-bit validity counter.
    [[nodiscard]] static std::uint64_t storageBits() {
        return static_cast<std::uint64_t>(kNumRegs) * (kNumConds + 3);
    }

    /// Extra storage of the protected variant: one parity bit per register.
    [[nodiscard]] static std::uint64_t parityStorageBits() { return kNumRegs; }

private:
    /// Direction bits are packed as a mask, bit c = evalCond(Cond(c), value)
    /// — same contents as the paper's per-condition bit vector, but a
    /// single-byte update/parity on the hot BDT-event path (the pipeline
    /// and the sampled fast-forward replay fire these events for every
    /// value-producing instruction).
    struct Entry {
        std::uint8_t bits = 0;     ///< per-condition direction bits
        std::uint8_t pending = 0;  ///< 3-bit validity counter
        bool parity = false;       ///< even parity over bits + pending
        bool quarantined = false;  ///< protected-mode: entry out of service
    };

    /// evalCond over every condition at once.  Expanded over a constant
    /// index pack, so each evalCond folds to one flag computation instead
    /// of a switch dispatched per condition.
    [[nodiscard]] static std::uint8_t condMask(std::int32_t value) {
        return condMask(value, std::make_index_sequence<kNumConds>{});
    }
    template <std::size_t... C>
    [[nodiscard]] static std::uint8_t condMask(std::int32_t value,
                                               std::index_sequence<C...>) {
        return static_cast<std::uint8_t>(
            ((evalCond(static_cast<Cond>(C), value) ? 1u << C : 0u) | ...));
    }

    /// Even parity over bits + pending: the parity of their XOR is the
    /// parity of the two popcounts' sum.  Folded by shifts so the hot
    /// BDT-event path makes no library call (a target without a popcount
    /// instruction turns std::popcount into one).
    [[nodiscard]] static bool computeParity(const Entry& e) {
        unsigned v = static_cast<unsigned>(e.bits ^ e.pending);
        v ^= v >> 4;
        v ^= v >> 2;
        v ^= v >> 1;
        return (v & 1u) != 0;
    }

    std::array<Entry, kNumRegs> entries_;
};

}  // namespace asbr
