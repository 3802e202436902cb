// Static fold table — the compile-time-decided companion of the BIT.
//
// A branch the static value analysis proves always- or never-taken needs
// none of the BIT's machinery: no Direction Index, no BDT read, no validity
// counter.  Its resolution is a constant, so the entry stores only the PC
// tag, the one direction bit and the pre-decoded replacement — the folded
// instruction stream is fixed at customization time.  Because no producer
// tracking is involved, a static fold can never be blocked: every fetch of
// the branch folds, which is also why these entries do not occupy BIT slots
// (the freed slots go to the next-hottest dynamic branches).
//
// Like the BIT, the table keeps a 64-bit PC filter (see pcFilterBit) and
// stores each replacement pre-decoded at its own address.
#pragma once

#include <cstdint>
#include <vector>

#include "asbr/bit.hpp"
#include "isa/isa.hpp"
#include "sim/decode_cache.hpp"
#include "util/ensure.hpp"

namespace asbr {

/// One statically-decided branch: replacement fixed at customization time.
struct StaticFoldEntry {
    std::uint32_t pc = 0;            ///< branch address (identification tag)
    bool taken = false;              ///< the constant direction
    Instruction replacement;         ///< BTI when taken, BFI otherwise
    std::uint32_t replacementPc = 0; ///< BTA when taken, pc + 4 otherwise
};

/// Fully-associative PC-tag match, like the BIT but with constant payloads.
class StaticFoldTable {
public:
    /// A loaded entry: the replacement decoded at its replacement address.
    struct Entry {
        std::uint32_t pc = 0;
        bool taken = false;
        DecodedOp replacement;
    };

    void load(const std::vector<StaticFoldEntry>& entries) {
        for (std::size_t i = 0; i < entries.size(); ++i)
            for (std::size_t j = i + 1; j < entries.size(); ++j)
                ASBR_ENSURE(entries[i].pc != entries[j].pc,
                            "StaticFoldTable: duplicate branch PC");
        entries_.clear();
        filter_ = 0;
        for (const StaticFoldEntry& e : entries) {
            entries_.push_back(
                {e.pc, e.taken, decodeOne(e.replacement, e.replacementPc)});
            filter_ |= pcFilterBit(e.pc);
        }
    }

    /// False means no entry can match `pc`, so lookup() would return null.
    [[nodiscard]] bool mayMatch(std::uint32_t pc) const {
        return (filter_ & pcFilterBit(pc)) != 0;
    }

    [[nodiscard]] const Entry* lookup(std::uint32_t pc) const {
        for (const Entry& e : entries_)
            if (e.pc == pc) return &e;
        return nullptr;
    }

    [[nodiscard]] std::size_t size() const { return entries_.size(); }

    /// Area proxy, per the BIT's accounting: PC tag (30) + direction (1) +
    /// replacement instruction word (32) + replacement address (30).
    [[nodiscard]] std::uint64_t storageBits() const {
        return static_cast<std::uint64_t>(entries_.size()) * (30 + 1 + 32 + 30);
    }

private:
    std::vector<Entry> entries_;
    std::uint64_t filter_ = 0;  ///< OR of pcFilterBit over entries
};

}  // namespace asbr
