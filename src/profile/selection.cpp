#include "profile/selection.hpp"

#include <algorithm>

#include "asbr/asbr_unit.hpp"
#include "asbr/extract.hpp"

namespace asbr {

namespace {

using AccuracyMap = std::map<std::uint32_t, double>;

/// Per-site evidence, in pc order, plus how the filter step judges it.
struct Evidence {
    /// Every extractable site the input knows about; `execs` is the heat the
    /// static table ranks by, `score` the benefit the BIT ranks by.
    std::vector<Candidate> sites;
    std::uint64_t minExecs = 0;  ///< execution floor
    double minFoldable = 0.0;    ///< foldable-fraction floor
    /// The weakest legality verdict the BIT admits; nullopt: none consumed.
    std::optional<analysis::FoldLegality> weakestVerdict;
    /// Dynamic evidence for the SafeOnProfiledPaths verdict.
    std::optional<analysis::ObservedMinDistances> observed;
    bool staticSplit = false;  ///< statically-decided sites fold statically
    /// Reclaimed slots are counted against the plain profiled policy.
    bool countsReclaimed = false;
};

double accuracyOf(const AccuracyMap& accuracyByPc, std::uint32_t pc) {
    const auto it = accuracyByPc.find(pc);
    return it == accuracyByPc.end() ? 1.0 : it->second;
}

/// Score a profiled site against a predictor's per-site accuracy.
Candidate scored(Candidate c, const AccuracyMap& accuracyByPc) {
    c.accuracy = accuracyOf(accuracyByPc, c.pc);
    // Expected benefit: foldable executions weighted by how often the
    // reference predictor gets this site wrong, plus a small term for the
    // pipeline-occupancy saving every fold provides regardless of
    // predictability (the folded branch never issues).
    c.score = static_cast<double>(c.execs) * c.foldableFraction *
              ((1.0 - c.accuracy) + 0.05);
    return c;
}

bool holds(const std::vector<Candidate>& residents, std::uint32_t pc) {
    return std::any_of(residents.begin(), residents.end(),
                       [pc](const Candidate& c) { return c.pc == pc; });
}

void ensureThreshold(const SelectionConfig& config) {
    ASBR_ENSURE(config.threshold >= 2 && config.threshold <= 4,
                "threshold must be 2, 3 or 4");
}

/// Split, filter, rank and cut.  `strong` (predictor-aware only) re-ranks
/// the pool against the strong predictor's accuracy.
Selection selectFrom(const Program& program, const Evidence& evidence,
                     const SelectionConfig& config, const AccuracyMap* strong) {
    Selection selection;
    // Absint runs only when a verdict is consumed.
    std::optional<analysis::FoldLegalityVerifier> verifier;
    if (evidence.staticSplit || evidence.weakestVerdict)
        verifier.emplace(program);

    // Static split: a statically-decided branch needs no score — with zero
    // BDT dependence the fold succeeds on every execution — so rank by heat
    // to make the capacity cut deterministic.
    if (evidence.staticSplit) {
        for (const Candidate& c : evidence.sites) {
            const auto dir =
                verifier->values().directionAt(verifier->cfg().indexOf(c.pc));
            if (dir == analysis::BranchDirection::kAlwaysTaken ||
                dir == analysis::BranchDirection::kNeverTaken)
                selection.statics.push_back(
                    {c.pc, dir == analysis::BranchDirection::kAlwaysTaken,
                     c.execs});
        }
        std::sort(selection.statics.begin(), selection.statics.end(),
                  [](const StaticFoldCandidate& a, const StaticFoldCandidate& b) {
                      if (a.execs != b.execs) return a.execs > b.execs;
                      return a.pc < b.pc;
                  });
        if (selection.statics.size() > kStaticFoldCapacity)
            selection.statics.resize(kStaticFoldCapacity);
    }

    // Filter: the pool the plain policy ranks.  A zero score is a cost-ranked
    // site no bounded path reaches.
    analysis::VerifyConfig verifyConfig;
    verifyConfig.threshold = config.threshold;
    std::vector<Candidate> pool;
    for (Candidate c : evidence.sites) {
        if (c.execs < evidence.minExecs ||
            c.foldableFraction < evidence.minFoldable || c.score <= 0.0)
            continue;
        if (evidence.weakestVerdict) {
            c.verdict = verifier
                            ->verdictFor(c.pc, verifyConfig,
                                         evidence.observed ? &*evidence.observed
                                                           : nullptr)
                            .verdict;
            if (*c.verdict > *evidence.weakestVerdict) continue;
        }
        pool.push_back(c);
    }

    // Rank and cut.
    const auto rankAndCut = [&config](std::vector<Candidate> ranked) {
        std::sort(ranked.begin(), ranked.end(),
                  [](const Candidate& a, const Candidate& b) {
                      if (a.score != b.score) return a.score > b.score;
                      if (a.verdict != b.verdict) return a.verdict < b.verdict;
                      return a.pc < b.pc;
                  });
        if (ranked.size() > config.bitCapacity)
            ranked.resize(config.bitCapacity);
        return ranked;
    };
    if (strong != nullptr) {
        // Rank against the strong predictor, cut, and only then keep the
        // sites it demonstrably loses: the slots the rest would have taken
        // stay empty, handed back to the predictor.
        std::vector<Candidate> rescored;
        for (const Candidate& c : pool) rescored.push_back(scored(c, *strong));
        for (const Candidate& c : rankAndCut(std::move(rescored)))
            if (c.accuracy < kWellPredictedAccuracy)
                selection.residents.push_back(c);
        for (const Candidate& c : evidence.sites) {
            if (c.foldableFraction < evidence.minFoldable) continue;
            BranchHardness cls = BranchHardness::kColdSite;
            if (c.execs >= evidence.minExecs)
                cls = accuracyOf(*strong, c.pc) < kWellPredictedAccuracy
                          ? BranchHardness::kHardToPredict
                      : c.accuracy < kWellPredictedAccuracy
                          ? BranchHardness::kHistoryPredictable
                          : BranchHardness::kWellPredicted;
            ++selection.hardness[static_cast<std::size_t>(cls)];
        }
    } else {
        std::vector<Candidate> bitPool;
        for (const Candidate& c : pool)
            if (std::none_of(selection.statics.begin(), selection.statics.end(),
                             [&c](const StaticFoldCandidate& s) {
                                 return s.pc == c.pc;
                             }))
                bitPool.push_back(c);
        selection.residents = rankAndCut(std::move(bitPool));
    }

    if (evidence.countsReclaimed)
        for (const Candidate& c : rankAndCut(std::move(pool)))
            if (!holds(selection.residents, c.pc))
                ++selection.bitSlotsReclaimed;
    return selection;
}

}  // namespace

Selection selectBranches(const Program& program, const ProgramProfile& profile,
                         const AccuracyMap& accuracyByPc,
                         const SelectionConfig& config,
                         const AccuracyMap* strongAccuracyByPc) {
    ensureThreshold(config);
    const bool aware = config.policy == SelectionPolicy::kPredictorAware;
    ASBR_ENSURE(aware == (strongAccuracyByPc != nullptr),
                "selection: a strong accuracy map goes with the "
                "predictor-aware policy, and only with it");
    Evidence evidence;
    evidence.minExecs = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(config.minExecFraction *
                                   static_cast<double>(profile.instructions)),
        1);
    evidence.minFoldable = kMinFoldableFraction;
    for (const auto& [pc, bp] : profile.branches) {
        if (bp.execs == 0 || !isExtractableBranch(program, pc)) continue;
        Candidate c;
        c.pc = pc;
        c.execs = bp.execs;
        c.takenRate = bp.takenRate();
        c.foldableFraction = bp.foldableFraction(config.threshold);
        evidence.sites.push_back(scored(c, accuracyByPc));
    }
    if (config.requireStaticallySafe) {
        evidence.weakestVerdict = analysis::FoldLegality::kSafeOnProfiledPaths;
        evidence.observed.emplace();
        for (const auto& [pc, bp] : profile.branches)
            if (bp.execs > 0) evidence.observed->emplace(pc, bp.minDistance);
    }
    evidence.staticSplit = config.policy == SelectionPolicy::kStaticFolds;
    evidence.countsReclaimed = config.policy != SelectionPolicy::kProfiled;
    return selectFrom(program, evidence, config, strongAccuracyByPc);
}

Selection selectBranches(
    const Program& program,
    const std::vector<analysis::timing::BranchCostRecord>& ranking,
    const SelectionConfig& config) {
    ensureThreshold(config);
    ASBR_ENSURE(config.policy != SelectionPolicy::kPredictorAware,
                "selection: the cost ranking has no predictor to be aware of");
    std::map<std::uint32_t, const analysis::timing::BranchCostRecord*> byPc;
    for (const auto& r : ranking) byPc.emplace(r.pc, &r);
    // Every extractable branch may fold statically, ranked by its worst-case
    // execution bound; the BIT takes only branches the verifier proves safe
    // on *every* path — there is no profile to justify anything weaker.
    Evidence evidence;
    for (const std::uint32_t pc : allConditionalBranches(program)) {
        Candidate c;
        c.pc = pc;
        if (const auto it = byPc.find(pc); it != byPc.end()) {
            c.execs = it->second->execBound;
            c.score = static_cast<double>(it->second->totalCost);
        }
        evidence.sites.push_back(c);
    }
    evidence.weakestVerdict = analysis::FoldLegality::kProvablySafe;
    evidence.staticSplit = true;
    return selectFrom(program, evidence, config, nullptr);
}

void loadSelection(AsbrUnit& unit, const Program& program,
                   const Selection& selection) {
    std::vector<std::uint32_t> pcs;
    pcs.reserve(selection.residents.size());
    for (const Candidate& c : selection.residents) pcs.push_back(c.pc);
    unit.loadBank(0, extractBranchInfos(program, pcs));
    std::vector<StaticFoldEntry> entries;
    entries.reserve(selection.statics.size());
    for (const StaticFoldCandidate& s : selection.statics)
        entries.push_back(extractStaticFold(program, s.pc, s.taken));
    unit.loadStaticFolds(entries, selection.bitSlotsReclaimed);
}

void PredictorAwareSelectionMetrics::countSelection(const Selection& selection) {
    folded = selection.residents.size();
    hardSites = selection.countOf(BranchHardness::kHardToPredict);
    keptForPredictor = selection.countOf(BranchHardness::kWellPredicted) +
                       selection.countOf(BranchHardness::kHistoryPredictable);
    reclaimedSlots = selection.bitSlotsReclaimed;
}

void PredictorAwareSelectionMetrics::publish(MetricRegistry& registry) const {
    registry
        .counter("selection.predictor_aware_folded",
                 "hard-to-predict branches given BIT slots by the "
                 "predictor-aware policy")
        .set(folded);
    registry
        .counter("selection.predictor_aware_kept",
                 "foldable sites left to the strong predictor (well-predicted "
                 "or history-predictable)")
        .set(keptForPredictor);
    registry
        .counter("selection.predictor_aware_hard_sites",
                 "foldable sites the strong predictor demonstrably loses")
        .set(hardSites);
    registry
        .counter("selection.predictor_aware_reclaimed_slots",
                 "bimodal-era BIT slots handed back to the strong predictor")
        .set(reclaimedSlots);
}

void StaticCostSelectionMetrics::countSelection(const Selection& selection) {
    staticFolds = selection.statics.size();
    bitResidents = selection.residents.size();
}

void StaticCostSelectionMetrics::publish(MetricRegistry& registry) const {
    registry
        .counter("selection.static_cost_candidates",
                 "branches in the static misprediction-cost ranking")
        .set(candidates);
    registry
        .counter("selection.static_cost_static_folds",
                 "statically-decided branches selected for the fold table")
        .set(staticFolds);
    registry
        .counter("selection.static_cost_bit_residents",
                 "provably-safe branches selected for the BIT by static cost")
        .set(bitResidents);
}

}  // namespace asbr
