// Branch selection for ASBR (paper Section 6).
//
// "Frequently executed, hard-to-predict branches are especially propitious
// to resolve by using ASBR."  One pass, selectBranches, makes every
// selection:
//
//   evidence   heat and benefit of every extractable site, from the profile
//              plus a predictor accuracy map, or from the WCET
//              misprediction-cost ranking
//   split      (static verdicts only) always/never-taken sites go to the
//              static fold table, hottest first, capped at its capacity
//   filter     the BIT pool: execution floor, foldable fraction, legality
//              verdict
//   rank, cut  score desc, verdict asc, pc asc; cut to BIT capacity
//
// The predictor-aware policy ranks against the strong predictor and then
// keeps only the sites it loses (the hardness class).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "analysis/timing/wcet.hpp"
#include "analysis/verify.hpp"
#include "asm/program.hpp"
#include "profile/profiler.hpp"
#include "util/metrics.hpp"

namespace asbr {

class AsbrUnit;

/// Which fold classes a profiled selection fills, and what it ranks against.
enum class SelectionPolicy : std::uint8_t {
    kProfiled,     ///< BIT only, ranked by profiled benefit (paper Section 6)
    kStaticFolds,  ///< statically-decided sites to the static fold table first
    /// Rank against the strong fallback predictor and fold only the sites it
    /// demonstrably loses, handing the rest back to the predictor.
    kPredictorAware,
};

/// Selection knobs.
struct SelectionConfig {
    SelectionPolicy policy = SelectionPolicy::kProfiled;
    std::size_t bitCapacity = 16;   ///< BIT entries available
    std::uint32_t threshold = 3;    ///< 2 / 3 / 4, per the BDT update stage
    double minExecFraction = 1e-4;  ///< ignore branches rarer than this
    /// Run the static fold-legality verifier over the candidates: branches
    /// with an Illegal verdict are dropped (they can never enter the BIT),
    /// and ProvablySafe branches win score ties over SafeOnProfiledPaths
    /// ones.  The profile supplies the dynamic evidence, so profiled-clean
    /// branches survive even when an unprofiled short path exists.
    bool requireStaticallySafe = false;
};

/// Profiled BIT candidates must fold on at least this share of executions.
inline constexpr double kMinFoldableFraction = 0.5;
/// Static fold table entries available.
inline constexpr std::size_t kStaticFoldCapacity = 16;
/// A site whose accuracy reaches this under a predictor counts as won by
/// that predictor (the hardness taxonomy's boundary).
inline constexpr double kWellPredictedAccuracy = 0.99;

/// A scored candidate branch.
struct Candidate {
    std::uint32_t pc = 0;
    std::uint64_t execs = 0;
    double takenRate = 0.0;
    double accuracy = 1.0;          ///< reference predictor accuracy (1 = easy)
    double foldableFraction = 0.0;  ///< at the configured threshold
    double score = 0.0;             ///< expected mispredictions removed
    /// Static verdict; populated when a legality verdict was consumed.
    std::optional<analysis::FoldLegality> verdict;
};

/// A branch the abstract interpreter proved single-direction: it folds from
/// the static table instead of occupying a BIT slot.
struct StaticFoldCandidate {
    std::uint32_t pc = 0;
    bool taken = false;       ///< the constant direction
    std::uint64_t execs = 0;  ///< heat the static table is ranked by
};

/// Non-predictability taxonomy: why a branch site does or does not deserve
/// a BIT slot once a strong history-based predictor is the fallback.
enum class BranchHardness {
    kColdSite = 0,        ///< below the execution floor — never worth a slot
    kWellPredicted,       ///< both predictors already get it right
    kHistoryPredictable,  ///< the strong predictor fixes what the baseline lost
    kHardToPredict,       ///< the strong predictor demonstrably loses — fold it
};

/// One selection: what goes into the BIT and the static fold table.
struct Selection {
    std::vector<Candidate> residents;          ///< BIT, in rank order
    std::vector<StaticFoldCandidate> statics;  ///< static table, hottest first
    /// Slots the plain profiled policy would have filled that `residents`
    /// does not hold: sites now served statically, or (predictor-aware)
    /// sites handed back to the strong predictor.
    std::uint64_t bitSlotsReclaimed = 0;
    /// Foldable sites per BranchHardness class (predictor-aware only).
    std::array<std::uint64_t, 4> hardness{};

    [[nodiscard]] std::uint64_t countOf(BranchHardness h) const {
        return hardness[static_cast<std::size_t>(h)];
    }
};

/// Profiled selection.  `accuracyByPc` is the reference predictor's per-site
/// accuracy (the bimodal-2048 replay over the ISS branch stream,
/// PredictionProfile::accuracyMap); sites missing from a map get accuracy 1
/// (no benefit).  The predictor-aware policy also takes the strong
/// predictor's map, `strongAccuracyByPc`; `accuracyByPc` then classifies
/// hardness and defines the plain selection reclaimed slots count against.
[[nodiscard]] Selection selectBranches(
    const Program& program, const ProgramProfile& profile,
    const std::map<std::uint32_t, double>& accuracyByPc,
    const SelectionConfig& config = {},
    const std::map<std::uint32_t, double>* strongAccuracyByPc = nullptr);

/// Profile-free, cost-aware selection from the static timing engine's
/// per-branch worst-case misprediction cost (WcetEngine::compute).  Static
/// verdicts always split first (ranked by execution bound); the BIT takes
/// the top remaining *ProvablySafe* branches with a nonzero total cost.
/// Candidate::execs carries the execution bound and Candidate::score the
/// total cost.  `config.policy` may not be kPredictorAware: there is no
/// predictor profile to classify hardness with.
[[nodiscard]] Selection selectBranches(
    const Program& program,
    const std::vector<analysis::timing::BranchCostRecord>& ranking,
    const SelectionConfig& config = {});

/// Load a selection into `unit`: the BIT residents into bank 0, the static
/// folds (if any) and, under every policy, the reclaimed slot count.
void loadSelection(AsbrUnit& unit, const Program& program,
                   const Selection& selection);

/// Counters one predictor-aware selection publishes (the
/// `selection.predictor_aware_*` namespace).  A default-constructed
/// snapshot publishes zeros so `asbr-stats counters` can enumerate them.
struct PredictorAwareSelectionMetrics {
    std::uint64_t folded = 0;         ///< BIT slots filled (hard sites)
    std::uint64_t keptForPredictor = 0;  ///< sites left to the predictor
    std::uint64_t hardSites = 0;      ///< sites classified hard-to-predict
    std::uint64_t reclaimedSlots = 0; ///< bimodal-era slots handed back

    void countSelection(const Selection& selection);
    void publish(MetricRegistry& registry) const;
};

/// Counters one cost-aware selection publishes (the `selection.static_cost_*`
/// namespace).  A default-constructed snapshot publishes zeros so
/// `asbr-stats counters` can enumerate the names.
struct StaticCostSelectionMetrics {
    std::uint64_t candidates = 0;   ///< branches in the input cost ranking
    std::uint64_t staticFolds = 0;  ///< static-table folds selected
    std::uint64_t bitResidents = 0; ///< BIT slots filled by total static cost

    /// Fill the selection-side counters from a selection result.
    void countSelection(const Selection& selection);
    void publish(MetricRegistry& registry) const;
};

}  // namespace asbr
