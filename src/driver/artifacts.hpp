// Shared, immutable simulation artifacts with once-per-key resolution.
//
// Loading a workload (assemble + schedule + generate input), profiling it
// and selecting its ASBR branches are pure functions of a small key — yet
// the pre-driver binaries recomputed them for every run, and a parallel
// engine would recompute them on every worker.  This layer computes each
// artifact exactly once per key and shares the result read-only:
//
//   WorkloadKey  -> WorkloadArtifacts   program + input (+ lazy profile and
//                                       per-token prediction profiles; the
//                                       bimodal-2048 replay over the ISS
//                                       branch stream is the per-site
//                                       accuracy reference)
//   SelectionKey -> SelectionArtifacts  the Selection (BIT residents +
//                                       static folds)
//
// Artifacts are immutable after construction; anything mutable a run needs
// (Memory image, predictor, AsbrUnit) is built *fresh* from them per run, so
// concurrent engine workers never share hot-path state.  Every keyed cache
// here is a OnceMap: a key's first requester computes, concurrent
// requesters for the same key block on a shared_future, and requesters of
// *different* keys never serialize against the computation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "asbr/asbr_unit.hpp"
#include "bp/predictor.hpp"
#include "driver/once_map.hpp"
#include "mem/memory.hpp"
#include "profile/profiler.hpp"
#include "profile/selection.hpp"
#include "sim/pipeline.hpp"
#include "sim/sampling.hpp"
#include "workloads/workloads.hpp"

namespace asbr::driver {

/// A compiled benchmark plus its input data (decoders get codes produced by
/// the native encoder, mirroring how MediaBench chains encode -> decode), or
/// a program loaded from a file, which has no input.
struct Prepared {
    BenchId id = BenchId::kAdpcmEncode;  ///< unused when !hasInput
    bool scheduled = true;  ///< condition-scheduling pass was enabled
    bool hasInput = true;   ///< false for a program file
    Program program;
    std::vector<std::int16_t> pcm;
    std::vector<std::uint8_t> codes;
};

[[nodiscard]] Prepared prepare(BenchId id, bool scheduled, std::uint64_t seed,
                               std::size_t samples);

/// Assemble (.s/.asm) or compile (anything else, as mcc C) the file at
/// `path`.  Throws std::runtime_error with a one-line message naming the
/// file when it cannot be read or the front end rejects it.
[[nodiscard]] Program loadProgramFile(const std::string& path, bool scheduled);

/// loadProgramFile as a Prepared with no input buffers.
[[nodiscard]] Prepared prepareFile(const std::string& path, bool scheduled);

/// Fresh memory image holding program + input.
[[nodiscard]] Memory makeMemory(const Prepared& prepared);

/// One cycle-accurate run against a fresh memory image.  Resets the
/// predictor first and asserts a clean exit.
[[nodiscard]] PipelineResult runPipeline(const Prepared& prepared,
                                         BranchPredictor& predictor,
                                         FetchCustomizer* customizer = nullptr,
                                         const PipelineConfig& config = {});

/// One sampled run (docs/simulation.md) against a fresh memory image.
/// Resets the predictor first and asserts a clean exit — a sampled run still
/// executes every instruction architecturally, so the exit contract holds.
[[nodiscard]] SampledResult runSampledPipeline(
    const Prepared& prepared, BranchPredictor& predictor,
    FetchCustomizer* customizer, const SamplingConfig& sampling,
    const PipelineConfig& config = {});

/// Everything that determines a workload's program + input, byte for byte.
struct WorkloadKey {
    BenchId workload = BenchId::kAdpcmEncode;
    bool scheduled = true;
    std::uint64_t seed = 2001;
    std::size_t samples = 0;  ///< actual (capacity-capped) sample count
    std::string programFile;  ///< SimJob::programFile; empty = `workload`

    auto operator<=>(const WorkloadKey&) const = default;
};

/// Everything that determines an ASBR branch selection on a workload.
struct SelectionKey {
    WorkloadKey workload;
    std::size_t bitEntries = 16;  ///< resolved BIT capacity (never 0)
    ValueStage updateStage = ValueStage::kMemEnd;
    /// Use the bimodal-2048 replay over the ISS branch stream as the per-site
    /// accuracy reference (every figure regenerator does; ext_predictors
    /// deliberately does not).
    bool useAccuracy = true;
    SelectionPolicy policy = SelectionPolicy::kProfiled;
    /// The strong fallback predictor's registry token (kPredictorAware only;
    /// empty otherwise so keys that ignore the predictor keep aliasing).
    std::string predictorToken;

    auto operator<=>(const SelectionKey&) const = default;
};

/// Immutable loaded workload.  The profile and the prediction profiles are
/// computed lazily (non-ASBR jobs never pay for them) but still exactly once,
/// so concurrent callers are safe.
class WorkloadArtifacts {
public:
    explicit WorkloadArtifacts(const WorkloadKey& key);

    [[nodiscard]] const WorkloadKey& key() const { return key_; }
    [[nodiscard]] const Prepared& prepared() const { return prepared_; }

    /// Functional branch profile (lazy, computed once).
    [[nodiscard]] const ProgramProfile& profile() const;

    /// Per-site accuracy of bimodal-2048 replayed over the ISS branch stream
    /// (predictionProfile("bimodal")) — the hardness reference every
    /// selection uses.  Per site it equals a bimodal-2048 pipeline run's.
    [[nodiscard]] std::map<std::uint32_t, double> baselineAccuracy() const;

    /// Per-site prediction record of playing the predictor named by a
    /// registry token over this workload's committed branch stream
    /// (profilePredictions).  Lazy, once per token.
    [[nodiscard]] std::shared_ptr<const PredictionProfile> predictionProfile(
        const std::string& token) const;

private:
    WorkloadKey key_;
    Prepared prepared_;
    mutable std::once_flag profileOnce_;
    mutable std::optional<ProgramProfile> profile_;
    mutable OnceMap<std::string, PredictionProfile> predictions_;
};

/// Immutable branch selection, ready to stamp out fresh AsbrUnits.
class SelectionArtifacts {
public:
    SelectionArtifacts(std::shared_ptr<const WorkloadArtifacts> workload,
                       const SelectionKey& key);

    [[nodiscard]] const SelectionKey& key() const { return key_; }
    [[nodiscard]] const Selection& selection() const { return selection_; }

    /// Fresh ASBR unit with the selection loaded (loadSelection).  Safe to
    /// call concurrently.
    [[nodiscard]] std::unique_ptr<AsbrUnit> makeUnit(
        bool parityProtected) const;

private:
    std::shared_ptr<const WorkloadArtifacts> workload_;
    SelectionKey key_;
    Selection selection_;
};

/// Thread-safe once-per-key artifact store.
class ArtifactCache {
public:
    [[nodiscard]] std::shared_ptr<const WorkloadArtifacts> workload(
        const WorkloadKey& key);
    [[nodiscard]] std::shared_ptr<const SelectionArtifacts> selection(
        const SelectionKey& key);

    struct Stats {
        std::uint64_t workloadComputes = 0;
        std::uint64_t selectionComputes = 0;
        /// Requests served from an already-inserted entry.  Deterministic:
        /// always requests - unique keys, however the races fall.
        std::uint64_t hits = 0;
    };
    [[nodiscard]] Stats stats() const;

private:
    OnceMap<WorkloadKey, WorkloadArtifacts> workloads_;
    OnceMap<SelectionKey, SelectionArtifacts> selections_;
};

}  // namespace asbr::driver
