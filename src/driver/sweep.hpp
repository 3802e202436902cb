// Parameter-grid expansion for asbr-sweep: cross-product a set of workload,
// predictor, BIT-size and update-stage axes into a flat SimJob batch the
// engine runs in one call.  Expansion order is fixed (workload-major, then
// predictor, then BIT size, then stage) so the job list — and therefore the
// sweep report — is independent of how the batch is later scheduled.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "driver/cli.hpp"
#include "driver/engine.hpp"
#include "driver/job.hpp"
#include "sim/fetch_customizer.hpp"
#include "workloads/workloads.hpp"

namespace asbr::driver {

struct SweepGrid {
    std::vector<BenchId> workloads;          ///< empty = all six benchmarks
    std::vector<std::string> predictors{"bimodal"};
    std::vector<std::size_t> bitSizes{0};    ///< 0 = the paper's count
    std::vector<ValueStage> stages{ValueStage::kMemEnd};
    bool parityProtected = false;
    /// Selection policy of every ASBR point (kPredictorAware: fold only the
    /// branches each point's own predictor demonstrably loses).
    SelectionPolicy policy = SelectionPolicy::kProfiled;
    /// Also run each workload x predictor point without ASBR, before its
    /// ASBR points, for side-by-side baselines in one report.
    bool includeBaseline = false;
};

/// Expand the grid into jobs.  Samples/seed come from the shared options
/// (per-workload sample counts via samplesFor); every job is tagged
/// figure = "sweep".
[[nodiscard]] std::vector<SimJob> expandSweep(const SweepGrid& grid,
                                              const CliOptions& options);

/// The one emitter of `asbr.sweep_report` v2 (schema and validation:
/// report/sweep_report.hpp), from the engine's cells in submission order.
/// `generator` names the producing binary; `options` is free-form metadata.
/// A kSkipped cell (an interrupted run) is an EnsureError, not "failed".
[[nodiscard]] JsonValue sweepReportJson(const std::string& generator,
                                        JsonValue options,
                                        const std::vector<CellOutcome>& cells);

}  // namespace asbr::driver
