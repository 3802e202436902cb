// Canonical CLI tokens for workloads, predictors and BDT update stages.
//
// Every driver-layer surface — SimJob specs, the asbr-stats / asbr-faults /
// asbr-sweep CLIs, fault-report metadata — names things with these tokens,
// so a token written into a report can always be resolved back into the
// exact object it described (asbr-faults replay depends on this).
// Previously each tool kept its own copy of these tables; this is the one
// authoritative set.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "bp/predictor.hpp"
#include "sim/fetch_customizer.hpp"
#include "workloads/workloads.hpp"

namespace asbr::driver {

/// "adpcm-enc" | "adpcm-dec" | "g721-enc" | "g721-dec" | "g711-enc" |
/// "g711-dec" -> BenchId; nullopt for anything else.
[[nodiscard]] std::optional<BenchId> benchFromToken(const std::string& token);

/// The CLI token for a workload (inverse of benchFromToken).
[[nodiscard]] const char* benchToken(BenchId id);

/// Help-text fragment listing every workload token, '|'-separated.
[[nodiscard]] const char* benchTokenList();

/// Resolve a predictor registry token (bp/registry.hpp) — e.g. "bimodal",
/// "tage:h8-16-32-64", "perceptron:n256" — into a freshly constructed
/// predictor; nullptr for unknown tokens or malformed parameters.  When
/// `error` is non-null it receives the registry's structured one-line
/// diagnostic (offending token plus every registered token grammar).
[[nodiscard]] std::unique_ptr<BranchPredictor> makePredictorByToken(
    const std::string& token, std::string* error = nullptr);

/// Help-text fragment listing every predictor family token, '|'-separated
/// (sourced from the PredictorRegistry).
[[nodiscard]] std::string predictorTokenList();

/// "ex_end" | "mem_end" | "commit" -> ValueStage; nullopt otherwise.
[[nodiscard]] std::optional<ValueStage> stageFromToken(const std::string& token);

/// Paper branch-selection counts: 16 for G.721 encode, 15 for decode, 4 for
/// ADPCM encode, 3 for decode (8 for the G.711 extension pair).
[[nodiscard]] std::size_t paperBitEntries(BenchId id);

/// Threshold (2/3/4) implied by a BDT update stage.
[[nodiscard]] std::uint32_t thresholdFor(ValueStage stage);

/// The BDT update stage a threshold (2/3/4) implies (inverse of
/// thresholdFor).
[[nodiscard]] ValueStage stageForThreshold(std::uint32_t threshold);

}  // namespace asbr::driver
