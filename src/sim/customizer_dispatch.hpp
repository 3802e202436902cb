// One choice of the concrete customizer type a simulation loop runs with.
//
// The pipeline's cycle loop and the sampled fast-forward loop are templates
// over the customizer type.  withCustomizer() picks the instantiation once
// per call: AsbrUnit is `final`, so every hook it gets called through is
// devirtualized and inlined from its header; any other customizer goes
// through the virtual FetchCustomizer interface; no customizer at all runs
// with NoCustomizer, whose hooks are empty inline functions, so the hook
// code compiles away.  The hooks these loops call are header-inline, so
// the choice adds no link dependency on the ASBR library.
#pragma once

#include <cstdint>
#include <optional>

#include "asbr/asbr_unit.hpp"
#include "sim/fetch_customizer.hpp"

namespace asbr {

/// The customizer type of a run without one: never folds, ignores events.
struct NoCustomizer {
    std::optional<FetchCustomizer::FoldOutcome> onFetch(std::uint32_t,
                                                        const Instruction&) {
        return std::nullopt;
    }
    void onProducerDecoded(std::uint8_t) {}
    void onValueAvailable(std::uint8_t, std::int32_t, ValueStage, ValueStage) {}
    void onStore(std::uint32_t, std::int32_t) {}
    void onArchStep(const DecodedOp&, const StepResult&) {}
    std::uint32_t takeRecoveryStall() { return 0; }
};

/// Call `body` with `customizer` as its most concrete loop type (see above).
template <class Body>
decltype(auto) withCustomizer(FetchCustomizer* customizer, Body&& body) {
    if (auto* unit = dynamic_cast<AsbrUnit*>(customizer)) return body(*unit);
    if (customizer != nullptr) return body(*customizer);
    NoCustomizer none;
    return body(none);
}

}  // namespace asbr
