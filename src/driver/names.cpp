#include "driver/names.hpp"

#include "bp/registry.hpp"
#include "util/ensure.hpp"

namespace asbr::driver {

std::optional<BenchId> benchFromToken(const std::string& token) {
    if (token == "adpcm-enc") return BenchId::kAdpcmEncode;
    if (token == "adpcm-dec") return BenchId::kAdpcmDecode;
    if (token == "g721-enc") return BenchId::kG721Encode;
    if (token == "g721-dec") return BenchId::kG721Decode;
    if (token == "g711-enc") return BenchId::kG711Encode;
    if (token == "g711-dec") return BenchId::kG711Decode;
    return std::nullopt;
}

const char* benchToken(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode: return "adpcm-enc";
        case BenchId::kAdpcmDecode: return "adpcm-dec";
        case BenchId::kG721Encode: return "g721-enc";
        case BenchId::kG721Decode: return "g721-dec";
        case BenchId::kG711Encode: return "g711-enc";
        case BenchId::kG711Decode: return "g711-dec";
    }
    return "?";
}

const char* benchTokenList() {
    return "adpcm-enc|adpcm-dec|g721-enc|g721-dec|g711-enc|g711-dec";
}

std::unique_ptr<BranchPredictor> makePredictorByToken(const std::string& token,
                                                      std::string* error) {
    const PredictorRegistry& registry = PredictorRegistry::instance();
    std::unique_ptr<BranchPredictor> predictor = registry.make(token);
    if (!predictor && error) *error = registry.unknownTokenMessage(token);
    return predictor;
}

std::string predictorTokenList() {
    return PredictorRegistry::instance().tokenList();
}

std::optional<ValueStage> stageFromToken(const std::string& token) {
    if (token == "ex_end") return ValueStage::kExEnd;
    if (token == "mem_end") return ValueStage::kMemEnd;
    if (token == "commit") return ValueStage::kCommit;
    return std::nullopt;
}

std::size_t paperBitEntries(BenchId id) {
    switch (id) {
        case BenchId::kAdpcmEncode: return 4;
        case BenchId::kAdpcmDecode: return 3;
        case BenchId::kG721Encode: return 16;
        case BenchId::kG721Decode: return 15;
        case BenchId::kG711Encode:
        case BenchId::kG711Decode: return 8;  // extension: not in the paper
    }
    return 16;
}

std::uint32_t thresholdFor(ValueStage stage) {
    switch (stage) {
        case ValueStage::kExEnd: return 2;
        case ValueStage::kMemEnd: return 3;
        case ValueStage::kCommit: return 4;
    }
    return 3;
}

ValueStage stageForThreshold(std::uint32_t threshold) {
    ASBR_ENSURE(threshold >= 2 && threshold <= 4,
                "threshold must be 2, 3 or 4");
    return threshold == 2   ? ValueStage::kExEnd
           : threshold == 3 ? ValueStage::kMemEnd
                            : ValueStage::kCommit;
}

}  // namespace asbr::driver
