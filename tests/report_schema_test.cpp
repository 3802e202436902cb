// Mutation-equivalence test for the report validators.
//
// Every committed golden report, plus an asbr.sim_report taken from the
// sweep golden and an asbr.bench_report wrapping it, is mutated at every
// single point: each object member removed, each value replaced by every
// other JSON kind, each number bumped by one.  Arrays are entered at their
// first and last element only, which keeps the corpus to a few seconds.
// The accept/reject verdict of every mutation is compared with the bit
// string committed in tests/report_schema_expected.txt, so any change to a
// validator that accepts or rejects a different set of documents fails here
// with the document, the path and the mutation named.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "report/analysis_report.hpp"
#include "report/fault_report.hpp"
#include "report/ipa_report.hpp"
#include "report/report.hpp"
#include "report/sampling_report.hpp"
#include "report/sweep_report.hpp"
#include "report/wcet_report.hpp"
#include "util/json.hpp"

namespace asbr {
namespace {

std::string readFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

JsonValue loadJson(const std::string& path) {
    const JsonParseResult parsed = parseJson(readFile(path));
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.error;
    return parsed.ok() ? *parsed.value : JsonValue();
}

JsonValue goldenDoc(const std::string& name) {
    return loadJson(std::string(ASBR_GOLDEN_DIR) + "/" + name);
}

/// The documents under test, by name.  The two derived entries come from
/// the sweep golden so the sim and bench schemas are covered as well.
JsonValue corpusDoc(const std::string& name) {
    if (name == "sim_report") {
        const JsonValue sweep = goldenDoc("sweep_predictors.json");
        return *sweep.find("cells")->asArray().front().find("report");
    }
    if (name == "bench_report") {
        JsonObject doc;
        doc.emplace_back("schema", kBenchReportSchema);
        doc.emplace_back("version", kReportSchemaVersion);
        doc.emplace_back("generator", "report_schema_test");
        doc.emplace_back("options", JsonValue(JsonObject{}));
        doc.emplace_back("runs", JsonValue(JsonArray{corpusDoc("sim_report")}));
        return JsonValue(std::move(doc));
    }
    return goldenDoc(name);
}

using Validator = ReportValidation (*)(const JsonValue&);

/// The validator of a document's own schema.
Validator validatorFor(const JsonValue& doc) {
    static const std::map<std::string, Validator> kValidators = {
        {kSimReportSchema, validateSimReportJson},
        {kBenchReportSchema, validateBenchReportJson},
        {kFaultReportSchema, validateFaultReportJson},
        {kAnalysisReportSchema, validateAnalysisReportJson},
        {kIpaReportSchema, validateIpaReportJson},
        {kSweepReportSchema, validateSweepReportJson},
        {kWcetReportSchema, validateWcetReportJson},
        {kSamplingReportSchema, validateSamplingReportJson},
    };
    return kValidators.at(doc.find("schema")->asString());
}

// ------------------------------------------------------------ mutations ----

/// The six JSON kinds a value is replaced with (numbers count as one kind).
enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
constexpr Kind kKinds[] = {Kind::kNull,   Kind::kBool,  Kind::kNumber,
                           Kind::kString, Kind::kArray, Kind::kObject};
constexpr const char* kKindNames[] = {"null",   "bool",  "number",
                                      "string", "array", "object"};

Kind kindOf(const JsonValue& v) {
    if (v.isNull()) return Kind::kNull;
    if (v.isBool()) return Kind::kBool;
    if (v.isNumber()) return Kind::kNumber;
    if (v.isString()) return Kind::kString;
    if (v.isArray()) return Kind::kArray;
    return Kind::kObject;
}

JsonValue sampleOf(Kind kind) {
    switch (kind) {
        case Kind::kNull: return JsonValue();
        case Kind::kBool: return JsonValue(true);
        case Kind::kNumber: return JsonValue(std::uint64_t{0});
        case Kind::kString: return JsonValue("x");
        case Kind::kArray: return JsonValue(JsonArray{});
        case Kind::kObject: return JsonValue(JsonObject{});
    }
    return JsonValue();
}

struct Mutation {
    enum class Op { kRemove, kReplace, kBump };
    /// Member or element index at each level from the root; for kRemove
    /// the last index names the member removed from its parent object.
    std::vector<std::size_t> steps;
    Op op = Op::kReplace;
    Kind kind = Kind::kNull;  ///< replacement kind (kReplace)
    std::string where;        ///< human-readable path

    [[nodiscard]] std::string describe() const {
        switch (op) {
            case Op::kRemove: return "remove " + where;
            case Op::kBump: return "bump " + where + " by 1";
            case Op::kReplace:
                return "replace " + where + " with " +
                       kKindNames[static_cast<int>(kind)];
        }
        return {};
    }
};

void collect(const JsonValue& v, std::vector<std::size_t>& steps,
             const std::string& where, std::vector<Mutation>& out) {
    for (const Kind k : kKinds)
        if (k != kindOf(v))
            out.push_back({steps, Mutation::Op::kReplace, k, where});
    if (v.isNumber()) out.push_back({steps, Mutation::Op::kBump, {}, where});
    if (v.isObject()) {
        const JsonObject& members = v.asObject();
        for (std::size_t i = 0; i < members.size(); ++i) {
            steps.push_back(i);
            const std::string& key = members[i].first;
            const std::string child = where.empty() ? key : where + "." + key;
            out.push_back({steps, Mutation::Op::kRemove, {}, child});
            collect(members[i].second, steps, child, out);
            steps.pop_back();
        }
    } else if (v.isArray() && !v.asArray().empty()) {
        const std::size_t last = v.asArray().size() - 1;
        for (const std::size_t i : {std::size_t{0}, last}) {
            steps.push_back(i);
            collect(v.asArray()[i], steps,
                    where + "[" + std::to_string(i) + "]", out);
            steps.pop_back();
            if (last == 0) break;  // a one-element array is entered once
        }
    }
}

std::vector<Mutation> mutationsOf(const JsonValue& doc) {
    std::vector<Mutation> out;
    std::vector<std::size_t> steps;
    collect(doc, steps, "", out);
    return out;
}

JsonValue apply(const JsonValue& doc, const Mutation& m) {
    JsonValue copy = doc;
    const std::size_t depth =
        m.op == Mutation::Op::kRemove ? m.steps.size() - 1 : m.steps.size();
    JsonValue* at = &copy;
    for (std::size_t d = 0; d < depth; ++d) {
        const std::size_t i = m.steps[d];
        at = at->isObject() ? &at->asObject()[i].second : &at->asArray()[i];
    }
    switch (m.op) {
        case Mutation::Op::kRemove:
            at->asObject().erase(at->asObject().begin() +
                                 static_cast<std::ptrdiff_t>(m.steps.back()));
            break;
        case Mutation::Op::kReplace: *at = sampleOf(m.kind); break;
        case Mutation::Op::kBump:
            if (at->kind() == JsonValue::Kind::kUint)
                *at = JsonValue(at->asUint() + 1);
            else if (at->kind() == JsonValue::Kind::kInt)
                *at = JsonValue(static_cast<std::int64_t>(at->asDouble()) + 1);
            else
                *at = JsonValue(at->asDouble() + 1.0);
            break;
    }
    return copy;
}

/// Accept/reject verdict; a validator that throws counts as a rejection.
bool accepts(Validator validate, const JsonValue& doc) {
    try {
        return validate(doc).ok();
    } catch (const std::exception&) {
        return false;
    }
}

// ---------------------------------------------------- expectation file -----

constexpr char kHex[] = "0123456789abcdef";

/// Bit i (4 bits per hex digit, most significant first) is mutation i's
/// verdict, 1 = accepted.
std::string toHex(const std::vector<bool>& bits) {
    std::string hex;
    for (std::size_t i = 0; i < bits.size(); i += 4) {
        int nibble = 0;
        for (std::size_t b = 0; b < 4; ++b)
            nibble = nibble * 2 + (i + b < bits.size() && bits[i + b] ? 1 : 0);
        hex += kHex[nibble];
    }
    return hex;
}

bool bitAt(const std::string& hex, std::size_t i) {
    const std::size_t digit = i / 4;
    if (digit >= hex.size()) return false;
    const int nibble =
        static_cast<int>(std::string_view(kHex).find(hex[digit]));
    return ((nibble >> (3 - i % 4)) & 1) != 0;
}

struct Expectation {
    std::size_t mutations = 0;
    std::string verdicts;
};

std::map<std::string, Expectation> loadExpectations() {
    std::map<std::string, Expectation> out;
    std::istringstream lines(readFile(ASBR_REPORT_SCHEMA_EXPECTED));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string name;
        Expectation e;
        fields >> name >> e.mutations >> e.verdicts;
        out[name] = e;
    }
    return out;
}

class ReportSchemaTest : public testing::TestWithParam<const char*> {};

TEST_P(ReportSchemaTest, MutationVerdictsMatchTheCommittedExpectation) {
    const std::string name = GetParam();
    const JsonValue doc = corpusDoc(name);
    ASSERT_TRUE(doc.isObject()) << name;
    const Validator validate = validatorFor(doc);
    ASSERT_TRUE(validate(doc).ok())
        << name << ": " << validate(doc).errors.front();

    const std::vector<Mutation> mutations = mutationsOf(doc);
    std::vector<bool> verdicts;
    verdicts.reserve(mutations.size());
    for (const Mutation& m : mutations)
        verdicts.push_back(accepts(validate, apply(doc, m)));
    const std::string actual = name + " " + std::to_string(mutations.size()) +
                               " " + toHex(verdicts);

    static const std::map<std::string, Expectation> expected =
        loadExpectations();
    const auto it = expected.find(name);
    ASSERT_NE(it, expected.end())
        << "no expectation for " << name << "; actual line:\n" << actual;
    ASSERT_EQ(it->second.mutations, mutations.size())
        << name << ": the mutation corpus changed; actual line:\n" << actual;

    int reported = 0;
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        const bool want = bitAt(it->second.verdicts, i);
        if (want == verdicts[i]) continue;
        if (++reported > 20) break;
        ADD_FAILURE() << name << ": " << mutations[i].describe() << " is "
                      << (verdicts[i] ? "accepted" : "rejected")
                      << ", expected "
                      << (want ? "accepted" : "rejected");
    }
    EXPECT_EQ(reported, 0) << "actual line:\n" << actual;
}

TEST(ReportInvariantTest, UnreadableCountsRejectWithoutThrowing) {
    // The field table accepts any number; the fold/predict invariant needs
    // an unsigned 64-bit one and must reject, not throw, on anything else.
    for (const JsonValue& count : {JsonValue(-1), JsonValue(1e30)}) {
        JsonValue doc = corpusDoc("sim_report");
        for (auto& [key, value] : doc.asObject())
            if (key == "counters") value.set("pipeline.cond_branches", count);
        ReportValidation validation;
        EXPECT_NO_THROW(validation = validateSimReportJson(doc));
        EXPECT_FALSE(validation.ok()) << count.dump();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ReportSchemaTest,
    testing::Values("analysis_adpcm_enc.json", "analysis_g721_enc.json",
                    "fault_adpcm_enc.json", "fault_adpcm_enc_protected.json",
                    "fault_g721_enc.json", "ipa_adpcm_enc.json",
                    "ipa_g721_enc.json", "ipa_jalr_dispatch.json",
                    "sampling_adpcm_enc.json", "sweep_predictors.json",
                    "wcet_adpcm_enc.json", "wcet_g721_enc.json", "sim_report",
                    "bench_report"),
    [](const testing::TestParamInfo<const char*>& info) {
        std::string id = info.param;
        for (char& c : id)
            if (c == '.') c = '_';
        return id;
    });

}  // namespace
}  // namespace asbr
