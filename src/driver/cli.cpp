#include "driver/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "driver/names.hpp"

namespace asbr::driver {

const char* sharedOptionsHelp() {
    return "--quick --seed=N --adpcm=N --g721=N --threads=N --workload=W "
           "--csv --json=FILE --sample=W:M:S --job-timeout=MS "
           "--max-attempts=N --journal=DIR --resume";
}

std::optional<std::uint64_t> parseUnsigned(std::string_view text) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return value;
}

std::string badNumber(std::string_view flag, std::string_view value) {
    return "bad " + std::string(flag) + " value '" + std::string(value) +
           "' (want an unsigned decimal integer below 2^64)";
}

namespace {

/// numArg's core: on a malformed value, sets `error` and yields 0.
std::optional<std::uint64_t> numValue(const std::string& arg,
                                      std::string_view prefix,
                                      std::string& error) {
    if (!arg.starts_with(prefix)) return std::nullopt;
    const std::string_view value = std::string_view(arg).substr(prefix.size());
    const auto parsed = parseUnsigned(value);
    if (!parsed) error = badNumber(prefix.substr(0, prefix.size() - 1), value);
    return parsed.value_or(0);
}

}  // namespace

std::optional<std::uint64_t> numArg(const std::string& arg, const char* prefix,
                                    const char* program) {
    std::string error;
    const auto value = numValue(arg, prefix, error);
    if (!error.empty()) cliFail(program, error);
    return value;
}

bool consumeSharedOption(const std::string& arg, CliOptions& out,
                         std::string& error) {
    error.clear();
    if (arg == "--quick") {
        out.adpcmSamples = 8'000;
        out.g721Samples = 2'000;
        return true;
    }
    if (const auto v = numValue(arg, "--seed=", error)) {
        out.seed = *v;
        return true;
    }
    if (const auto v = numValue(arg, "--adpcm=", error)) {
        out.adpcmSamples = *v;
        return true;
    }
    if (const auto v = numValue(arg, "--g721=", error)) {
        out.g721Samples = *v;
        return true;
    }
    if (const auto v = numValue(arg, "--threads=", error)) {
        out.threads = *v;
        return true;
    }
    if (arg.rfind("--workload=", 0) == 0) {
        const std::string token = arg.substr(11);
        const auto id = benchFromToken(token);
        if (!id) {
            error = "unknown workload '" + token + "' (" + benchTokenList() +
                    ")";
            return true;
        }
        out.workload = *id;
        return true;
    }
    if (arg == "--csv") {
        out.csv = true;
        return true;
    }
    if (const auto v = numValue(arg, "--job-timeout=", error)) {
        out.jobTimeoutMs = *v;
        return true;
    }
    if (const auto v = numValue(arg, "--max-attempts=", error)) {
        if (*v == 0) {
            if (error.empty()) error = "--max-attempts must be >= 1";
            return true;
        }
        out.maxAttempts = *v;
        return true;
    }
    if (arg.rfind("--journal=", 0) == 0) {
        out.journalDir = arg.substr(10);
        if (out.journalDir.empty()) {
            error = "--journal needs a directory (--journal=DIR)";
            return true;
        }
        return true;
    }
    if (arg == "--resume") {
        out.resume = true;
        return true;
    }
    if (arg.rfind("--json=", 0) == 0) {
        out.jsonPath = arg.substr(7);
        return true;
    }
    if (arg.rfind("--sample=", 0) == 0) {
        // --sample=WARMUP:MEASURE:SKIP, instruction counts per sampling unit.
        const std::string spec = arg.substr(9);
        const std::size_t first = spec.find(':');
        const std::size_t second =
            first == std::string::npos ? std::string::npos
                                       : spec.find(':', first + 1);
        std::optional<std::uint64_t> warmup, measure, skip;
        if (second != std::string::npos) {
            const std::string_view view(spec);
            warmup = parseUnsigned(view.substr(0, first));
            measure = parseUnsigned(view.substr(first + 1, second - first - 1));
            skip = parseUnsigned(view.substr(second + 1));
        }
        if (!warmup || !measure || *measure == 0 || !skip) {
            error = "bad --sample spec '" + spec +
                    "' (want WARMUP:MEASURE:SKIP with MEASURE > 0)";
            return true;
        }
        out.sample = SamplingConfig{*warmup, *measure, *skip};
        return true;
    }
    return false;
}

std::optional<SelectionPolicy> policyArg(const std::string& arg,
                                         SelectionPolicy current,
                                         const char* program) {
    if (arg != "--static-folds" && arg != "--predictor-aware")
        return std::nullopt;
    const SelectionPolicy named = arg == "--static-folds"
                                      ? SelectionPolicy::kStaticFolds
                                      : SelectionPolicy::kPredictorAware;
    if (current != SelectionPolicy::kProfiled && current != named)
        cliFail(program, "--static-folds and --predictor-aware are exclusive");
    return named;
}

void cliFail(const char* program, const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", program, message.c_str());
    std::exit(2);
}

void writeOutput(const char* program, const std::string& path,
                 std::string_view text, std::string_view what) {
    bool landed = false;
    if (path == "-") {
        landed = std::fwrite(text.data(), 1, text.size(), stdout) ==
                     text.size() &&
                 std::fflush(stdout) == 0;
    } else {
        std::ofstream out(path, std::ios::binary);
        out.write(text.data(), static_cast<std::streamsize>(text.size()));
        out.close();
        landed = !out.fail();
    }
    if (!landed) {
        const std::string where = path == "-" ? "stdout" : "'" + path + "'";
        std::fprintf(stderr, "%s: cannot write %.*s to %s\n", program,
                     static_cast<int>(what.size()), what.data(), where.c_str());
        std::exit(1);
    }
    if (path != "-")
        std::fprintf(stderr, "wrote %.*s to %s\n",
                     static_cast<int>(what.size()), what.data(), path.c_str());
}

std::size_t samplesFor(const CliOptions& options, BenchId id) {
    const bool heavy =
        id == BenchId::kG721Encode || id == BenchId::kG721Decode;
    const std::size_t want = heavy ? options.g721Samples : options.adpcmSamples;
    return std::min(want, benchMaxSamples(id));
}

}  // namespace asbr::driver
