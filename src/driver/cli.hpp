// Shared command-line plumbing for every driver-backed binary.
//
// The bench/ table regenerators and the asbr-stats / asbr-faults /
// asbr-sweep CLIs all accept the same set of shared options; previously each
// binary re-implemented the parsing loop.  consumeSharedOption() handles one
// argument; binaries keep their own loop for tool-specific flags and call
// cliFail() for anything unrecognized, producing the one-line structured
// error style the CLI-hardening tests enforce:
//
//   <program>: unknown option '--frob' (try --help)
//
// Every report, trace or dump a tool emits goes through writeOutput(), so a
// write that does not land fails the command the same way everywhere.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "profile/selection.hpp"
#include "sim/sampling.hpp"
#include "workloads/workloads.hpp"

namespace asbr::driver {

/// Options every driver-backed binary understands:
///   --quick        small inputs (CI-speed smoke run)
///   --seed=N       input generator seed
///   --adpcm=N      ADPCM sample count
///   --g721=N       G.721 sample count
///   --threads=N    engine worker count (0 = hardware concurrency)
///   --workload=W   restrict to one workload (token, e.g. g721-enc)
///   --csv          additionally print tables as CSV
///   --json=FILE    write the machine-readable report ("-" = stdout)
///   --sample=W:M:S sampled simulation: warmup/measure/skip instructions
///                  per window (docs/simulation.md)
///   --job-timeout=MS  per-job wall-clock watchdog (docs/robustness.md)
///   --max-attempts=N  bounded retry before a job fails/quarantines
///   --journal=DIR  write-ahead job journal (asbr-sweep, asbr-faults
///                  campaign; other tools reject it with a clear error)
///   --resume       resume a --journal=DIR left by an earlier run
struct CliOptions {
    std::size_t adpcmSamples = 100'000;
    std::size_t g721Samples = 20'000;
    std::uint64_t seed = 2001;
    std::size_t threads = 1;
    std::optional<BenchId> workload;  ///< --workload= filter; nullopt = all
    bool csv = false;
    std::string jsonPath;  ///< empty = no JSON export; "-" = stdout
    std::optional<SamplingConfig> sample;  ///< --sample= window geometry
    std::string journalDir;          ///< --journal=DIR; empty = no journal
    bool resume = false;             ///< --resume (requires --journal)
    std::uint64_t jobTimeoutMs = 0;  ///< --job-timeout=MS; 0 = no watchdog
    std::uint64_t maxAttempts = 1;   ///< --max-attempts=N; >= 1
};

/// Help-text fragment describing the shared options (one line, no newline).
[[nodiscard]] const char* sharedOptionsHelp();

/// Strict unsigned decimal: one or more digits and nothing else (no sign,
/// space or trailing text), within 64 bits.  nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parseUnsigned(std::string_view text);

/// The one-line diagnostic for a `flag` whose value is not parseUnsigned.
[[nodiscard]] std::string badNumber(std::string_view flag,
                                    std::string_view value);

/// Numeric "--prefix=N" argument; nullopt when `arg` does not start with
/// `prefix`.  A malformed N is a bad command line: cliFail(program, ...).
[[nodiscard]] std::optional<std::uint64_t> numArg(const std::string& arg,
                                                  const char* prefix,
                                                  const char* program);

/// Try to consume `arg` as one of the shared options.  Returns true when the
/// argument was recognized; a recognized-but-invalid value (e.g.
/// --workload=quake3) also returns true and sets `error` to a one-line
/// diagnostic the caller must report (via cliFail or its own prefix).
[[nodiscard]] bool consumeSharedOption(const std::string& arg, CliOptions& out,
                                       std::string& error);

/// "--static-folds" / "--predictor-aware": the selection policy the flag
/// names; nullopt for any other argument.  Naming a policy other than a
/// non-default `current` one is a bad command line: cliFail(program, ...).
[[nodiscard]] std::optional<SelectionPolicy> policyArg(
    const std::string& arg, SelectionPolicy current, const char* program);

/// Print "<program>: <message>" to stderr and exit(2) — the uniform
/// structured rejection for bad command lines.
[[noreturn]] void cliFail(const char* program, const std::string& message);

/// Write `text` to `path` ("-" = stdout) and flush it.  A file write also
/// notes "wrote <what> to <path>" on stderr.  When the bytes did not land
/// (unopenable path, full device, closed stdout) it prints
/// "<program>: cannot write <what> to '<path>'" (or "to stdout") and exits
/// 1.
void writeOutput(const char* program, const std::string& path,
                 std::string_view text, std::string_view what);

/// Samples to feed a given workload under these options (capped at the
/// program's buffer capacity).
[[nodiscard]] std::size_t samplesFor(const CliOptions& options, BenchId id);

}  // namespace asbr::driver
