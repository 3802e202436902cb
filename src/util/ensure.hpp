// Runtime invariant checking.
//
// ASBR_ENSURE is used for preconditions and internal invariants across the
// library.  Violations throw (never abort) so that tests can assert on
// failure paths and embedding applications can recover.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace asbr {

/// Thrown when a library precondition or internal invariant is violated.
class EnsureError : public std::logic_error {
public:
    explicit EnsureError(const std::string& what) : std::logic_error(what) {}
    /// `what` names the failing check's source location in the
    /// `locationSize` characters from `locationAt` (ASBR_ENSURE's " at
    /// <file>:<line>").
    EnsureError(const std::string& what, std::size_t locationAt,
                std::size_t locationSize)
        : std::logic_error(what),
          locationAt_(locationAt),
          locationSize_(locationSize) {}

    /// what() without the source location, so a record that keeps it (a
    /// fault report's `detail`) does not change when code moves.
    [[nodiscard]] std::string withoutLocation() const {
        return std::string(what()).erase(locationAt_, locationSize_);
    }

private:
    std::size_t locationAt_ = 0;
    std::size_t locationSize_ = 0;
};

/// Thrown when a simulation exceeds its cycle/instruction watchdog bound.
/// Part of the EnsureError family so existing catch sites keep working, but
/// distinguishable: fault campaigns classify it as a hang, not a failure of
/// the simulator itself.
class SimTimeoutError : public EnsureError {
public:
    explicit SimTimeoutError(const std::string& what) : EnsureError(what) {}
};

/// Thrown by the per-job wall-clock watchdog (driver::Deadline).  NOT a
/// SimTimeoutError on purpose: a simulated hang (cycle bound) is a property
/// of the simulated machine and fault campaigns classify it as such, while a
/// wall-clock timeout is a property of the host run — the durable engine
/// retries and eventually quarantines the job instead.
class JobTimeoutError : public EnsureError {
public:
    explicit JobTimeoutError(const std::string& what) : EnsureError(what) {}
};

/// Thrown when a cooperative interrupt (SIGINT/SIGTERM checkpoint) asks an
/// in-flight job to stop.  The durable engine drops the attempt without
/// recording a failure — a resumed journal re-runs the job from scratch.
class JobInterruptedError : public EnsureError {
public:
    explicit JobInterruptedError(const std::string& what) : EnsureError(what) {}
};

/// The one structured shape every watchdog message uses:
///   "<what> watchdog: run exceeded the configured <unit> bound of N <units>"
/// Shared by the functional ISS (instructions), the pipeline (cycles) and
/// the per-job wall clock (ms) so timeouts read identically everywhere a
/// tool reports them (asbr-faults replay, sampled runs, quarantine errors).
[[nodiscard]] inline std::string watchdogMessage(const char* what,
                                                 const char* unit,
                                                 std::uint64_t bound,
                                                 const char* suffix) {
    return std::string(what) + " watchdog: run exceeded the configured " +
           unit + " bound of " + std::to_string(bound) + " " + suffix;
}

namespace detail {
[[noreturn]] inline void ensureFail(const char* expr, const char* file, int line,
                                    const std::string& msg) {
    // Name library files from the tree's src/ on, so a message (and the
    // fault-report goldens that record them) does not depend on where the
    // tree was checked out.
    std::string_view where(file);
    if (const auto at = where.rfind("/src/"); at != std::string_view::npos)
        where.remove_prefix(at + 1);
    std::ostringstream os;
    os << "ASBR_ENSURE failed: (" << expr << ")";
    const auto locationAt = static_cast<std::size_t>(os.tellp());
    os << " at " << where << ':' << line;
    const auto locationSize =
        static_cast<std::size_t>(os.tellp()) - locationAt;
    if (!msg.empty()) os << " — " << msg;
    throw EnsureError(os.str(), locationAt, locationSize);
}
}  // namespace detail

}  // namespace asbr

/// Check a precondition/invariant; throws asbr::EnsureError when false.
#define ASBR_ENSURE(expr, msg)                                              \
    do {                                                                    \
        if (!(expr)) ::asbr::detail::ensureFail(#expr, __FILE__, __LINE__,  \
                                                std::string(msg));          \
    } while (0)
