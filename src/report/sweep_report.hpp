// asbr.sweep_report — the schema-versioned result of one asbr-sweep batch:
// a parameter-grid cross-product of simulation runs executed by the driver
// engine, with an explicit per-cell status.
//
// Version 2 (docs/metrics.md, docs/robustness.md) restructured the document
// around durable execution:
//   * `runs` became `cells`: one object per grid point in submission order,
//     each carrying the engine job key, a `status` ("ok" | "failed"), the
//     attempt count, and either the embedded asbr.sim_report (`report`) or
//     the quarantine reason (`error`).
//   * a `failed_jobs` summary array lists the quarantined cells so graders
//     and CI can grep one place.
//   * the v1 `engine` counter block was dropped: cache hits and jobs-run
//     depend on how much work a resumed journal skipped, and the document
//     must stay byte-identical between a one-shot run and any kill/resume
//     sequence (engine counters still go to stderr).
//
// Like the other report kinds, the document is produced through exactly one
// code path (driver::sweepReportJson, which serializes the engine's cells)
// and validated by an executable schema checker.  Nothing in the
// document depends on thread count, scheduling or host time, so the same
// sweep serializes byte-identically at --threads=1 and --threads=8 and
// across resume boundaries (the determinism tests diff whole files).
#pragma once

#include <cstdint>

#include "report/report.hpp"
#include "util/json.hpp"

namespace asbr {

inline constexpr const char* kSweepReportSchema = "asbr.sweep_report";
/// Sweep documents version independently of the base kReportSchemaVersion:
/// v2 introduced cells/failed_jobs (PR 8) without touching other schemas.
inline constexpr std::uint64_t kSweepReportVersion = 2;

/// Schema validation; shares ReportValidation with the other report kinds.
[[nodiscard]] ReportValidation validateSweepReportJson(const JsonValue& doc);

}  // namespace asbr
