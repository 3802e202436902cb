// One checker for every schema-versioned report.
//
// Each report kind is described in schema.cpp by a table of field entries
// plus one short function for the cross-field invariants a table cannot
// state (counts that must match array lengths, booleans that restate
// numbers, ...).  A field entry pairs a path with a check:
//
//   {"bounds.baseline.cycles", kNumber}   nested object members
//   {"branches[].direction", oneOf(...)}  every element of an array
//   {"counters.*", kNumber}               every member of an object
//   {"meta.{seed,samples}", kNumber}      each member of a group (a group's
//                                         names may contain dots)
//   {"reference?.cycles", kNumber}        skipped when `reference` is absent
//
// Every intermediate step must exist and have the right kind (an object, or
// an array before `[]`), so a table need not list the containers.  The
// engine reports one `<schema>: <path> missing or not <what>` error per
// violated entry; the invariants run only on documents whose fields all
// conform, so they may read any field the table guarantees.
#pragma once

#include <cstdint>
#include <string_view>

#include "report/report.hpp"
#include "util/json.hpp"

namespace asbr {

/// One report kind, as `asbr-stats validate` dispatches on it.
struct ReportSchema {
    const char* id;          ///< the document's "schema" member
    std::uint64_t version;   ///< the version this tree writes and accepts
    ReportValidation (*validate)(const JsonValue& doc);
};

/// The report kind whose "schema" member is `id`; nullptr when unknown.
[[nodiscard]] const ReportSchema* findReportSchema(std::string_view id);

}  // namespace asbr
