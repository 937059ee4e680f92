/**
 * @file
 * Structured result output. RunRecords and Tables serialize to JSON (for
 * machine consumption: CI artifacts, plotting pipelines) and CSV, alongside
 * the existing aligned-text Table rendering. The JSON writer is hand-rolled
 * (the toolchain bakes in no JSON library) but escapes strings properly and
 * emits round-trippable full-precision doubles.
 */
#ifndef SMARTINF_EXP_RESULT_IO_H
#define SMARTINF_EXP_RESULT_IO_H

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.h"
#include "exp/run_spec.h"

namespace smartinf::exp {

/** Escape a string for inclusion in a JSON document (adds no quotes). */
std::string jsonEscape(const std::string &s);

/** Format a double round-trippably ("1e99"-safe, max_digits10). */
std::string jsonNumber(double v);

/**
 * The spec echo without its label: exactly the fields that can shape the
 * spec's simulated result, each written only while it is active (e.g. no
 * training block on a serving spec, no fault knobs while faults are off).
 * RunSpec::hash() is FNV-1a over these bytes, so two specs share a hash
 * (and a cached result) exactly when their canonical echoes match.
 * Non-finite numbers are written as the strings "inf", "-inf" and "nan".
 */
std::string canonicalSpecJson(const RunSpec &spec);

/** One record as a JSON object: spec (label + canonicalSpecJson()), hash,
 *  engine, phases, traffic. */
void writeRecordJson(std::ostream &os, const RunRecord &record);

/** A record array: [{...}, ...]. */
void writeRecordsJson(std::ostream &os,
                      const std::vector<RunRecord> &records);

/** One table as {"title", "header", "rows"}. */
void writeTableJson(std::ostream &os, const Table &table);

/** Records as flat CSV (one header line + one line per record). */
void writeRecordsCsv(std::ostream &os,
                     const std::vector<RunRecord> &records);

} // namespace smartinf::exp

#endif // SMARTINF_EXP_RESULT_IO_H
