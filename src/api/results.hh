/**
 * @file
 * JSON round trips for the co-exploration result types. Exported results
 * are self-contained: a DseResult JSON carries every record's full
 * ArchConfig and an LpMapping JSON carries the complete spatial-mapping
 * encoding, so a best mapping can be shipped to another process (or
 * committed as a golden file) and later re-evaluated bit-identically or
 * warm-started via MappingEngine::runFrom.
 *
 * Wire conventions: snake_case keys; infinities (objectives of
 * infeasible candidates) are spelled `null` — JSON has no Inf — and read
 * back as +infinity; readers reject unknown keys with "path.key: reason"
 * messages like the spec reader does.
 *
 * Each type's wire form is written down once, as the field list of its
 * describe() (see api/json_reader.hh): the writer emits the keys in list
 * order and the reader accepts exactly those keys, so the two cannot
 * drift. The xToJson / xFromJson functions below are thin wrappers over
 * writeJson / readJson; the describe() declarations let other wire
 * structs (worker frames, journal records, results, the daemon's status)
 * nest these types in their own field lists.
 */

#ifndef GEMINI_API_RESULTS_HH
#define GEMINI_API_RESULTS_HH

#include <string>

#include "src/api/json_reader.hh"
#include "src/arch/arch_config.hh"
#include "src/common/json.hh"
#include "src/cost/mc_evaluator.hh"
#include "src/dse/dse.hh"
#include "src/eval/breakdown.hh"
#include "src/mapping/encoding.hh"
#include "src/mapping/engine.hh"

namespace gemini::api {

// Field lists, instantiated in results.cc for ObjectReader and
// ObjectWriter.
template <class Io> void describe(Io &io, arch::ArchConfig &x);
template <class Io> void describe(Io &io, eval::EvalBreakdown &x);
template <class Io> void describe(Io &io, cost::CostBreakdown &x);
template <class Io> void describe(Io &io, mapping::LpMapping &x);
template <class Io> void describe(Io &io, mapping::MappingResult &x);
template <class Io> void describe(Io &io, dse::DseStats &x);
template <class Io> void describe(Io &io, dse::DseResult &x);

// ---- ArchConfig -----------------------------------------------------------

common::json::Value archConfigToJson(const arch::ArchConfig &cfg);
bool archConfigFromJson(const common::json::Value &v,
                        const std::string &path, arch::ArchConfig &out,
                        std::string *error);

// ---- EvalBreakdown --------------------------------------------------------

common::json::Value evalBreakdownToJson(const eval::EvalBreakdown &b);
bool evalBreakdownFromJson(const common::json::Value &v,
                           const std::string &path, eval::EvalBreakdown &out,
                           std::string *error);

// ---- CostBreakdown (MC) ---------------------------------------------------

common::json::Value costBreakdownToJson(const cost::CostBreakdown &b);
bool costBreakdownFromJson(const common::json::Value &v,
                           const std::string &path, cost::CostBreakdown &out,
                           std::string *error);

// ---- LpMapping ------------------------------------------------------------

common::json::Value lpMappingToJson(const mapping::LpMapping &m);

/**
 * Structural parse only — callers re-validate against their graph/arch
 * with mapping::checkMappingValid before evaluating or warm-starting.
 */
bool lpMappingFromJson(const common::json::Value &v, const std::string &path,
                       mapping::LpMapping &out, std::string *error);

// ---- MappingResult --------------------------------------------------------

common::json::Value mappingResultToJson(const mapping::MappingResult &r);
bool mappingResultFromJson(const common::json::Value &v,
                           const std::string &path,
                           mapping::MappingResult &out, std::string *error);

// ---- DseResult ------------------------------------------------------------

common::json::Value dseResultToJson(const dse::DseResult &r);
bool dseResultFromJson(const common::json::Value &v, const std::string &path,
                       dse::DseResult &out, std::string *error);

} // namespace gemini::api

#endif // GEMINI_API_RESULTS_HH
