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
 * drift. writeJson(x) and readJson(v, path, x, &error) round-trip any of
 * the types below; the describe() declarations also let other wire
 * structs (worker frames, journal records, results, the daemon's status)
 * nest these types in their own field lists. Reading an LpMapping is a
 * structural parse only: callers re-validate it against their graph and
 * arch with mapping::checkMappingValid before evaluating or
 * warm-starting.
 */

#ifndef GEMINI_API_RESULTS_HH
#define GEMINI_API_RESULTS_HH

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

} // namespace gemini::api

#endif // GEMINI_API_RESULTS_HH
