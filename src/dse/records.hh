/**
 * @file
 * Exploration-record export: the paper's DSE emits a result.csv per run
 * (Appendix E); this writes the equivalent table for a DseResult so runs
 * can be compared/plotted outside the framework. One canonical writer
 * serves the benches and examples (DseResult::writeCsv), including the
 * normalized Fig. 6 scatter columns and the multi-fidelity scheduler's
 * per-candidate rung columns; the per-rung DseStats summary has its own
 * table.
 */

#ifndef GEMINI_DSE_RECORDS_HH
#define GEMINI_DSE_RECORDS_HH

#include "src/common/csv.hh"
#include "src/dse/dse.hh"

namespace gemini::dse {

/**
 * Build the result table (one row per evaluated candidate). Includes
 * norm_edp / norm_mc relative to the winning record (0 when no winner)
 * and the scheduler columns (rung, pruned_bound, obj_lower_bound,
 * sa_iters, eval_seconds).
 */
CsvTable recordsTable(const DseResult &result);

/** Build the per-rung scheduler-statistics table. */
CsvTable rungStatsTable(const DseStats &stats);

} // namespace gemini::dse

#endif // GEMINI_DSE_RECORDS_HH
