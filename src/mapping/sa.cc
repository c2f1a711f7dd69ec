#include "src/mapping/sa.hh"

#include <algorithm>
#include <cmath>

#include "src/common/logging.hh"
#include "src/mapping/operators.hh"
#include "src/mapping/space.hh"

namespace gemini::mapping {

SaEngine::SaEngine(const dnn::Graph &graph, const arch::ArchConfig &arch,
                   Analyzer &analyzer, const cost::CostStack &costs)
    : graph_(graph), arch_(arch), analyzer_(analyzer), costs_(costs)
{
}

eval::EvalBreakdown
SaEngine::analyzeOne(const LpMapping &mapping, std::size_t group) const
{
    auto lookup = [&mapping](LayerId layer) {
        return mapping.ofmapDramOf(layer);
    };
    // Fused fast path: merges cached per-layer fragments straight into
    // the breakdown (no TrafficMap materialization per proposal).
    return analyzer_.evaluateGroup(mapping.groups[group], mapping.batch,
                                   lookup, costs_);
}

std::vector<eval::EvalBreakdown>
SaEngine::evaluateAll(const LpMapping &mapping) const
{
    std::vector<eval::EvalBreakdown> out;
    out.reserve(mapping.groups.size());
    for (std::size_t g = 0; g < mapping.groups.size(); ++g)
        out.push_back(analyzeOne(mapping, g));
    return out;
}

std::uint64_t
SaEngine::chainSeed(std::uint64_t seed, int chain)
{
    if (chain == 0)
        return seed;
    std::uint64_t z =
        seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(chain);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::vector<eval::EvalBreakdown>
SaEngine::optimize(LpMapping &mapping, const SaOptions &options,
                   SaStats *stats)
{
    GEMINI_ASSERT(!mapping.groups.empty(), "cannot optimize empty mapping");
    Rng rng(options.seed);
    const std::size_t n_groups = mapping.groups.size();

    std::vector<eval::EvalBreakdown> evals = evaluateAll(mapping);

    // Incremental cost accumulator: the objective is
    // (sum_g E_g*p_g)^beta * (sum_g D_g*p_g)^gamma, so holding each
    // group's penalized contribution plus the two running sums lets a move
    // re-cost in O(touched) instead of O(groups).
    std::vector<double> contrib_e(n_groups), contrib_d(n_groups);
    double sum_e = 0.0, sum_d = 0.0;
    // Rebuilds the accumulator from every group: at the start and after
    // a basin hop only.
    const auto rebuild_sums = [&] {
        sum_e = 0.0;
        sum_d = 0.0;
        for (std::size_t g = 0; g < n_groups; ++g) {
            cost::CostStack::saContribution(evals[g], contrib_e[g],
                                            contrib_d[g]);
            sum_e += contrib_e[g];
            sum_d += contrib_d[g];
        }
        return cost::CostStack::saScalar(sum_e, sum_d, options.beta,
                                         options.gamma);
    };
    double current_cost = rebuild_sums();

    SaStats local;
    local.initialCost = current_cost;

    // Track the best state seen: Metropolis walks may end uphill, but the
    // engine always returns the best explored scheme. Only groups dirtied
    // since the last snapshot are copied on improvement (copy-on-improve),
    // replacing the whole-mapping deep copy of the original hot path.
    LpMapping best_mapping = mapping;
    std::vector<eval::EvalBreakdown> best_evals = evals;
    double best_cost = current_cost;
    std::vector<char> dirty(n_groups, 0);
    std::vector<std::size_t> dirty_groups;

    // Group-selection weights: proportional to the log-domain size of each
    // group's optimization space (see DESIGN.md for why log: raw sizes are
    // 10^100+ and would degenerate to always picking the largest group).
    std::vector<double> weights(n_groups);
    for (std::size_t g = 0; g < n_groups; ++g) {
        const auto &grp = mapping.groups[g];
        const double lg = log10SpaceSize(
            static_cast<std::int64_t>(grp.totalCores()),
            static_cast<std::int64_t>(grp.layers.size()));
        weights[g] = std::isfinite(lg) ? std::max(1.0, lg) : 1.0;
    }

    // Which groups read a given layer's ofmap from DRAM (OP5 coupling):
    // layer l's sorted, distinct consumer groups are consumer_groups
    // [consumer_begin[l], consumer_begin[l + 1]). SA operators never
    // change group membership, so this table is computed once per run;
    // it would only need invalidation if an operator ever moved a layer
    // across groups.
    std::vector<std::size_t> consumer_begin(graph_.size() + 1, 0);
    std::vector<std::size_t> consumer_groups;
    for (std::size_t l = 0; l < graph_.size(); ++l) {
        const auto first =
            static_cast<std::ptrdiff_t>(consumer_groups.size());
        for (LayerId consumer :
             graph_.consumers(static_cast<LayerId>(l))) {
            const int cg = mapping.groupOf(consumer);
            if (cg >= 0)
                consumer_groups.push_back(static_cast<std::size_t>(cg));
        }
        std::sort(consumer_groups.begin() + first, consumer_groups.end());
        consumer_groups.erase(std::unique(consumer_groups.begin() + first,
                                          consumer_groups.end()),
                              consumer_groups.end());
        consumer_begin[l + 1] = consumer_groups.size();
    }

    // Enabled-operator list (ablation support).
    std::vector<SaOperator> ops;
    for (int op = 0; op < kNumSaOperators; ++op)
        if (options.operatorEnabled(op))
            ops.push_back(static_cast<SaOperator>(op));
    GEMINI_ASSERT(!ops.empty(), "operatorMask disables every SA operator");

    // Hoisted per-iteration buffers: assignment reuses their capacity, so
    // the steady-state loop allocates nothing on the reject path. The undo
    // log snapshots only the (at most two) schemes an operator mutates,
    // replacing the whole-group deep copy per proposal.
    SchemeUndoLog undo;
    std::vector<std::size_t> touched;
    std::vector<eval::EvalBreakdown> saved_evals;
    std::vector<double> new_contrib_e, new_contrib_d;
    touched.reserve(n_groups);
    saved_evals.reserve(n_groups);
    new_contrib_e.reserve(n_groups);
    new_contrib_d.reserve(n_groups);

    const int reheat_interval =
        options.reheatInterval < 0
            ? std::max(64, options.iterations / 8)
            : options.reheatInterval;
    int since_best = 0;
    // Plateau counter: reset only by a new global best, never by a basin
    // hop — reheats consume since_best, so a separate counter is needed
    // for a chain that keeps hopping without ever improving.
    int since_improve = 0;
    int iters_run = 0;

    const double t_ratio =
        options.tEnd / std::max(options.tStart, 1e-12);
    for (int iter = 0; iter < options.iterations; ++iter) {
        if (options.plateauWindow > 0 &&
            since_improve >= options.plateauWindow)
            break;
        ++iters_run;
        if (reheat_interval > 0 && since_best >= reheat_interval) {
            // Basin hop: resume the walk from the best state. Only groups
            // that drifted from the snapshot need restoring.
            for (std::size_t t : dirty_groups) {
                mapping.groups[t] = best_mapping.groups[t];
                evals[t] = best_evals[t];
                dirty[t] = 0;
            }
            dirty_groups.clear();
            current_cost = rebuild_sums();
            since_best = 0;
        }
        const double progress =
            options.iterations > 1
                ? static_cast<double>(iter) / (options.iterations - 1)
                : 1.0;
        const double temp = options.tStart * std::pow(t_ratio, progress);

        const std::size_t g = rng.nextWeighted(weights);
        const SaOperator op = ops[static_cast<std::size_t>(
            rng.nextInt(static_cast<std::int64_t>(ops.size())))];
        ++local.proposed;
        ++since_best;
        ++since_improve;

        undo.reset();
        const OperatorEffect eff =
            applyOperator(op, mapping.groups[g], graph_, arch_, rng, &undo);
        if (!eff.applied) {
            ++local.inapplicable;
            continue;
        }

        // Incremental re-evaluation: the touched group, plus any groups
        // whose DRAM source changed via an FD.OF redraw.
        touched.clear();
        touched.push_back(g);
        if (eff.ofmapFlowChanged) {
            const auto l = static_cast<std::size_t>(eff.ofmapLayer);
            for (std::size_t k = consumer_begin[l]; k < consumer_begin[l + 1];
                 ++k)
                if (consumer_groups[k] != g)
                    touched.push_back(consumer_groups[k]);
        }
        saved_evals.clear();
        for (std::size_t t : touched) {
            saved_evals.push_back(evals[t]);
            evals[t] = analyzeOne(mapping, t);
        }

        double new_sum_e = sum_e, new_sum_d = sum_d;
        new_contrib_e.clear();
        new_contrib_d.clear();
        for (std::size_t t : touched) {
            double e, d;
            cost::CostStack::saContribution(evals[t], e, d);
            new_contrib_e.push_back(e);
            new_contrib_d.push_back(d);
            new_sum_e += e - contrib_e[t];
            new_sum_d += d - contrib_d[t];
        }
        const double new_cost = cost::CostStack::saScalar(
            new_sum_e, new_sum_d, options.beta, options.gamma);
        const double delta = (new_cost - current_cost) /
                             std::max(current_cost, 1e-300);
        bool accept = delta < 0.0;
        if (!accept && temp > 0.0)
            accept = rng.nextDouble() < std::exp(-delta / temp);

        if (accept) {
            ++local.accepted;
            if (delta < 0.0)
                ++local.improved;
            current_cost = new_cost;
            sum_e = new_sum_e;
            sum_d = new_sum_d;
            for (std::size_t i = 0; i < touched.size(); ++i) {
                contrib_e[touched[i]] = new_contrib_e[i];
                contrib_d[touched[i]] = new_contrib_d[i];
            }
            for (std::size_t t : touched) {
                if (!dirty[t]) {
                    dirty[t] = 1;
                    dirty_groups.push_back(t);
                }
            }
            if (new_cost < best_cost) {
                best_cost = new_cost;
                for (std::size_t t : dirty_groups) {
                    best_mapping.groups[t] = mapping.groups[t];
                    best_evals[t] = evals[t];
                    dirty[t] = 0;
                }
                dirty_groups.clear();
                since_best = 0;
                since_improve = 0;
                local.bestIteration = iter;
            }
        } else {
            undo.restore(mapping.groups[g]);
            for (std::size_t t = 0; t < touched.size(); ++t)
                evals[touched[t]] = saved_evals[t];
        }
    }

    mapping = std::move(best_mapping);
    local.finalCost = best_cost;
    local.itersRun = iters_run;
    if (stats)
        *stats = local;
    return best_evals;
}

} // namespace gemini::mapping
