#include "src/cost/cost_stack.hh"

#include <algorithm>
#include <cmath>

namespace gemini::cost {

CostStack::CostStack(const arch::ArchConfig &cfg,
                     const arch::TechParams &tech, CostParams mc_params)
    : energy_(cfg, tech), mc_(std::move(mc_params))
{
    if (cfg.topology == arch::Topology::HierarchicalNop)
        nopSerJPerByte_ = tech.nopSerializationJPerByte;
}

void
CostStack::saContribution(const eval::EvalBreakdown &g, double &energy,
                          double &delay)
{
    const double penalty = (1.0 + g.glbOverflow) * (1.0 + g.glbOverflow);
    energy = g.totalEnergy() * penalty;
    delay = g.delay * penalty;
}

double
CostStack::saScalar(double energy, double delay, double beta, double gamma)
{
    return std::pow(energy, beta) * std::pow(delay, gamma);
}

double
CostStack::saCost(const std::vector<eval::EvalBreakdown> &groups,
                  double beta, double gamma)
{
    double energy = 0.0;
    double delay = 0.0;
    for (const auto &g : groups) {
        double e, d;
        saContribution(g, e, d);
        energy += e;
        delay += d;
    }
    return saScalar(energy, delay, beta, gamma);
}

double
CostStack::dseObjective(double mc_total, double energy_geo,
                        double delay_geo, double alpha, double beta,
                        double gamma)
{
    return std::pow(mc_total, alpha) * std::pow(energy_geo, beta) *
           std::pow(delay_geo, gamma);
}

double
CostStack::dseObjectiveLowerBound(
    const noc::InterconnectModel &noc,
    const std::vector<const dnn::Graph *> &models, std::int64_t batch,
    double mc_total, double alpha, double beta, double gamma,
    int maxGroupLayers, BoundComponents *components) const
{
    if (alpha < 0.0 || beta < 0.0 || gamma < 0.0)
        return 0.0; // bound only monotone for non-negative exponents
    GEMINI_ASSERT(noc.config() == config(),
                  "the bound's interconnect models another architecture");
    const AnalyticBoundResult lb = analyticLowerBound(
        noc, energy_.tech(), models, batch, maxGroupLayers);
    if (components != nullptr)
        *components = lb.components;
    return kBoundSlack * dseObjective(mc_total, lb.energyGeoJoules,
                                      lb.delayGeoSeconds, alpha, beta,
                                      gamma);
}

} // namespace gemini::cost
