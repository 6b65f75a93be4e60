#include "lp/duality.h"

#include <sstream>

#include "common/contracts.h"

namespace p2pcd::opt {

namespace {

std::vector<std::int64_t> sink_usage(const transportation_instance& instance,
                                     const std::vector<std::ptrdiff_t>& edge_of_source) {
    std::vector<std::int64_t> used(instance.num_sinks(), 0);
    for (std::size_t d = 0; d < edge_of_source.size(); ++d) {
        std::ptrdiff_t ei = edge_of_source[d];
        if (ei == unassigned) continue;
        expects(ei >= 0 && static_cast<std::size_t>(ei) < instance.edges.size(),
                "assignment references unknown edge");
        expects(instance.edges[static_cast<std::size_t>(ei)].source == d,
                "assignment edge does not belong to this source");
        ++used[instance.edges[static_cast<std::size_t>(ei)].sink];
    }
    return used;
}

}  // namespace

bool primal_feasible(const transportation_instance& instance,
                     const std::vector<std::ptrdiff_t>& edge_of_source) {
    expects(edge_of_source.size() == instance.num_sources,
            "assignment size must match source count");
    auto used = sink_usage(instance, edge_of_source);
    for (std::size_t u = 0; u < used.size(); ++u)
        if (used[u] > instance.sink_capacity[u]) return false;
    return true;
}

double welfare_of(const transportation_instance& instance,
                  const std::vector<std::ptrdiff_t>& edge_of_source) {
    double total = 0.0;
    for (std::ptrdiff_t ei : edge_of_source)
        if (ei != unassigned) total += instance.edges[static_cast<std::size_t>(ei)].profit;
    return total;
}

bool dual_feasible(const transportation_instance& instance,
                   const std::vector<double>& sink_price,
                   const std::vector<double>& source_utility, double tol) {
    expects(sink_price.size() == instance.num_sinks(), "sink price vector size mismatch");
    expects(source_utility.size() == instance.num_sources,
            "source utility vector size mismatch");
    for (double lambda : sink_price)
        if (lambda < -tol) return false;
    for (double eta : source_utility)
        if (eta < -tol) return false;
    for (const auto& e : instance.edges)
        if (source_utility[e.source] + sink_price[e.sink] < e.profit - tol) return false;
    return true;
}

double duality_gap(const transportation_instance& instance,
                   const transportation_solution& solution) {
    double dual_obj = 0.0;
    for (std::size_t u = 0; u < instance.num_sinks(); ++u)
        dual_obj += static_cast<double>(instance.sink_capacity[u]) * solution.sink_price[u];
    for (double eta : solution.source_utility) dual_obj += eta;
    return dual_obj - welfare_of(instance, solution.edge_of_source);
}

std::vector<std::string> complementary_slackness_violations(
    const transportation_instance& instance, const transportation_solution& solution,
    double epsilon, double tol) {
    std::vector<std::string> violations;
    auto used = sink_usage(instance, solution.edge_of_source);

    // Condition 1: positive price implies saturated capacity.
    for (std::size_t u = 0; u < instance.num_sinks(); ++u) {
        if (solution.sink_price[u] > tol && used[u] < instance.sink_capacity[u]) {
            std::ostringstream os;
            os << "sink " << u << " has price " << solution.sink_price[u]
               << " but spare capacity (" << used[u] << "/" << instance.sink_capacity[u]
               << ")";
            violations.push_back(os.str());
        }
    }

    // Condition 2: an assigned edge must deliver the source's best margin
    // (within ε): profit − λ_u ≥ η_d − ε, where η_d = max margin.
    for (std::size_t d = 0; d < instance.num_sources; ++d) {
        std::ptrdiff_t ei = solution.edge_of_source[d];
        if (ei == unassigned) continue;
        const auto& e = instance.edges[static_cast<std::size_t>(ei)];
        double margin = e.profit - solution.sink_price[e.sink];
        if (margin < solution.source_utility[d] - epsilon - tol) {
            std::ostringstream os;
            os << "source " << d << " assigned margin " << margin
               << " below its utility " << solution.source_utility[d] << " - epsilon";
            violations.push_back(os.str());
        }
    }

    // Condition 3: positive source utility implies the source is assigned.
    for (std::size_t d = 0; d < instance.num_sources; ++d) {
        if (solution.source_utility[d] > epsilon + tol &&
            solution.edge_of_source[d] == unassigned) {
            std::ostringstream os;
            os << "source " << d << " has utility " << solution.source_utility[d]
               << " but is unassigned";
            violations.push_back(os.str());
        }
    }
    return violations;
}

}  // namespace p2pcd::opt
