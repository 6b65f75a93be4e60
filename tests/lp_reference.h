// Dense-LP lowering of the transportation form, shared by the tests that
// hold the network simplex against opt's dense two-phase simplex: one
// variable per edge (objective = profit), Σ ≤ 1 per source, Σ ≤ B(u) per
// sink. Sources or sinks with no edges get no row.
#ifndef P2PCD_TESTS_LP_REFERENCE_H
#define P2PCD_TESTS_LP_REFERENCE_H

#include <utility>
#include <vector>

#include "lp/lp_model.h"
#include "opt/transportation.h"

namespace p2pcd::opt {

inline lp_model as_lp(const transportation_instance& instance) {
    lp_model model(objective_sense::maximize);
    std::vector<std::vector<lp_term>> by_source(instance.num_sources);
    std::vector<std::vector<lp_term>> by_sink(instance.num_sinks());
    for (const auto& e : instance.edges) {
        auto var = model.add_variable(e.profit);
        by_source[e.source].push_back({var, 1.0});
        by_sink[e.sink].push_back({var, 1.0});
    }
    for (auto& terms : by_source)
        if (!terms.empty())
            model.add_constraint(std::move(terms), relation::less_equal, 1.0);
    for (std::size_t u = 0; u < by_sink.size(); ++u)
        if (!by_sink[u].empty())
            model.add_constraint(std::move(by_sink[u]), relation::less_equal,
                                 static_cast<double>(instance.sink_capacity[u]));
    return model;
}

}  // namespace p2pcd::opt

#endif  // P2PCD_TESTS_LP_REFERENCE_H
