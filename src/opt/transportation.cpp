#include "opt/transportation.h"

#include "common/contracts.h"

namespace p2pcd::opt {

void transportation_instance::validate() const {
    for (std::int64_t cap : sink_capacity)
        expects(cap >= 0, "sink capacity must be non-negative");
    for (const auto& e : edges) {
        expects(e.source < num_sources, "edge source out of range");
        expects(e.sink < sink_capacity.size(), "edge sink out of range");
    }
}

namespace {

struct brute_state {
    const transportation_instance* instance = nullptr;
    std::vector<std::vector<std::size_t>> edges_of_source;
    std::vector<std::int64_t> remaining;
    std::vector<std::ptrdiff_t> choice;
    std::vector<std::ptrdiff_t> best_choice;
    double best_welfare = 0.0;

    void search(std::size_t d, double welfare) {
        if (d == instance->num_sources) {
            if (welfare > best_welfare) {
                best_welfare = welfare;
                best_choice = choice;
            }
            return;
        }
        choice[d] = unassigned;
        search(d + 1, welfare);
        for (std::size_t ei : edges_of_source[d]) {
            const auto& e = instance->edges[ei];
            if (remaining[e.sink] <= 0) continue;
            --remaining[e.sink];
            choice[d] = static_cast<std::ptrdiff_t>(ei);
            search(d + 1, welfare + e.profit);
            choice[d] = unassigned;
            ++remaining[e.sink];
        }
    }
};

}  // namespace

transportation_solution solve_brute_force(const transportation_instance& instance) {
    instance.validate();
    expects(instance.num_sources <= 12, "brute force is exponential; use solve_transportation_simplex");

    brute_state st;
    st.instance = &instance;
    st.edges_of_source.resize(instance.num_sources);
    for (std::size_t i = 0; i < instance.edges.size(); ++i)
        st.edges_of_source[instance.edges[i].source].push_back(i);
    st.remaining = instance.sink_capacity;
    st.choice.assign(instance.num_sources, unassigned);
    st.best_choice = st.choice;
    st.search(0, 0.0);

    transportation_solution sol;
    sol.edge_of_source = st.best_choice;
    sol.welfare = st.best_welfare;
    // The brute-force solver is primal-only; duals are not produced.
    sol.sink_price.assign(instance.num_sinks(), 0.0);
    sol.source_utility.assign(instance.num_sources, 0.0);
    return sol;
}

}  // namespace p2pcd::opt
