// Writes the paper's primal (1) and dual (5) LITERALLY as LPs and checks,
// via the simplex, the chain the whole reproduction rests on:
//   LP relaxation of (1)  ==  integer optimum (total unimodularity)
//                         ==  auction welfare (within n·ε)
//   simplex shadow prices ==  feasible (λ, η) with zero duality gap.
#include <gtest/gtest.h>

#include <cmath>

#include "core/auction.h"
#include "core/exact.h"
#include "core/welfare.h"
#include "lp/duality.h"
#include "lp/lp_model.h"
#include "lp/simplex.h"
#include "workload/instance_gen.h"

namespace p2pcd {
namespace {

// Builds problem (1): max Σ a·(v−w) s.t. per-uploader capacity, per-request
// uniqueness, a ∈ [0,1] (the binary constraint relaxed).
struct primal_lp {
    opt::lp_model model{opt::objective_sense::maximize};
    std::vector<std::size_t> capacity_row;   // per uploader
    std::vector<std::size_t> uniqueness_row; // per request
    std::vector<std::size_t> edge_var;       // per (request, candidate) flat edge
};

primal_lp build_primal(const core::scheduling_problem& problem) {
    primal_lp lp;
    std::vector<std::vector<opt::lp_term>> capacity_terms(problem.num_uploaders());
    for (std::size_t r = 0; r < problem.num_requests(); ++r) {
        std::vector<opt::lp_term> unique_terms;
        const auto& cands = problem.candidates(r);
        for (std::size_t i = 0; i < cands.size(); ++i) {
            auto var = lp.model.add_variable(problem.net_value(r, i));
            lp.edge_var.push_back(var);
            unique_terms.push_back({var, 1.0});
            capacity_terms[cands[i].uploader].push_back({var, 1.0});
        }
        lp.uniqueness_row.push_back(lp.model.add_constraint(
            std::move(unique_terms), opt::relation::less_equal, 1.0));
    }
    for (std::size_t u = 0; u < problem.num_uploaders(); ++u)
        lp.capacity_row.push_back(lp.model.add_constraint(
            std::move(capacity_terms[u]), opt::relation::less_equal,
            static_cast<double>(problem.uploader(u).capacity)));
    return lp;
}

class lp_formulation : public ::testing::TestWithParam<int> {};

TEST_P(lp_formulation, relaxation_is_integral_and_matches_auction) {
    workload::uniform_instance_params params;
    params.num_requests = 10;
    params.num_uploaders = 4;
    params.candidates_per_request = 3;
    params.seed = static_cast<std::uint64_t>(GetParam()) * 131 + 17;
    auto problem = workload::make_uniform_instance(params);

    auto lp = build_primal(problem);
    auto lp_sol = opt::solve_simplex(lp.model);
    ASSERT_EQ(lp_sol.status, opt::solve_status::optimal);

    // Total unimodularity: every simplex vertex of the transportation
    // polytope is integral.
    for (double x : lp_sol.primal)
        EXPECT_NEAR(x, std::round(x), 1e-7) << "LP relaxation must be integral";

    // LP optimum == exact combinatorial optimum.
    core::exact_scheduler exact;
    auto best = exact.run(problem);
    EXPECT_NEAR(lp_sol.objective, best.welfare, 1e-7);

    // Auction welfare within n·ε of the LP optimum.
    const double epsilon = 1e-3;
    core::auction_solver auction({.bidding = {core::bid_policy::epsilon, epsilon}});
    auto result = auction.run(problem);
    auto stats = core::compute_stats(problem, result.sched);
    EXPECT_GE(stats.welfare,
              lp_sol.objective - static_cast<double>(stats.assigned) * epsilon - 1e-7);
    EXPECT_LE(stats.welfare, lp_sol.objective + 1e-7);
}

TEST_P(lp_formulation, shadow_prices_are_dual_feasible_with_zero_gap) {
    workload::uniform_instance_params params;
    params.num_requests = 8;
    params.num_uploaders = 3;
    params.candidates_per_request = 3;
    params.capacity_min = 1;
    params.capacity_max = 2;
    params.seed = static_cast<std::uint64_t>(GetParam()) * 59 + 3;
    auto problem = workload::make_uniform_instance(params);

    auto lp = build_primal(problem);
    auto lp_sol = opt::solve_simplex(lp.model);
    ASSERT_EQ(lp_sol.status, opt::solve_status::optimal);

    // Map simplex shadow prices onto the paper's dual variables.
    std::vector<double> lambda(problem.num_uploaders());
    std::vector<double> eta(problem.num_requests());
    for (std::size_t u = 0; u < lambda.size(); ++u)
        lambda[u] = lp_sol.dual[lp.capacity_row[u]];
    for (std::size_t r = 0; r < eta.size(); ++r)
        eta[r] = lp_sol.dual[lp.uniqueness_row[r]];

    auto instance = problem.to_transportation();
    EXPECT_TRUE(opt::dual_feasible(instance, lambda, eta, 1e-6))
        << "simplex shadow prices must satisfy dual constraints (6)-(8)";

    double dual_objective = 0.0;
    for (std::size_t u = 0; u < lambda.size(); ++u)
        dual_objective += static_cast<double>(instance.sink_capacity[u]) * lambda[u];
    for (double e : eta) dual_objective += e;
    EXPECT_NEAR(dual_objective, lp_sol.objective, 1e-6) << "strong duality";
}

INSTANTIATE_TEST_SUITE_P(seeds, lp_formulation, ::testing::Range(0, 10));

}  // namespace
}  // namespace p2pcd
