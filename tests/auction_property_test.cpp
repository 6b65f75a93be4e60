// Property-based verification of Theorem 1 over random instance families.
//
// For every generated instance the ε-auction must produce:
//  (P1) a feasible schedule,
//  (P2) welfare within (#assigned)·ε of the exact transportation optimum,
//  (P3) dual-feasible prices (λ, η),
//  (P4) ε-complementary slackness (the Appendix A conditions),
//  (P5) exact optimality on integer instances when ε < 1/#requests.
#include <gtest/gtest.h>

#include "core/auction.h"
#include "core/exact.h"
#include "core/welfare.h"
#include "lp/duality.h"
#include "workload/instance_gen.h"

namespace p2pcd::core {
namespace {

struct family {
    const char* name;
    workload::uniform_instance_params params;
};

class auction_properties
    : public ::testing::TestWithParam<std::tuple<int, int>> {
protected:
    static workload::uniform_instance_params family_params(int index) {
        switch (index) {
            case 0:  // small dense
                return {.num_requests = 12,
                        .num_uploaders = 4,
                        .candidates_per_request = 4,
                        .capacity_min = 1,
                        .capacity_max = 3};
            case 1:  // scarce supply: many requests priced out
                return {.num_requests = 40,
                        .num_uploaders = 5,
                        .candidates_per_request = 3,
                        .capacity_min = 0,
                        .capacity_max = 2};
            case 2:  // abundant supply: prices mostly stay zero
                return {.num_requests = 30,
                        .num_uploaders = 15,
                        .candidates_per_request = 6,
                        .capacity_min = 3,
                        .capacity_max = 8};
            default:  // negative-heavy: costs often exceed valuations
                return {.num_requests = 25,
                        .num_uploaders = 8,
                        .candidates_per_request = 4,
                        .valuation_min = 0.5,
                        .valuation_max = 3.0,
                        .cost_min = 0.0,
                        .cost_max = 9.0};
        }
    }
};

TEST_P(auction_properties, epsilon_cs_and_near_optimality) {
    auto [family_index, seed] = GetParam();
    auto params = family_params(family_index);
    params.seed = static_cast<std::uint64_t>(seed) * 977 + 13;
    auto problem = workload::make_uniform_instance(params);

    const double epsilon = 1e-3;
    auction_solver solver({.bidding = {bid_policy::epsilon, epsilon}});
    auto result = solver.run(problem);
    ASSERT_TRUE(result.converged);

    // (P1) feasibility
    EXPECT_TRUE(schedule_feasible(problem, result.sched));

    // (P2) near-optimality
    exact_scheduler exact;
    auto best = exact.run(problem);
    auto stats = compute_stats(problem, result.sched);
    EXPECT_LE(stats.welfare, best.welfare + 1e-9);
    EXPECT_GE(stats.welfare,
              best.welfare - static_cast<double>(stats.assigned) * epsilon - 1e-9)
        << "ε-auction must be within n·ε of optimal";

    // (P3) dual feasibility of (λ, η)
    auto instance = problem.to_transportation();
    EXPECT_TRUE(opt::dual_feasible(instance, result.prices, result.request_utility));

    // (P4) ε-complementary slackness
    opt::transportation_solution as_solution;
    as_solution.sink_price = result.prices;
    as_solution.source_utility = result.request_utility;
    as_solution.edge_of_source.assign(problem.num_requests(), opt::unassigned);
    auto origins = problem.edge_origins();
    for (std::size_t e = 0; e < origins.size(); ++e) {
        auto [r, cand] = origins[e];
        if (result.sched.choice[r] == static_cast<std::ptrdiff_t>(cand))
            as_solution.edge_of_source[r] = static_cast<std::ptrdiff_t>(e);
    }
    auto violations =
        opt::complementary_slackness_violations(instance, as_solution, epsilon);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST_P(auction_properties, integer_instances_reach_exact_optimum) {
    auto [family_index, seed] = GetParam();
    auto params = family_params(family_index);
    params.seed = static_cast<std::uint64_t>(seed) * 31 + 7;
    params.integer_values = true;
    params.valuation_min = 0;
    params.valuation_max = 10;
    params.cost_min = 0;
    params.cost_max = 10;
    auto problem = workload::make_uniform_instance(params);

    // ε < 1/n with integer values ⇒ the ε-CS fixed point is exactly optimal.
    const double epsilon = 0.9 / static_cast<double>(problem.num_requests() + 1);
    auction_solver solver({.bidding = {bid_policy::epsilon, epsilon}});
    auto result = solver.run(problem);
    ASSERT_TRUE(result.converged);

    exact_scheduler exact;
    auto best = exact.run(problem);
    auto stats = compute_stats(problem, result.sched);
    EXPECT_NEAR(stats.welfare, best.welfare, 1e-9)
        << "integer instance with ε < 1/n must be solved exactly";
}

TEST_P(auction_properties, prices_certify_via_strong_duality) {
    auto [family_index, seed] = GetParam();
    auto params = family_params(family_index);
    params.seed = static_cast<std::uint64_t>(seed) * 71 + 29;
    auto problem = workload::make_uniform_instance(params);

    const double epsilon = 1e-3;
    auction_solver solver({.bidding = {bid_policy::epsilon, epsilon}});
    auto result = solver.run(problem);

    // Weak duality: dual objective ≥ auction welfare always; with ε-CS the
    // gap is at most (#assigned + #requests)·ε (price-out slack on both
    // sides). A tight numerical bound keeps regressions visible.
    auto instance = problem.to_transportation();
    double dual_objective = 0.0;
    for (std::size_t u = 0; u < instance.num_sinks(); ++u)
        dual_objective +=
            static_cast<double>(instance.sink_capacity[u]) * result.prices[u];
    for (double eta : result.request_utility) dual_objective += eta;
    auto stats = compute_stats(problem, result.sched);
    EXPECT_GE(dual_objective, stats.welfare - 1e-9);
    double slack_budget =
        static_cast<double>(problem.num_requests() + stats.assigned) * epsilon;
    EXPECT_LE(dual_objective - stats.welfare, slack_budget + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(families_x_seeds, auction_properties,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 12)));

}  // namespace
}  // namespace p2pcd::core
