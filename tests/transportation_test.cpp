#include "opt/transportation.h"

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "lp/duality.h"
#include "sim/rng.h"

namespace p2pcd::opt {
namespace {

transportation_instance two_requests_one_slot() {
    transportation_instance instance;
    instance.num_sources = 2;
    instance.sink_capacity = {1};
    instance.edges = {{0, 0, 5.0}, {1, 0, 3.0}};
    return instance;
}

TEST(transportation, picks_higher_profit_when_capacity_binds) {
    auto sol = solve_transportation_simplex(two_requests_one_slot());
    EXPECT_DOUBLE_EQ(sol.welfare, 5.0);
    EXPECT_EQ(sol.edge_of_source[0], 0);
    EXPECT_EQ(sol.edge_of_source[1], unassigned);
}

TEST(transportation, duals_price_out_the_loser) {
    auto instance = two_requests_one_slot();
    auto sol = solve_transportation_simplex(instance);
    // λ must be at least the loser's profit (else the loser would envy) and
    // at most the winner's.
    EXPECT_GE(sol.sink_price[0], 3.0 - 1e-9);
    EXPECT_LE(sol.sink_price[0], 5.0 + 1e-9);
    EXPECT_TRUE(dual_feasible(instance, sol.sink_price, sol.source_utility));
    EXPECT_NEAR(duality_gap(instance, sol), 0.0, 1e-9);
}

TEST(transportation, negative_profit_edges_stay_unused) {
    transportation_instance instance;
    instance.num_sources = 1;
    instance.sink_capacity = {1};
    instance.edges = {{0, 0, -2.0}};
    auto sol = solve_transportation_simplex(instance);
    EXPECT_EQ(sol.edge_of_source[0], unassigned);
    EXPECT_DOUBLE_EQ(sol.welfare, 0.0);
}

TEST(transportation, empty_instance_is_fine) {
    transportation_instance instance;
    auto sol = solve_transportation_simplex(instance);
    EXPECT_DOUBLE_EQ(sol.welfare, 0.0);
    EXPECT_TRUE(sol.edge_of_source.empty());
}

TEST(transportation, source_with_no_edges_stays_unassigned) {
    transportation_instance instance;
    instance.num_sources = 2;
    instance.sink_capacity = {1};
    instance.edges = {{0, 0, 1.0}};
    auto sol = solve_transportation_simplex(instance);
    EXPECT_EQ(sol.edge_of_source[1], unassigned);
    EXPECT_DOUBLE_EQ(sol.welfare, 1.0);
}

TEST(transportation, multi_unit_sink_serves_several_sources) {
    transportation_instance instance;
    instance.num_sources = 3;
    instance.sink_capacity = {2};
    instance.edges = {{0, 0, 5.0}, {1, 0, 4.0}, {2, 0, 3.0}};
    auto sol = solve_transportation_simplex(instance);
    EXPECT_DOUBLE_EQ(sol.welfare, 9.0);
    EXPECT_EQ(sol.edge_of_source[2], unassigned);
}

TEST(transportation, chooses_globally_not_greedily) {
    // Greedy would send source 0 to sink 0 (profit 9), forcing source 1 to
    // take 1; the optimum is 8 + 7 = 15 > 9 + 1 = 10.
    transportation_instance instance;
    instance.num_sources = 2;
    instance.sink_capacity = {1, 1};
    instance.edges = {{0, 0, 9.0}, {0, 1, 8.0}, {1, 0, 7.0}, {1, 1, 1.0}};
    auto sol = solve_transportation_simplex(instance);
    EXPECT_DOUBLE_EQ(sol.welfare, 15.0);
    EXPECT_EQ(sol.edge_of_source[0], 1);
    EXPECT_EQ(sol.edge_of_source[1], 2);
}

TEST(transportation, validates_malformed_instances) {
    transportation_instance instance;
    instance.num_sources = 1;
    instance.sink_capacity = {1};
    instance.edges = {{5, 0, 1.0}};  // source out of range
    EXPECT_THROW((void)solve_transportation_simplex(instance), contract_violation);
    instance.edges = {{0, 7, 1.0}};  // sink out of range
    EXPECT_THROW((void)solve_transportation_simplex(instance), contract_violation);
    instance.edges.clear();
    instance.sink_capacity = {-1};
    EXPECT_THROW((void)solve_transportation_simplex(instance), contract_violation);
}

TEST(transportation, brute_force_rejects_large_instances) {
    transportation_instance instance;
    instance.num_sources = 40;
    instance.sink_capacity = {1};
    EXPECT_THROW((void)solve_brute_force(instance), contract_violation);
}

// Property sweep: the network simplex must match exhaustive search exactly on
// random small instances, and its duals must certify optimality.
class transportation_random : public ::testing::TestWithParam<int> {};

TEST_P(transportation_random, matches_brute_force_and_certifies) {
    sim::rng_stream rng(static_cast<std::uint64_t>(GetParam()));
    transportation_instance instance;
    instance.num_sources = static_cast<std::size_t>(rng.uniform_int(1, 7));
    auto sinks = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t u = 0; u < sinks; ++u)
        instance.sink_capacity.push_back(rng.uniform_int(0, 3));
    for (std::size_t d = 0; d < instance.num_sources; ++d) {
        auto degree = static_cast<std::size_t>(rng.uniform_int(0, sinks));
        for (std::size_t k = 0; k < degree; ++k)
            instance.edges.push_back(
                {d, static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(sinks) - 1)),
                 rng.uniform_real(-5.0, 10.0)});
    }

    auto exact = solve_transportation_simplex(instance);
    auto brute = solve_brute_force(instance);
    EXPECT_NEAR(exact.welfare, brute.welfare, 1e-9);
    EXPECT_TRUE(primal_feasible(instance, exact.edge_of_source));
    EXPECT_TRUE(dual_feasible(instance, exact.sink_price, exact.source_utility))
        << "duals must be feasible for the dual LP";
    EXPECT_NEAR(duality_gap(instance, exact), 0.0, 1e-9)
        << "strong duality certifies optimality";
    auto violations = complementary_slackness_violations(instance, exact);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

INSTANTIATE_TEST_SUITE_P(seeds, transportation_random, ::testing::Range(0, 60));

}  // namespace
}  // namespace p2pcd::opt
