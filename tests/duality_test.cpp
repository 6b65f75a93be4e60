#include "lp/duality.h"

#include <gtest/gtest.h>

#include "common/contracts.h"

namespace p2pcd::opt {
namespace {

transportation_instance simple_instance() {
    transportation_instance instance;
    instance.num_sources = 2;
    instance.sink_capacity = {1, 1};
    instance.edges = {{0, 0, 4.0}, {0, 1, 2.0}, {1, 0, 3.0}};
    return instance;
}

TEST(duality, primal_feasibility_checks_capacity) {
    auto instance = simple_instance();
    std::vector<std::ptrdiff_t> ok = {0, unassigned};
    EXPECT_TRUE(primal_feasible(instance, ok));
    std::vector<std::ptrdiff_t> overload = {0, 2};  // both on sink 0 (cap 1)
    EXPECT_FALSE(primal_feasible(instance, overload));
}

TEST(duality, assignment_must_reference_own_edges) {
    auto instance = simple_instance();
    std::vector<std::ptrdiff_t> wrong_owner = {2, unassigned};  // edge 2 is source 1's
    EXPECT_THROW((void)primal_feasible(instance, wrong_owner), contract_violation);
}

TEST(duality, welfare_sums_chosen_profits) {
    auto instance = simple_instance();
    EXPECT_DOUBLE_EQ(welfare_of(instance, {1, 2}), 2.0 + 3.0);
    EXPECT_DOUBLE_EQ(welfare_of(instance, {unassigned, unassigned}), 0.0);
}

TEST(duality, dual_feasibility_requires_edge_cover) {
    auto instance = simple_instance();
    // η + λ must cover each edge's profit.
    EXPECT_TRUE(dual_feasible(instance, {3.0, 2.0}, {1.0, 0.0}));
    EXPECT_FALSE(dual_feasible(instance, {0.0, 0.0}, {0.0, 0.0}));
    EXPECT_FALSE(dual_feasible(instance, {-1.0, 5.0}, {5.0, 5.0}))
        << "negative λ is dual infeasible";
}

TEST(duality, gap_is_dual_minus_primal) {
    auto instance = simple_instance();
    transportation_solution sol;
    sol.edge_of_source = {0, unassigned};  // welfare 4
    sol.sink_price = {3.0, 0.0};
    sol.source_utility = {1.0, 0.0};
    // dual obj = 1*3 + 1*0 + 1 + 0 = 4 -> gap 0
    EXPECT_NEAR(duality_gap(instance, sol), 0.0, 1e-12);
    sol.sink_price = {5.0, 0.0};
    EXPECT_NEAR(duality_gap(instance, sol), 2.0, 1e-12);
}

TEST(duality, cs_flags_unsaturated_priced_sink) {
    auto instance = simple_instance();
    transportation_solution sol;
    sol.edge_of_source = {unassigned, unassigned};
    sol.sink_price = {2.0, 0.0};  // positive price, zero usage
    sol.source_utility = {0.0, 0.0};
    auto violations = complementary_slackness_violations(instance, sol);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations[0].find("spare capacity"), std::string::npos);
}

TEST(duality, cs_flags_suboptimal_assignment) {
    auto instance = simple_instance();
    transportation_solution sol;
    sol.edge_of_source = {1, unassigned};  // source 0 on profit-2 edge
    sol.sink_price = {0.0, 0.0};
    sol.source_utility = {4.0, 3.0};  // but its best margin is 4
    auto violations = complementary_slackness_violations(instance, sol);
    bool found_margin_violation = false;
    for (const auto& v : violations)
        if (v.find("below its utility") != std::string::npos)
            found_margin_violation = true;
    EXPECT_TRUE(found_margin_violation);
}

TEST(duality, cs_flags_unassigned_positive_utility) {
    auto instance = simple_instance();
    transportation_solution sol;
    sol.edge_of_source = {unassigned, unassigned};
    sol.sink_price = {0.0, 0.0};
    sol.source_utility = {4.0, 0.0};
    auto violations = complementary_slackness_violations(instance, sol);
    bool found = false;
    for (const auto& v : violations)
        if (v.find("unassigned") != std::string::npos) found = true;
    EXPECT_TRUE(found);
}

TEST(duality, cs_epsilon_tolerance_is_respected) {
    auto instance = simple_instance();
    transportation_solution sol;
    sol.edge_of_source = {0, unassigned};
    sol.sink_price = {3.0, 0.0};
    sol.source_utility = {1.0005, 0.0};  // margin 1 vs utility 1.0005
    EXPECT_FALSE(complementary_slackness_violations(instance, sol, 0.0).empty());
    EXPECT_TRUE(complementary_slackness_violations(instance, sol, 0.001).empty());
}

}  // namespace
}  // namespace p2pcd::opt
