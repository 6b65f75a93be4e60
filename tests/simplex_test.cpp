#include "lp/simplex.h"

#include <gtest/gtest.h>

#include "lp/lp_model.h"

namespace p2pcd::opt {
namespace {

TEST(simplex, basic_maximization_with_shadow_prices) {
    // max 3x + 2y  s.t.  x + y <= 4,  x <= 2  ->  (2,2), objective 10.
    lp_model model(objective_sense::maximize);
    auto x = model.add_variable(3.0, "x");
    auto y = model.add_variable(2.0, "y");
    auto c1 = model.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 4.0);
    auto c2 = model.add_constraint({{x, 1.0}}, relation::less_equal, 2.0);

    auto sol = solve_simplex(model);
    ASSERT_EQ(sol.status, solve_status::optimal);
    EXPECT_NEAR(sol.objective, 10.0, 1e-9);
    EXPECT_NEAR(sol.primal[x], 2.0, 1e-9);
    EXPECT_NEAR(sol.primal[y], 2.0, 1e-9);
    // Shadow prices: relaxing c1 by 1 gains 2 (another y); relaxing c2 gains
    // 1 (swap a y for an x).
    EXPECT_NEAR(sol.dual[c1], 2.0, 1e-9);
    EXPECT_NEAR(sol.dual[c2], 1.0, 1e-9);
}

TEST(simplex, minimization_with_ge_constraints) {
    // min 2x + 3y  s.t.  x + y >= 4,  x - y <= 2  ->  (3,1)? check: corner
    // candidates: (4,0): obj 8 violates x-y<=2? 4-0=4>2 infeasible.
    // x-y=2 & x+y=4 -> (3,1): obj 9. (0,4): obj 12. Optimum (3,1) = 9.
    lp_model model(objective_sense::minimize);
    auto x = model.add_variable(2.0);
    auto y = model.add_variable(3.0);
    model.add_constraint({{x, 1.0}, {y, 1.0}}, relation::greater_equal, 4.0);
    model.add_constraint({{x, 1.0}, {y, -1.0}}, relation::less_equal, 2.0);

    auto sol = solve_simplex(model);
    ASSERT_EQ(sol.status, solve_status::optimal);
    EXPECT_NEAR(sol.objective, 9.0, 1e-9);
    EXPECT_NEAR(sol.primal[x], 3.0, 1e-9);
    EXPECT_NEAR(sol.primal[y], 1.0, 1e-9);
}

TEST(simplex, equality_constraints) {
    // max x + y  s.t.  x + 2y = 4,  x <= 2  ->  x=2, y=1, obj 3.
    lp_model model(objective_sense::maximize);
    auto x = model.add_variable(1.0);
    auto y = model.add_variable(1.0);
    model.add_constraint({{x, 1.0}, {y, 2.0}}, relation::equal, 4.0);
    model.add_constraint({{x, 1.0}}, relation::less_equal, 2.0);

    auto sol = solve_simplex(model);
    ASSERT_EQ(sol.status, solve_status::optimal);
    EXPECT_NEAR(sol.objective, 3.0, 1e-9);
}

TEST(simplex, detects_infeasibility) {
    lp_model model(objective_sense::maximize);
    auto x = model.add_variable(1.0);
    model.add_constraint({{x, 1.0}}, relation::less_equal, 1.0);
    model.add_constraint({{x, 1.0}}, relation::greater_equal, 3.0);
    auto sol = solve_simplex(model);
    EXPECT_EQ(sol.status, solve_status::infeasible);
}

TEST(simplex, detects_unboundedness) {
    lp_model model(objective_sense::maximize);
    auto x = model.add_variable(1.0);
    auto y = model.add_variable(0.0);
    model.add_constraint({{y, 1.0}}, relation::less_equal, 5.0);  // x is free to grow
    (void)x;
    auto sol = solve_simplex(model);
    EXPECT_EQ(sol.status, solve_status::unbounded);
}

TEST(simplex, negative_rhs_is_normalized) {
    // x >= 0, -x <= -2  <=>  x >= 2; min x -> 2.
    lp_model model(objective_sense::minimize);
    auto x = model.add_variable(1.0);
    model.add_constraint({{x, -1.0}}, relation::less_equal, -2.0);
    auto sol = solve_simplex(model);
    ASSERT_EQ(sol.status, solve_status::optimal);
    EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(simplex, degenerate_problem_terminates) {
    // Multiple constraints meeting at the same vertex (classic degeneracy).
    lp_model model(objective_sense::maximize);
    auto x = model.add_variable(1.0);
    auto y = model.add_variable(1.0);
    model.add_constraint({{x, 1.0}}, relation::less_equal, 1.0);
    model.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 1.0);
    model.add_constraint({{x, 1.0}, {y, 2.0}}, relation::less_equal, 1.0);
    auto sol = solve_simplex(model);
    ASSERT_EQ(sol.status, solve_status::optimal);
    EXPECT_NEAR(sol.objective, 1.0, 1e-9);
}

TEST(simplex, zero_constraint_problem) {
    lp_model model(objective_sense::minimize);
    auto x = model.add_variable(1.0);
    (void)x;
    auto sol = solve_simplex(model);
    ASSERT_EQ(sol.status, solve_status::optimal);
    EXPECT_NEAR(sol.objective, 0.0, 1e-9);  // x = 0 at its lower bound
}

TEST(simplex, redundant_equality_rows) {
    // Same equality twice: phase 1 leaves a basic artificial at zero.
    lp_model model(objective_sense::maximize);
    auto x = model.add_variable(1.0);
    model.add_constraint({{x, 1.0}}, relation::equal, 3.0);
    model.add_constraint({{x, 1.0}}, relation::equal, 3.0);
    auto sol = solve_simplex(model);
    ASSERT_EQ(sol.status, solve_status::optimal);
    EXPECT_NEAR(sol.objective, 3.0, 1e-9);
}

TEST(lp_model, evaluate_and_violation) {
    lp_model model(objective_sense::maximize);
    auto x = model.add_variable(2.0, "x");
    auto y = model.add_variable(1.0, "y");
    model.add_constraint({{x, 1.0}, {y, 1.0}}, relation::less_equal, 3.0);
    EXPECT_DOUBLE_EQ(model.evaluate({1.0, 1.0}), 3.0);
    EXPECT_DOUBLE_EQ(model.max_violation({1.0, 1.0}), 0.0);
    EXPECT_DOUBLE_EQ(model.max_violation({4.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(model.max_violation({-1.0, 0.0}), 1.0);  // x >= 0
    EXPECT_EQ(model.variable_name(x), "x");
    EXPECT_EQ(model.variable_name(y), "y");
}

}  // namespace
}  // namespace p2pcd::opt
