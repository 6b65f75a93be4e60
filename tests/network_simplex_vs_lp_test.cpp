// Cross-validation of the two independent exact solvers: the transportation
// network simplex and the dense two-phase simplex must agree on the LP
// optimum of random instances — two implementations, two algorithms, one
// number.
#include <gtest/gtest.h>

#include "lp_reference.h"
#include "lp/simplex.h"
#include "opt/transportation.h"
#include "sim/rng.h"

namespace p2pcd::opt {
namespace {

transportation_instance random_instance(std::uint64_t seed) {
    sim::rng_stream rng(seed);
    transportation_instance instance;
    instance.num_sources = static_cast<std::size_t>(rng.uniform_int(1, 10));
    auto sinks = static_cast<std::size_t>(rng.uniform_int(1, 5));
    for (std::size_t u = 0; u < sinks; ++u)
        instance.sink_capacity.push_back(rng.uniform_int(0, 4));
    for (std::size_t d = 0; d < instance.num_sources; ++d) {
        auto degree = static_cast<std::size_t>(rng.uniform_int(0, sinks));
        for (std::size_t k = 0; k < degree; ++k)
            instance.edges.push_back(
                {d,
                 static_cast<std::size_t>(
                     rng.uniform_int(0, static_cast<std::int64_t>(sinks) - 1)),
                 rng.uniform_real(-4.0, 9.0)});
    }
    return instance;
}

class solver_cross_validation : public ::testing::TestWithParam<int> {};

// Named for the min-cost-flow solver the network simplex replaced; the name
// is kept so the test's results stay comparable across runs.
TEST_P(solver_cross_validation, mcmf_equals_simplex_optimum) {
    auto instance = random_instance(static_cast<std::uint64_t>(GetParam()) * 613 + 31);
    auto network_solution = solve_transportation_simplex(instance);
    auto lp = as_lp(instance);
    auto lp_solution = solve_simplex(lp);
    if (instance.edges.empty()) {
        EXPECT_DOUBLE_EQ(network_solution.welfare, 0.0);
        return;
    }
    ASSERT_EQ(lp_solution.status, solve_status::optimal);
    EXPECT_NEAR(network_solution.welfare, lp_solution.objective, 1e-7)
        << "two independent exact solvers disagree";
}

INSTANTIATE_TEST_SUITE_P(seeds, solver_cross_validation, ::testing::Range(0, 40));

}  // namespace
}  // namespace p2pcd::opt
