// Property-based equivalence of the exact and parallel solvers against
// independent references, over randomized instance corpora:
//
//  * core/exact (the transportation network simplex) vs the dense LP
//    (opt/simplex on the explicit LP of problem (1)) — equal welfare on
//    every instance (both are exact algorithms), feasible primal, feasible
//    duals, and a ~zero duality gap as the optimality certificate. The
//    corpus leans on degenerate shapes: 1–64 uploaders, zero-capacity
//    uploaders, empty candidate rows, duplicate (request, uploader) edges.
//  * parallel (Jacobi) auction vs the Theorem 1 obligations — feasibility,
//    welfare within (#assigned)·ε of exact, dual feasibility and full
//    ε-complementary slackness at termination, and bit-identical
//    schedules/prices/counters across thread counts.
//  * both auctions' solve() returns run()'s schedule (without the duals).
//  * both auctions at their default ε, on scarce supply — the final
//    prices and schedule satisfy ε-CS: assigned requests hold a margin
//    within ε of their best and ≥ −ε, unassigned requests have no positive
//    margin left, and every positive price certifies a saturated uploader;
//    welfare stays within (#assigned)·ε of the optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/auction.h"
#include "core/exact.h"
#include "core/parallel_auction.h"
#include "core/welfare.h"
#include "lp_reference.h"
#include "lp/duality.h"
#include "lp/simplex.h"
#include "opt/transportation.h"
#include "sim/rng.h"
#include "workload/instance_gen.h"

namespace p2pcd::core {
namespace {

constexpr double tol = 1e-9;

// Optimum of problem (1) by the dense LP; 0 for an instance without edges.
double lp_optimum(const scheduling_problem& problem) {
    const auto instance = problem.to_transportation();
    if (instance.edges.empty()) return 0.0;
    const auto sol = opt::solve_simplex(opt::as_lp(instance));
    EXPECT_EQ(sol.status, opt::solve_status::optimal);
    return sol.objective;
}

// Random CSR instance with deliberately nasty shapes. Values are dyadic
// (k/8), so welfare sums are exact in doubles and "equal welfare" needs no
// tolerance juggling beyond rounding noise in the duals.
scheduling_problem make_degenerate_instance(std::uint64_t seed) {
    sim::rng_stream rng(seed);
    scheduling_problem problem;
    const auto nu = static_cast<std::size_t>(rng.uniform_int(1, 64));
    const auto nr = static_cast<std::size_t>(rng.uniform_int(0, 80));
    for (std::size_t u = 0; u < nu; ++u) {
        const std::int32_t capacity =
            rng.uniform_int(0, 3) == 0 ? 0
                                       : static_cast<std::int32_t>(rng.uniform_int(1, 4));
        problem.add_uploader(peer_id(static_cast<std::int32_t>(u)), capacity);
    }
    for (std::size_t r = 0; r < nr; ++r) {
        problem.add_request(peer_id(static_cast<std::int32_t>(nu + r)),
                            chunk_id(static_cast<std::int64_t>(r)),
                            static_cast<double>(rng.uniform_int(0, 64)) / 8.0);
        // 0 candidates = an empty row; duplicate uploaders are allowed and
        // exercised on purpose.
        const auto n_cands = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(std::min<std::size_t>(nu, 6))));
        for (std::size_t c = 0; c < n_cands; ++c)
            problem.append_candidate(
                static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(nu) - 1)),
                static_cast<double>(rng.uniform_int(0, 64)) / 8.0);
    }
    return problem;
}

// The same instance families auction_property_test stresses (dense, scarce,
// abundant, negative-heavy).
workload::uniform_instance_params family_params(int index) {
    switch (index) {
        case 0:
            return {.num_requests = 12,
                    .num_uploaders = 4,
                    .candidates_per_request = 4,
                    .capacity_min = 1,
                    .capacity_max = 3};
        case 1:
            return {.num_requests = 40,
                    .num_uploaders = 5,
                    .candidates_per_request = 3,
                    .capacity_min = 0,
                    .capacity_max = 2};
        case 2:
            return {.num_requests = 30,
                    .num_uploaders = 15,
                    .candidates_per_request = 6,
                    .capacity_min = 3,
                    .capacity_max = 8};
        default:
            return {.num_requests = 25,
                    .num_uploaders = 8,
                    .candidates_per_request = 4,
                    .valuation_min = 0.5,
                    .valuation_max = 3.0,
                    .cost_min = 0.0,
                    .cost_max = 9.0};
    }
}

TEST(solver_equivalence, simplex_matches_exact_on_degenerate_corpus) {
    exact_scheduler simplex;
    std::size_t nontrivial = 0;
    for (std::uint64_t seed = 0; seed < 220; ++seed) {
        auto problem = make_degenerate_instance(seed * 1315423911ull + 17);
        const double best = lp_optimum(problem);
        auto got = simplex.run(problem);
        ASSERT_TRUE(schedule_feasible(problem, got.sched)) << "seed " << seed;
        EXPECT_NEAR(got.welfare, best, tol) << "seed " << seed;
        auto stats = compute_stats(problem, got.sched);
        EXPECT_NEAR(stats.welfare, got.welfare, tol) << "seed " << seed;
        auto instance = problem.to_transportation();
        EXPECT_TRUE(opt::dual_feasible(instance, got.prices, got.request_utility))
            << "seed " << seed;
        nontrivial += best > 0.0;
    }
    EXPECT_GE(nontrivial, 100u) << "corpus must exercise non-trivial instances";
}

TEST(solver_equivalence, simplex_certifies_optimality_via_zero_duality_gap) {
    for (int family = 0; family < 4; ++family) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
            auto params = family_params(family);
            params.seed = seed * 53 + 11;
            auto instance =
                workload::make_uniform_instance(params).to_transportation();
            auto sol = opt::solve_transportation_simplex(instance);
            EXPECT_TRUE(opt::primal_feasible(instance, sol.edge_of_source));
            EXPECT_NEAR(opt::welfare_of(instance, sol.edge_of_source), sol.welfare,
                        tol);
            EXPECT_TRUE(
                opt::dual_feasible(instance, sol.sink_price, sol.source_utility));
            // Matching primal and dual objectives certify both optimal.
            EXPECT_LE(opt::duality_gap(instance, sol), 1e-6);
        }
    }
}

TEST(solver_equivalence, simplex_handles_corner_instances) {
    {  // no requests at all
        scheduling_problem problem;
        problem.add_uploader(peer_id(0), 3);
        exact_scheduler simplex;
        auto got = simplex.run(problem);
        EXPECT_DOUBLE_EQ(got.welfare, 0.0);
        EXPECT_TRUE(got.sched.choice.empty());
    }
    {  // all capacity zero: nothing can be served, duals still feasible
        scheduling_problem problem;
        problem.add_uploader(peer_id(0), 0);
        problem.add_request(peer_id(1), chunk_id(0), 5.0);
        problem.append_candidate(0, 1.0);
        exact_scheduler simplex;
        auto got = simplex.run(problem);
        EXPECT_DOUBLE_EQ(got.welfare, 0.0);
        EXPECT_EQ(got.sched.choice[0], no_candidate);
        EXPECT_TRUE(opt::dual_feasible(problem.to_transportation(), got.prices,
                                       got.request_utility));
    }
    {  // one uploader contended by many: capacity binds, ties broken somehow
        scheduling_problem problem;
        problem.add_uploader(peer_id(0), 3);
        for (std::int32_t r = 0; r < 64; ++r) {
            problem.add_request(peer_id(1 + r), chunk_id(r), 4.0);
            problem.append_candidate(0, 1.0);
        }
        exact_scheduler simplex;
        EXPECT_NEAR(simplex.run(problem).welfare, lp_optimum(problem), tol);
    }
}

TEST(parallel_auction_properties, final_state_satisfies_epsilon_cs) {
    const double epsilon = 1e-3;
    exact_scheduler exact;
    for (int family = 0; family < 4; ++family) {
        for (std::uint64_t seed = 0; seed < 8; ++seed) {
            auto params = family_params(family);
            params.seed = seed * 977 + 13;
            auto problem = workload::make_uniform_instance(params);

            parallel_auction_solver solver({.bidding = {bid_policy::epsilon, epsilon}});
            auto result = solver.run(problem);
            ASSERT_TRUE(result.converged);
            EXPECT_TRUE(schedule_feasible(problem, result.sched));

            auto best = exact.run(problem);
            auto stats = compute_stats(problem, result.sched);
            EXPECT_LE(stats.welfare, best.welfare + tol);
            EXPECT_GE(stats.welfare,
                      best.welfare - static_cast<double>(stats.assigned) * epsilon -
                          tol)
                << "Jacobi ε-auction must stay within n·ε of optimal";

            auto instance = problem.to_transportation();
            EXPECT_TRUE(
                opt::dual_feasible(instance, result.prices, result.request_utility));

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
            auto violations = opt::complementary_slackness_violations(
                instance, as_solution, epsilon);
            EXPECT_TRUE(violations.empty()) << violations.front();
        }
    }
}

// The determinism contract: schedules, prices and every diagnostic counter
// are identical at any thread count. grain = 1 forces the pool path to split
// even tiny instances, so 2/4 threads genuinely race the merge.
TEST(parallel_auction_properties, bit_identical_across_thread_counts) {
    for (std::uint64_t seed = 0; seed < 30; ++seed) {
        auto problem = make_degenerate_instance(seed * 2654435761ull + 101);

        std::vector<auction_result> results;
        for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            parallel_auction_solver solver({.bidding = {bid_policy::epsilon, 1e-3},
                                            .num_threads = threads,
                                            .grain = 1});
            results.push_back(solver.run(problem));
        }
        for (std::size_t i = 1; i < results.size(); ++i) {
            EXPECT_EQ(results[i].sched.choice, results[0].sched.choice)
                << "seed " << seed << " threads run " << i;
            ASSERT_EQ(results[i].prices.size(), results[0].prices.size());
            for (std::size_t u = 0; u < results[0].prices.size(); ++u)
                EXPECT_EQ(results[i].prices[u], results[0].prices[u])
                    << "seed " << seed << " uploader " << u;
            EXPECT_EQ(results[i].bids_submitted, results[0].bids_submitted);
            EXPECT_EQ(results[i].evictions, results[0].evictions);
            EXPECT_EQ(results[i].abstentions, results[0].abstentions);
        }
    }
}

// solve() is run() without dual recovery, for both auctions: the schedule is
// the same either way, over the degenerate corpus (zero-capacity uploaders,
// empty rows, duplicate edges). One solver serves both calls, so its reused
// workspaces are exercised too.
TEST(solver_equivalence, solve_matches_run_schedule_for_both_auctions) {
    auction_solver serial;
    parallel_auction_solver parallel;
    parallel_auction_solver parallel_threaded({.num_threads = 2, .grain = 1});
    std::vector<auction_driver*> solvers = {&serial, &parallel, &parallel_threaded};
    for (std::uint64_t seed = 0; seed < 220; ++seed) {
        const auto problem = make_degenerate_instance(seed * 1315423911ull + 17);
        for (std::size_t i = 0; i < solvers.size(); ++i) {
            const schedule solved = solvers[i]->solve(problem);
            const auction_result ran = solvers[i]->run(problem);
            EXPECT_EQ(solved.choice, ran.sched.choice)
                << "seed " << seed << " solver " << i;
            EXPECT_EQ(ran.request_utility.size(), problem.num_requests())
                << "run() recovers duals";
        }
    }
}

// The ε-CS invariants a cold-started auction's end state must satisfy at its
// ε: assigned requests hold a margin within ε of their best and ≥ −ε,
// unassigned requests have no positive margin left (prices only rise), and
// any positive price was lifted by a full assignment set (sets never shrink
// within a solve).
void check_epsilon_cs(const problem_view& problem, double epsilon,
                      const auction_result& result) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();
    ASSERT_TRUE(schedule_feasible(problem, result.sched));
    const auto& choice = result.sched.choice;
    const auto& prices = result.prices;

    std::vector<std::int64_t> used(nu, 0);
    for (std::size_t r = 0; r < nr; ++r)
        if (choice[r] != no_candidate)
            ++used[problem.candidates(r)[static_cast<std::size_t>(choice[r])].uploader];

    for (std::size_t r = 0; r < nr; ++r) {
        double best = -std::numeric_limits<double>::infinity();
        for (const auto& c : problem.candidates(r)) {
            if (problem.uploader(c.uploader).capacity == 0) continue;
            best = std::max(best,
                            problem.request(r).valuation - c.cost - prices[c.uploader]);
        }
        if (choice[r] == no_candidate) {
            EXPECT_LE(best, tol) << "request " << r;
        } else {
            const auto& c = problem.candidates(r)[static_cast<std::size_t>(choice[r])];
            const double margin =
                problem.request(r).valuation - c.cost - prices[c.uploader];
            EXPECT_GE(margin, best - epsilon - tol) << "request " << r;
            EXPECT_GE(margin, -epsilon - tol) << "request " << r;
        }
    }
    for (std::size_t u = 0; u < nu; ++u) {
        if (problem.uploader(u).capacity == 0) continue;
        if (prices[u] > tol) {
            EXPECT_EQ(used[u], problem.uploader(u).capacity) << "uploader " << u;
        }
    }
}

// Theorem 1 for an auction as shipped: cold start, one phase at the target
// ε, on scarce supply — the scarce uniform family and an ISP instance with
// ~16 requests per unit of upload capacity. The phase's only boundary is the
// end state, which is in ε-CS against zero initial prices (so every positive
// price marks a full uploader), and welfare is within (#assigned)·ε of the
// optimum.
template <typename Solver>
void run_boundary_property(Solver& solver) {
    std::vector<scheduling_problem> corpus;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        auto params = family_params(1);
        params.seed = seed * 131 + 7;
        corpus.push_back(workload::make_uniform_instance(params));
    }
    corpus.push_back(workload::make_isp_instance({.num_isps = 5,
                                                  .peers_per_isp = 20,
                                                  .requests_per_peer = 40,
                                                  .candidates_per_request = 14,
                                                  .capacity_min = 1,
                                                  .capacity_max = 4,
                                                  .seed = 3})
                         .problem);

    const double epsilon = solver.options().bidding.epsilon;
    exact_scheduler exact;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "instance " << i);
        const auto& problem = corpus[i];
        const double best = exact.run(problem).welfare;
        const auction_result result = solver.run(problem);
        ASSERT_TRUE(result.converged);
        check_epsilon_cs(problem, epsilon, result);
        const auto stats = compute_stats(problem, result.sched);
        EXPECT_LE(stats.welfare, best + tol);
        EXPECT_GE(stats.welfare,
                  best - static_cast<double>(stats.assigned) * epsilon - tol);
    }
}

TEST(epsilon_scaling_properties, serial_phase_boundaries_satisfy_epsilon_cs) {
    auction_solver solver;
    run_boundary_property(solver);
}

TEST(epsilon_scaling_properties, parallel_phase_boundaries_satisfy_epsilon_cs) {
    parallel_auction_solver solver({.num_threads = 2, .grain = 1});
    run_boundary_property(solver);
}

}  // namespace
}  // namespace p2pcd::core
