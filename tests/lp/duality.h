// LP-duality verification for transportation solutions.
//
// These checks mechanize the proof obligations of the paper's Theorem 1: the
// primal schedule is feasible, the duals (λ, η) are feasible for problem (5),
// the duality gap is (near) zero, and the complementary-slackness conditions
// listed in Appendix A hold — up to ε for the ε-auction (Bertsekas
// ε-complementary slackness gives welfare within n·ε of optimal).
#ifndef P2PCD_TESTS_LP_DUALITY_H
#define P2PCD_TESTS_LP_DUALITY_H

#include <string>
#include <vector>

#include "opt/transportation.h"

namespace p2pcd::opt {

// True when every source uses at most one edge (by construction of the
// solution encoding) and no sink exceeds its capacity.
[[nodiscard]] bool primal_feasible(const transportation_instance& instance,
                                   const std::vector<std::ptrdiff_t>& edge_of_source);

[[nodiscard]] double welfare_of(const transportation_instance& instance,
                                const std::vector<std::ptrdiff_t>& edge_of_source);

// Dual feasibility of (λ, η) for the paper's dual problem (5):
// λ, η ≥ 0 and η_d + λ_u ≥ profit(d,u) − tol on every edge.
[[nodiscard]] bool dual_feasible(const transportation_instance& instance,
                                 const std::vector<double>& sink_price,
                                 const std::vector<double>& source_utility,
                                 double tol = 1e-9);

// Dual objective Σ_u B(u)·λ_u + Σ_d η_d minus primal welfare. Non-negative
// for any feasible primal/dual pair; ~0 at joint optimality.
[[nodiscard]] double duality_gap(const transportation_instance& instance,
                                 const transportation_solution& solution);

// Returns human-readable descriptions of every violated ε-complementary-
// slackness condition (empty means the solution satisfies all of them):
//  1. λ_u > tol  →  sink u saturated,
//  2. assigned edge (d,u)  →  profit − λ_u ≥ η_d − ε  (d gets its best margin),
//  3. η_d > tol  →  source d assigned.
[[nodiscard]] std::vector<std::string> complementary_slackness_violations(
    const transportation_instance& instance, const transportation_solution& solution,
    double epsilon = 0.0, double tol = 1e-9);

}  // namespace p2pcd::opt

#endif  // P2PCD_TESTS_LP_DUALITY_H
