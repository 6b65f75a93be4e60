// Two-phase primal simplex on a dense tableau.
//
// Scope: verification-grade LP solving for the paper's social-welfare program
// (1) and its dual (5) on small/medium instances. Bland's rule guarantees
// termination under degeneracy. Reported duals are shadow prices
// (d objective / d rhs), so for the maximization problem (1) the capacity
// constraint's shadow price is exactly the paper's bandwidth price λ_u.
#ifndef P2PCD_TESTS_LP_SIMPLEX_H
#define P2PCD_TESTS_LP_SIMPLEX_H

#include "lp/lp_model.h"

namespace p2pcd::opt {

struct simplex_options {
    double tolerance = 1e-9;
    // Hard cap on pivots (both phases combined); hitting it throws, because a
    // correct Bland's-rule implementation must terminate well before this.
    std::size_t max_pivots = 1'000'000;
};

[[nodiscard]] lp_solution solve_simplex(const lp_model& model,
                                        const simplex_options& options = {});

}  // namespace p2pcd::opt

#endif  // P2PCD_TESTS_LP_SIMPLEX_H
