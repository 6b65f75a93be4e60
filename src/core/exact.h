// Centralized exact scheduler: solves problem (1) to optimality with the
// transportation network simplex (opt::solve_transportation_simplex). This is
// the reference the test suite holds the auction against (Theorem 1), and the
// "offline optimum" series in the ablation benches. It is not a practical
// P2P protocol — it needs global knowledge — which is precisely why the paper
// wants the distributed auction to match it.
//
// The CSR problem_view is translated into a transportation_instance (flat
// candidate k of the view is edge k of the instance, so the mapping back is
// pure arithmetic). The instance arena persists across solve() calls, so
// repeated solves on similarly-sized problems allocate ~nothing;
// shed_memory() returns it to the allocator.
#ifndef P2PCD_CORE_EXACT_H
#define P2PCD_CORE_EXACT_H

#include <cstdint>
#include <vector>

#include "core/problem.h"
#include "opt/transportation.h"

namespace p2pcd::core {

struct exact_result {
    schedule sched;
    double welfare = 0.0;
    std::vector<double> prices;           // optimal λ per uploader
    std::vector<double> request_utility;  // optimal η per request
};

class exact_scheduler final : public scheduler {
public:
    [[nodiscard]] exact_result run(const problem_view& problem);

    [[nodiscard]] schedule solve(const problem_view& problem) override;
    [[nodiscard]] std::string_view name() const override { return "exact"; }
    void shed_memory() override;
    [[nodiscard]] std::size_t workspace_bytes() const override;
    // Cumulative pivots over every solve of this instance's lifetime.
    [[nodiscard]] std::uint64_t total_pivots() const noexcept {
        return total_pivots_;
    }

private:
    opt::transportation_instance instance_;  // persistent arena
    std::uint64_t total_pivots_ = 0;
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_EXACT_H
