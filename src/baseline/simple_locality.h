// The paper's comparison baseline (Sec. V): "each downstream peer requests
// chunks from upstream neighbors with the lowest network costs in between as
// much as possible; for bandwidth allocation at an upstream peer, it always
// prioritizes to transmit chunks with more urgent deadlines."
//
// Interpretation (docs/ARCHITECTURE.md, `baseline`): bidding proceeds in rounds. In
// each round every still-unserved request knocks at its cheapest not-yet-tried
// candidate; an uploader ranks the round's incoming requests by valuation
// (urgency) and grants its remaining capacity top-down. Rejected requests try
// their next-cheapest candidate next round, up to `max_rounds`.
//
// Crucially — and this is the behaviour the paper criticizes — the baseline
// ignores net utility: it will happily schedule a transfer whose network cost
// exceeds the chunk's valuation, which is how its social welfare goes negative
// in Fig. 3.
#ifndef P2PCD_BASELINE_SIMPLE_LOCALITY_H
#define P2PCD_BASELINE_SIMPLE_LOCALITY_H

#include <vector>

#include "core/problem.h"

namespace p2pcd::baseline {

struct locality_options {
    // How many "next cheapest neighbor" retries a request gets. The paper's
    // "as much as possible" suggests unbounded; 3 keeps the protocol's
    // chattiness realistic and is swept in bench/solver_comparison.
    std::size_t max_rounds = 3;
};

class simple_locality_scheduler final : public core::scheduler {
public:
    explicit simple_locality_scheduler(locality_options options = {});

    [[nodiscard]] core::schedule solve(const core::problem_view& problem) override;
    [[nodiscard]] std::string_view name() const override { return "simple-locality"; }

private:
    struct knock {
        std::size_t request;
        std::size_t candidate;  // ordinal within the request's candidate list
        double valuation;
    };

    locality_options options_;
    // Persistent workspaces (see core::scheduler contract). `by_cost_` is the
    // per-request cost-sorted candidate ordinals, flat in CSR order.
    std::vector<std::size_t> by_cost_;
    std::vector<std::size_t> cursor_;
    std::vector<std::vector<knock>> inbox_;
    std::vector<std::int64_t> remaining_;
};

}  // namespace p2pcd::baseline

#endif  // P2PCD_BASELINE_SIMPLE_LOCALITY_H
