// Synchronous (Gauss-Seidel) driver of the paper's distributed auctions.
//
// Bids are processed one at a time against up-to-date prices; this computes
// the same fixed point as the message-level runtime in src/vod (both satisfy
// ε-complementary slackness at termination) and is what the emulator uses for
// per-slot scheduling. Theorem 1's guarantees, as verified by the test suite:
//  * terminates for every instance under the ε policy;
//  * the schedule is primal feasible and the prices λ dual feasible;
//  * welfare ≥ optimal − (#assigned)·ε — exactly optimal on integer-valued
//    instances when ε < 1/(#requests).
//
// The solver is long-lived: the seller book, the bidding queue and the
// flat net-value scratch persist across run()/solve() calls, so repeated
// solves on similarly-sized problems allocate ~nothing. run() may also be
// warm-started from a previous round's prices (Sec. IV-C's slot price cycle),
// mirroring what vod::auction_runtime does with its `initial_prices`.
#ifndef P2PCD_CORE_AUCTION_H
#define P2PCD_CORE_AUCTION_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/bidder.h"
#include "core/problem.h"
#include "core/seller_book.h"

namespace p2pcd::core {

struct auction_options {
    bidder_options bidding;
    // Safety valve; a correct ε-auction terminates long before this.
    std::uint64_t max_bid_iterations = 100'000'000;

    // Dual recovery (η per request) is a full candidate sweep per run().
    // Consumers that only read the schedule and λ (the emulator) turn it
    // off; `result.request_utility` comes back empty. solve() never recovers
    // duals. Never changes the schedule or the prices.
    bool compute_request_utilities = true;
};

struct auction_result {
    schedule sched;
    // Final dual variables: λ per uploader, η per request (η is derived via
    // the paper's closed form η = max(0, max_u v − w − λ_u)).
    std::vector<double> prices;
    std::vector<double> request_utility;
    // Diagnostics.
    std::uint64_t bids_submitted = 0;
    std::uint64_t evictions = 0;
    std::uint64_t abstentions = 0;
    std::uint64_t parked_at_termination = 0;
    bool converged = false;
};

// Completes a set of final bandwidth prices into a full dual solution:
//  * `prices` must hold λ for every positive-capacity uploader; entries for
//    zero-capacity uploaders are overwritten with the cheapest dual-feasible
//    lift (their B(u)·λ_u term is free in the dual objective);
//  * returns η per request via the paper's closed form
//    η_d = max(0, max_u v − w_u − λ_u).
[[nodiscard]] std::vector<double> derive_request_utilities(
    const problem_view& problem, std::vector<double>& prices);

// The shell both auction solvers share; a solver supplies only
// run_auction(), one complete auction at its configured ε. The driver seeds
// the prices (cold, or the caller's warm start), runs the auction once in a
// single phase, hands the final prices back and, in run() only, recovers the
// duals. The auction ends in ε-complementary slackness, so Theorem 1's
// welfare ≥ optimal − (#assigned)·ε holds for every solve.
class auction_driver : public scheduler {
public:
    // Cold start: all prices begin at 0.
    [[nodiscard]] auction_result run(const problem_view& problem) {
        return run(problem, {});
    }

    // Warm start: λ_u begins at initial_prices[u] (must cover every uploader;
    // empty = cold start). The emulator threads a slot's prices through its
    // bidding rounds this way when `warm_start_rounds` is on.
    [[nodiscard]] auction_result run(const problem_view& problem,
                                     std::span<const double> initial_prices);

    // run()'s schedule without dual recovery.
    [[nodiscard]] schedule solve(const problem_view& problem) override;

protected:
    explicit auction_driver(bool compute_request_utilities)
        : compute_request_utilities_(compute_request_utilities) {}

    // One complete auction, warm-started from `prices` (all zero on a cold
    // start); the final λ of every positive-capacity seller comes back
    // through the same vector, the schedule and counters through `result`.
    virtual void run_auction(const problem_view& problem, std::vector<double>& prices,
                             auction_result& result) = 0;

private:
    [[nodiscard]] auction_result drive(const problem_view& problem,
                                       std::span<const double> initial_prices,
                                       bool recover_duals);

    bool compute_request_utilities_ = true;
};

class auction_solver final : public auction_driver {
public:
    explicit auction_solver(auction_options options = {});

    [[nodiscard]] std::string_view name() const override { return "auction"; }
    void shed_memory() override;
    [[nodiscard]] std::size_t workspace_bytes() const override;

    [[nodiscard]] const auction_options& options() const noexcept { return options_; }

private:
    void run_auction(const problem_view& problem, std::vector<double>& prices,
                     auction_result& result) override;

    auction_options options_;

    // --- persistent workspaces (cleared/resized per solve, never shrunk) ---
    seller_book book_;  // its dense λ array is what every bid gathers from
    // FIFO bidding queue as a grow-only vector with a read head: total pushes
    // per solve are bounded by initial requests + evictions + wake-ups.
    std::vector<std::size_t> queue_;
    struct parked_entry {
        std::size_t request;
        std::uint64_t price_version;
    };
    std::vector<parked_entry> parked_;
    // v − w per candidate, flat in CSR order — invariant across one solve.
    // (Each candidate's uploader index is read straight from the problem's
    // u32 SoA slab — no mirror copy needed.)
    std::vector<double> net_values_;
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_AUCTION_H
