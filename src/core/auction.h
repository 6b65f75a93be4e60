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

    // ε-scaling (Bertsekas & Castañón 1989): run the auction in phases with
    // ε shrinking geometrically from `scaling_initial_epsilon` down to
    // bidding.epsilon, warm-starting each phase from the previous phase's
    // prices. Cuts total bids on contended instances. Caveat (documented in
    // docs/ARCHITECTURE.md, `core`, and quantified by
    // bench/convergence_scaling): with scarce supply, warm-started prices on
    // spare capacity can strand low-value requests, so the strict n·ε bound
    // holds only for the unscaled auction; scaling trades a little welfare
    // for speed.
    bool epsilon_scaling = false;
    double scaling_initial_epsilon = 1.0;
    double scaling_factor = 4.0;
    // Adaptive round schedule (only with epsilon_scaling): derive the ladder
    // from the instance instead of `scaling_initial_epsilon` — supply-rich
    // instances (total capacity covers every request) run a single phase at
    // the target ε, contended ones start at max(v−w)/scaling_factor. The
    // phase count thus tracks the instance's contention, not a fixed knob.
    bool adaptive_scaling = false;
    // Record an auction_phase_snapshot at every phase boundary (prices as
    // the phase left them, before the inter-phase spare-capacity repair).
    // Off by default: the trace exists for the ε-CS property tests.
    bool record_phase_trace = false;

    // Dual recovery (η per request) is a full candidate sweep per run().
    // Consumers that only read the schedule and λ (the emulator) turn it
    // off; `result.request_utility` comes back empty. solve() never recovers
    // duals. Never changes the schedule or the prices.
    bool compute_request_utilities = true;
};

// Phase-boundary state of an ε-scaling run, recorded when
// `record_phase_trace` is set: the ε the phase ran at, its final prices
// (pre-repair) and its schedule. Every snapshot must satisfy ε-complementary
// slackness at its own ε — the invariant tests/solver_equivalence_property
// pins for both the synchronous and the parallel auction.
struct auction_phase_snapshot {
    double epsilon = 0.0;
    std::vector<double> prices;
    std::vector<std::ptrdiff_t> choice;
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
    // ε phases the solve descended (1 unless ε-scaling engaged a ladder).
    std::uint64_t phases_run = 0;
    bool converged = false;
    // One entry per ε phase, only when options.record_phase_trace is set.
    std::vector<auction_phase_snapshot> phase_trace;
};

// Completes a set of final bandwidth prices into a full dual solution:
//  * `prices` must hold λ for every positive-capacity uploader; entries for
//    zero-capacity uploaders are overwritten with the cheapest dual-feasible
//    lift (their B(u)·λ_u term is free in the dual objective);
//  * returns η per request via the paper's closed form
//    η_d = max(0, max_u v − w_u − λ_u).
[[nodiscard]] std::vector<double> derive_request_utilities(
    const problem_view& problem, std::vector<double>& prices);

// The ε-ladder driver both auction solvers share; a solver supplies only
// run_phase(), one complete auction at a fixed ε. The driver descends the
// ladder — a single rung normally; with ε-scaling a geometric descent from
// the initial ε (or, adaptive, from the instance's contention) down to the
// target — warm-starting each phase from the previous phase's prices with
// spare-capacity sellers repaired to 0, sums the phases' counters, records
// the phase trace, hands the final prices back and recovers the duals.
class auction_driver : public scheduler {
public:
    // Cold start: all prices begin at 0.
    [[nodiscard]] auction_result run(const problem_view& problem) {
        return run(problem, {});
    }

    // Warm start: λ_u begins at initial_prices[u] (must cover every uploader;
    // empty = cold start). With ε-scaling enabled only the first phase is
    // warm-started. The emulator threads a slot's prices through its bidding
    // rounds this way when `warm_start_rounds` is on.
    [[nodiscard]] auction_result run(const problem_view& problem,
                                     std::span<const double> initial_prices);

    // run()'s schedule without dual recovery.
    [[nodiscard]] schedule solve(const problem_view& problem) override;
    void shed_memory() override;
    [[nodiscard]] std::size_t workspace_bytes() const override;

protected:
    // The ladder fields of a solver's options.
    struct ladder_settings {
        double target_epsilon = 0.0;
        bool scaling = false;
        bool adaptive = false;
        double initial_epsilon = 1.0;
        double factor = 4.0;
        bool record_phase_trace = false;
        bool compute_request_utilities = true;
    };
    explicit auction_driver(const ladder_settings& ladder);

    // One complete auction at a fixed ε, warm-started from `prices` (all zero
    // on a cold first/only phase); the final λ of every positive-capacity
    // seller comes back through the same vector, the phase's schedule and
    // counters through `phase`. `first_phase` opens a solve.
    virtual void run_phase(const problem_view& problem, double epsilon,
                           std::vector<double>& prices, auction_result& phase,
                           bool first_phase) = 0;

private:
    [[nodiscard]] auction_result drive(const problem_view& problem,
                                       std::span<const double> initial_prices,
                                       bool recover_duals);

    ladder_settings ladder_;
    std::vector<std::int64_t> used_scratch_;  // inter-phase repair
};

class auction_solver final : public auction_driver {
public:
    explicit auction_solver(auction_options options = {});

    [[nodiscard]] std::string_view name() const override { return "auction"; }
    void shed_memory() override;
    [[nodiscard]] std::size_t workspace_bytes() const override;

    [[nodiscard]] const auction_options& options() const noexcept { return options_; }

private:
    void run_phase(const problem_view& problem, double epsilon,
                   std::vector<double>& prices, auction_result& phase,
                   bool first_phase) override;

    auction_options options_;

    // --- persistent workspaces (cleared/resized per solve, never shrunk) ---
    seller_book book_;  // its dense λ array is what every bid gathers from
    // FIFO bidding queue as a grow-only vector with a read head: total pushes
    // per phase are bounded by initial requests + evictions + wake-ups.
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
