// Parallel (Jacobi) driver of the paper's distributed auctions.
//
// Where the synchronous solver (core/auction.h) processes one bid at a time
// against up-to-date prices, this solver runs *bidding rounds*: every
// unassigned request computes its bid against a snapshot of the bandwidth
// prices, then the bids are merged uploader by uploader. Both halves
// parallelize on an engine::thread_pool —
//  * bid phase: the active requests are split into blocks; each block runs
//    the shared bid kernel (compute_bid_with, core/bidder.h) over its rows
//    of the flat CSR candidate slab, computing v − w − λ margins on the fly
//    (on a cold round the sweep is pure contiguous arithmetic — no price
//    gather at all) and writes its decisions positionally;
//  * merge phase: bids are binned by uploader in request order (a serial
//    counting sort, so the per-uploader bid order is canonical), then the
//    touched uploaders settle concurrently in the shared seller book
//    (core/seller_book.h) — each seller's set, price cell and loser slots
//    are owned by exactly one item, so the merge is race-free by
//    construction.
// Losers (rejected or evicted) re-bid next round against the new prices.
//
// Determinism contract: the schedule, the final prices and every counter are
// a pure function of the problem and the options — NEVER of num_threads.
// Block boundaries only decide which worker computes an item; every item's
// arithmetic and every merge order is fixed in request/uploader order. The
// slot-golden and fleet-determinism suites pin this at threads 1/2/4/16.
//
// The fixed point differs from Gauss-Seidel (bids race within a round), so
// "auction-par" carries its own golden hashes; it ends in the same
// ε-complementary slackness and meets the same welfare ≥ optimal −
// (#assigned)·ε bound (pinned by the property suite).
#ifndef P2PCD_CORE_PARALLEL_AUCTION_H
#define P2PCD_CORE_PARALLEL_AUCTION_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/auction.h"
#include "core/bidder.h"
#include "core/problem.h"
#include "core/seller_book.h"

namespace p2pcd::engine {
class thread_pool;
}

namespace p2pcd::core {

struct parallel_auction_options {
    bidder_options bidding{bid_policy::epsilon, 1e-3};  // ε policy required
    std::uint64_t max_bid_iterations = 100'000'000;

    // Same contract as the synchronous solver (core/auction.h): dual
    // recovery is skippable by schedule-only consumers.
    bool compute_request_utilities = true;

    // Worker threads for the bid/merge phases. 1 runs everything inline on
    // the calling thread (no pool); 0 resolves to the hardware count. The
    // result is bit-identical for every value.
    std::size_t num_threads = 1;
    // Fewest items worth splitting into parallel blocks; below this a phase
    // runs inline even when a pool exists.
    std::size_t grain = 2048;
};

class parallel_auction_solver final : public auction_driver {
public:
    explicit parallel_auction_solver(parallel_auction_options options = {});
    ~parallel_auction_solver() override;

    [[nodiscard]] std::string_view name() const override { return "auction-par"; }
    void shed_memory() override;
    [[nodiscard]] std::size_t workspace_bytes() const override;

    [[nodiscard]] const parallel_auction_options& options() const noexcept {
        return options_;
    }
    // Actual worker count (1 when running inline).
    [[nodiscard]] std::size_t threads() const noexcept;

private:
    // One bid-phase decision, positional by active-list index; candidate ==
    // `abstained` marks a request that drops out. The uploader rides along so
    // the binning pass never gathers it back out of the candidate array, and
    // the whole slot is 16 bytes so that pass streams half the traffic a
    // padded layout would.
    struct bid_slot {
        std::uint32_t candidate = 0;  // flat CSR candidate index, or abstained
        std::uint32_t uploader = 0;
        double amount = 0.0;
    };
    static constexpr std::uint32_t abstained = 0xffffffffu;

    void run_auction(const problem_view& problem, std::vector<double>& prices,
                     auction_result& result) override;
    // Runs fn(begin, end) over [0, count) — inline, or as pool blocks of at
    // least `grain` items. Which worker runs which block is unobservable.
    void for_blocks(std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

    parallel_auction_options options_;
    std::unique_ptr<engine::thread_pool> pool_;

    // --- persistent workspaces (cleared/resized per solve, never shrunk) ---
    seller_book book_;
    std::vector<std::uint32_t> active_;       // unassigned requests, ascending
    std::vector<std::uint32_t> next_active_;  // next round's losers
    std::vector<bid_slot> decisions_;         // by active position
    // Merge bins: one contiguous segment of bids per touched uploader, and a
    // parallel segment of the requests each uploader turned away.
    struct bin_entry {
        std::uint32_t request = 0;
        std::uint32_t candidate = 0;  // flat CSR candidate index
        double amount = 0.0;
    };
    std::vector<bin_entry> bins_;
    std::vector<std::uint32_t> losers_;
    std::vector<std::uint32_t> touched_;     // uploaders with bids this round
    std::vector<std::uint32_t> bid_count_;   // per uploader, reset per round
    std::vector<std::size_t> bin_start_;     // per touched ordinal
    std::vector<std::size_t> bin_fill_;      // per touched ordinal
    std::vector<std::uint32_t> loser_count_; // per touched ordinal
    std::vector<std::uint64_t> evict_count_; // per touched ordinal
    std::vector<std::uint32_t> touched_of_uploader_;  // uploader -> ordinal
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_PARALLEL_AUCTION_H
