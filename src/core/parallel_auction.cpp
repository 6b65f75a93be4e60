#include "core/parallel_auction.h"

#include <algorithm>

#include "common/contracts.h"
#include "engine/thread_pool.h"

namespace p2pcd::core {

parallel_auction_solver::parallel_auction_solver(parallel_auction_options options)
    : auction_driver(options.compute_request_utilities), options_(options) {
    expects(options.bidding.policy == bid_policy::epsilon,
            "the parallel auction requires the epsilon bid policy: Jacobi "
            "rounds have no park/wake machinery");
    expects(options.bidding.epsilon > 0.0, "epsilon must be positive");
    expects(options.grain > 0, "grain must be positive");
}

parallel_auction_solver::~parallel_auction_solver() = default;

std::size_t parallel_auction_solver::threads() const noexcept {
    if (pool_) return pool_->size();
    return options_.num_threads == 0 ? engine::thread_pool::default_thread_count()
                                     : options_.num_threads;
}

void parallel_auction_solver::for_blocks(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
    if (count == 0) return;
    if (!pool_ || count <= grain) {
        fn(0, count);
        return;
    }
    // A few blocks per worker lets the pool's shared cursor balance uneven
    // block costs; block boundaries depend only on (count, nblocks), and
    // nblocks only on the configured thread count — but nothing observable
    // depends on either (each item owns its outputs positionally).
    const std::size_t max_blocks = (count + grain - 1) / grain;
    const std::size_t nblocks = std::min(pool_->size() * 4, max_blocks);
    pool_->parallel_for_each(nblocks, [&](std::size_t b) {
        const std::size_t begin = count * b / nblocks;
        const std::size_t end = count * (b + 1) / nblocks;
        if (begin != end) fn(begin, end);
    });
}

// One complete Jacobi auction. Each round: every active (unassigned) request
// bids against the round-start price snapshot, the bids are binned per
// uploader in request order, every touched uploader settles its bin, and the
// round's losers — rejected bidders plus evicted previous holders — become
// the next round's active set, in ascending request order.
// Every step is a pure function of the problem and the previous round's
// state, never of thread scheduling, so the fixed point is bit-identical at
// any thread count.
void parallel_auction_solver::run_auction(const problem_view& problem,
                                          std::vector<double>& prices,
                                          auction_result& result) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();
    const bidder_options& bidding = options_.bidding;

    if (!pool_ && threads() > 1) pool_ = std::make_unique<engine::thread_pool>(threads());
    book_.layout(problem.all_uploaders());

    result.sched.choice.assign(nr, no_candidate);

    // Empty assignment sets, prices seeded from the warm start (if any).
    // On a cold start every gatherable price is 0, so round 1 bids
    // off the net values alone: the sweep is pure contiguous arithmetic over
    // the candidate slab, with no price gather at all. (A zero-capacity
    // seller's +inf sentinel breaks that equivalence, so it disables the
    // fast path.)
    book_.arm(prices);
    const double* lambda = book_.prices();
    bool cold = std::all_of(lambda, lambda + nu, [](double p) { return p == 0.0; });

    active_.resize(nr);
    for (std::size_t r = 0; r < nr; ++r) active_[r] = static_cast<std::uint32_t>(r);
    bid_count_.assign(nu, 0);
    touched_of_uploader_.resize(nu);  // only touched entries are ever read

    const std::uint32_t* offsets = problem.offsets().data();
    const std::uint32_t* cand_up = problem.cand_uploaders().data();
    const double* cand_costs = problem.cand_costs().data();
    const request_info* requests = problem.all_requests().data();

    std::uint64_t iterations = 0;
    while (!active_.empty()) {
        ensures(iterations < options_.max_bid_iterations,
                "auction exceeded its bid-iteration budget");
        const std::size_t n_active = active_.size();
        iterations += n_active;
        decisions_.resize(n_active);
        const std::uint32_t* act = active_.data();
        bid_slot* dec = decisions_.data();

        // --- bid phase: snapshot prices, positional writes only ---
        const bool cold_round = cold;
        for_blocks(n_active, options_.grain, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const std::size_t r = act[i];
                const std::size_t base = offsets[r];
                const double v = requests[r].valuation;
                const double* costs = cand_costs + base;
                const std::uint32_t* ups = cand_up + base;
                const bid_decision d =
                    cold_round
                        ? compute_bid_with(
                              offsets[r + 1] - base,
                              [&](std::size_t k) { return v - costs[k]; },
                              [](std::size_t) { return 0.0; }, bidding)
                        : compute_bid_with(
                              offsets[r + 1] - base,
                              [&](std::size_t k) { return v - costs[k] - lambda[ups[k]]; },
                              [&](std::size_t k) { return lambda[ups[k]]; }, bidding);
                if (d.action == bid_action::submit)
                    dec[i] = {static_cast<std::uint32_t>(base + d.candidate),
                              ups[d.candidate], d.amount};
                else
                    dec[i].candidate = abstained;
            }
        });
        cold = false;

        // --- bin bids per uploader, in request order (serial counting sort:
        // this fixes the canonical per-uploader processing order) ---
        touched_.clear();
        std::size_t total_bids = 0;
        for (std::size_t i = 0; i < n_active; ++i) {
            if (dec[i].candidate == abstained) {
                // Prices only rise, so a negative best margin is permanent:
                // the abstainer drops out for the rest of the solve.
                ++result.abstentions;
                continue;
            }
            const std::uint32_t u = dec[i].uploader;
            if (bid_count_[u]++ == 0) {
                touched_of_uploader_[u] = static_cast<std::uint32_t>(touched_.size());
                touched_.push_back(u);
            }
            ++total_bids;
        }
        result.bids_submitted += total_bids;
        if (total_bids == 0) break;  // everyone abstained: converged

        const std::size_t nt = touched_.size();
        bin_start_.resize(nt + 1);  // +1: the merge reads per-bin counts as
                                    // bin_start_[t+1] − bin_start_[t]
        bin_fill_.resize(nt);
        loser_count_.resize(nt);
        evict_count_.resize(nt);
        // Each touched seller's room for its whole bin is carved here,
        // serially, so the concurrent settle below never grows a set.
        std::size_t cum = 0;
        for (std::size_t t = 0; t < nt; ++t) {
            bin_start_[t] = cum;
            bin_fill_[t] = cum;
            cum += bid_count_[touched_[t]];
            book_.reserve(touched_[t], bid_count_[touched_[t]]);
        }
        bin_start_[nt] = cum;
        bins_.resize(total_bids);
        losers_.resize(total_bids);  // ≤ one loser per bid (rejected XOR evicts)
        for (std::size_t i = 0; i < n_active; ++i) {
            if (dec[i].candidate == abstained) continue;
            bins_[bin_fill_[touched_of_uploader_[dec[i].uploader]]++] = {
                act[i], dec[i].candidate, dec[i].amount};
        }

        // --- merge phase: touched uploaders settle concurrently. Worker t
        // owns seller touched_[t] in the book, its loser segment, and the
        // choice slots of every request appearing in its bin (each active
        // request bid exactly one uploader; an evicted holder was assigned
        // here and nowhere else) — so the writes partition by construction.
        std::ptrdiff_t* choice = result.sched.choice.data();
        for_blocks(nt, /*grain=*/16, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t t = lo; t < hi; ++t) {
                const std::uint32_t u = touched_[t];
                const std::size_t start = bin_start_[t];
                const std::size_t end = bin_start_[t + 1];
                std::uint32_t nlos = 0;
                std::uint64_t nevict = 0;
                const bool all_clear =
                    std::all_of(bins_.begin() + start, bins_.begin() + end,
                                [&](const bin_entry& b) { return b.amount > lambda[u]; });
                if (all_clear && book_.fits(u, end - start)) {
                    for (std::size_t k = start; k < end; ++k) {
                        book_.append(u, bins_[k].request, bins_[k].amount);
                        choice[bins_[k].request] = static_cast<std::ptrdiff_t>(
                            bins_[k].candidate - offsets[bins_[k].request]);
                    }
                    book_.settle(u);
                } else {
                    for (std::size_t k = start; k < end; ++k) {
                        const std::uint32_t r = bins_[k].request;
                        const auto o = book_.offer(u, r, bins_[k].amount);
                        if (!o.accepted) {
                            losers_[start + nlos++] = r;
                            continue;
                        }
                        if (o.evicted != seller_book::no_request) {
                            ++nevict;
                            choice[o.evicted] = no_candidate;
                            losers_[start + nlos++] = o.evicted;
                        }
                        choice[r] = static_cast<std::ptrdiff_t>(bins_[k].candidate -
                                                                offsets[r]);
                    }
                }
                loser_count_[t] = nlos;
                evict_count_[t] = nevict;
            }
        });

        // --- losers re-bid next round, in ascending request order ---
        next_active_.clear();
        for (std::size_t t = 0; t < nt; ++t) {
            result.evictions += evict_count_[t];
            for (std::uint32_t k = 0; k < loser_count_[t]; ++k)
                next_active_.push_back(losers_[bin_start_[t] + k]);
            bid_count_[touched_[t]] = 0;  // re-zero only what this round used
        }
        std::sort(next_active_.begin(), next_active_.end());
        active_.swap(next_active_);
    }

    for (std::size_t u = 0; u < nu; ++u)
        if (book_.capacity(u) > 0) prices[u] = lambda[u];
}

void parallel_auction_solver::shed_memory() {
    book_.shed();
    std::vector<std::uint32_t>().swap(active_);
    std::vector<std::uint32_t>().swap(next_active_);
    std::vector<bid_slot>().swap(decisions_);
    std::vector<bin_entry>().swap(bins_);
    std::vector<std::uint32_t>().swap(losers_);
    std::vector<std::uint32_t>().swap(touched_);
    std::vector<std::uint32_t>().swap(bid_count_);
    std::vector<std::size_t>().swap(bin_start_);
    std::vector<std::size_t>().swap(bin_fill_);
    std::vector<std::uint32_t>().swap(loser_count_);
    std::vector<std::uint64_t>().swap(evict_count_);
    std::vector<std::uint32_t>().swap(touched_of_uploader_);
}

std::size_t parallel_auction_solver::workspace_bytes() const {
    return book_.bytes() +
           active_.capacity() * sizeof(std::uint32_t) +
           next_active_.capacity() * sizeof(std::uint32_t) +
           decisions_.capacity() * sizeof(bid_slot) +
           bins_.capacity() * sizeof(bin_entry) +
           losers_.capacity() * sizeof(std::uint32_t) +
           touched_.capacity() * sizeof(std::uint32_t) +
           bid_count_.capacity() * sizeof(std::uint32_t) +
           bin_start_.capacity() * sizeof(std::size_t) +
           bin_fill_.capacity() * sizeof(std::size_t) +
           loser_count_.capacity() * sizeof(std::uint32_t) +
           evict_count_.capacity() * sizeof(std::uint64_t) +
           touched_of_uploader_.capacity() * sizeof(std::uint32_t);
}

}  // namespace p2pcd::core
