#include "core/auction.h"

#include <algorithm>

#include "common/contracts.h"

namespace p2pcd::core {

auction_result auction_driver::run(const problem_view& problem,
                                   std::span<const double> initial_prices) {
    return drive(problem, initial_prices, compute_request_utilities_);
}

schedule auction_driver::solve(const problem_view& problem) {
    return drive(problem, {}, /*recover_duals=*/false).sched;
}

auction_result auction_driver::drive(const problem_view& problem,
                                     std::span<const double> initial_prices,
                                     bool recover_duals) {
    const std::size_t nu = problem.num_uploaders();
    expects(initial_prices.empty() || initial_prices.size() == nu,
            "initial price vector must cover every uploader");

    auction_result result;
    std::vector<double> prices(nu, 0.0);
    if (!initial_prices.empty())
        std::copy(initial_prices.begin(), initial_prices.end(), prices.begin());
    run_auction(problem, prices, result);

    // The auction ran until no bid was left (the bid budget throws
    // otherwise), so it ended in ε-CS.
    result.converged = true;
    result.prices = std::move(prices);
    if (recover_duals)
        result.request_utility = derive_request_utilities(problem, result.prices);
    return result;
}

auction_solver::auction_solver(auction_options options)
    : auction_driver(options.compute_request_utilities), options_(options) {
    expects(options.bidding.epsilon >= 0.0, "epsilon must be non-negative");
    expects(options.bidding.policy == bid_policy::paper_literal ||
                options.bidding.epsilon > 0.0,
            "the epsilon policy requires a positive epsilon");
}

// One complete Gauss-Seidel auction. The fresh sweep populates the dense
// v − w array from the cost slab as it first touches each row — one pass
// instead of two.
void auction_solver::run_auction(const problem_view& problem, std::vector<double>& prices,
                                 auction_result& result) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();
    net_values_.resize(problem.num_candidates());

    result.sched.choice.assign(nr, no_candidate);

    expects(nr <= seller_book::no_request, "request index exceeds 32 bits");
    book_.layout(problem.all_uploaders());
    book_.arm(prices);

    // Requests 0..nr-1 are implicitly queued first (the fresh sweep); the
    // explicit queue only carries evicted losers and woken parked bidders,
    // which FIFO-follow the sweep exactly as if everything had been pushed.
    queue_.clear();
    std::size_t queue_head = 0;
    std::size_t next_fresh = 0;
    parked_.clear();
    std::uint64_t price_version = 0;

    std::uint64_t iterations = 0;

    // Raw CSR arrays for the hot loop — no per-iteration bounds checks. The
    // uploader indices come straight from the problem's u32 SoA slab.
    const std::uint32_t* offsets = problem.offsets().data();
    const std::uint32_t* uploader_of = problem.cand_uploaders().data();
    const double* cand_costs = problem.cand_costs().data();
    const request_info* all_requests = problem.all_requests().data();
    double* net_values = net_values_.data();
    const double* lambda = book_.prices();

    while (true) {
        std::size_t r;
        if (next_fresh < nr) {
            r = next_fresh++;
            const double v = all_requests[r].valuation;
            for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
                net_values[k] = v - cand_costs[k];
        } else {
            if (queue_head == queue_.size()) {
                // Wake parked bidders that have seen a price change.
                std::size_t kept = 0;
                for (const auto& p : parked_) {
                    if (p.price_version < price_version) queue_.push_back(p.request);
                    else parked_[kept++] = p;
                }
                parked_.resize(kept);
                if (queue_head == queue_.size()) break;  // converged: no more bids
            }
            r = queue_[queue_head++];
        }
        ensures(iterations < options_.max_bid_iterations,
                "auction exceeded its bid-iteration budget");
        ++iterations;
        const std::size_t base = offsets[r];
        const std::size_t n_cands = offsets[r + 1] - base;
        if (n_cands == 0) {
            ++result.abstentions;
            continue;
        }

        const std::uint32_t* cand_uploader = uploader_of + base;
        const double* cand_net = net_values + base;
        const auto price_at = [&](std::size_t i) { return lambda[cand_uploader[i]]; };
        bid_decision decision = compute_bid_with(
            n_cands, [&](std::size_t i) { return cand_net[i] - price_at(i); }, price_at,
            options_.bidding);

        switch (decision.action) {
            case bid_action::abstain:
                // Prices only rise, so a negative best margin is permanent.
                ++result.abstentions;
                break;
            case bid_action::park:
                parked_.push_back({r, price_version});
                break;
            case bid_action::submit: {
                ++result.bids_submitted;
                std::size_t u = cand_uploader[decision.candidate];
                const auto outcome =
                    book_.offer(u, static_cast<std::uint32_t>(r), decision.amount);
                // Against current prices a submitted bid always clears λ_u.
                ensures(outcome.accepted, "synchronous bid must be accepted");
                result.sched.choice[r] = static_cast<std::ptrdiff_t>(decision.candidate);
                if (outcome.evicted != seller_book::no_request) {
                    ++result.evictions;
                    result.sched.choice[outcome.evicted] = no_candidate;
                    queue_.push_back(outcome.evicted);
                }
                if (outcome.price_changed) ++price_version;
                break;
            }
        }
    }

    result.parked_at_termination = parked_.size();

    for (std::size_t u = 0; u < nu; ++u)
        if (book_.capacity(u) > 0) prices[u] = lambda[u];
}

std::vector<double> derive_request_utilities(const problem_view& problem,
                                             std::vector<double>& prices) {
    expects(prices.size() == problem.num_uploaders(),
            "price vector must cover every uploader");
    const std::size_t nu = problem.num_uploaders();
    const std::size_t nr = problem.num_requests();

    // Zero-capacity uploaders never sell; their dual price is free in the
    // objective (B(u)·λ_u = 0), so lift it just enough for dual feasibility.
    std::vector<double> zero_cap_price(nu, 0.0);
    std::vector<double> utilities(nr, 0.0);
    for (std::size_t r = 0; r < nr; ++r) {
        double best = 0.0;
        for (const auto& c : problem.candidates(r)) {
            double margin = problem.request(r).valuation - c.cost;
            if (problem.uploader(c.uploader).capacity == 0) {
                if (margin > zero_cap_price[c.uploader])
                    zero_cap_price[c.uploader] = margin;
                continue;
            }
            margin -= prices[c.uploader];
            if (margin > best) best = margin;
        }
        utilities[r] = best;
    }
    for (std::size_t u = 0; u < nu; ++u)
        if (problem.uploader(u).capacity == 0) prices[u] = zero_cap_price[u];
    return utilities;
}

void auction_solver::shed_memory() {
    book_.shed();
    std::vector<std::size_t>().swap(queue_);
    std::vector<parked_entry>().swap(parked_);
    std::vector<double>().swap(net_values_);
}

std::size_t auction_solver::workspace_bytes() const {
    return book_.bytes() +
           queue_.capacity() * sizeof(std::size_t) +
           parked_.capacity() * sizeof(parked_entry) +
           net_values_.capacity() * sizeof(double);
}

}  // namespace p2pcd::core
