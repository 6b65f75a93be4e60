#include "core/auction.h"

#include <algorithm>

#include "common/contracts.h"

namespace p2pcd::core {

namespace {

// The ε ladder a solve descends: geometric from `initial` down to `target`
// (always ending exactly at `target`). With `adaptive` set, `initial` is
// replaced per instance: `target` itself when total capacity covers every
// request (one phase), otherwise max(v−w)/factor over the instance.
std::vector<double> epsilon_schedule(const problem_view& problem, double target,
                                     double initial, double factor, bool scaling,
                                     bool adaptive) {
    std::vector<double> schedule;
    if (scaling) {
        double eps = initial;
        if (adaptive) {
            // Supply-rich instances (every request could be served) converge
            // in ~one sweep; a coarse opening phase would only add passes.
            std::int64_t total_capacity = 0;
            for (const auto& u : problem.all_uploaders()) total_capacity += u.capacity;
            if (total_capacity >= static_cast<std::int64_t>(problem.num_requests())) {
                eps = target;
            } else {
                double max_net = 0.0;
                const auto requests = problem.all_requests();
                for (std::size_t r = 0; r < problem.num_requests(); ++r)
                    for (const auto& c : problem.candidates(r))
                        max_net = std::max(max_net, requests[r].valuation - c.cost);
                eps = std::max(target, max_net / factor);
            }
        }
        while (eps > target) {
            schedule.push_back(eps);
            eps /= factor;
        }
    }
    schedule.push_back(target);
    return schedule;
}

}  // namespace

auction_driver::auction_driver(const ladder_settings& ladder) : ladder_(ladder) {
    if (ladder.scaling) {
        expects(ladder.factor > 1.0, "scaling factor must exceed 1");
        expects(ladder.initial_epsilon >= ladder.target_epsilon,
                "initial epsilon must not be below the final epsilon");
    }
}

auction_result auction_driver::run(const problem_view& problem,
                                   std::span<const double> initial_prices) {
    return drive(problem, initial_prices, ladder_.compute_request_utilities);
}

schedule auction_driver::solve(const problem_view& problem) {
    return drive(problem, {}, /*recover_duals=*/false).sched;
}

auction_result auction_driver::drive(const problem_view& problem,
                                     std::span<const double> initial_prices,
                                     bool recover_duals) {
    const std::size_t nu = problem.num_uploaders();
    const std::size_t nr = problem.num_requests();
    expects(initial_prices.empty() || initial_prices.size() == nu,
            "initial price vector must cover every uploader");

    const std::vector<double> schedule = epsilon_schedule(
        problem, ladder_.target_epsilon, ladder_.initial_epsilon, ladder_.factor,
        ladder_.scaling, ladder_.adaptive);

    auction_result result;
    std::vector<double> prices(nu, 0.0);
    if (!initial_prices.empty())
        std::copy(initial_prices.begin(), initial_prices.end(), prices.begin());
    for (std::size_t k = 0; k < schedule.size(); ++k) {
        auction_result phase;
        run_phase(problem, schedule[k], prices, phase, /*first_phase=*/k == 0);
        // Counters accumulate across phases; the schedule of the last phase
        // is the answer.
        phase.bids_submitted += result.bids_submitted;
        phase.evictions += result.evictions;
        phase.abstentions += result.abstentions;
        phase.phases_run = result.phases_run + 1;
        phase.phase_trace = std::move(result.phase_trace);
        result = std::move(phase);
        if (ladder_.record_phase_trace)
            result.phase_trace.push_back({schedule[k], prices, result.sched.choice});

        // Between phases, repair complementary slackness condition 1: a
        // seller that ended the phase with spare capacity cannot honestly
        // quote a positive price, so its carried-over price falls back to 0.
        // Without this, coarse-phase prices strand cheap capacity for good.
        if (k + 1 < schedule.size()) {
            const std::uint32_t* offsets = problem.offsets().data();
            const std::uint32_t* cand_up = problem.cand_uploaders().data();
            used_scratch_.assign(nu, 0);
            for (std::size_t r = 0; r < nr; ++r) {
                std::ptrdiff_t c = result.sched.choice[r];
                if (c != no_candidate)
                    ++used_scratch_[cand_up[offsets[r] + static_cast<std::size_t>(c)]];
            }
            for (std::size_t u = 0; u < nu; ++u)
                if (used_scratch_[u] < problem.uploader(u).capacity) prices[u] = 0.0;
        }
    }

    // Every phase ran until no bid was left (the bid budget throws
    // otherwise), so the final phase ended in ε-CS.
    result.converged = true;
    result.prices = std::move(prices);
    if (recover_duals)
        result.request_utility = derive_request_utilities(problem, result.prices);
    return result;
}

void auction_driver::shed_memory() {
    std::vector<std::int64_t>().swap(used_scratch_);
}

std::size_t auction_driver::workspace_bytes() const {
    return used_scratch_.capacity() * sizeof(std::int64_t);
}

auction_solver::auction_solver(auction_options options)
    : auction_driver({options.bidding.epsilon, options.epsilon_scaling,
                      options.adaptive_scaling, options.scaling_initial_epsilon,
                      options.scaling_factor, options.record_phase_trace,
                      options.compute_request_utilities}),
      options_(options) {
    expects(options.bidding.epsilon >= 0.0, "epsilon must be non-negative");
    expects(options.bidding.policy == bid_policy::paper_literal ||
                options.bidding.epsilon > 0.0,
            "the epsilon policy requires a positive epsilon");
    expects(!options.epsilon_scaling || options.bidding.policy == bid_policy::epsilon,
            "epsilon scaling requires the epsilon bid policy");
}

// One complete Gauss-Seidel auction at a fixed ε. On a solve's first phase
// the fresh sweep populates the dense v − w array from the cost slab as it
// first touches each row — one pass instead of two.
void auction_solver::run_phase(const problem_view& problem, double epsilon,
                               std::vector<double>& prices, auction_result& result,
                               bool first_phase) {
    const std::size_t nr = problem.num_requests();
    const std::size_t nu = problem.num_uploaders();
    // v − w is invariant across the whole solve.
    if (first_phase) net_values_.resize(problem.num_candidates());

    bidder_options bidding = options_.bidding;
    bidding.epsilon = epsilon;

    result.sched.choice.assign(nr, no_candidate);

    // Capacities are invariant across the ε ladder: lay the book out once.
    if (first_phase) {
        expects(nr <= seller_book::no_request, "request index exceeds 32 bits");
        book_.layout(problem.all_uploaders());
    }
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
            if (first_phase) {
                const double v = all_requests[r].valuation;
                for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k)
                    net_values[k] = v - cand_costs[k];
            }
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
            bidding);

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
    auction_driver::shed_memory();
    book_.shed();
    std::vector<std::size_t>().swap(queue_);
    std::vector<parked_entry>().swap(parked_);
    std::vector<double>().swap(net_values_);
}

std::size_t auction_solver::workspace_bytes() const {
    return auction_driver::workspace_bytes() + book_.bytes() +
           queue_.capacity() * sizeof(std::size_t) +
           parked_.capacity() * sizeof(parked_entry) +
           net_values_.capacity() * sizeof(double);
}

}  // namespace p2pcd::core
