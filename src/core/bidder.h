// Bidding strategy of a downstream peer — "Bidding of Peer d" in Sec. IV-B.
//
// Given the request's net values v − w per candidate uploader and the current
// (possibly stale, in the distributed runtime) bandwidth prices λ, the bidder
//  * targets u* = argmax (v − w − λ),
//  * bids b = λ_{u*} + φ* − φ̂ (+ ε under the ε policy), where φ̂ is the
//    second-best margin including the outside option of staying unserved (0),
//  * abstains when even the best margin is negative (the request is better
//    off unserved — this realizes the dual constraint η ≥ 0),
//  * under the paper-literal policy, parks on an exact tie (b would equal
//    λ_{u*}; the paper says the peer "waits until the bandwidth prices ...
//    change").
#ifndef P2PCD_CORE_BIDDER_H
#define P2PCD_CORE_BIDDER_H

#include <cstddef>
#include <limits>
#include <span>

#include "common/contracts.h"

namespace p2pcd::core {

enum class bid_policy {
    // Bertsekas ε-auction: every bid raises the price by at least ε, which
    // guarantees termination and welfare within (#assigned)·ε of optimal.
    epsilon,
    // Exactly the paper's Alg. 1: zero increment on ties, bidder waits.
    paper_literal,
};

struct bidder_options {
    bid_policy policy = bid_policy::epsilon;
    double epsilon = 1e-3;
};

enum class bid_action {
    submit,   // send `amount` to `candidate`
    abstain,  // best margin < 0: stay unserved, permanently (prices only rise)
    park,     // literal-policy tie: wait for a price change
};

struct bid_decision {
    bid_action action = bid_action::abstain;
    std::size_t candidate = 0;   // ordinal of u* in the candidate list
    double amount = 0.0;         // b(d, c, u*)
    double best_margin = 0.0;    // φ* = v − w_{u*} − λ_{u*}
    double second_margin = 0.0;  // φ̂ (includes the outside option 0)
};

// Core of the bidding rule over `n` candidates: `margin_at(i)` = v − w − λ
// for candidate i, `price_at(i)` = λ of candidate i's uploader (+inf marks an
// uploader that cannot sell, e.g. zero capacity); price_at is read only for
// the winner. Every auction bids through this one kernel — the synchronous
// solver and the Jacobi sweep gather λ straight out of the seller book's
// dense array (a cold Jacobi round passes a zero price and no gather at
// all). It is the innermost operation of every auction and must stay inline.
template <typename MarginAt, typename PriceAt>
[[nodiscard]] inline bid_decision compute_bid_with(std::size_t n, MarginAt&& margin_at,
                                                   PriceAt&& price_at,
                                                   const bidder_options& options) {
    bid_decision decision;

    constexpr double neg_inf = -std::numeric_limits<double>::infinity();
    double best = neg_inf;
    double second = neg_inf;
    std::size_t best_index = SIZE_MAX;
    for (std::size_t i = 0; i < n; ++i) {
        const double margin = margin_at(i);
        if (margin > best) {
            second = best;
            best = margin;
            best_index = i;
        } else if (margin > second) {
            second = margin;
        }
    }

    // The outside option (remain unserved, utility 0) competes as the "null
    // object": it caps how much of its margin the bidder is willing to give up.
    if (second < 0.0) second = 0.0;

    if (best_index == SIZE_MAX || best < 0.0) {
        decision.action = bid_action::abstain;
        return decision;
    }
    decision.candidate = best_index;
    decision.best_margin = best;
    decision.second_margin = second;

    double increment = best - second;
    if (options.policy == bid_policy::epsilon) {
        decision.action = bid_action::submit;
        decision.amount = price_at(best_index) + increment + options.epsilon;
        return decision;
    }
    // Paper-literal: b = λ_{u*} + φ* − φ̂; when the increment is zero the bid
    // would equal the standing price and lose, so the bidder parks.
    if (increment <= 0.0) {
        decision.action = bid_action::park;
        return decision;
    }
    decision.action = bid_action::submit;
    decision.amount = price_at(best_index) + increment;
    return decision;
}

// Span form used by the distributed runtime and the unit tests.
[[nodiscard]] inline bid_decision compute_bid(std::span<const double> net_values,
                                              std::span<const double> prices,
                                              const bidder_options& options) {
    expects(net_values.size() == prices.size(),
            "net value and price arrays must be parallel");
    return compute_bid_with(
        net_values.size(), [&](std::size_t i) { return net_values[i] - prices[i]; },
        [&](std::size_t i) { return prices[i]; }, options);
}

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_BIDDER_H
