#include "vod/auction_runtime.h"

#include <algorithm>
#include <limits>

#include "common/contracts.h"

namespace p2pcd::vod {

namespace {
constexpr double inf = std::numeric_limits<double>::infinity();
}

auction_runtime::auction_runtime(core::problem_view problem,
                                 runtime_options options)
    : problem_(problem),
      options_(std::move(options)),
      network_(simulator_, [this](peer_id a, peer_id b) { return options_.latency(a, b); }) {
    expects(options_.latency != nullptr, "runtime requires a latency function");
    expects(options_.duration > 0.0, "slot duration must be positive");

    const std::size_t nu = problem.num_uploaders();
    const std::size_t nr = problem.num_requests();

    expects(options_.initial_prices.empty() || options_.initial_prices.size() == nu,
            "initial price vector must cover every uploader");
    expects(nr <= core::seller_book::no_request, "request index exceeds 32 bits");
    sellers_.layout(problem.all_uploaders());
    sellers_.arm(options_.initial_prices);
    for (std::size_t u = 0; u < nu; ++u)
        uploaders_of_peer_[problem.uploader(u).who].push_back(u);
    uploader_departed_.assign(nu, false);

    bidders_.resize(nr);
    ordinal_of_uploader_.resize(nr);
    watcher_peers_.resize(nu);
    requests_watching_.resize(nu);
    for (std::size_t r = 0; r < nr; ++r) {
        const auto& cands = problem.candidates(r);
        bidders_[r].cached_prices.resize(cands.size());
        for (std::size_t i = 0; i < cands.size(); ++i)
            bidders_[r].cached_prices[i] =
                options_.initial_prices.empty() ? 0.0
                                                : options_.initial_prices[cands[i].uploader];
        peer_id downstream = problem.request(r).downstream;
        requests_of_peer_[downstream].push_back(r);
        for (std::size_t i = 0; i < cands.size(); ++i) {
            ordinal_of_uploader_[r].emplace(cands[i].uploader, i);
            watcher_peers_[cands[i].uploader].push_back(downstream);
            requests_watching_[cands[i].uploader].push_back(r);
        }
    }
    for (auto& watchers : watcher_peers_) {
        std::sort(watchers.begin(), watchers.end());
        watchers.erase(std::unique(watchers.begin(), watchers.end()), watchers.end());
    }

    // One handler per participating peer; a peer can act as both bidder and
    // auctioneer. The attachment captures the receiving peer's identity so
    // price updates can refresh exactly that peer's request caches.
    auto attach = [this](peer_id who) {
        if (network_.attached(who)) return;
        network_.attach(who, [this, who](peer_id from, const message& msg) {
            handle(who, from, msg);
        });
    };
    for (std::size_t u = 0; u < nu; ++u) attach(problem.uploader(u).who);
    for (std::size_t r = 0; r < nr; ++r) attach(problem.request(r).downstream);
}

void auction_runtime::note_activity() { last_activity_ = simulator_.now(); }

void auction_runtime::broadcast_price(std::size_t uploader, double price) {
    if (price_probe_ != nullptr && uploader == probe_uploader_)
        price_probe_->record(options_.time_offset + simulator_.now(), price);
    if (options_.record_price_log)
        price_log_.push_back({options_.time_offset + simulator_.now(), uploader, price});
    peer_id seller_peer = problem_.uploader(uploader).who;
    message update{message::kind::price_update, 0, uploader, price};
    for (peer_id watcher : watcher_peers_[uploader])
        network_.send(seller_peer, watcher, update);
}

void auction_runtime::try_bid(std::size_t request) {
    bidder_state& st = bidders_[request];
    if (st.assigned || st.dropped || st.pending) return;
    const auto& cands = problem_.candidates(request);
    if (cands.empty()) {
        st.dropped = true;
        ++abstentions_;
        return;
    }

    std::vector<double> net_values(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i)
        net_values[i] = problem_.request(request).valuation - cands[i].cost;
    core::bid_decision decision =
        core::compute_bid(net_values, st.cached_prices, options_.bidding);

    switch (decision.action) {
        case core::bid_action::abstain:
            st.dropped = true;
            ++abstentions_;
            break;
        case core::bid_action::park:
            st.parked = true;
            break;
        case core::bid_action::submit: {
            std::size_t u = cands[decision.candidate].uploader;
            st.pending = true;
            st.parked = false;
            st.pending_uploader = u;
            ++bids_submitted_;
            network_.send(problem_.request(request).downstream,
                          problem_.uploader(u).who,
                          {message::kind::bid, request, u, decision.amount});
            break;
        }
    }
}

void auction_runtime::on_bid(std::size_t uploader, std::size_t request, double amount) {
    peer_id seller_peer = problem_.uploader(uploader).who;
    peer_id bidder_peer = problem_.request(request).downstream;
    const auto outcome =
        sellers_.offer(uploader, static_cast<std::uint32_t>(request), amount);
    if (!outcome.accepted) {
        ++rejections_;
        // The rejection carries the standing price: the bidder's cache was
        // stale, and this is how it catches up.
        network_.send(seller_peer, bidder_peer,
                      {message::kind::reject, request, uploader,
                       sellers_.price(uploader)});
        return;
    }
    note_activity();
    network_.send(seller_peer, bidder_peer,
                  {message::kind::accept, request, uploader, amount});
    if (outcome.evicted != core::seller_book::no_request) {
        ++evictions_;
        const std::size_t loser = outcome.evicted;
        network_.send(seller_peer, problem_.request(loser).downstream,
                      {message::kind::evict, loser, uploader,
                       sellers_.price(uploader)});
    }
    if (outcome.price_changed) broadcast_price(uploader, sellers_.price(uploader));
}

void auction_runtime::handle(peer_id self, peer_id from, const message& msg) {
    (void)from;
    switch (msg.what) {
        case message::kind::bid:
            if (uploader_departed_[msg.uploader]) return;  // stale in-flight bid
            on_bid(msg.uploader, msg.request, msg.amount);
            return;
        case message::kind::accept: {
            bidder_state& st = bidders_[msg.request];
            st.pending = false;
            st.assigned = true;
            st.assigned_candidate = ordinal_of_uploader_[msg.request].at(msg.uploader);
            note_activity();
            return;
        }
        case message::kind::reject: {
            bidder_state& st = bidders_[msg.request];
            st.pending = false;
            // The seller's quote is authoritative (per-link FIFO keeps it
            // fresher than anything cached).
            auto it = ordinal_of_uploader_[msg.request].find(msg.uploader);
            if (it != ordinal_of_uploader_[msg.request].end())
                st.cached_prices[it->second] = msg.amount;
            try_bid(msg.request);
            return;
        }
        case message::kind::evict: {
            bidder_state& st = bidders_[msg.request];
            st.assigned = false;
            auto it = ordinal_of_uploader_[msg.request].find(msg.uploader);
            if (it != ordinal_of_uploader_[msg.request].end())
                st.cached_prices[it->second] = msg.amount;
            note_activity();
            try_bid(msg.request);
            return;
        }
        case message::kind::price_update: {
            auto reqs = requests_of_peer_.find(self);
            if (reqs == requests_of_peer_.end()) return;
            for (std::size_t r : reqs->second) {
                bidder_state& st = bidders_[r];
                auto it = ordinal_of_uploader_[r].find(msg.uploader);
                if (it == ordinal_of_uploader_[r].end()) continue;
                double previous = st.cached_prices[it->second];
                st.cached_prices[it->second] = msg.amount;
                if (st.parked) {
                    // Any price movement can break the tie the bidder parked on.
                    st.parked = false;
                    try_bid(r);
                } else if (msg.amount < previous && st.dropped) {
                    // A unit was freed by a departure (Sec. IV-C): a bidder
                    // that had been priced out re-enters the market.
                    st.dropped = false;
                    try_bid(r);
                }
            }
            return;
        }
    }
}

runtime_result auction_runtime::run(metrics::time_series* price_probe,
                                    std::size_t probe_uploader) {
    price_probe_ = price_probe;
    probe_uploader_ = probe_uploader;
    if (price_probe_ != nullptr) price_probe_->record(options_.time_offset, 0.0);

    for (std::size_t r = 0; r < problem_.num_requests(); ++r) try_bid(r);
    simulator_.run_until(options_.duration);

    runtime_result result;
    result.auction.sched.choice.assign(problem_.num_requests(), core::no_candidate);
    for (std::size_t u = 0; u < sellers_.num_sellers(); ++u) {
        for (const auto& held : sellers_.holders(u)) {
            result.auction.sched.choice[held.request] =
                static_cast<std::ptrdiff_t>(ordinal_of_uploader_[held.request].at(u));
        }
    }
    result.auction.prices.assign(problem_.num_uploaders(), 0.0);
    for (std::size_t u = 0; u < sellers_.num_sellers(); ++u)
        if (sellers_.capacity(u) > 0 && !uploader_departed_[u])
            result.auction.prices[u] = sellers_.price(u);
    result.auction.request_utility =
        core::derive_request_utilities(problem_, result.auction.prices);
    result.auction.bids_submitted = bids_submitted_;
    result.auction.evictions = evictions_;
    result.auction.abstentions = abstentions_;
    result.auction.converged = simulator_.idle();
    result.convergence_time = options_.time_offset + last_activity_;
    result.messages_sent = network_.messages_sent();
    result.messages_dropped = network_.messages_dropped();
    result.price_log = std::move(price_log_);
    return result;
}

void auction_runtime::depart_peer_at(peer_id who, double after) {
    expects(after >= 0.0, "departure delay must be non-negative");
    simulator_.schedule_in(after, [this, who]() { depart_now(who); });
}

void auction_runtime::depart_now(peer_id who) {
    network_.detach(who);
    note_activity();

    // Its own requests are abandoned first, so nothing below re-bids them.
    // Units they held are released; if that lowers a seller's price, the
    // seller re-announces it, which re-admits previously priced-out bidders.
    if (auto reqs = requests_of_peer_.find(who); reqs != requests_of_peer_.end()) {
        for (std::size_t r : reqs->second) {
            bidder_state& st = bidders_[r];
            if (st.assigned) {
                const auto& cands = problem_.candidates(r);
                std::size_t u = cands[st.assigned_candidate].uploader;
                const double before = sellers_.price(u);
                sellers_.remove(u, static_cast<std::uint32_t>(r));
                if (sellers_.price(u) != before) broadcast_price(u, sellers_.price(u));
            }
            st.assigned = false;
            st.pending = false;
            st.parked = false;
            st.dropped = true;
        }
    }

    // Its auctions close. Every bidder that knows this uploader sees its
    // price jump to +inf — the omniscient stand-in for the per-bidder
    // timeout a real deployment would use (messages to the peer are already
    // being dropped by the detached network handler).
    if (auto ups = uploaders_of_peer_.find(who); ups != uploaders_of_peer_.end()) {
        for (std::size_t u : ups->second) {
            uploader_departed_[u] = true;
            while (!sellers_.holders(u).empty())
                sellers_.remove(u, sellers_.holders(u).front().request);
            for (std::size_t r : requests_watching_[u]) {
                bidder_state& st = bidders_[r];
                st.cached_prices[ordinal_of_uploader_[r].at(u)] = inf;
                bool was_assigned_here =
                    st.assigned &&
                    problem_.candidates(r)[st.assigned_candidate].uploader == u;
                bool was_pending_here = st.pending && st.pending_uploader == u;
                if (was_assigned_here) st.assigned = false;
                if (was_pending_here) st.pending = false;
                if (was_assigned_here || was_pending_here) try_bid(r);
            }
        }
    }
}

}  // namespace p2pcd::vod
