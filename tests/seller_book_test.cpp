// Unit tests for "Bandwidth Allocation at Peer u" (Sec. IV-B) as the seller
// book implements it: the assignment set, the λ update rule, rejection,
// eviction, removal (churn) and the bulk path — first one seller at a time,
// then against a naive sorted-vector model over random offer/remove runs.
#include "core/seller_book.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "common/contracts.h"

namespace p2pcd::core {
namespace {

std::vector<uploader_info> sellers_with(std::vector<std::int32_t> capacities) {
    std::vector<uploader_info> out;
    for (std::size_t u = 0; u < capacities.size(); ++u)
        out.push_back({peer_id(static_cast<std::int32_t>(u)), capacities[u]});
    return out;
}

seller_book one_seller(std::int32_t capacity) {
    seller_book book;
    book.layout(sellers_with({capacity}));
    return book;
}

constexpr std::uint32_t none = seller_book::no_request;

// --- the auctioneer rule, one seller ---

TEST(auctioneer, initial_state) {
    seller_book a = one_seller(3);
    EXPECT_DOUBLE_EQ(a.price(0), 0.0);
    EXPECT_EQ(a.capacity(0), 3);
    EXPECT_EQ(a.size(0), 0u);
    EXPECT_FALSE(a.full(0));
}

TEST(auctioneer, accepts_until_full_without_price_change) {
    seller_book a = one_seller(2);
    auto o1 = a.offer(0, 1, 5.0);
    EXPECT_TRUE(o1.accepted);
    EXPECT_FALSE(o1.price_changed);
    EXPECT_DOUBLE_EQ(a.price(0), 0.0) << "price stays 0 while set not full";

    auto o2 = a.offer(0, 2, 3.0);
    EXPECT_TRUE(o2.accepted);
    EXPECT_TRUE(o2.price_changed) << "set became full: λ = min accepted bid";
    EXPECT_DOUBLE_EQ(a.price(0), 3.0);
}

TEST(auctioneer, rejects_bid_at_or_below_price) {
    seller_book a = one_seller(1);
    EXPECT_TRUE(a.offer(0, 1, 2.0).accepted);
    EXPECT_DOUBLE_EQ(a.price(0), 2.0);
    auto equal_bid = a.offer(0, 2, 2.0);  // "if b <= λ_u, reject"
    EXPECT_FALSE(equal_bid.accepted);
    auto low_bid = a.offer(0, 3, 1.0);
    EXPECT_FALSE(low_bid.accepted);
    EXPECT_EQ(a.size(0), 1u);
}

TEST(auctioneer, evicts_lowest_bid_when_full) {
    seller_book a = one_seller(2);
    a.offer(0, 1, 5.0);
    a.offer(0, 2, 3.0);
    auto o = a.offer(0, 3, 4.0);
    ASSERT_TRUE(o.accepted);
    EXPECT_EQ(o.evicted, 2u) << "the λ-setting lowest bid is evicted";
    EXPECT_DOUBLE_EQ(a.price(0), 4.0);
    EXPECT_TRUE(o.price_changed);
}

TEST(auctioneer, price_is_monotone_across_offers) {
    seller_book a = one_seller(2);
    double last = a.price(0);
    double bids[] = {1.0, 2.0, 2.5, 4.0, 3.0, 5.0, 6.0};
    for (std::size_t i = 0; i < std::size(bids); ++i) {
        a.offer(0, static_cast<std::uint32_t>(10 + i), bids[i]);
        EXPECT_GE(a.price(0), last);
        last = a.price(0);
    }
}

TEST(auctioneer, equal_bids_evict_oldest_first) {
    seller_book a = one_seller(2);
    a.offer(0, 1, 3.0);
    a.offer(0, 2, 3.0);
    auto o = a.offer(0, 3, 4.0);
    EXPECT_EQ(o.evicted, 1u) << "FIFO tie-break for deterministic runs";
}

TEST(auctioneer, zero_capacity_rejects_everything) {
    seller_book a = one_seller(0);
    EXPECT_TRUE(std::isinf(a.price(0)));
    EXPECT_FALSE(a.offer(0, 1, 100.0).accepted);
    EXPECT_EQ(a.size(0), 0u);
}

TEST(auctioneer, assignment_set_reports_holders) {
    seller_book a = one_seller(2);
    a.offer(0, 7, 5.0);
    a.offer(0, 9, 3.0);
    auto held = a.holders(0);
    ASSERT_EQ(held.size(), 2u);
    // Heap order: the lowest bid (the price setter) first.
    EXPECT_EQ(held[0].request, 9u);
    EXPECT_DOUBLE_EQ(held[0].amount, 3.0);
    EXPECT_EQ(held[1].request, 7u);
}

TEST(auctioneer, remove_reopens_the_market) {
    seller_book a = one_seller(2);
    a.offer(0, 1, 5.0);
    a.offer(0, 2, 3.0);
    EXPECT_DOUBLE_EQ(a.price(0), 3.0);
    EXPECT_TRUE(a.remove(0, 1));
    EXPECT_EQ(a.size(0), 1u);
    EXPECT_FALSE(a.full(0));
    EXPECT_DOUBLE_EQ(a.price(0), 0.0)
        << "λ is only lifted while all units are allocated (Sec. IV-B); a "
           "freed unit sells at the initial price again";
    EXPECT_FALSE(a.remove(0, 1)) << "double removal reports absence";
}

TEST(auctioneer, refill_after_removal_updates_price_again) {
    seller_book a = one_seller(2);
    a.offer(0, 1, 5.0);
    a.offer(0, 2, 4.0);
    a.remove(0, 2);
    auto o = a.offer(0, 3, 6.0);
    EXPECT_TRUE(o.accepted);
    EXPECT_EQ(o.evicted, none) << "freed unit absorbs the new bid";
    EXPECT_DOUBLE_EQ(a.price(0), 5.0);
}

TEST(auctioneer, negative_capacity_is_rejected) {
    seller_book a;
    EXPECT_THROW(a.layout(sellers_with({2, -1})), contract_violation);
}

// --- the book as a whole ---

TEST(seller_book, arm_seeds_prices_and_empties_every_set) {
    seller_book book;
    book.layout(sellers_with({2, 0, 1}));
    book.offer(0, 1, 1.0);
    book.offer(2, 2, 1.0);
    book.arm(std::vector<double>{0.5, 7.0, 0.25});
    EXPECT_DOUBLE_EQ(book.price(0), 0.5);
    EXPECT_TRUE(std::isinf(book.price(1))) << "zero capacity never sells";
    EXPECT_DOUBLE_EQ(book.price(2), 0.25);
    for (std::size_t u = 0; u < 3; ++u) EXPECT_EQ(book.size(u), 0u);
    EXPECT_FALSE(book.offer(0, 3, 0.5).accepted) << "a warm λ rejects bids at it";
    EXPECT_THROW(book.arm(std::vector<double>{-1.0, 0.0, 0.0}), contract_violation);
    EXPECT_THROW(book.arm(std::vector<double>{0.0}), contract_violation);
}

// Sets are carved on their first sale and grow by doubling, so the slab
// tracks the units sold, not the capacity offered.
TEST(seller_book, slab_tracks_units_sold_and_sheds) {
    seller_book book;
    book.layout(sellers_with({1000, 1000}));
    const std::size_t cold = book.bytes();
    EXPECT_LT(cold, 100 * sizeof(seller_book::holder)) << "no sale, no slab";
    for (std::uint32_t r = 0; r < 10; ++r) book.offer(0, r, 1.0 + r);
    EXPECT_GE(book.bytes(), cold + 10 * sizeof(seller_book::holder));
    EXPECT_LT(book.bytes(), cold + 100 * sizeof(seller_book::holder));
    book.shed();
    EXPECT_EQ(book.bytes(), 0u);
}

// The naive model: one sorted vector of (amount, seq, request) per seller,
// the rule of Sec. IV-B written out longhand.
struct model_seller {
    std::int32_t capacity = 0;
    double price = 0.0;
    std::uint32_t next_seq = 0;
    std::vector<seller_book::holder> held;  // ascending (amount, seq)

    struct result {
        bool accepted = false;
        bool price_changed = false;
        std::uint32_t evicted = none;
    };

    result offer(std::uint32_t request, double amount) {
        result r;
        const double lambda =
            capacity == 0 ? std::numeric_limits<double>::infinity() : price;
        if (amount <= lambda) return r;
        if (static_cast<std::int32_t>(held.size()) == capacity) {
            r.evicted = held.front().request;
            held.erase(held.begin());
        }
        seller_book::holder h{amount, next_seq++, request};
        auto at = std::find_if(held.begin(), held.end(), [&](const auto& x) {
            return x.amount > h.amount || (x.amount == h.amount && x.seq > h.seq);
        });
        held.insert(at, h);
        r.accepted = true;
        if (static_cast<std::int32_t>(held.size()) == capacity &&
            held.front().amount != price) {
            price = held.front().amount;
            r.price_changed = true;
        }
        return r;
    }

    bool remove(std::uint32_t request) {
        auto it = std::find_if(held.begin(), held.end(),
                               [&](const auto& x) { return x.request == request; });
        if (it == held.end()) return false;
        held.erase(it);
        price = 0.0;
        return true;
    }
};

void expect_same(const seller_book& book, const std::vector<model_seller>& model,
                 std::size_t step) {
    for (std::size_t u = 0; u < model.size(); ++u) {
        const auto& m = model[u];
        if (m.capacity == 0) {
            EXPECT_TRUE(std::isinf(book.price(u))) << "step " << step;
        } else {
            EXPECT_EQ(book.price(u), m.price) << "seller " << u << " step " << step;
        }
        std::vector<seller_book::holder> held(book.holders(u).begin(),
                                              book.holders(u).end());
        ASSERT_EQ(held.size(), m.held.size()) << "seller " << u << " step " << step;
        if (held.empty()) continue;
        EXPECT_EQ(held.front().request, m.held.front().request)
            << "the heap front is the lowest (amount, seq)";
        std::sort(held.begin(), held.end(), [](const auto& a, const auto& b) {
            return a.amount != b.amount ? a.amount < b.amount : a.seq < b.seq;
        });
        for (std::size_t i = 0; i < held.size(); ++i) {
            EXPECT_EQ(held[i].request, m.held[i].request) << "step " << step;
            EXPECT_EQ(held[i].amount, m.held[i].amount) << "step " << step;
        }
    }
}

// Random offer/remove runs over six sellers (one of them zero-capacity, two
// large enough to move their sets to bigger regions several times),
// with amounts drawn from a handful of values so equal-amount ties are the
// norm. A request holds at most one unit at a time, as in every auction.
TEST(seller_book, random_offers_and_removals_match_sorted_model) {
    const std::vector<std::int32_t> caps = {1, 2, 3, 0, 9, 17};
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        std::mt19937_64 rng(seed);
        seller_book book;
        book.layout(sellers_with(caps));
        std::vector<model_seller> model(caps.size());
        for (std::size_t u = 0; u < caps.size(); ++u) model[u].capacity = caps[u];
        constexpr std::uint32_t requests = 40;
        std::vector<std::optional<std::size_t>> holds(requests);  // seller held at

        for (std::size_t step = 0; step < 400; ++step) {
            const std::size_t u = rng() % caps.size();
            const auto r = static_cast<std::uint32_t>(rng() % requests);
            if (rng() % 4 == 0) {
                const bool got = book.remove(u, r);
                EXPECT_EQ(got, model[u].remove(r)) << "seed " << seed << " step " << step;
                if (got) holds[r].reset();
            } else if (!holds[r]) {
                const double amount = 0.5 * static_cast<double>(1 + rng() % 8);
                const auto o = book.offer(u, r, amount);
                const auto m = model[u].offer(r, amount);
                EXPECT_EQ(o.accepted, m.accepted) << "seed " << seed << " step " << step;
                EXPECT_EQ(o.evicted, m.evicted) << "seed " << seed << " step " << step;
                EXPECT_EQ(o.price_changed, m.price_changed)
                    << "seed " << seed << " step " << step;
                if (o.accepted) holds[r] = u;
                if (o.evicted != none) holds[o.evicted].reset();
            }
            expect_same(book, model, step);
            if (::testing::Test::HasFailure()) return;
        }
    }
}

// The bulk path (append × n, then one settle) lands on the same state as
// offering the same clearing, fitting batch bid by bid — including the seq
// numbers that decide later tie-breaks.
TEST(seller_book, bulk_path_matches_one_by_one_offers) {
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const auto cap = static_cast<std::int32_t>(1 + rng() % 12);
        seller_book bulk;
        seller_book serial;
        bulk.layout(sellers_with({cap}));
        serial.layout(sellers_with({cap}));
        const std::size_t pre = rng() % static_cast<std::size_t>(cap);
        std::uint32_t next = 0;
        for (std::size_t i = 0; i < pre; ++i, ++next) {
            const double a = 0.5 * static_cast<double>(1 + rng() % 4);
            bulk.offer(0, next, a);
            serial.offer(0, next, a);
        }
        const std::size_t batch = 1 + rng() % (static_cast<std::size_t>(cap) - pre);
        ASSERT_TRUE(bulk.fits(0, batch));
        bulk.reserve(0, batch);
        bool changed = false;
        for (std::size_t i = 0; i < batch; ++i, ++next) {
            const double a = bulk.price(0) + 0.5 * static_cast<double>(1 + rng() % 4);
            bulk.append(0, next, a);
            changed = serial.offer(0, next, a).price_changed || changed;
        }
        EXPECT_EQ(bulk.settle(0), changed);
        EXPECT_EQ(bulk.price(0), serial.price(0));
        // Both must now evict the same holder at every later bid.
        for (int k = 0; k < 3 && bulk.full(0); ++k, ++next) {
            const double a = bulk.price(0) + 0.5;
            EXPECT_EQ(bulk.offer(0, next, a).evicted, serial.offer(0, next, a).evicted);
        }
    }
}

}  // namespace
}  // namespace p2pcd::core
