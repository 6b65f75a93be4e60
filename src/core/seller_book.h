// Bandwidth allocation at the upstream peers — "Bandwidth Allocation at
// Peer u" in Sec. IV-B (the auctioneer half of Alg. 1), kept for every
// seller of one problem in one book. The synchronous, the Jacobi and the
// message-level auctions all sell through it.
//
// Seller u keeps the B(u) highest bids in its assignment set. A bid at or
// below λ_u is rejected. While the set is not full λ_u keeps its starting
// value (0, or a warm-started price); once full, λ_u is the lowest accepted
// bid, and a new accepted bid evicts that lowest bidder. λ_u is
// non-decreasing during an auction; only remove() (churn, Sec. IV-C) lowers
// it, back to 0, when it frees a unit.
//
// Layout: every assignment set is a min-heap in one flat slab, with 16
// bytes of metadata per seller and a dense λ array (+inf for a
// zero-capacity seller, which can never sell) that bidders gather from
// directly. A set's region is carved from the slab on its first sale and
// moves to a region twice as large (at most B(u)) when it fills: most
// sellers sell far below B(u), so the slab tracks the units actually sold,
// not the capacity offered. Heap order is (amount, seq): equal bids evict
// the oldest first. seq is unique per seller, so the heap's internal layout
// — including a move — never decides an outcome.
//
// Operations on different sellers touch disjoint memory, except growth,
// which carves from the shared slab: a caller that settles sellers
// concurrently (the Jacobi merge) reserve()s every seller's room first.
#ifndef P2PCD_CORE_SELLER_BOOK_H
#define P2PCD_CORE_SELLER_BOOK_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.h"
#include "core/problem.h"

namespace p2pcd::core {

class seller_book {
public:
    static constexpr std::uint32_t no_request = 0xffffffffu;

    // One held unit: the winning request and its standing bid.
    struct holder {
        double amount = 0.0;
        std::uint32_t seq = 0;  // acceptance order at this seller
        std::uint32_t request = 0;
    };

    struct outcome {
        bool accepted = false;
        bool price_changed = false;  // the seller would broadcast the new λ_u
        std::uint32_t evicted = no_request;  // request evicted to make room
    };

    // One seller per uploader, with capacity B(u); arms the book cold.
    // Capacities hold until the next layout().
    void layout(std::span<const uploader_info> uploaders);

    // Re-arms for a new auction: empties every set and seeds λ_u from
    // prices[u] (must be ≥ 0; empty = all 0). Zero-capacity sellers stay +inf.
    void arm(std::span<const double> prices);

    // A bid of `amount` from `request` to seller u. Inline: the synchronous
    // auction calls this once per submitted bid.
    outcome offer(std::size_t u, std::uint32_t request, double amount) {
        outcome result;
        double& lambda = prices_[u];
        if (!(amount > lambda)) return result;  // "if b(d,c,u) <= λ_u, reject"
        seller& s = sellers_[u];
        if (s.size == s.capacity) {
            // Evict the lowest bid to make room for the higher one.
            holder* heap = slab_.data() + s.offset;
            std::pop_heap(heap, heap + s.size, after);
            result.evicted = heap[--s.size].request;
        } else if (s.size == room_[u]) {
            grow(u, s.size + 1);
        }
        holder* heap = slab_.data() + s.offset;
        heap[s.size++] = {amount, s.seq++, request};
        std::push_heap(heap, heap + s.size, after);
        result.accepted = true;
        result.price_changed = lift(s, lambda);
        return result;
    }

    // Room for `count` more units at seller u (never beyond B(u)). Carves
    // from the shared slab, so it must not run concurrently with any other
    // call; afterwards offer(), append() and settle() at u stay within u's
    // own memory for the next `count` sales.
    void reserve(std::size_t u, std::size_t count) {
        const std::size_t want = std::min<std::size_t>(sellers_[u].size + count,
                                                       sellers_[u].capacity);
        if (want > room_[u]) grow(u, want);
    }

    // Bulk path for a batch that all clears λ_u and fits the free units:
    // offering it bid by bid would accept everything and evict nothing, so
    // append() skips the heap upkeep and settle() restores it once and
    // applies the price rule (returns true when λ_u changed). seq still
    // advances per append, so later tie-breaks match the one-by-one path.
    // The caller reserve()s the batch first.
    [[nodiscard]] bool fits(std::size_t u, std::size_t count) const noexcept {
        return sellers_[u].size + count <= sellers_[u].capacity;
    }
    void append(std::size_t u, std::uint32_t request, double amount) {
        seller& s = sellers_[u];
        slab_[s.offset + s.size++] = {amount, s.seq++, request};
    }
    bool settle(std::size_t u) {
        seller& s = sellers_[u];
        holder* heap = slab_.data() + s.offset;
        std::make_heap(heap, heap + s.size, after);
        return lift(s, prices_[u]);
    }

    // Releases `request`'s unit at seller u (peer departure, Sec. IV-C). A
    // set that is no longer full sells at 0 again, which re-opens the market
    // to bidders that had been priced out. False when the request held
    // nothing there.
    bool remove(std::size_t u, std::uint32_t request);

    // Seller u's holders in heap order: front() is the lowest (amount, seq),
    // the price setter; the rest in no particular order.
    [[nodiscard]] std::span<const holder> holders(std::size_t u) const {
        return {slab_.data() + sellers_[u].offset, sellers_[u].size};
    }

    // λ per seller, dense (+inf at zero capacity).
    [[nodiscard]] const double* prices() const noexcept { return prices_.data(); }
    [[nodiscard]] double price(std::size_t u) const noexcept { return prices_[u]; }
    [[nodiscard]] std::int32_t capacity(std::size_t u) const noexcept {
        return static_cast<std::int32_t>(sellers_[u].capacity);
    }
    [[nodiscard]] std::size_t size(std::size_t u) const noexcept {
        return sellers_[u].size;
    }
    [[nodiscard]] bool full(std::size_t u) const noexcept {
        return sellers_[u].size == sellers_[u].capacity;
    }
    [[nodiscard]] std::size_t num_sellers() const noexcept { return sellers_.size(); }

    // Bytes held — memory_footprint() protocol; shed() returns them all (a
    // layout() re-arms as usual).
    [[nodiscard]] std::size_t bytes() const noexcept;
    void shed() noexcept;

private:
    struct seller {
        std::uint32_t offset = 0;  // start of the set's region in the slab
        std::uint32_t size = 0;
        std::uint32_t seq = 0;  // next acceptance number
        std::uint32_t capacity = 0;
    };

    // Min-heap order for std::*_heap: "a sorts after b", so the heap's front
    // is the lowest (amount, seq) — the eviction victim and price setter.
    static bool after(const holder& a, const holder& b) noexcept {
        if (a.amount != b.amount) return a.amount > b.amount;
        return a.seq > b.seq;
    }

    // "update λ_u to the smallest bid among all requests in A" once the set
    // is full; true when λ_u changed.
    bool lift(const seller& s, double& lambda) {
        if (s.size != s.capacity) return false;
        const double lowest = slab_[s.offset].amount;
        ensures(lowest >= lambda,
                "bandwidth price must be non-decreasing during an auction");
        if (lowest == lambda) return false;
        lambda = lowest;
        return true;
    }

    // Moves seller u's set to a fresh region of at least `units` units.
    void grow(std::size_t u, std::size_t units);

    std::vector<holder> slab_;
    std::size_t carved_ = 0;  // slab prefix handed out since the last arm()
    std::vector<seller> sellers_;
    std::vector<std::uint32_t> room_;  // units in each set's current region
    std::vector<double> prices_;
};

}  // namespace p2pcd::core

#endif  // P2PCD_CORE_SELLER_BOOK_H
