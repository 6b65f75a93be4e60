#include "core/seller_book.h"

#include <bit>
#include <limits>

namespace p2pcd::core {

namespace {
// Smallest region carved for a set: one cache line of holders.
constexpr std::size_t min_room = 4;
}  // namespace

void seller_book::layout(std::span<const uploader_info> uploaders) {
    sellers_.resize(uploaders.size());
    room_.resize(uploaders.size());
    prices_.resize(uploaders.size());
    for (std::size_t u = 0; u < uploaders.size(); ++u) {
        expects(uploaders[u].capacity >= 0, "seller capacity must be non-negative");
        sellers_[u].capacity = static_cast<std::uint32_t>(uploaders[u].capacity);
    }
    arm({});
}

void seller_book::arm(std::span<const double> prices) {
    expects(prices.empty() || prices.size() == sellers_.size(),
            "initial price vector must cover every seller");
    carved_ = 0;
    for (std::size_t u = 0; u < sellers_.size(); ++u) {
        seller& s = sellers_[u];
        s.offset = 0;
        s.size = 0;
        s.seq = 0;
        room_[u] = 0;
        const double start = prices.empty() ? 0.0 : prices[u];
        expects(start >= 0.0, "initial price must be non-negative");
        prices_[u] = s.capacity == 0 ? std::numeric_limits<double>::infinity() : start;
    }
}

void seller_book::grow(std::size_t u, std::size_t units) {
    seller& s = sellers_[u];
    const std::size_t room = std::min<std::size_t>(
        s.capacity, std::max(min_room, std::bit_ceil(units)));
    expects(carved_ + room <= std::numeric_limits<std::uint32_t>::max(),
            "seller slab exceeds 32-bit offsets");
    if (carved_ + room > slab_.size())
        slab_.resize(std::max(carved_ + room, 2 * slab_.size()));
    std::copy_n(slab_.data() + s.offset, s.size, slab_.data() + carved_);
    s.offset = static_cast<std::uint32_t>(carved_);
    room_[u] = static_cast<std::uint32_t>(room);
    carved_ += room;
}

bool seller_book::remove(std::size_t u, std::uint32_t request) {
    seller& s = sellers_[u];
    holder* heap = slab_.data() + s.offset;
    holder* end = heap + s.size;
    holder* it = std::find_if(heap, end,
                              [&](const holder& h) { return h.request == request; });
    if (it == end) return false;
    *it = heap[--s.size];
    std::make_heap(heap, heap + s.size, after);
    prices_[u] = 0.0;  // no longer full: unsold units sell at 0
    return true;
}

std::size_t seller_book::bytes() const noexcept {
    return slab_.capacity() * sizeof(holder) + sellers_.capacity() * sizeof(seller) +
           room_.capacity() * sizeof(std::uint32_t) + prices_.capacity() * sizeof(double);
}

void seller_book::shed() noexcept {
    std::vector<holder>().swap(slab_);
    carved_ = 0;
    std::vector<seller>().swap(sellers_);
    std::vector<std::uint32_t>().swap(room_);
    std::vector<double>().swap(prices_);
}

}  // namespace p2pcd::core
