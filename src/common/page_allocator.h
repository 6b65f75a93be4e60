// Allocator for slabs that are released wholesale at a fixed point — the
// slot problem arena, shed at every slot end. Blocks of at least
// page_allocator_min_bytes are mapped straight from the OS and unmapped on
// deallocation, so releasing the slab returns its pages at once.
//
// Through malloc they would not be: after the first large free, glibc raises
// its mmap threshold (up to 32 MiB) and serves later slabs from its heaps,
// which keep freed pages resident. A fleet's shards then leave each shed
// arena in the resident set, fragmented between longer-lived blocks, and the
// fleet's peak RSS drifts up from run to run instead of tracking the slabs
// actually in flight.
//
// Mapping is not free either: every slot faults the slab in again. Mapped
// blocks therefore ask for transparent huge pages (one fault per 2 MiB), and
// only blocks of at least four huge pages are mapped, which keeps the
// rounding a huge page can add to a block's resident size under a quarter.
// Smaller blocks go through operator new as usual.
#ifndef P2PCD_COMMON_PAGE_ALLOCATOR_H
#define P2PCD_COMMON_PAGE_ALLOCATOR_H

#include <cstddef>
#include <new>

#if defined(__unix__)
#include <sys/mman.h>
#endif

namespace p2pcd {

inline constexpr std::size_t page_allocator_min_bytes = std::size_t{8} << 20;

template <class T>
struct page_allocator {
    using value_type = T;

    page_allocator() noexcept = default;
    template <class U>
    page_allocator(const page_allocator<U>& /*other*/) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        const std::size_t bytes = n * sizeof(T);
#if defined(__unix__)
        if (bytes >= page_allocator_min_bytes) {
            void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED) throw std::bad_alloc();
#if defined(MADV_HUGEPAGE)
            ::madvise(p, bytes, MADV_HUGEPAGE);  // advisory; failure is harmless
#endif
            return static_cast<T*>(p);
        }
#endif
        return static_cast<T*>(::operator new(bytes));
    }

    void deallocate(T* p, std::size_t n) noexcept {
        const std::size_t bytes = n * sizeof(T);
#if defined(__unix__)
        if (bytes >= page_allocator_min_bytes) {
            ::munmap(p, bytes);
            return;
        }
#endif
        ::operator delete(p);
    }

    friend bool operator==(const page_allocator&, const page_allocator&) noexcept {
        return true;
    }
};

}  // namespace p2pcd

#endif  // P2PCD_COMMON_PAGE_ALLOCATOR_H
