#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"
#include "common/logging.h"
#include "common/page_allocator.h"

namespace p2pcd {
namespace {

TEST(ids, default_constructed_is_invalid) {
    peer_id p;
    EXPECT_FALSE(p.valid());
    EXPECT_TRUE(peer_id(0).valid());
    EXPECT_TRUE(peer_id(41).valid());
}

TEST(ids, distinct_tag_types_do_not_mix) {
    static_assert(!std::is_convertible_v<peer_id, chunk_id>);
    static_assert(!std::is_convertible_v<int, peer_id>);  // explicit ctor
    static_assert(std::is_trivially_copyable_v<peer_id>);
}

TEST(ids, comparison_and_ordering) {
    EXPECT_EQ(peer_id(3), peer_id(3));
    EXPECT_NE(peer_id(3), peer_id(4));
    EXPECT_LT(peer_id(3), peer_id(4));
    EXPECT_GT(video_id(9), video_id(1));
}

TEST(ids, hashing_supports_unordered_containers) {
    std::unordered_set<peer_id> set;
    set.insert(peer_id(1));
    set.insert(peer_id(2));
    set.insert(peer_id(1));
    EXPECT_EQ(set.size(), 2u);
    EXPECT_TRUE(set.contains(peer_id(2)));
}

TEST(ids, streams_its_value) {
    std::ostringstream os;
    os << peer_id(17);
    EXPECT_EQ(os.str(), "17");
}

TEST(contracts, expects_throws_with_message) {
    EXPECT_NO_THROW(expects(true, "fine"));
    try {
        expects(false, "peer id must be valid");
        FAIL() << "expects should have thrown";
    } catch (const contract_violation& e) {
        EXPECT_NE(std::string(e.what()).find("peer id must be valid"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
    }
}

TEST(contracts, ensures_marks_postconditions) {
    try {
        ensures(false, "welfare must be finite");
        FAIL() << "ensures should have thrown";
    } catch (const contract_violation& e) {
        EXPECT_NE(std::string(e.what()).find("postcondition"), std::string::npos);
    }
}

TEST(logging, threshold_filters_messages) {
    auto previous = get_log_level();
    set_log_level(log_level::error);
    EXPECT_EQ(get_log_level(), log_level::error);
    // A warn below the threshold is discarded (observable only as no crash;
    // the formatting path is still exercised at error level).
    log(log_level::warn, "test") << "dropped";
    log(log_level::error, "test") << "kept " << 42;
    set_log_level(previous);
}

// Both paths of the page allocator hold data and release it: a small block
// comes from operator new, one past page_allocator_min_bytes is mapped.
TEST(page_allocator, small_and_mapped_blocks_round_trip) {
    for (const std::size_t n : {std::size_t{1000},
                                page_allocator_min_bytes / sizeof(double) + 1}) {
        std::vector<double, page_allocator<double>> v(n, 1.5);
        v.back() = 2.5;
        EXPECT_EQ(v.front(), 1.5) << n;
        EXPECT_EQ(v.back(), 2.5) << n;
        v.push_back(3.5);  // regrows: allocate, copy, deallocate the old block
        EXPECT_EQ(v[n - 1], 2.5) << n;
        EXPECT_EQ(v.back(), 3.5) << n;
    }
}

}  // namespace
}  // namespace p2pcd
