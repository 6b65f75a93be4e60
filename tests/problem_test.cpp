#include "core/problem.h"

#include <gtest/gtest.h>

#include "common/contracts.h"

namespace p2pcd::core {
namespace {

TEST(problem, builds_and_reads_back) {
    scheduling_problem p;
    auto u0 = p.add_uploader(peer_id(5), 3);
    auto r0 = p.add_request(peer_id(9), chunk_id(100), 2.5);
    p.add_candidate(r0, u0, 0.5);

    EXPECT_EQ(p.num_uploaders(), 1u);
    EXPECT_EQ(p.num_requests(), 1u);
    EXPECT_EQ(p.num_candidates(), 1u);
    EXPECT_EQ(p.uploader(u0).who, peer_id(5));
    EXPECT_EQ(p.uploader(u0).capacity, 3);
    EXPECT_EQ(p.request(r0).chunk, chunk_id(100));
    EXPECT_DOUBLE_EQ(p.net_value(r0, 0), 2.0);
}

TEST(problem, rejects_malformed_input) {
    scheduling_problem p;
    EXPECT_THROW(p.add_uploader(peer_id(0), -1), contract_violation);
    auto u = p.add_uploader(peer_id(0), 1);
    EXPECT_THROW(p.add_candidate(0, u, 1.0), contract_violation);  // no request yet
    auto r = p.add_request(peer_id(1), chunk_id(0), 1.0);
    EXPECT_THROW(p.add_candidate(r, 99, 1.0), contract_violation);
    EXPECT_THROW((void)p.uploader(7), contract_violation);
    EXPECT_THROW((void)p.request(7), contract_violation);
    EXPECT_THROW((void)p.net_value(r, 0), contract_violation);  // no candidates
}

TEST(problem, transportation_conversion_preserves_structure) {
    scheduling_problem p;
    auto u0 = p.add_uploader(peer_id(0), 2);
    auto u1 = p.add_uploader(peer_id(1), 5);
    auto r0 = p.add_request(peer_id(2), chunk_id(0), 4.0);
    auto r1 = p.add_request(peer_id(3), chunk_id(1), 6.0);
    p.add_candidate(r0, u0, 1.0);
    p.add_candidate(r0, u1, 3.0);
    p.add_candidate(r1, u1, 0.5);

    auto instance = p.to_transportation();
    EXPECT_EQ(instance.num_sources, 2u);
    ASSERT_EQ(instance.sink_capacity.size(), 2u);
    EXPECT_EQ(instance.sink_capacity[0], 2);
    EXPECT_EQ(instance.sink_capacity[1], 5);
    ASSERT_EQ(instance.edges.size(), 3u);
    EXPECT_DOUBLE_EQ(instance.edges[0].profit, 3.0);   // 4 - 1
    EXPECT_DOUBLE_EQ(instance.edges[1].profit, 1.0);   // 4 - 3
    EXPECT_DOUBLE_EQ(instance.edges[2].profit, 5.5);   // 6 - 0.5

    auto origins = p.edge_origins();
    ASSERT_EQ(origins.size(), 3u);
    EXPECT_EQ(origins[0].request, 0u);
    EXPECT_EQ(origins[0].candidate, 0u);
    EXPECT_EQ(origins[2].request, 1u);
    EXPECT_EQ(origins[2].candidate, 0u);
}

TEST(problem, view_exposes_the_csr_layout) {
    scheduling_problem p;
    auto u0 = p.add_uploader(peer_id(0), 2);
    auto u1 = p.add_uploader(peer_id(1), 5);
    auto r0 = p.add_request(peer_id(2), chunk_id(0), 4.0);
    auto r1 = p.add_request(peer_id(3), chunk_id(1), 6.0);
    p.add_candidate(r0, u0, 1.0);
    p.add_candidate(r0, u1, 3.0);
    p.add_candidate(r1, u1, 0.5);

    problem_view view = p;  // implicit conversion = p.view()
    EXPECT_EQ(view.num_uploaders(), 2u);
    EXPECT_EQ(view.num_requests(), 2u);
    EXPECT_EQ(view.num_candidates(), 3u);
    EXPECT_EQ(view.candidate_offset(r0), 0u);
    EXPECT_EQ(view.candidate_offset(r1), 2u);
    ASSERT_EQ(view.candidates(r0).size(), 2u);
    ASSERT_EQ(view.candidates(r1).size(), 1u);
    EXPECT_EQ(view.candidates(r1)[0].uploader, u1);
    EXPECT_DOUBLE_EQ(view.net_value(r1, 0), 5.5);
    // The flat slabs are contiguous: row r1 starts right after row r0.
    const std::size_t r1_off = view.candidate_offset(r1);
    EXPECT_EQ(view.cand_uploaders()[r1_off], view.candidates(r1)[0].uploader);
    EXPECT_DOUBLE_EQ(view.cand_costs()[r1_off], view.candidates(r1)[0].cost);
    EXPECT_THROW((void)view.candidates(7), contract_violation);
    EXPECT_THROW((void)view.net_value(r1, 3), contract_violation);
}

TEST(problem, out_of_order_candidate_insertion_keeps_rows_intact) {
    scheduling_problem p;
    auto u0 = p.add_uploader(peer_id(0), 1);
    auto u1 = p.add_uploader(peer_id(1), 1);
    auto r0 = p.add_request(peer_id(2), chunk_id(0), 4.0);
    auto r1 = p.add_request(peer_id(3), chunk_id(1), 6.0);
    p.add_candidate(r0, u0, 1.0);
    p.add_candidate(r1, u1, 0.5);
    // Late insert into the *earlier* request: the CSR tail must shift.
    p.add_candidate(r0, u1, 2.0);

    ASSERT_EQ(p.candidates(r0).size(), 2u);
    EXPECT_EQ(p.candidates(r0)[0].uploader, u0);
    EXPECT_EQ(p.candidates(r0)[1].uploader, u1);
    ASSERT_EQ(p.candidates(r1).size(), 1u);
    EXPECT_EQ(p.candidates(r1)[0].uploader, u1);
    EXPECT_DOUBLE_EQ(p.net_value(r0, 1), 2.0);
}

TEST(problem, clear_resets_content_but_reuses_the_arena) {
    scheduling_problem p;
    auto u = p.add_uploader(peer_id(0), 3);
    auto r = p.add_request(peer_id(1), chunk_id(0), 2.0);
    p.add_candidate(r, u, 0.5);

    p.clear();
    EXPECT_EQ(p.num_uploaders(), 0u);
    EXPECT_EQ(p.num_requests(), 0u);
    EXPECT_EQ(p.num_candidates(), 0u);
    EXPECT_THROW((void)p.request(0), contract_violation);

    // The builder is fully usable again after clear().
    auto u2 = p.add_uploader(peer_id(9), 1);
    auto r2 = p.add_request(peer_id(8), chunk_id(7), 5.0);
    p.add_candidate(r2, u2, 1.0);
    EXPECT_EQ(p.uploader(u2).who, peer_id(9));
    EXPECT_DOUBLE_EQ(p.net_value(r2, 0), 4.0);

    problem_view view = p.view();
    EXPECT_EQ(view.num_requests(), 1u);
    EXPECT_EQ(view.candidates(r2).size(), 1u);
}

// shed() returns every byte (memory_bytes() reads 0); clear() makes the
// shed builder usable again.
TEST(problem, shed_releases_everything_and_clear_restores) {
    scheduling_problem p;
    auto u = p.add_uploader(peer_id(3), 2);
    auto r = p.add_request(peer_id(1), chunk_id(0), 2.0);
    p.add_candidate(r, u, 0.5);
    EXPECT_GT(p.memory_bytes(), 0u);

    p.shed();
    EXPECT_EQ(p.memory_bytes(), 0u);

    p.clear();
    auto u2 = p.add_uploader(peer_id(9), 1);
    auto r2 = p.add_request(peer_id(8), chunk_id(7), 5.0);
    p.add_candidate(r2, u2, 1.0);
    EXPECT_EQ(p.view().num_requests(), 1u);
    EXPECT_EQ(p.view().candidates(r2).size(), 1u);
}

TEST(problem, schedule_assigned_helper) {
    schedule s;
    s.choice = {no_candidate, 2};
    EXPECT_FALSE(s.assigned(0));
    EXPECT_TRUE(s.assigned(1));
}

}  // namespace
}  // namespace p2pcd::core
