// Randomized churn property suite for the slot problem build: the
// incremental build (the emulator's only production builder) must reproduce
// the full rebuild bit for bit on every bidding round — under Poisson
// arrivals, early quitters, finish-departures (whose viewer slots are
// recycled by later arrivals), the playback end-clamp and epoch re-prices —
// and must stay thread-count invariant.
//
// Two layers of checking: delta_shadow_check makes the emulator run the
// reference builder after every incremental build and throw on any
// bit-level difference (problem, request rows, uploader rows), and the tests
// additionally step an unchecked twin and require the exact same slot
// metrics and counters (the oracle observes, it never steers; welfare is
// compared as exact doubles, not approximately).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "vod/emulator.h"

namespace p2pcd::vod {
namespace {

emulator_options churny_options(std::uint64_t seed, bool shadow,
                                const std::string& scheduler = "auction") {
    emulator_options opts;
    // economy_smoke: 128-chunk videos (viewers finish within ~2 slots, so
    // the population churns continuously and the prefetch window hits the
    // end clamp), plus 3-slot pricing epochs so link costs re-price under
    // the masks' feet. Arrivals and early quitters exercise segment changes.
    opts.config = workload::scenario_config::economy_smoke();
    opts.config.arrival_rate = 1.5;
    opts.config.departure_probability = 0.5;
    opts.config.horizon_seconds = 650.0;  // 65 slots
    opts.config.master_seed = seed;
    opts.scheduler = scheduler;
    opts.delta_shadow_check = shadow;  // explicit: on even in release builds
    return opts;
}

std::uint64_t counter_value(emulator& emu, const std::string& name) {
    auto& reg = emu.counters();
    for (std::size_t i = 0; i < reg.entries().size(); ++i)
        if (reg.entries()[i].name == name) return reg.counter_at(i);
    ADD_FAILURE() << "no counter named " << name;
    return 0;
}

class delta_pipeline : public ::testing::TestWithParam<int> {};

TEST_P(delta_pipeline, incremental_build_matches_full_rebuild_over_churn) {
    const auto seed = static_cast<std::uint64_t>(GetParam()) * 131 + 7;
    emulator plain(churny_options(seed, /*shadow=*/false));
    emulator checked(churny_options(seed, /*shadow=*/true));
    const std::size_t slots = plain.catalog().num_videos() > 0 ? 65 : 0;
    for (std::size_t k = 0; k < slots; ++k) {
        const slot_metrics& mf = plain.step();
        const slot_metrics& md = checked.step();  // shadow-checked every round
        ASSERT_EQ(mf.requests, md.requests) << "slot " << k;
        ASSERT_EQ(mf.transfers, md.transfers) << "slot " << k;
        ASSERT_EQ(mf.online_peers, md.online_peers) << "slot " << k;
        ASSERT_EQ(mf.chunks_missed, md.chunks_missed) << "slot " << k;
        ASSERT_EQ(mf.auction_bids, md.auction_bids) << "slot " << k;
        // Identical problems and schedules sum welfare in the same order —
        // the doubles must match exactly, not approximately.
        ASSERT_EQ(mf.social_welfare, md.social_welfare) << "slot " << k;
    }
    // The run must actually have exercised both build paths, identically.
    EXPECT_GT(counter_value(checked, "delta.dirty_rows"), 0u);
    EXPECT_GT(counter_value(checked, "delta.reused_rows"), 0u);
    EXPECT_EQ(counter_value(plain, "delta.dirty_rows"),
              counter_value(checked, "delta.dirty_rows"));
    EXPECT_EQ(counter_value(plain, "delta.reused_rows"),
              counter_value(checked, "delta.reused_rows"));
}

TEST_P(delta_pipeline, jacobi_delta_matches_full_rebuild) {
    const auto seed = static_cast<std::uint64_t>(GetParam()) * 59 + 13;
    emulator plain(churny_options(seed, false, "auction-par"));
    emulator checked(churny_options(seed, true, "auction-par"));
    for (std::size_t k = 0; k < 20; ++k) {
        const slot_metrics& mf = plain.step();
        const slot_metrics& md = checked.step();
        ASSERT_EQ(mf.transfers, md.transfers) << "slot " << k;
        ASSERT_EQ(mf.social_welfare, md.social_welfare) << "slot " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, delta_pipeline, ::testing::Range(0, 4));

// The build is emulator-side and single-threaded; the Jacobi solver's
// determinism contract (never a function of num_threads) must hold on the
// shadow-checked build path too.
TEST(delta_pipeline_threads, delta_path_is_thread_count_invariant) {
    auto run = [](std::size_t threads) {
        emulator_options opts = churny_options(977, true, "auction-par");
        opts.config.horizon_seconds = 120.0;  // 12 slots
        opts.parallel_auction.num_threads = threads;
        opts.parallel_auction.grain = 64;  // force real splits at test scale
        emulator emu(opts);
        std::vector<slot_metrics> out;
        for (int k = 0; k < 12; ++k) out.push_back(emu.step());
        return out;
    };
    const auto base = run(1);
    for (std::size_t threads : {2u, 4u, 16u}) {
        const auto other = run(threads);
        ASSERT_EQ(base.size(), other.size());
        for (std::size_t k = 0; k < base.size(); ++k) {
            ASSERT_EQ(base[k].transfers, other[k].transfers)
                << "threads " << threads << " slot " << k;
            ASSERT_EQ(base[k].social_welfare, other[k].social_welfare)
                << "threads " << threads << " slot " << k;
            ASSERT_EQ(base[k].auction_bids, other[k].auction_bids)
                << "threads " << threads << " slot " << k;
        }
    }
}

// Cross-slot solver warm starts change schedules (they are pinned by their
// own goldens) — but the incremental-vs-full bit-identity contract must hold
// for that solver configuration as well, and the collapsed ε ladder must
// actually engage.
TEST(delta_pipeline_warm, warm_start_slots_keeps_delta_identity) {
    auto opts_of = [](bool shadow) {
        emulator_options opts = churny_options(4242, shadow, "auction-par");
        opts.config.horizon_seconds = 200.0;  // 20 slots
        opts.warm_start_slots = true;
        return opts;
    };
    emulator plain(opts_of(false));
    emulator checked(opts_of(true));
    for (std::size_t k = 0; k < 20; ++k) {
        const slot_metrics& mf = plain.step();
        const slot_metrics& md = checked.step();
        ASSERT_EQ(mf.transfers, md.transfers) << "slot " << k;
        ASSERT_EQ(mf.auction_bids, md.auction_bids) << "slot " << k;
        ASSERT_EQ(mf.social_welfare, md.social_welfare) << "slot " << k;
    }
    EXPECT_GT(counter_value(checked, "delta.early_exit_slots"), 0u);
    EXPECT_EQ(counter_value(checked, "delta.early_exit_slots"),
              counter_value(plain, "delta.early_exit_slots"));
}

}  // namespace
}  // namespace p2pcd::vod
