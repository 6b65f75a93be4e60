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
// compared as exact doubles, not approximately). The oracle prices every
// link straight from the cost model, so a stale or mispriced draw held by
// the production path cannot hide behind it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/fleet.h"
#include "vod/emulator.h"
#include "workload/fleet_config.h"

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

// A neighbor segment longer than a candidate mask holds (32 bits) cannot be
// emitted from the row's masks; such rows take the row-by-row fallback
// build. One video and 40 neighbors per viewer put most rows there, and the
// shadowed run must still match the full rebuild and an unchecked twin.
TEST(delta_pipeline, rows_past_the_mask_width_take_the_fallback_build) {
    auto opts_of = [](bool shadow) {
        emulator_options opts = churny_options(41, shadow);
        opts.config.num_videos = 1;
        opts.config.initial_peers = 60;
        opts.config.neighbor_count = 40;
        opts.config.horizon_seconds = 100.0;  // 10 slots
        return opts;
    };
    emulator plain(opts_of(false));
    emulator checked(opts_of(true));
    std::size_t widest = 0;
    for (std::size_t k = 0; k < 10; ++k) {
        const slot_metrics& mf = plain.step();
        const slot_metrics& md = checked.step();
        ASSERT_EQ(mf.transfers, md.transfers) << "slot " << k;
        ASSERT_EQ(mf.auction_bids, md.auction_bids) << "slot " << k;
        ASSERT_EQ(mf.social_welfare, md.social_welfare) << "slot " << k;
        for (std::size_t row = 0; row < checked.peers().rows(); ++row)
            widest = std::max(widest, checked.neighbor_rows(row).size());
    }
    EXPECT_GT(widest, 32u) << "no row outgrew the mask width";
    EXPECT_GT(counter_value(checked, "delta.dirty_rows"), 0u);
}

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

// Viewers keep their links' draws across slots and re-price them at the
// live prices. economy_smoke's pricing epochs move peering prices between
// slots while most segments stay put, so the held draws are re-priced at
// new prices; the oracle must agree on every round, and it must not move
// the cost-cache counters.
TEST(delta_pipeline_costs, economy_epochs_reprice_held_draws) {
    auto opts_of = [](bool shadow) {
        emulator_options opts;
        opts.config = workload::scenario_config::economy_smoke();
        opts.config.horizon_seconds = 120.0;  // 12 slots, 4 pricing epochs
        opts.delta_shadow_check = shadow;
        return opts;
    };
    emulator plain(opts_of(false));
    emulator checked(opts_of(true));
    for (std::size_t k = 0; k < 12; ++k) {
        const slot_metrics& mf = plain.step();
        const slot_metrics& md = checked.step();
        ASSERT_EQ(mf.transfers, md.transfers) << "slot " << k;
        ASSERT_EQ(mf.social_welfare, md.social_welfare) << "slot " << k;
    }
    // Some epoch closed before the last slot and moved a price.
    bool moved = false;
    for (const isp::epoch_summary& e : checked.price_epochs())
        if (e.first_slot + e.num_slots < 12 && e.raised + e.lowered > 0) moved = true;
    EXPECT_TRUE(moved) << "no price moved under the held draws";
    EXPECT_GT(counter_value(checked, "delta.reused_rows"), 0u);
    for (const char* name : {"cost.cache_hits", "cost.cache_misses"})
        EXPECT_EQ(counter_value(plain, name), counter_value(checked, name)) << name;
}

// In a coupled fleet the serial hook rewrites every shard's surcharge table
// between slots; held draws must pick the new surcharges up.
TEST(delta_pipeline_costs, coupled_fleet_surcharges_reprice_held_draws) {
    auto opts_of = [](bool shadow) {
        engine::fleet_options opts;
        opts.config = workload::fleet_config::coupled_smoke_fleet();
        // Every ISP seeds every video, so the auction keeps traffic local;
        // the random baseline crosses ISPs and saturates the quartered pools.
        opts.config.scheduler = "random";
        opts.swarm_options.delta_shadow_check = shadow;
        return opts;
    };
    engine::fleet plain(opts_of(false));
    engine::fleet checked(opts_of(true));
    std::size_t saturated = 0;
    for (std::size_t k = 0; k < checked.num_slots(); ++k) {
        const engine::fleet_slot_metrics& mf = plain.step();
        const engine::fleet_slot_metrics& md = checked.step();
        ASSERT_EQ(mf.transfers, md.transfers) << "slot " << k;
        ASSERT_EQ(mf.social_welfare, md.social_welfare) << "slot " << k;
        if (k + 1 < checked.num_slots())
            saturated = std::max(saturated, checked.link_stats().saturated_pairs);
    }
    EXPECT_GT(saturated, 0u) << "no pair saturated, so no surcharge moved";
}

// Churn changes segments: arrivals, early quitters and recycled viewer
// slots make the slot pass re-draw, so the cost cache keeps taking misses
// after the first slot — and the oracle must agree on every round.
TEST(delta_pipeline_costs, churn_redraws_changed_segments) {
    emulator plain(churny_options(31, /*shadow=*/false));
    emulator checked(churny_options(31, /*shadow=*/true));
    std::uint64_t misses_after_first = 0;
    for (std::size_t k = 0; k < 30; ++k) {
        const slot_metrics& mf = plain.step();
        const slot_metrics& md = checked.step();
        ASSERT_EQ(mf.transfers, md.transfers) << "slot " << k;
        ASSERT_EQ(mf.social_welfare, md.social_welfare) << "slot " << k;
        if (k == 0) misses_after_first = counter_value(checked, "cost.cache_misses");
    }
    EXPECT_GT(counter_value(checked, "cost.cache_misses"), misses_after_first);
    EXPECT_EQ(counter_value(plain, "cost.cache_misses"),
              counter_value(checked, "cost.cache_misses"));
}

}  // namespace
}  // namespace p2pcd::vod
