// Equivalence suite for the slot-pipeline refactor (dense peer table +
// incremental tracker + CSR neighbor arena): the refactor must be
// *behavior-preserving*, so neighbor lists, schedules (observed through
// transfers/welfare/buffers) and per-slot metrics are pinned bit-identical
// to hashes captured from the pre-refactor emulator (AoS peer_state,
// per-peer stable_sort tracker) on the same scenarios.
//
// The constants were captured with GCC/x86-64 (glibc libm). They pin exact
// IEEE doubles, so a different compiler/libm may legitimately fold FP
// differently; on such toolchains the comparisons are skipped unless
// P2PCD_GOLDEN_STRICT=1. Set P2PCD_GOLDEN_DUMP=1 to print this build's
// hashes (e.g. to re-capture after an intentional behavior change).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl_sink.h"
#include "vod/auction_runtime.h"
#include "vod/emulator.h"
#include "vod/pipeline_golden.h"
#include "workload/instance_gen.h"
#include "workload/scenario_registry.h"

namespace p2pcd::vod {
namespace {

struct run_hashes {
    std::uint64_t neighbors = golden_seed;
    std::uint64_t metrics = golden_seed;
    std::uint64_t final_state = golden_seed;
};

// Knobs a golden run may vary from the default emulator configuration.
struct scenario_run_options {
    std::string scheduler = "auction";
    std::size_t solver_threads = 1;  // auction-par only
    bool warm_start = false;  // prices thread through a slot's rounds
    // Run the full rebuild as a shadow of every round's incremental build
    // (delta_shadow_check; throws on any bit-level difference).
    bool shadow = false;
    std::size_t max_slots = 0;  // 0 = the scenario's full horizon
    bool telemetry = false;  // full pipeline: counters + spans + JSONL sink
};

run_hashes run_scenario(const std::string& name,
                        const scenario_run_options& ro = {}) {
    emulator_options opts;
    opts.config = workload::builtin_scenarios().make(name);
    opts.scheduler = ro.scheduler;
    opts.parallel_auction.num_threads = ro.solver_threads;
    opts.warm_start_rounds = ro.warm_start;
    if (ro.shadow) opts.delta_shadow_check = true;
    std::ostringstream telemetry_out;
    std::optional<obs::jsonl_sink> sink;
    if (ro.telemetry) {
        sink.emplace(telemetry_out);
        opts.telemetry.sink = &*sink;
        opts.telemetry.record_spans = true;
    }
    std::size_t total = opts.config.num_slots();
    if (ro.max_slots != 0) total = std::min(total, ro.max_slots);
    emulator emu(std::move(opts));

    run_hashes h;
    for (std::size_t k = 0; k < total; ++k) {
        const auto& m = emu.step();
        std::uint64_t h_slot_nbr = golden_seed;
        golden_mix_neighbors(h_slot_nbr, emu);
        std::uint64_t h_slot_met = golden_seed;
        golden_mix_metrics(h_slot_met, m);
        golden_mix(h.neighbors, h_slot_nbr);
        golden_mix(h.metrics, h_slot_met);
    }
    // Final per-peer state: lifetime counters for every row; buffer
    // occupancy only for live rows (departed buffers are reclaimed).
    const peer_table& peers = emu.peers();
    for (std::size_t row = 0; row < peers.rows(); ++row) {
        golden_mix(h.final_state, static_cast<std::uint64_t>(row));
        const auto& life = peers.lifetime(row);
        golden_mix(h.final_state, life.chunks_due);
        golden_mix(h.final_state, life.chunks_missed);
        golden_mix(h.final_state, life.chunks_downloaded);
        golden_mix(h.final_state, life.chunks_uploaded);
        if (!peers.departed(row))
            golden_mix(h.final_state,
                       static_cast<std::uint64_t>(peers.buffer(row).count()));
    }
    return h;
}

void check_against(const std::string& name, const char* tag,
                   const golden_run_hashes* golden, const run_hashes& h) {
    ASSERT_NE(golden, nullptr) << name << " has no captured golden";
    if (std::getenv("P2PCD_GOLDEN_DUMP") != nullptr)
        std::printf("GOLDEN%s %s neighbors %016llxull metrics %016llxull final %016llxull\n",
                    tag, name.c_str(), static_cast<unsigned long long>(h.neighbors),
                    static_cast<unsigned long long>(h.metrics),
                    static_cast<unsigned long long>(h.final_state));
    if (!golden_toolchain && std::getenv("P2PCD_GOLDEN_STRICT") == nullptr)
        GTEST_SKIP() << "golden constants were captured with GCC/x86-64; "
                        "set P2PCD_GOLDEN_STRICT=1 to compare anyway";
    EXPECT_EQ(h.neighbors, golden->neighbors) << name << ": neighbor lists diverged";
    EXPECT_EQ(h.metrics, golden->metrics) << name << ": per-slot metrics diverged";
    EXPECT_EQ(h.final_state, golden->final_state)
        << name << ": final peer state diverged";
}

void check_scenario(const std::string& name) {
    check_against(name, "", golden_for(name), run_scenario(name));
}

void check_parallel_scenario(const std::string& name) {
    check_against(name, "-PAR", golden_parallel_for(name),
                  run_scenario(name, {.scheduler = "auction-par"}));
}

// The solver-level determinism contract observed end-to-end: a full emulator
// run under auction-par hashes identically at every thread count, so prices
// and schedules never depend on the partitioning. Self-comparing, hence
// enforced on every toolchain (no golden constants involved).
void check_thread_invariance(const std::string& name, bool warm_start,
                             std::size_t max_slots = 0) {
    const run_hashes ref = run_scenario(
        name, {.scheduler = "auction-par", .solver_threads = 1,
               .warm_start = warm_start, .max_slots = max_slots});
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{16}}) {
        const run_hashes h = run_scenario(
            name, {.scheduler = "auction-par", .solver_threads = threads,
                   .warm_start = warm_start, .max_slots = max_slots});
        EXPECT_EQ(h.neighbors, ref.neighbors) << name << " @" << threads;
        EXPECT_EQ(h.metrics, ref.metrics)
            << name << " @" << threads << ": schedules depend on thread count";
        EXPECT_EQ(h.final_state, ref.final_state) << name << " @" << threads;
    }
}

// Constants: vod::golden_runs (src/vod/pipeline_golden.h), captured from
// the pre-refactor emulator.
TEST(slot_golden, economy_smoke_matches_pre_refactor_emulator) {
    check_scenario("economy_smoke");
}

TEST(slot_golden, metro_5k_matches_pre_refactor_emulator) {
    check_scenario("metro_5k");
}

TEST(slot_golden, flash_crowd_10k_matches_pre_refactor_emulator) {
    check_scenario("flash_crowd_10k");
}

// The Jacobi auction's own fixed point, pinned per scenario (constants:
// vod::golden_parallel_runs). A drift here means the parallel bid/merge
// pipeline changed behavior, not just speed.
TEST(slot_golden, economy_smoke_parallel_auction_pinned) {
    check_parallel_scenario("economy_smoke");
}

TEST(slot_golden, metro_5k_parallel_auction_pinned) {
    check_parallel_scenario("metro_5k");
}

TEST(slot_golden, flash_crowd_10k_parallel_auction_pinned) {
    check_parallel_scenario("flash_crowd_10k");
}

TEST(slot_golden, parallel_auction_thread_invariant_economy_smoke) {
    check_thread_invariance("economy_smoke", false);
}

// Warm-started prices carry across rounds, so any cross-thread price
// divergence would cascade into every later slot's schedule — this variant
// pins final prices, not just schedules.
TEST(slot_golden, parallel_auction_thread_invariant_economy_smoke_warm) {
    check_thread_invariance("economy_smoke", true);
}

// Every metro slot runs at full 5 000-peer scale, so a 4-slot prefix at each
// thread count already drives the bid/merge path through real contention;
// the full-horizon fixed point is pinned by the golden above at 1 thread.
TEST(slot_golden, parallel_auction_thread_invariant_metro_5k) {
    check_thread_invariance("metro_5k", false, 4);
}

// The crowd builds over the horizon; 150 slots (~6 000 peers by the cut)
// keeps four full-scale runs affordable on the CI box.
TEST(slot_golden, parallel_auction_thread_invariant_flash_crowd_10k) {
    check_thread_invariance("flash_crowd_10k", false, 150);
}

// Telemetry may observe, never steer: the goldens must hold with the full
// observability pipeline enabled (counters + span recorder + JSONL sink),
// and the hashes must be bit-identical to a telemetry-off run. The
// cross-mode comparison is self-contained, so it is enforced on every
// toolchain; the golden comparison follows the usual toolchain gate.
TEST(slot_golden, telemetry_on_and_off_schedules_identical) {
    const run_hashes off = run_scenario("economy_smoke");
    const run_hashes on = run_scenario("economy_smoke", {.telemetry = true});
    EXPECT_EQ(on.neighbors, off.neighbors) << "telemetry changed neighbor lists";
    EXPECT_EQ(on.metrics, off.metrics) << "telemetry changed schedules";
    EXPECT_EQ(on.final_state, off.final_state) << "telemetry changed peer state";
}

// The full-build oracle: the incremental build (the only production
// builder) is shadowed by the full rebuild on every bidding round and must
// match it bit for bit, and the shadow-checked run must land on the SAME
// golden constants as the production runs above — so the reference
// semantics the shadow check enforces stay pinned to the goldens too.
TEST(slot_golden, economy_smoke_full_build_oracle_matches_same_golden) {
    check_against("economy_smoke", "-ORACLE", golden_for("economy_smoke"),
                  run_scenario("economy_smoke", {.shadow = true}));
}

TEST(slot_golden, metro_5k_full_build_oracle_matches_same_golden) {
    check_against("metro_5k", "-ORACLE", golden_for("metro_5k"),
                  run_scenario("metro_5k", {.shadow = true}));
}

TEST(slot_golden, economy_smoke_delta_parallel_matches_pinned) {
    check_against("economy_smoke", "-ORACLE-PAR",
                  golden_parallel_for("economy_smoke"),
                  run_scenario("economy_smoke",
                               {.scheduler = "auction-par", .shadow = true}));
}

// The price-carry mode: prices thread through one slot's bidding
// rounds and reset at its boundary. Pinned for both auctions, so the shared
// auction driver is held to the warm-started path too, not only to cold
// starts (constants: vod::golden_warm_rounds_economy{,_par}).
TEST(slot_golden, economy_smoke_warm_rounds_pinned) {
    check_against("economy_smoke", "-WARMROUNDS", &golden_warm_rounds_economy,
                  run_scenario("economy_smoke", {.warm_start = true}));
}

TEST(slot_golden, economy_smoke_warm_rounds_parallel_pinned) {
    check_against("economy_smoke", "-WARMROUNDS-PAR",
                  &golden_warm_rounds_economy_par,
                  run_scenario("economy_smoke",
                               {.scheduler = "auction-par", .warm_start = true}));
}

TEST(slot_golden, economy_smoke_with_telemetry_matches_pre_refactor_emulator) {
    check_against("economy_smoke", "-TELEMETRY", golden_for("economy_smoke"),
                  run_scenario("economy_smoke", {.telemetry = true}));
}

// CI smoke pin for the exact (network simplex) scheduler: 3 slots of
// economy_smoke, metrics only (the scheduler is exact, so this doubles as a
// cheap guard that the pivoting still lands on the optimal schedule), plus
// the solver.pivots counter it publishes.
TEST(slot_golden, exact_three_slot_smoke) {
    emulator_options opts;
    opts.config = workload::builtin_scenarios().make("economy_smoke");
    opts.scheduler = "exact";
    emulator emu(std::move(opts));
    std::uint64_t h = golden_seed;
    for (int k = 0; k < 3; ++k) golden_mix_metrics(h, emu.step());
    EXPECT_GT(emu.counters().counter_named("solver.pivots"), 0u);
    if (std::getenv("P2PCD_GOLDEN_DUMP") != nullptr)
        std::printf("GOLDEN-SIMPLEX economy_smoke_3slot metrics %016llxull\n",
                    static_cast<unsigned long long>(h));
    if (!golden_toolchain && std::getenv("P2PCD_GOLDEN_STRICT") == nullptr)
        GTEST_SKIP() << "golden constants were captured with GCC/x86-64; "
                        "set P2PCD_GOLDEN_STRICT=1 to compare anyway";
    EXPECT_EQ(h, golden_simplex_smoke_metrics)
        << "exact smoke metrics diverged";
}

// --- the message-level runtime (vod::auction_runtime) ---
//
// Captured 2026-10-19 on GCC 12 / x86-64 from the runtime as it stood before
// the three auctions moved onto one seller book (core/seller_book.h): the
// book's heap layout may differ from the per-auctioneer vectors it replaced,
// but keys are unique per seller, so no outcome may move.
inline constexpr std::uint64_t golden_distributed_window = 0xb81785b4b0e3493bull;
inline constexpr std::uint64_t golden_runtime_churn = 0x3f1474e2f2aa6eafull;

void check_hash(const char* tag, std::uint64_t h, std::uint64_t golden) {
    if (std::getenv("P2PCD_GOLDEN_DUMP") != nullptr)
        std::printf("GOLDEN-%s %016llxull\n", tag, static_cast<unsigned long long>(h));
    if (!golden_toolchain && std::getenv("P2PCD_GOLDEN_STRICT") == nullptr)
        GTEST_SKIP() << "golden constants were captured with GCC/x86-64; "
                        "set P2PCD_GOLDEN_STRICT=1 to compare anyway";
    EXPECT_EQ(h, golden) << tag << " diverged";
}

// coupled_smoke (arrival churn) with slots 10 s .. 40 s run as message-level
// auctions over the simulated network: every slot's metrics, then Fig. 2's λ
// series of the representative peer the run picks.
TEST(slot_golden, distributed_window_runtime_pinned) {
    emulator_options opts;
    opts.config = workload::builtin_scenarios().make("coupled_smoke");
    opts.distributed_from = 10.0;
    opts.distributed_to = 40.0;
    opts.latency_per_cost = 0.02;
    const std::size_t slots = opts.config.num_slots();
    emulator emu(std::move(opts));
    std::uint64_t h = golden_seed;
    for (std::size_t k = 0; k < slots; ++k)
        golden_mix_metrics(h, emu.step());
    const auto& series = emu.price_series();
    ASSERT_GT(series.size(), 1u) << "the window must move a price";
    golden_mix(h, static_cast<std::uint64_t>(emu.probe_peer().value()));
    for (const auto& point : series.points()) {
        golden_mix(h, point.time);
        golden_mix(h, point.value);
    }
    check_hash("DISTRIBUTED", h, golden_distributed_window);
}

// One contended runtime auction with departures mid-flight: bidders that
// hold units leave (the seller releases them and re-announces a lower λ) and
// two sellers close. Pins the schedule, the duals, every counter and the
// full λ-change log.
TEST(slot_golden, runtime_churn_pinned) {
    workload::uniform_instance_params params;
    params.num_requests = 80;
    params.num_uploaders = 10;
    params.candidates_per_request = 4;
    params.capacity_min = 1;
    params.capacity_max = 4;
    params.seed = 2026;
    const auto p = workload::make_uniform_instance(params);

    runtime_options ro;
    ro.bidding = {core::bid_policy::epsilon, 1e-3};
    ro.latency = [](peer_id a, peer_id b) {
        return 0.01 + 0.002 * static_cast<double>((a.value() * 31 + b.value() * 17) % 13);
    };
    ro.duration = 60.0;
    ro.record_price_log = true;
    auction_runtime runtime(p, std::move(ro));
    for (std::int32_t k = 0; k < 12; ++k)  // bidders, most holding a unit
        runtime.depart_peer_at(peer_id(10 + 6 * k), 0.15 + 0.05 * k);
    runtime.depart_peer_at(peer_id(3), 0.2);
    runtime.depart_peer_at(peer_id(7), 0.45);
    const runtime_result result = runtime.run();

    std::uint64_t h = golden_seed;
    for (std::ptrdiff_t c : result.auction.sched.choice)
        golden_mix(h, static_cast<std::uint64_t>(c));
    for (double lambda : result.auction.prices) golden_mix(h, lambda);
    for (double eta : result.auction.request_utility) golden_mix(h, eta);
    golden_mix(h, result.auction.bids_submitted);
    golden_mix(h, result.auction.evictions);
    golden_mix(h, result.auction.abstentions);
    golden_mix(h, static_cast<std::uint64_t>(result.auction.converged));
    golden_mix(h, result.convergence_time);
    golden_mix(h, result.messages_sent);
    golden_mix(h, result.messages_dropped);
    std::vector<double> last(p.num_uploaders(), 0.0);
    bool price_fell = false;
    for (const auto& ev : result.price_log) {
        golden_mix(h, ev.time);
        golden_mix(h, static_cast<std::uint64_t>(ev.uploader));
        golden_mix(h, ev.price);
        price_fell = price_fell || ev.price < last[ev.uploader];
        last[ev.uploader] = ev.price;
    }
    EXPECT_GT(result.messages_dropped, 0u) << "departures must drop messages";
    EXPECT_TRUE(price_fell) << "a departing holder must reopen a full seller";
    check_hash("RUNTIME-CHURN", h, golden_runtime_churn);
}

}  // namespace
}  // namespace p2pcd::vod
