// The memory_footprint() protocol and the reclamation paths it audits:
// peer_table capacity accounting under churn (the id-dense row map used to
// grow forever), compact()'s trim-to-fit contract, the emulator's
// per-subsystem breakdown, and the fleet aggregation that counts the shared
// read-only assets exactly once.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/contracts.h"
#include "core/exact.h"
#include "engine/fleet.h"
#include "metrics/process_stats.h"
#include "net/cost_model.h"
#include "sim/rng.h"
#include "vod/buffer_map.h"
#include "vod/emulator.h"
#include "vod/peer_table.h"
#include "vod/shared_assets.h"
#include "workload/fleet_config.h"
#include "workload/instance_gen.h"
#include "workload/scenario.h"

namespace p2pcd {
namespace {

vod::peer_table::peer_spawn spawn_of(int id) {
    vod::peer_table::peer_spawn s;
    s.id = peer_id(id);
    s.isp = isp_id(0);
    s.video = video_id(0);
    s.upload_capacity = 4;
    return s;
}

// Ten generations of peers with fresh (never-reused) ids: the id-dense row
// map grows with the highest id ever seen, so without compact() the table
// retains ~10x the map a single generation needs. compact() must return
// that — and any column slack — to the allocator without disturbing rows.
TEST(peer_table_memory, churned_id_map_is_reclaimable) {
    vod::peer_table table;
    int next_id = 0;
    std::size_t after_first_cycle = 0;
    for (int cycle = 0; cycle < 10; ++cycle) {
        std::vector<std::size_t> rows;
        rows.reserve(1000);
        for (int i = 0; i < 1000; ++i)
            rows.push_back(table.add(spawn_of(next_id++), vod::buffer_map(256)));
        for (const std::size_t r : rows) {
            table.mark_departed(r);
            table.release(r);
        }
        if (cycle == 0) after_first_cycle = table.memory_bytes();
    }
    EXPECT_EQ(table.num_peers(), 0u);
    EXPECT_EQ(table.rows(), 1000u);  // freed rows were recycled, not appended

    const std::size_t before = table.memory_bytes();
    // The regression this pins: ten id generations kept ~10x the row map.
    EXPECT_GT(before, after_first_cycle);
    table.compact();
    const std::size_t after = table.memory_bytes();
    EXPECT_LT(after, before);
    EXPECT_LE(after, after_first_cycle);
    EXPECT_LE(table.capacity_rows(), 1000u);

    // The table still works: a new add reuses a freed row and resolves.
    const std::size_t row = table.add(spawn_of(next_id), vod::buffer_map(256));
    EXPECT_LT(row, 1000u);
    EXPECT_EQ(table.row_of(peer_id(next_id)), row);
    EXPECT_EQ(table.id(row), peer_id(next_id));
}

TEST(peer_table_memory, compact_preserves_live_rows) {
    vod::peer_table table;
    std::vector<std::size_t> rows;
    for (int i = 0; i < 100; ++i)
        rows.push_back(table.add(spawn_of(i), vod::buffer_map(128)));
    for (int i = 0; i < 100; i += 2) {
        table.mark_departed(rows[i]);
        table.release(rows[i]);
    }
    table.compact();
    for (int i = 1; i < 100; i += 2) {
        EXPECT_EQ(table.row_of(peer_id(i)), rows[i]);
        EXPECT_EQ(table.id(rows[i]), peer_id(i));
        EXPECT_EQ(table.upload_capacity(rows[i]), 4);
    }
    for (int i = 0; i < 100; i += 2)
        EXPECT_EQ(table.row_of(peer_id(i)), vod::peer_table::npos);
    EXPECT_EQ(table.num_peers(), 50u);
}

TEST(peer_table_memory, buffer_heap_tracks_dense_fallbacks) {
    vod::peer_table table;
    const std::size_t r0 = table.add(spawn_of(0), vod::buffer_map(1024));
    EXPECT_EQ(table.buffer_heap_bytes(), 0u);  // compact form owns no heap
    table.buffer(r0).set(1000);                // far hole → dense fallback
    EXPECT_GT(table.buffer_heap_bytes(), 0u);
    EXPECT_EQ(table.buffer_heap_bytes(), table.buffer(r0).heap_bytes());
}

// The per-shard link cache is the largest standing allocation in the fleet
// audit; its default bound (cost_params::cache_capacity = 2^19 entries,
// open addressing kept at ≤ 50% load) caps the slot array at 2^20 slots.
// Flood the cache with more distinct links than its capacity: it must flush
// rather than grow past the cap, and cache_bytes() pins the ceiling.
TEST(cost_model_memory, link_cache_bytes_stay_bounded) {
    net::isp_topology topo(5);
    constexpr int peers = 1100;  // ~605k distinct symmetric links > 2^19
    for (int i = 0; i < peers; ++i) topo.add_peer(peer_id(i), isp_id(i % 5));
    sim::rng_stream rng(17);
    net::cost_model model(topo, net::cost_params{}, rng);
    for (int u = 0; u < peers; ++u)
        for (int d = u + 1; d < peers; ++d) (void)model.cost(peer_id(u), peer_id(d));
    const net::cost_cache_stats stats = model.cache_stats();
    EXPECT_GE(stats.flushes, 1u) << "flood must overflow the default bound";
    EXPECT_LE(stats.size, stats.capacity);
    EXPECT_LE(model.cache_bytes(),
              (std::size_t{1} << 20) * (sizeof(std::uint64_t) + sizeof(double)));
}

TEST(emulator_memory, footprint_components_sum_to_total) {
    vod::emulator_options opts;
    opts.config = workload::scenario_config::small_test();
    vod::emulator emu(opts);
    for (int k = 0; k < 3; ++k) emu.step();

    const vod::memory_breakdown fp = emu.memory_footprint();
    EXPECT_GT(fp.peer_table, 0u);
    EXPECT_GT(fp.tracker, 0u);
    EXPECT_GT(fp.shared, 0u);
    EXPECT_EQ(fp.total(), fp.peer_table + fp.buffers + fp.tracker +
                              fp.neighbor_arena + fp.problem_arena + fp.solver +
                              fp.cost_cache + fp.ledger + fp.scratch + fp.shared);
}

// The exact scheduler keeps its transportation-instance arena between
// solves: workspace_bytes() must report it and shed_memory() must free it,
// so the emulator's footprint sees the arena and its slot-end shed drops it.
TEST(emulator_memory, exact_scheduler_arena_is_accounted_and_shed) {
    core::exact_scheduler solver;
    auto problem = workload::make_uniform_instance({.num_requests = 30, .seed = 5});
    (void)solver.solve(problem);
    EXPECT_GT(solver.workspace_bytes(), 0u);
    solver.shed_memory();
    EXPECT_EQ(solver.workspace_bytes(), 0u);

    // One residency policy: every emulator sheds the solver workspaces (and
    // the problem arena) at slot end.
    vod::emulator_options opts;
    opts.config = workload::scenario_config::small_test();
    opts.scheduler = "exact";
    vod::emulator emu(opts);
    emu.step();
    EXPECT_EQ(emu.memory_footprint().solver, 0u);
}

// The deadline_value cache: 2^13 (ttl bits, value) cells.
constexpr std::size_t deadline_cache_bytes =
    (std::size_t{1} << 13) * (sizeof(std::uint64_t) + sizeof(double));

// An arrival-driven swarm is empty at slot 0 (the first Poisson arrival
// lands after t = 0). The slot-end shed leaves no problem arena behind and
// the build state — masks, snapshots and the deadline cache — is allocated
// only once a viewer row is built, so the empty slot allocates none of it.
TEST(emulator_memory, empty_arrival_swarm_allocates_no_build_state) {
    vod::emulator_options opts;
    opts.config = workload::scenario_config::coupled_smoke();
    opts.config.initial_peers = 0;
    vod::emulator emu(opts);
    emu.step();
    ASSERT_EQ(emu.online_viewers(), 0u);
    const vod::memory_breakdown empty = emu.memory_footprint();
    EXPECT_EQ(empty.problem_arena, 0u);
    EXPECT_LT(empty.scratch, deadline_cache_bytes) << "deadline cache allocated";

    // Non-vacuous: once viewers arrive, both show up.
    while (emu.online_viewers() == 0) emu.step();
    const vod::memory_breakdown live = emu.memory_footprint();
    EXPECT_GT(live.problem_arena, 0u);
    EXPECT_GE(live.scratch, deadline_cache_bytes);
}

// Build state is indexed by viewer slot, and seeds never take one: the same
// viewers hold the same build-state bytes whether each video has one seed
// per ISP or four.
TEST(emulator_memory, seeds_hold_no_build_state) {
    auto arena_with_seeds = [](std::size_t seeds_per_isp_per_video) {
        vod::emulator_options opts;
        opts.config = workload::scenario_config::small_test();
        opts.config.seeds_per_isp_per_video = seeds_per_isp_per_video;
        vod::emulator emu(opts);
        emu.step();
        return emu.memory_footprint().problem_arena;
    };
    const std::size_t one = arena_with_seeds(1);
    EXPECT_GT(one, 0u);
    EXPECT_EQ(arena_with_seeds(4), one);
}

// Under churn, table rows are never recycled but viewer slots are: the
// build state follows the live-viewer high-water mark (plus the 1/8 growth
// headroom), not the number of rows ever minted.
TEST(emulator_memory, build_state_follows_live_viewer_high_water) {
    vod::emulator_options opts;
    opts.config = workload::scenario_config::economy_smoke();
    opts.config.initial_peers = 20;
    opts.config.arrival_rate = 1.5;
    opts.config.departure_probability = 0.5;
    opts.config.horizon_seconds = 400.0;

    // Per-viewer bytes from a static twin: its first build sizes the state
    // to exactly its viewers.
    vod::emulator_options static_opts = opts;
    static_opts.config.arrival_rate = 0.0;
    static_opts.config.departure_probability = 0.0;
    vod::emulator twin(static_opts);
    twin.step();
    const std::size_t per_viewer =
        twin.memory_footprint().problem_arena / opts.config.initial_peers;
    ASSERT_GT(per_viewer, 0u);
    EXPECT_EQ(twin.memory_footprint().problem_arena,
              per_viewer * opts.config.initial_peers);

    vod::emulator emu(opts);
    std::size_t live = opts.config.initial_peers;
    std::size_t high_water = live;
    std::uint64_t arrivals = emu.counters().counter_named("peers.arrivals");
    for (std::size_t k = 0; k < opts.config.num_slots(); ++k) {
        emu.step();
        // Arrivals are processed before departures within a slot, so the
        // slot's peak is the previous population plus its arrivals.
        const std::uint64_t now_arrivals = emu.counters().counter_named("peers.arrivals");
        high_water = std::max<std::size_t>(high_water, live + (now_arrivals - arrivals));
        arrivals = now_arrivals;
        live = emu.online_viewers();
    }
    const std::size_t rows_ever = emu.peers().rows();
    ASSERT_GT(rows_ever, 3 * high_water) << "churn too weak to tell the two apart";
    const std::size_t arena = emu.memory_footprint().problem_arena;
    EXPECT_LE(arena, per_viewer * (high_water + high_water / 8 + 1));
    EXPECT_LT(arena, per_viewer * rows_ever / 2);
}

TEST(fleet_memory, shared_assets_are_counted_once) {
    engine::fleet_options opts;
    opts.config = workload::fleet_config::smoke();
    opts.threads = 2;
    engine::fleet f(opts);
    ASSERT_EQ(f.num_swarms(), 3u);

    // Every shard points at the same shared_assets instance the fleet built.
    const vod::memory_breakdown shard0 = f.shard_at(0).emulator().memory_footprint();
    const vod::memory_breakdown total = f.memory_footprint();
    EXPECT_GT(shard0.shared, 0u);
    EXPECT_EQ(total.shared, shard0.shared);
    EXPECT_GE(total.peer_table, shard0.peer_table);
}

// Every emulator sheds its link-cost cache at slot end (clean rows price the
// draws they keep, so the cache only ever holds one slot's changed links):
// after stepping, a standalone emulator and a fleet both report a zero-byte
// cost-cache line, even though the cache was filled during the slot. This is
// the per-swarm memory line the fleet_scaling memory table tracks — without
// shedding it scales with swarm count, not thread count.
TEST(fleet_memory, fleet_shards_shed_cost_caches) {
    vod::emulator_options standalone_opts;
    standalone_opts.config = workload::scenario_config::small_test();
    vod::emulator standalone(standalone_opts);
    for (int k = 0; k < 3; ++k) standalone.step();
    const obs::counter_registry& counters = standalone.counters();
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < counters.entries().size(); ++i)
        if (counters.entries()[i].name == "cost.cache_misses")
            misses = counters.counter_at(i);
    EXPECT_GT(misses, 0u)
        << "the slots must have filled the cache — the check would be vacuous";
    EXPECT_EQ(standalone.memory_footprint().cost_cache, 0u);

    engine::fleet_options opts;
    opts.config = workload::fleet_config::smoke();
    engine::fleet f(opts);
    f.run();
    EXPECT_EQ(f.memory_footprint().cost_cache, 0u);
}

// A coupled fleet prices against ONE peering graph: every shard's cost model
// and billing view point at the fleet's instance instead of building a
// per-swarm copy (the peering-derived link-class table rides along in the
// shared assets).
TEST(fleet_memory, coupled_shards_share_the_fleet_peering_graph) {
    engine::fleet_options opts;
    opts.config = workload::builtin_fleets().make("fleet_coupled_smoke");
    engine::fleet f(opts);
    ASSERT_TRUE(f.coupling_enabled());
    for (std::size_t w = 0; w < f.num_swarms(); ++w)
        EXPECT_EQ(&f.shard_at(w).emulator().peering(), &f.fleet_peering()) << w;

    // An uncoupled economy fleet keeps per-swarm graphs: the instances are
    // distinct (per-swarm pricing epochs mutate them independently).
    engine::fleet_options plain_opts;
    plain_opts.config = workload::builtin_fleets().make("fleet_economy_smoke");
    engine::fleet plain(plain_opts);
    ASSERT_GE(plain.num_swarms(), 2u);
    EXPECT_NE(&plain.shard_at(0).emulator().peering(),
              &plain.shard_at(1).emulator().peering());
}

TEST(fleet_memory, rss_phases_are_sampled) {
    engine::fleet_options opts;
    opts.config = workload::fleet_config::smoke();
    engine::fleet f(opts);
    const double post_construct = f.rss_phases().post_construct_mb;
    EXPECT_DOUBLE_EQ(f.rss_phases().mid_run_mb, 0.0);
    EXPECT_DOUBLE_EQ(f.rss_phases().end_mb, 0.0);
    f.run();
    if (metrics::current_rss_mb() > 0.0) {  // sampling supported here
        EXPECT_GT(post_construct, 0.0);
        EXPECT_GT(f.rss_phases().mid_run_mb, 0.0);
        EXPECT_GT(f.rss_phases().end_mb, 0.0);
        EXPECT_LE(f.rss_phases().end_mb, f.peak_rss_mb() + 1.0);
    }
}

// Handing two emulators the same shared assets is observationally identical
// to each building its own (same catalog dimensions, same valuation knobs,
// same popularity law) — the welfare trajectory must be bit-identical.
TEST(emulator_memory, shared_assets_do_not_change_results) {
    vod::emulator_options own;
    own.config = workload::scenario_config::small_test();
    vod::emulator a(own);
    a.run();

    vod::emulator_options shared = own;
    shared.assets = vod::shared_assets::make(shared.config);
    vod::emulator b(shared);
    b.run();

    ASSERT_EQ(a.slots().size(), b.slots().size());
    for (std::size_t k = 0; k < a.slots().size(); ++k) {
        EXPECT_EQ(a.slots()[k].social_welfare, b.slots()[k].social_welfare);
        EXPECT_EQ(a.slots()[k].transfers, b.slots()[k].transfers);
        EXPECT_EQ(a.slots()[k].chunks_missed, b.slots()[k].chunks_missed);
    }
}

// Mismatched assets must be rejected loudly, not silently skew the run.
TEST(emulator_memory, incompatible_assets_are_rejected) {
    vod::emulator_options opts;
    opts.config = workload::scenario_config::small_test();
    workload::scenario_config other = opts.config;
    other.num_videos = opts.config.num_videos + 1;
    opts.assets = vod::shared_assets::make(other);
    EXPECT_THROW(vod::emulator{opts}, contract_violation);
}

}  // namespace
}  // namespace p2pcd
