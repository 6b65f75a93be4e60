#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "workload/scenario_registry.h"

namespace p2pcd::perfbench {

namespace {

// Population and horizon of the metro workloads, cut from the registered
// configurations so that one run of a few seconds steps enough slots for a
// tail percentile with ten samples beyond it.
constexpr std::size_t metro_fleet_viewers = 4'000;
constexpr std::size_t metro_swarm_viewers = 2'000;
constexpr double metro_horizon_seconds = 100.0;

// Draws of each workload per run: enough to average out how much one draw's
// arrivals and Zipf split move the figures, few enough that every draw
// still runs twice in one run.
constexpr std::size_t metro_instances = 3;
constexpr std::size_t flash_instances = 5;
constexpr std::size_t smoke_instances = 2;

// Instance `i` of the run seeded `seed` (splitmix64 of the pair).
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

workload_spec metro_fleet(std::uint64_t seed) {
    workload_spec w;
    w.name = "metro_fleet";
    w.why = "static Zipf fleet of 4 metro swarms on a 4-thread pool, serial auction: "
            "build- and solve-bound, the head swarm sets each slot's time";
    w.fleet = workload::builtin_fleets().make("fleet_metro_100x5k").with_swarms(4);
    w.fleet.total_peers = metro_fleet_viewers;
    w.fleet.fleet_seed = seed;
    w.scenario = workload::builtin_scenarios().make(w.fleet.swarm_scenario);
    w.scenario.horizon_seconds = metro_horizon_seconds;
    w.threads = bench_threads();
    return w;
}

workload_spec metro_swarm_par(std::uint64_t seed) {
    workload_spec w;
    w.name = "metro_swarm_par";
    w.why = "one metro swarm without a fleet, auction-par on 4 solver threads: "
            "parallelism inside core, so a fleet-only change should not move it";
    w.is_fleet = false;
    w.scenario = workload::builtin_scenarios().make("metro_5k");
    w.scenario.initial_peers = metro_swarm_viewers;
    w.scenario.horizon_seconds = metro_horizon_seconds;
    w.scenario.master_seed = seed;
    w.swarm.scheduler = "auction-par";
    w.swarm.parallel_auction.num_threads = bench_threads();
    return w;
}

workload_spec flash_coupled_fleet(std::uint64_t seed) {
    workload_spec w;
    w.name = "flash_coupled_fleet";
    w.why = "8 arrival-driven coupled swarms on 4 threads with admission, ISP economy "
            "and a JSONL sink: churn, serial hooks, pricing, no row reuse";
    w.fleet = workload::builtin_fleets().make("fleet_coupled_flash");
    w.fleet.fleet_seed = seed;
    w.scenario = workload::builtin_scenarios().make(w.fleet.swarm_scenario);
    w.threads = bench_threads();
    w.sink = true;
    return w;
}

workload_spec smoke(std::string_view name, std::string_view fleet_name,
                    std::uint64_t seed) {
    workload_spec w;
    w.name = std::string(name);
    w.why = "test-scale fleet";
    w.fleet = workload::builtin_fleets().make(fleet_name);
    w.fleet.fleet_seed = seed;
    w.scenario = workload::builtin_scenarios().make(w.fleet.swarm_scenario);
    w.threads = 2;
    w.sink = w.fleet.coupling.enabled;
    return w;
}

}  // namespace

std::size_t bench_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw, 1, 4);
}

const std::vector<std::string>& benchmark_workloads() {
    static const std::vector<std::string> names{"metro_fleet", "metro_swarm_par",
                                                "flash_coupled_fleet"};
    return names;
}

std::vector<workload_spec> make_workload(std::string_view name, std::uint64_t seed) {
    workload_spec (*make)(std::uint64_t) = nullptr;
    std::size_t instances = 0;
    if (name == "metro_fleet") {
        make = metro_fleet;
        instances = metro_instances;
    } else if (name == "metro_swarm_par") {
        make = metro_swarm_par;
        instances = metro_instances;
    } else if (name == "flash_coupled_fleet") {
        make = flash_coupled_fleet;
        instances = flash_instances;
    } else if (name == "fleet_smoke") {
        make = [](std::uint64_t s) { return smoke("fleet_smoke", "fleet_smoke", s); };
        instances = smoke_instances;
    } else if (name == "coupled_smoke") {
        make = [](std::uint64_t s) {
            return smoke("coupled_smoke", "fleet_coupled_smoke", s);
        };
        instances = smoke_instances;
    } else {
        std::string known;
        for (const auto& n : benchmark_workloads()) known += " " + n;
        throw std::invalid_argument("unknown workload '" + std::string(name) +
                                    "'; known:" + known + " fleet_smoke coupled_smoke");
    }
    std::vector<workload_spec> out;
    for (std::size_t i = 0; i < instances; ++i) out.push_back(make(instance_seed(seed, i)));
    return out;
}

}  // namespace p2pcd::perfbench
