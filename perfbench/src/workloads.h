// The benchmark's workloads, each generated from the run's seed through the
// program's public configuration surfaces: registered scenario and fleet
// names, scheduler names and thread counts.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vod/emulator.h"
#include "workload/fleet_config.h"
#include "workload/scenario.h"

namespace p2pcd::perfbench {

struct workload_spec {
    std::string name;
    std::string why;  // one line: what the workload stresses
    // A fleet of swarms on a thread pool, or one emulator without a fleet.
    bool is_fleet = true;
    workload::fleet_config fleet;       // fleet workloads
    workload::scenario_config scenario; // the fleet's base scenario, or the swarm's
    vod::emulator_options swarm;        // per-swarm knobs (scheduler, solver threads)
    std::size_t threads = 1;            // fleet pool size
    // Stream the JSONL telemetry into an in-memory sink even when untraced,
    // the way an operator runs the workload.
    bool sink = false;
};

// The benchmark's workloads, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& benchmark_workloads();

// The named workload generated from the run's `seed`: a few instances of
// it, each drawn with its own seed derived from `seed`. A run cycles through
// them, so its figures average over several draws of the workload instead
// of resting on one. `name` is one of benchmark_workloads() or the
// test-scale "fleet_smoke" / "coupled_smoke"; others throw
// std::invalid_argument.
[[nodiscard]] std::vector<workload_spec> make_workload(std::string_view name,
                                                       std::uint64_t seed);

// Threads the benchmark may use: min(4, hardware concurrency).
[[nodiscard]] std::size_t bench_threads();

}  // namespace p2pcd::perfbench

#endif  // PERFBENCH_WORKLOADS_H
