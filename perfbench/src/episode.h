// One episode: the program under test constructed from a workload spec and
// stepped slot by slot. A fleet workload wraps engine::fleet, a swarm
// workload one vod::emulator; either way the benchmark sees the same
// public surfaces (slot metrics, counters, spans, memory footprint).
#ifndef PERFBENCH_EPISODE_H
#define PERFBENCH_EPISODE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "engine/fleet.h"
#include "obs/counters.h"
#include "obs/jsonl_sink.h"
#include "vod/emulator.h"
#include "workloads.h"

namespace p2pcd::perfbench {

class episode {
public:
    using clock = std::chrono::steady_clock;

    // `traced` turns on the program's phase spans and a JSONL sink.
    episode(const workload_spec& spec, bool traced);

    episode(const episode&) = delete;
    episode& operator=(const episode&) = delete;

    [[nodiscard]] std::size_t num_slots() const noexcept { return num_slots_; }
    [[nodiscard]] bool is_fleet() const noexcept { return fleet_ != nullptr; }
    // Fleet pool size; 1 for a single swarm (its step runs on the caller).
    [[nodiscard]] std::size_t pool_threads() const noexcept;

    // Steps one slot. Nothing but the program's own step runs in here, so a
    // clock around it times the program alone.
    void step();
    // Output checks on the slot just stepped (see checks.h); appends one
    // message per violation and returns false if there was any.
    bool check_last_slot(std::vector<std::string>& violations) const;
    // Σ slot welfare against total_welfare(), after the last step.
    bool check_totals(std::vector<std::string>& violations) const;

    [[nodiscard]] std::span<const slot_record> slots() const noexcept { return slots_; }

    // The emulators: a fleet's shards in swarm-index order, or the swarm.
    [[nodiscard]] std::size_t num_emulators() const;
    [[nodiscard]] const vod::emulator& emulator_at(std::size_t i) const;

    // What the benchmark's slot hook saw on the last fleet step (fleets
    // only): the step's own parallel-phase-plus-merge wall time, which the
    // fleet measures only with a sink attached, and the hook's span.
    [[nodiscard]] double last_parallel_seconds() const noexcept {
        return last_parallel_s_;
    }
    [[nodiscard]] clock::time_point last_hook_start() const noexcept {
        return hook_start_;
    }
    [[nodiscard]] clock::time_point last_hook_end() const noexcept { return hook_end_; }

    // --- aggregates over the slots stepped so far ---
    [[nodiscard]] double total_welfare() const;
    [[nodiscard]] double overall_inter_isp_fraction() const;
    [[nodiscard]] double overall_miss_rate() const;
    // The fleet's merged counters, or the swarm's.
    [[nodiscard]] obs::counter_registry counters();
    [[nodiscard]] vod::memory_breakdown memory_footprint() const;
    [[nodiscard]] std::size_t pricing_epochs() const;
    // The billed transit cost; 0 without an ISP economy.
    [[nodiscard]] double transit_cost() const;
    // Peaks of the fleet's link saturation over the slots (coupled fleets).
    [[nodiscard]] std::size_t saturated_pairs_peak() const noexcept {
        return saturated_pairs_peak_;
    }
    [[nodiscard]] double max_utilization_peak() const noexcept {
        return max_utilization_peak_;
    }
    // The JSONL sink (null when the episode streams no telemetry).
    [[nodiscard]] const obs::jsonl_sink* sink() const noexcept { return sink_.get(); }

private:
    // Declared before the program, which borrows the sink.
    std::ostringstream jsonl_;
    std::unique_ptr<obs::jsonl_sink> sink_;
    std::unique_ptr<engine::fleet> fleet_;
    std::unique_ptr<vod::emulator> swarm_;
    std::size_t num_slots_ = 0;
    bool traced_ = false;

    std::vector<slot_record> slots_;
    double last_parallel_s_ = 0.0;
    clock::time_point hook_start_{};
    clock::time_point hook_end_{};
    std::size_t saturated_pairs_peak_ = 0;
    double max_utilization_peak_ = 0.0;
};

}  // namespace p2pcd::perfbench

#endif  // PERFBENCH_EPISODE_H
