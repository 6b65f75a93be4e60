// Output checks run on every slot the benchmark steps, and the semantic
// digest that pins a run's schedule: telemetry never steers the schedule,
// so every episode of one (workload, seed) — traced or not — must reproduce
// the same digest bit for bit.
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/fleet.h"
#include "obs/counters.h"
#include "vod/emulator.h"

namespace p2pcd::perfbench {

// The public per-slot metrics of one swarm, or of a fleet merged over its
// swarms (vod::slot_metrics and engine::fleet_slot_metrics carry the same
// fields).
struct slot_record {
    double time = 0.0;
    std::uint64_t online_peers = 0;
    std::uint64_t requests = 0;
    std::uint64_t transfers = 0;
    std::uint64_t inter_isp_transfers = 0;
    double inter_isp_fraction = 0.0;
    double social_welfare = 0.0;
    std::uint64_t chunks_due = 0;
    std::uint64_t chunks_missed = 0;
    double miss_rate = 0.0;
    std::uint64_t auction_bids = 0;
};

[[nodiscard]] slot_record to_record(const vod::slot_metrics& m);
[[nodiscard]] slot_record to_record(const engine::fleet_slot_metrics& m);

// Conservation checks on one slot: transfers <= requests, missed <= due,
// inter-ISP <= transfers, finite welfare, and the two ratios equal to their
// counts' quotient. Appends one message per violation; returns true if none.
bool check_slot(const slot_record& slot, std::vector<std::string>& violations);

// A fleet slot must equal the sum of its shards' slots, accumulated in
// swarm-index order (welfare bit for bit).
bool check_fleet_merge(const slot_record& merged, std::span<const slot_record> shards,
                       std::vector<std::string>& violations);

// Σ slot welfare in slot order must equal the program's total_welfare().
bool check_total_welfare(std::span<const slot_record> slots, double total_welfare,
                         std::vector<std::string>& violations);

// FNV-1a over the exact bits of everything fed to it.
class digest {
public:
    void add(std::uint64_t v);
    void add(double v);
    void add(std::string_view s);
    void add(const slot_record& slot);
    // Every counter and gauge, by name, in registration order.
    void add(const obs::counter_registry& counters);
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace p2pcd::perfbench

#endif  // PERFBENCH_CHECKS_H
