#include "episode.h"

#include <algorithm>

#include "isp/billing.h"

namespace p2pcd::perfbench {

namespace {

// Enough ring for every phase span of the episode: each bidding round
// records four spans, each slot a handful more.
std::size_t span_capacity(std::size_t num_slots, std::size_t bid_rounds) {
    return std::max<std::size_t>(1024, num_slots * (4 * bid_rounds + 8));
}

}  // namespace

episode::episode(const workload_spec& spec, bool traced) : traced_(traced) {
    if (traced || spec.sink) sink_ = std::make_unique<obs::jsonl_sink>(jsonl_);
    obs::telemetry_options telemetry;
    telemetry.sink = sink_.get();
    telemetry.record_spans = traced;
    telemetry.span_capacity =
        span_capacity(spec.scenario.num_slots(), spec.swarm.bid_rounds_per_slot);

    if (!spec.is_fleet) {
        vod::emulator_options options = spec.swarm;
        options.config = spec.scenario;
        options.telemetry = telemetry;
        swarm_ = std::make_unique<vod::emulator>(std::move(options));
        num_slots_ = spec.scenario.num_slots();
        return;
    }

    engine::fleet_options options;
    options.config = spec.fleet;
    options.base_scenario = spec.scenario;
    options.threads = spec.threads;
    options.swarm_options = spec.swarm;
    options.telemetry = telemetry;
    fleet_ = std::make_unique<engine::fleet>(std::move(options));
    num_slots_ = fleet_->num_slots();
    // Runs after the fleet's own hooks (coupling step, telemetry emission).
    fleet_->add_slot_hook([this](const engine::slot_hook_context& ctx) {
        if (traced_) hook_start_ = clock::now();
        last_parallel_s_ = ctx.step_seconds;
        if (fleet_->coupling_enabled()) {
            const capacity::link_stats& s = fleet_->link_stats();
            saturated_pairs_peak_ = std::max(saturated_pairs_peak_, s.saturated_pairs);
            max_utilization_peak_ = std::max(max_utilization_peak_, s.max_utilization);
        }
        if (traced_) hook_end_ = clock::now();
    });
}

std::size_t episode::pool_threads() const noexcept {
    return fleet_ ? fleet_->threads() : 1;
}

void episode::step() {
    if (fleet_)
        slots_.push_back(to_record(fleet_->step()));
    else
        slots_.push_back(to_record(swarm_->step()));
}

bool episode::check_last_slot(std::vector<std::string>& violations) const {
    bool ok = check_slot(slots_.back(), violations);
    if (fleet_) {
        std::vector<slot_record> shard_slots;
        shard_slots.reserve(fleet_->num_swarms());
        for (std::size_t i = 0; i < fleet_->num_swarms(); ++i) {
            const auto& own = fleet_->shard_at(i).emulator().slots();
            if (own.size() != slots_.size()) {
                violations.push_back("a shard stepped a different number of slots");
                return false;
            }
            shard_slots.push_back(to_record(own.back()));
            ok = check_slot(shard_slots.back(), violations) && ok;
        }
        ok = check_fleet_merge(slots_.back(), shard_slots, violations) && ok;
    }
    return ok;
}

bool episode::check_totals(std::vector<std::string>& violations) const {
    bool ok = check_total_welfare(slots_, total_welfare(), violations);
    if (fleet_)
        for (std::size_t i = 0; i < fleet_->num_swarms(); ++i) {
            const vod::emulator& e = fleet_->shard_at(i).emulator();
            std::vector<slot_record> own;
            for (const auto& s : e.slots()) own.push_back(to_record(s));
            ok = check_total_welfare(own, e.total_welfare(), violations) && ok;
        }
    return ok;
}

std::size_t episode::num_emulators() const {
    return fleet_ ? fleet_->num_swarms() : 1;
}

const vod::emulator& episode::emulator_at(std::size_t i) const {
    return fleet_ ? fleet_->shard_at(i).emulator() : *swarm_;
}

double episode::total_welfare() const {
    return fleet_ ? fleet_->total_welfare() : swarm_->total_welfare();
}

double episode::overall_inter_isp_fraction() const {
    return fleet_ ? fleet_->overall_inter_isp_fraction()
                  : swarm_->overall_inter_isp_fraction();
}

double episode::overall_miss_rate() const {
    return fleet_ ? fleet_->overall_miss_rate() : swarm_->overall_miss_rate();
}

obs::counter_registry episode::counters() {
    return fleet_ ? fleet_->merged_counters() : swarm_->counters();
}

vod::memory_breakdown episode::memory_footprint() const {
    return fleet_ ? fleet_->memory_footprint() : swarm_->memory_footprint();
}

std::size_t episode::pricing_epochs() const {
    if (fleet_ && fleet_->coupling_enabled()) return fleet_->fleet_price_epochs().size();
    std::size_t epochs = 0;
    for (std::size_t i = 0; i < num_emulators(); ++i)
        epochs += emulator_at(i).price_epochs().size();
    return epochs;
}

double episode::transit_cost() const {
    if (fleet_) return fleet_->economy_enabled() ? fleet_->merged_bill().total_cost : 0.0;
    return swarm_->economy_enabled() ? swarm_->bill().total_cost : 0.0;
}

}  // namespace p2pcd::perfbench
