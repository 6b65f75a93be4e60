#include "checks.h"

#include <bit>
#include <cmath>

namespace p2pcd::perfbench {

namespace {

template <typename metrics_t>
slot_record convert(const metrics_t& m) {
    slot_record r;
    r.time = m.time;
    r.online_peers = m.online_peers;
    r.requests = m.requests;
    r.transfers = m.transfers;
    r.inter_isp_transfers = m.inter_isp_transfers;
    r.inter_isp_fraction = m.inter_isp_fraction;
    r.social_welfare = m.social_welfare;
    r.chunks_due = m.chunks_due;
    r.chunks_missed = m.chunks_missed;
    r.miss_rate = m.miss_rate;
    r.auction_bids = m.auction_bids;
    return r;
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string at(double time) { return " (slot at t=" + std::to_string(time) + " s)"; }

}  // namespace

slot_record to_record(const vod::slot_metrics& m) { return convert(m); }
slot_record to_record(const engine::fleet_slot_metrics& m) { return convert(m); }

bool check_slot(const slot_record& s, std::vector<std::string>& violations) {
    const std::size_t before = violations.size();
    if (s.transfers > s.requests)
        violations.push_back("transfers exceed requests" + at(s.time));
    if (s.chunks_missed > s.chunks_due)
        violations.push_back("missed chunks exceed due chunks" + at(s.time));
    if (s.inter_isp_transfers > s.transfers)
        violations.push_back("inter-ISP transfers exceed transfers" + at(s.time));
    if (!std::isfinite(s.social_welfare))
        violations.push_back("non-finite welfare" + at(s.time));
    if (s.inter_isp_fraction != ratio(s.inter_isp_transfers, s.transfers))
        violations.push_back("inter-ISP fraction disagrees with its counts" + at(s.time));
    if (s.miss_rate != ratio(s.chunks_missed, s.chunks_due))
        violations.push_back("miss rate disagrees with its counts" + at(s.time));
    return violations.size() == before;
}

bool check_fleet_merge(const slot_record& merged, std::span<const slot_record> shards,
                       std::vector<std::string>& violations) {
    slot_record sum;
    sum.time = shards.empty() ? 0.0 : shards.front().time;
    for (const slot_record& s : shards) {
        sum.online_peers += s.online_peers;
        sum.requests += s.requests;
        sum.transfers += s.transfers;
        sum.inter_isp_transfers += s.inter_isp_transfers;
        sum.social_welfare += s.social_welfare;
        sum.chunks_due += s.chunks_due;
        sum.chunks_missed += s.chunks_missed;
        sum.auction_bids += s.auction_bids;
    }
    const bool equal =
        sum.time == merged.time && sum.online_peers == merged.online_peers &&
        sum.requests == merged.requests && sum.transfers == merged.transfers &&
        sum.inter_isp_transfers == merged.inter_isp_transfers &&
        sum.social_welfare == merged.social_welfare && sum.chunks_due == merged.chunks_due &&
        sum.chunks_missed == merged.chunks_missed && sum.auction_bids == merged.auction_bids;
    if (!equal)
        violations.push_back("fleet slot differs from the sum of its shards" +
                             at(merged.time));
    return equal;
}

bool check_total_welfare(std::span<const slot_record> slots, double total_welfare,
                         std::vector<std::string>& violations) {
    double sum = 0.0;
    for (const slot_record& s : slots) sum += s.social_welfare;
    if (sum == total_welfare) return true;
    violations.push_back("sum of slot welfare differs from total_welfare()");
    return false;
}

void digest::add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void digest::add(std::string_view s) {
    for (char c : s) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 1099511628211ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

void digest::add(const slot_record& s) {
    add(s.time);
    add(s.online_peers);
    add(s.requests);
    add(s.transfers);
    add(s.inter_isp_transfers);
    add(s.inter_isp_fraction);
    add(s.social_welfare);
    add(s.chunks_due);
    add(s.chunks_missed);
    add(s.miss_rate);
    add(s.auction_bids);
}

void digest::add(const obs::counter_registry& counters) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const auto& e = counters.entries()[i];
        add(e.name);
        if (e.kind == obs::metric_kind::counter)
            add(counters.counter_at(i));
        else
            add(counters.gauge_at(i));
    }
}

}  // namespace p2pcd::perfbench
