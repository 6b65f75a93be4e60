#include "vod/emulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "baseline/registry.h"
#include "common/contracts.h"
#include "core/exact.h"
#include "core/welfare.h"
#include "obs/jsonl_sink.h"
#include "vod/auction_runtime.h"
#include "workload/peering_gen.h"

namespace p2pcd::vod {

emulator::emulator(emulator_options options)
    : options_(std::move(options)),
      assets_(options_.assets ? options_.assets
                              : shared_assets::make(options_.config)),
      topology_(options_.config.num_isps),
      rng_factory_(options_.config.master_seed),
      arrival_rng_(rng_factory_.stream("arrivals")),
      peer_rng_(rng_factory_.stream("peers")) {
    options_.config.validate();
    expects(options_.bid_rounds_per_slot > 0, "bid_rounds_per_slot must be positive");
    expects(options_.telemetry.every_slots > 0,
            "telemetry.every_slots must be positive");
    // Externally-provided assets must match what this config would build —
    // sharing may never change behavior.
    expects(assets_->catalog.num_videos() == options_.config.num_videos &&
                assets_->catalog.chunks_per_video() ==
                    options_.config.chunks_per_video() &&
                assets_->catalog.chunks_per_second() ==
                    options_.config.chunks_per_second() &&
                assets_->video_popularity.size() == options_.config.num_videos,
            "shared assets built from an incompatible scenario");

    // Resolve the scheduling algorithm by name, once; the instance lives as
    // long as the emulator so its workspaces stay warm across rounds.
    const core::scheduler_registry& registry =
        options_.registry ? *options_.registry : baseline::builtin_schedulers();
    core::scheduler_params params;
    params.auction = options_.auction;
    params.parallel_auction = options_.parallel_auction;
    // Nothing in the slot loop reads request utilities: skip the solvers'
    // dual-recovery sweep outright.
    params.auction.compute_request_utilities = false;
    params.parallel_auction.compute_request_utilities = false;
    params.locality_max_rounds = options_.locality.max_rounds;
    params.seed = options_.config.master_seed;
    scheduler_ = registry.make(options_.scheduler, params);
    auction_ = dynamic_cast<core::auction_driver*>(scheduler_.get());
    serial_auction_ = dynamic_cast<core::auction_solver*>(scheduler_.get()) != nullptr;
    exact_ = dynamic_cast<core::exact_scheduler*>(scheduler_.get());

    // Mask ring: one entry per chunk of the widest request window, rounded
    // up to a power of two so a chunk's entry is c & (ring_ - 1). Segments
    // never exceed the tracker's neighbor count (longer ones would fall back
    // to the reference path anyway).
    ring_ = std::bit_ceil(std::min(options_.config.prefetch_chunks,
                                   options_.config.chunks_per_video()));
    seg_cap_ = std::min(options_.config.neighbor_count, delta_seg_cap);

    register_metrics();
    spans_ = obs::span_recorder(options_.telemetry.record_spans,
                                options_.telemetry.span_capacity);

    auto cost_rng = rng_factory_.stream("costs");
    costs_.emplace(topology_, options_.config.costs, cost_rng);

    const isp::economy_config& economy = options_.config.economy;
    expects(options_.shared_peering == nullptr || economy.enabled,
            "shared_peering requires config.economy.enabled");
    if (economy.enabled) {
        if (options_.shared_peering != nullptr) {
            // Fleet-shared graph: no private copy and no per-swarm price
            // controller — the fleet closes pricing epochs globally off the
            // merged cross-swarm ledger and mutates prices between slots.
            peering_view_ = options_.shared_peering;
        } else {
            peering_.emplace(
                workload::make_peering_graph(economy, options_.config.num_isps));
            if (economy.slots_per_epoch > 0)
                price_controller_.emplace(*peering_, economy.policy);
            peering_view_ = &*peering_;
        }
        ledger_.emplace(options_.config.num_isps);
        costs_->attach_peering(peering_view_);
        // Relationship class per directed ISP pair, flattened so the
        // per-transfer ledger-byte gauges cost one byte load to classify.
        // shared_assets carries the table for every economy config; only a
        // hand-built assets instance without it falls back to deriving one.
        const std::size_t n = options_.config.num_isps;
        if (assets_->link_class.size() == n * n) {
            link_class_ = assets_->link_class.data();
        } else {
            own_link_class_.resize(n * n);
            for (std::size_t m = 0; m < n; ++m)
                for (std::size_t k = 0; k < n; ++k)
                    own_link_class_[m * n + k] = static_cast<std::uint8_t>(
                        peering_view_
                            ->link(isp_id(static_cast<std::int32_t>(m)),
                                   isp_id(static_cast<std::int32_t>(k)))
                            .rel);
            link_class_ = own_link_class_.data();
        }
    }

    add_seeds();
    add_initial_peers();
    if (options_.config.arrival_rate > 0.0) {
        arrivals_.emplace(options_.config.arrival_rate);
        next_arrival_ = arrivals_->next_arrival(arrival_rng_);
    }
    if (options_.admission.enabled) {
        expects(options_.admission.retry_slots > 0,
                "admission retry_slots must be positive");
        // A dedicated stream: gating never perturbs the "arrivals"/"peers"
        // draws, so admission-on with open gates spawns the same viewers.
        admission_rng_.emplace(rng_factory_.stream("admission"));
        id_base_ = next_peer_id_;
    }
}

// The emulator's metric set, in the registration order that is the one
// schema order every consumer (JSONL records, fleet merge, bench artifact)
// sees. Counters are cumulative over the run; gauges are byte volumes.
void emulator::register_metrics() {
    c_arrivals_ = counters_.add_counter("peers.arrivals");
    c_departures_ = counters_.add_counter("peers.departures");
    c_solver_rounds_ = counters_.add_counter("solver.rounds");
    c_solver_bids_ = counters_.add_counter("solver.bids");
    c_solver_phases_ = counters_.add_counter("solver.phases");
    c_solver_pivots_ = counters_.add_counter("solver.pivots");
    c_tracker_repairs_ = counters_.add_counter("tracker.repairs");
    c_tracker_inversions_ = counters_.add_counter("tracker.inversions");
    c_cache_hits_ = counters_.add_counter("cost.cache_hits");
    c_cache_misses_ = counters_.add_counter("cost.cache_misses");
    c_cache_flushes_ = counters_.add_counter("cost.cache_flushes");
    c_shed_events_ = counters_.add_counter("shed.events");
    // Admission metrics are registered unconditionally (zero when gating is
    // off) so every shard of a fleet shares one counter layout and the merge
    // stays layout-gated.
    c_admitted_ = counters_.add_counter("admission.admitted");
    c_deferred_ = counters_.add_counter("admission.deferred");
    c_abandoned_ = counters_.add_counter("admission.abandoned");
    g_bytes_sibling_ = counters_.add_gauge("ledger.bytes_sibling");
    g_bytes_peer_ = counters_.add_gauge("ledger.bytes_peer");
    g_bytes_transit_ = counters_.add_gauge("ledger.bytes_transit");
    g_admission_queue_ = counters_.add_gauge("admission.queued");
    // Slot-problem build counters (rows rebuilt from scratch vs reused from
    // their masks); new names append after every v1 metric so the
    // slot-record prefix is stable.
    c_delta_dirty_ = counters_.add_counter("delta.dirty_rows");
    c_delta_reused_ = counters_.add_counter("delta.reused_rows");
}

void emulator::sample_counters() {
    const net::cost_cache_stats cs = costs_->cache_stats();
    counters_.set(c_cache_hits_, cs.hits);
    counters_.set(c_cache_misses_, cs.misses);
    counters_.set(c_cache_flushes_, cs.flushes);
    const tracker_stats& ts = tracker_.stats();
    counters_.set(c_tracker_repairs_, ts.repairs);
    counters_.set(c_tracker_inversions_, ts.inversions);
    if (exact_ != nullptr) counters_.set(c_solver_pivots_, exact_->total_pivots());
    counters_.set(g_admission_queue_, static_cast<double>(deferred_.size()));
}

obs::counter_registry& emulator::counters() {
    sample_counters();
    return counters_;
}

void emulator::emit_header() {
    header_emitted_ = true;
    // Counter schema as one comma-joined list (the registry's registration
    // order — the same order "slot" records serialize values in).
    std::string metric_names;
    for (const auto& e : counters_.entries()) {
        if (!metric_names.empty()) metric_names += ',';
        metric_names += e.name;
    }
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("kind", "header")
        .field("scheduler", options_.scheduler)
        .field("master_seed", options_.config.master_seed)
        .field("num_isps", options_.config.num_isps)
        .field("num_videos", options_.config.num_videos)
        .field("initial_peers", options_.config.initial_peers)
        .field("arrival_rate", options_.config.arrival_rate)
        .field("slot_seconds", options_.config.slot_seconds)
        .field("num_slots", options_.config.num_slots())
        .field("economy", economy_enabled())
        .field("metrics", metric_names);
    line.begin_object("env")
        .field("spans", spans_.enabled())
        .field("every_slots", options_.telemetry.every_slots)
        .end_object();
    options_.telemetry.sink->write_line(line.finish());
}

void emulator::emit_slot_record(const slot_metrics& m) {
    sample_counters();
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("kind", "slot")
        .field("slot", slots_.size() - 1)
        .field("time", m.time)
        .field("online_peers", m.online_peers)
        .field("requests", m.requests)
        .field("transfers", m.transfers)
        .field("inter_isp_transfers", m.inter_isp_transfers)
        .field("inter_isp_fraction", m.inter_isp_fraction)
        .field("social_welfare", m.social_welfare)
        .field("chunks_due", m.chunks_due)
        .field("chunks_missed", m.chunks_missed)
        .field("miss_rate", m.miss_rate)
        .field("auction_bids", m.auction_bids);
    for (std::size_t i = 0; i < counters_.entries().size(); ++i) {
        const auto& e = counters_.entries()[i];
        if (e.kind == obs::metric_kind::counter)
            line.field(e.name, counters_.counter_at(i));
        else
            line.field(e.name, counters_.gauge_at(i));
    }
    if (spans_.enabled()) {
        // Wall-clock delta since the previous record — segregated so the
        // semantic projection of two runs still compares byte-for-byte.
        double total = 0.0;
        for (std::size_t p = 0; p < static_cast<std::size_t>(obs::phase::count); ++p)
            total += spans_.total_seconds(static_cast<obs::phase>(p));
        line.begin_object("wall")
            .field("slot_s", total - last_wall_total_)
            .end_object();
        last_wall_total_ = total;
    }
    options_.telemetry.sink->write_line(line.finish());
}

void emulator::emit_epoch_record(const isp::epoch_summary& e) {
    obs::json_line line;
    line.field("v", obs::jsonl_schema_version)
        .field("kind", "epoch")
        .field("epoch", e.epoch)
        .field("first_slot", e.first_slot)
        .field("num_slots", e.num_slots)
        .field("cross_chunks", e.cross_chunks)
        .field("raised", e.raised)
        .field("lowered", e.lowered)
        .field("mean_inter_price", e.mean_inter_price);
    options_.telemetry.sink->write_line(line.finish());
}

void emulator::add_seeds() {
    const auto& cfg = options_.config;
    const auto seed_capacity = static_cast<std::int32_t>(
        cfg.seed_upload_multiple * static_cast<double>(cfg.chunks_per_slot()));
    for (std::size_t v = 0; v < cfg.num_videos; ++v) {
        for (std::size_t m = 0; m < cfg.num_isps; ++m) {
            for (std::size_t s = 0; s < cfg.seeds_per_isp_per_video; ++s) {
                peer_table::peer_spawn seed;
                seed.id = peer_id(next_peer_id_++);
                seed.isp = isp_id(static_cast<std::int32_t>(m));
                seed.video = video_id(static_cast<std::int32_t>(v));
                seed.seed = true;
                seed.upload_capacity = seed_capacity;
                buffer_map buffer(cfg.chunks_per_video());
                buffer.fill_all();
                topology_.add_peer(seed.id, seed.isp);
                if (v == 0 && m == 0 && s == 0) default_probe_ = seed.id;
                const std::size_t row = peers_.add(seed, std::move(buffer));
                tracker_.register_peer(row, seed.video, /*seed=*/true);
            }
        }
    }
    num_seeds_ = peers_.rows();
}

std::size_t emulator::spawn_viewer(double join_time, bool pre_warmed,
                                   std::int32_t forced_isp) {
    const auto& cfg = options_.config;
    peer_table::peer_spawn viewer;
    viewer.id = peer_id(next_peer_id_++);
    // "distributed in the 5 ISPs evenly". The admission path forces the ISP
    // assigned at Poisson-arrival time (a deferred viewer keeps its ISP even
    // though its row — and id — is minted only when it finally passes the
    // gate).
    viewer.isp = forced_isp >= 0
                     ? isp_id(forced_isp)
                     : isp_id(static_cast<std::int32_t>(
                           static_cast<std::size_t>(viewer.id.value()) %
                           cfg.num_isps));
    viewer.video = video_id(static_cast<std::int32_t>(
        assets_->video_popularity.sample(peer_rng_) - 1));
    double multiple = peer_rng_.uniform_real(cfg.peer_upload_min_multiple,
                                             cfg.peer_upload_max_multiple);
    viewer.upload_capacity = static_cast<std::int32_t>(
        multiple * static_cast<double>(cfg.chunks_per_slot()));
    viewer.join_time = join_time;
    buffer_map buffer(cfg.chunks_per_video());

    if (pre_warmed) {
        // Steady-state viewer: already mid-video with its watched prefix (and
        // nothing else) in the buffer.
        auto max_position = static_cast<std::int64_t>(
            cfg.initial_position_max_fraction *
            static_cast<double>(cfg.chunks_per_video() - 1));
        auto position = static_cast<std::size_t>(
            peer_rng_.uniform_int(0, std::max<std::int64_t>(1, max_position)));
        viewer.playback_position = static_cast<double>(position);
        viewer.playback_start = join_time;
        buffer.fill_prefix(position);
    } else {
        viewer.playback_position = 0.0;
        // One slot of startup prefetch before playback begins.
        viewer.playback_start = join_time + cfg.slot_seconds;
    }

    double remaining_seconds =
        (static_cast<double>(cfg.chunks_per_video()) - viewer.playback_position) /
        cfg.chunks_per_second();
    if (cfg.departure_probability > 0.0 &&
        peer_rng_.bernoulli(cfg.departure_probability)) {
        // Early quitter: leaves at a uniformly random point of its session.
        viewer.planned_departure =
            viewer.playback_start + peer_rng_.uniform_real(0.0, remaining_seconds);
    }

    topology_.add_peer(viewer.id, viewer.isp);
    const std::size_t row = peers_.add(viewer, std::move(buffer));
    tracker_.register_peer(row, viewer.video, /*seed=*/false,
                           viewer.playback_position);
    // Rows are minted in id order, so appending keeps the list ascending.
    active_viewers_.push_back(static_cast<std::uint32_t>(row));
    // A departed viewer's slot first; its build state was reset when it left.
    if (free_vslots_.empty()) {
        active_vslot_.push_back(num_vslots_++);
    } else {
        active_vslot_.push_back(free_vslots_.back());
        free_vslots_.pop_back();
    }
    counters_.inc(c_arrivals_);
    return row;
}

void emulator::add_initial_peers() {
    for (std::size_t i = 0; i < options_.config.initial_peers; ++i)
        spawn_viewer(0.0, /*pre_warmed=*/true);
}

void emulator::process_arrivals(double until) {
    if (!options_.admission.enabled) {
        // Ungated: the pre-coupling arrival path, verbatim (no admission
        // draws, no sequence bookkeeping) — bit-identical behavior.
        if (!arrivals_) return;
        while (next_arrival_ <= until) {
            spawn_viewer(next_arrival_, /*pre_warmed=*/false);
            next_arrival_ = arrivals_->next_arrival(arrival_rng_);
        }
        return;
    }

    const std::size_t slot = slots_.size();
    // Deferred viewers retry first (FIFO): they hold the earliest claim on
    // whatever budget the fleet granted for this slot.
    for (std::size_t i = 0; i < deferred_.size();) {
        deferred_viewer& d = deferred_[i];
        if (d.retry_slot > slot) {
            ++i;
            continue;
        }
        if (try_admit(d.isp)) {
            spawn_viewer(until, /*pre_warmed=*/false,
                         static_cast<std::int32_t>(d.isp));
            counters_.inc(c_admitted_);
            deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (++d.retries >= options_.admission.max_retries) {
            counters_.inc(c_abandoned_);
            deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            d.retry_slot = slot + options_.admission.retry_slots +
                           static_cast<std::size_t>(admission_rng_->uniform_int(0, 1));
            ++i;
        }
    }

    if (!arrivals_) return;
    while (next_arrival_ <= until) {
        const double t = next_arrival_;
        // The ISP a gated arrival lands in is a function of its position in
        // the arrival sequence — exactly the id the ungated path would have
        // minted for it — so open gates reproduce the ungated round-robin.
        const auto isp = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(id_base_) + arrival_seq_) %
            options_.config.num_isps);
        ++arrival_seq_;
        if (try_admit(isp)) {
            spawn_viewer(t, /*pre_warmed=*/false, static_cast<std::int32_t>(isp));
            counters_.inc(c_admitted_);
        } else {
            counters_.inc(c_deferred_);
            deferred_.push_back(
                {isp, 0,
                 slot + options_.admission.retry_slots +
                     static_cast<std::size_t>(admission_rng_->uniform_int(0, 1))});
        }
        next_arrival_ = arrivals_->next_arrival(arrival_rng_);
    }
}

bool emulator::try_admit(std::uint32_t isp) {
    if (admission_budget_.empty()) return true;  // no budgets pushed yet
    std::uint32_t& budget = admission_budget_[isp];
    if (budget == capacity::admission_unlimited) return true;
    if (budget == 0) return false;
    --budget;
    return true;
}

void emulator::set_admission_budgets(std::span<const std::uint32_t> per_isp) {
    expects(options_.admission.enabled,
            "admission budgets require options.admission.enabled");
    expects(per_isp.size() == options_.config.num_isps,
            "admission budgets need one entry per ISP");
    admission_budget_.assign(per_isp.begin(), per_isp.end());
}

std::size_t emulator::admission_queue_len(isp_id isp) const {
    std::size_t n = 0;
    for (const deferred_viewer& d : deferred_)
        if (d.isp == static_cast<std::uint32_t>(isp.value())) ++n;
    return n;
}

std::uint64_t emulator::seed_uploads(std::size_t isp, std::size_t ordinal) const {
    const auto& cfg = options_.config;
    expects(isp < cfg.num_isps && ordinal < cfg.seeds_per_isp_per_video,
            "seed identity out of range");
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < cfg.num_videos; ++v) {
        const std::size_t row =
            (v * cfg.num_isps + isp) * cfg.seeds_per_isp_per_video + ordinal;
        total += peers_.lifetime(row).chunks_uploaded;
    }
    return total;
}

void emulator::set_seed_capacity(std::size_t isp, std::size_t ordinal,
                                 std::int32_t chunks_per_slot) {
    const auto& cfg = options_.config;
    expects(isp < cfg.num_isps && ordinal < cfg.seeds_per_isp_per_video,
            "seed identity out of range");
    expects(chunks_per_slot > 0, "seed capacity must stay positive");
    for (std::size_t v = 0; v < cfg.num_videos; ++v) {
        const std::size_t row =
            (v * cfg.num_isps + isp) * cfg.seeds_per_isp_per_video + ordinal;
        peers_.set_upload_capacity(row, chunks_per_slot);
    }
}

void emulator::process_departures() {
    bool any = false;
    for (std::uint32_t row : active_viewers_) {
        bool finished = peers_.finished(row, assets_->catalog.chunks_per_video());
        bool quits = peers_.planned_departure(row) >= 0.0 &&
                     peers_.planned_departure(row) <= now_;
        if (!finished && !quits) continue;
        peers_.mark_departed(row);
        topology_.remove_peer(peers_.id(row));
        tracker_.unregister_peer(row);
        // Nothing reads a departed peer's buffer again (requests, candidates
        // and playback all draw from the active list) — reclaim it.
        peers_.buffer(row).release();
        counters_.inc(c_departures_);
        any = true;
    }
    if (!any) return;
    // Compact the live list and its viewer slots in lockstep; a departed
    // viewer's slot goes back on the free list with its build state reset
    // (if it was ever allocated), so the next arrival starts from scratch.
    std::size_t out = 0;
    for (std::size_t i = 0; i < active_viewers_.size(); ++i) {
        const std::uint32_t row = active_viewers_[i];
        const std::uint32_t vslot = active_vslot_[i];
        if (peers_.departed(row)) {
            if (vslot < delta_state_.size()) delta_state_[vslot] = delta_state{};
            free_vslots_.push_back(vslot);
            continue;
        }
        active_viewers_[out] = row;
        active_vslot_[out] = vslot;
        ++out;
    }
    active_viewers_.resize(out);
    active_vslot_.resize(out);
}

void emulator::refresh_neighbors() {
    const std::size_t rows = peers_.rows();
    neighbor_offsets_.assign(rows + 1, 0);
    neighbor_rows_.clear();
    for (std::uint32_t row : active_viewers_) {
        tracker_.bootstrap(row, options_.config.neighbor_count, neighbor_rows_);
        expects(neighbor_rows_.size() <= 0xffffffffu, "neighbor arena exceeds u32");
        neighbor_offsets_[row + 1] = static_cast<std::uint32_t>(neighbor_rows_.size());
    }
    // Rows that did not bootstrap (seeds, departed) get empty ranges.
    for (std::size_t r = 1; r <= rows; ++r)
        neighbor_offsets_[r] = std::max(neighbor_offsets_[r], neighbor_offsets_[r - 1]);
}

void emulator::prefetch_link_costs() {
    // Once per slot: the builder re-reads each link cost up to
    // prefetch_chunks × rounds times per slot, and costs are constant within
    // the slot, so pricing every link here turns all of those into array
    // reads. The tracker re-bootstrapped since the last slot, so each
    // viewer's neighbor list may have changed (churn, repair, playback
    // reordering); within the slot the arena is immutable.
    neighbor_costs_.resize(neighbor_rows_.size());
    // The peer ids of `len` arena rows, as the cost model's batch input.
    auto ids_of = [this](const std::uint32_t* rows, std::size_t len) {
        batch_ids_.resize(len);
        for (std::size_t k = 0; k < len; ++k) batch_ids_[k] = peers_.id(rows[k]);
        return std::span<const peer_id>(batch_ids_);
    };
    for (std::size_t i = 0; i < active_viewers_.size(); ++i) {
        const std::uint32_t row = active_viewers_[i];
        const peer_id me = peers_.id(row);
        const std::size_t nbr_begin = neighbor_offsets_[row];
        const std::size_t len = neighbor_offsets_[row + 1] - nbr_begin;
        const std::uint32_t* arena = neighbor_rows_.data() + nbr_begin;
        double* out = neighbor_costs_.data() + nbr_begin;
        const std::size_t vslot = active_vslot_[i];
        delta_state& ds = delta_state_[vslot];
        // The masks only represent segments of ≤ seg_cap_ live neighbors
        // whose order equals the arena's (the departed filter a mid-slot
        // bootstrap could in principle trip never fires here — arrivals and
        // departures both precede the refresh — but a row that violates
        // either assumption just runs the reference path).
        bool representable = len <= seg_cap_;
        if (representable)
            for (std::size_t k = 0; k < len; ++k)
                if (peers_.departed(arena[k])) {
                    representable = false;
                    break;
                }
        ds.fallback = representable ? 0 : 1;
        if (!representable) {
            costs_->cost_batch(ids_of(arena, len), me, std::span<double>(out, len));
            continue;
        }
        std::uint32_t* seg = delta_segs_.data() + vslot * seg_cap_;
        double* draws = delta_draws_.data() + vslot * seg_cap_;
        const bool same = ds.valid != 0 && ds.seg_len == len &&
                          std::equal(arena, arena + len, seg);
        if (!same) {
            // A new segment: only its links consult the cost model.
            std::copy_n(arena, len, seg);
            ds.seg_len = static_cast<std::uint32_t>(len);
            std::uint32_t sc = 0;
            while (sc < len && seg[sc] < num_seeds_) ++sc;
            ds.seed_count = sc;
            ds.valid = 0;  // forces the build's full mask transpose
            costs_->draw_batch(ids_of(seg, len), me, std::span<double>(draws, len));
        }
        ds.nbr_begin = static_cast<std::uint32_t>(nbr_begin);
        // Live prices every slot: epochs and coupling still steer costs.
        const isp_id my_isp = peers_.isp(row);
        for (std::size_t k = 0; k < len; ++k)
            out[k] = costs_->price(draws[k], peers_.isp(seg[k]), my_isp);
    }
    if (!options_.delta_shadow_check) return;
    // The oracle's own link costs, straight from the cost model: a stale
    // held draw or a mispriced link in the pass above cannot leak into the
    // reference build, and the cache counters see none of these queries.
    shadow_costs_.resize(neighbor_rows_.size());
    for (std::uint32_t row : active_viewers_)
        for (std::size_t k = neighbor_offsets_[row]; k < neighbor_offsets_[row + 1]; ++k)
            shadow_costs_[k] =
                costs_->uncached_cost(peers_.id(neighbor_rows_[k]), peers_.id(row));
}

void emulator::build_problem(double now,
                             const std::vector<std::int32_t>& round_capacity) {
    build_problem_delta(now, round_capacity);
    if (options_.delta_shadow_check) {
        build_problem_full(now, round_capacity, shadow_problem_);
        expects(round_problem_.problem.identical_to(shadow_problem_.problem) &&
                    round_problem_.request_row == shadow_problem_.request_row &&
                    round_problem_.uploader_row == shadow_problem_.uploader_row,
                "delta build diverged from the full rebuild");
    }
    const slot_problem& sp = round_problem_;
    hw_uploaders_ = std::max(hw_uploaders_, sp.problem.num_uploaders());
    hw_requests_ = std::max(hw_requests_, sp.problem.num_requests());
    hw_candidates_ = std::max(hw_candidates_, sp.problem.num_candidates());
}

void emulator::register_uploaders(slot_problem& sp,
                                  const std::vector<std::int32_t>& round_capacity) {
    // The arena was shed at the previous slot's end; one reserve at the
    // remembered high water replaces the geometric regrowth (first slot: all
    // zeros, plain growth). Later rounds of the slot find the capacity there.
    sp.problem.reserve(hw_uploaders_, hw_requests_, hw_candidates_);
    sp.problem.clear();
    sp.uploader_of_peer.assign(peers_.rows(), UINT32_MAX);
    sp.uploader_row.clear();
    sp.request_row.clear();
    // Seeds occupy the first rows and never depart; live viewers follow in
    // ascending row order — together exactly the pre-refactor full-table
    // scan minus the departed.
    for (std::size_t row = 0; row < num_seeds_; ++row) {
        if (round_capacity[row] <= 0) continue;
        sp.uploader_of_peer[row] = static_cast<std::uint32_t>(
            sp.problem.add_uploader(peers_.id(row), round_capacity[row]));
        sp.uploader_row.push_back(static_cast<std::uint32_t>(row));
    }
    for (std::uint32_t row : active_viewers_) {
        if (round_capacity[row] <= 0) continue;
        sp.uploader_of_peer[row] = static_cast<std::uint32_t>(
            sp.problem.add_uploader(peers_.id(row), round_capacity[row]));
        sp.uploader_row.push_back(row);
    }
}

void emulator::append_viewer_row(slot_problem& sp, std::uint32_t row, double now,
                                 const std::vector<double>& link_costs) {
    const auto& cfg = options_.config;
    const std::size_t n_chunks = cfg.chunks_per_video();
    const double position = peers_.playback_position(row);
    const double playback_start = peers_.playback_start(row);
    const video_id video = peers_.video(row);
    const buffer_map& buffer = peers_.buffer(row);
    auto window_begin = static_cast<std::size_t>(std::ceil(position));
    std::size_t window_end = std::min(window_begin + cfg.prefetch_chunks, n_chunks);
    std::size_t idx = buffer.first_missing_in(window_begin, window_end);
    if (idx >= window_end) return;  // window fully buffered

    // Gather each eligible neighbor's window words next to its uploader
    // ordinal and prefetched cost: the per-chunk candidate test below
    // becomes a bit probe into this L1-resident scratch instead of a
    // random read into every neighbor's bitmap. Skipping departed or
    // capacity-less neighbors here preserves the candidate order (the
    // filter is chunk-independent).
    const std::size_t word_lo = window_begin >> 6;
    const std::size_t n_words = ((window_end + 63) >> 6) - word_lo;
    cand_words_.clear();
    cand_uploader_.clear();
    cand_cost_.clear();
    const std::size_t nbr_begin = neighbor_offsets_[row];
    const std::size_t nbr_end = neighbor_offsets_[row + 1];
    for (std::size_t k = nbr_begin; k < nbr_end; ++k) {
        const std::uint32_t n_row = neighbor_rows_[k];
        if (peers_.departed(n_row)) continue;
        const std::uint32_t uploader = sp.uploader_of_peer[n_row];
        if (uploader == UINT32_MAX) continue;
        const std::size_t at = cand_words_.size();
        cand_words_.resize(at + n_words);
        peers_.buffer(n_row).copy_words(word_lo, n_words,
                                        cand_words_.data() + at);
        cand_uploader_.push_back(uploader);
        cand_cost_.push_back(link_costs[k]);
    }
    if (cand_uploader_.empty()) return;

    for (; idx < window_end; idx = buffer.first_missing_in(idx + 1, window_end)) {
        // Deadline: the moment playback reaches this chunk.
        double deadline =
            now < playback_start
                ? playback_start +
                      static_cast<double>(idx) / cfg.chunks_per_second()
                : now + (static_cast<double>(idx) - position) /
                            cfg.chunks_per_second();
        double ttl = std::max(0.0, deadline - now);
        const std::size_t word = (idx >> 6) - word_lo;
        const std::size_t shift = idx & 63;
        std::size_t request = SIZE_MAX;
        for (std::size_t j = 0; j < cand_uploader_.size(); ++j) {
            if (((cand_words_[j * n_words + word] >> shift) & 1u) == 0) continue;
            if (request == SIZE_MAX) {
                request = sp.problem.add_request(
                    peers_.id(row), assets_->catalog.chunk_of(video, idx),
                    assets_->valuation.value(ttl));
                sp.request_row.push_back(row);
            }
            sp.problem.append_candidate(cand_uploader_[j], cand_cost_[j]);
        }
    }
}

void emulator::build_problem_full(double now,
                                  const std::vector<std::int32_t>& round_capacity,
                                  slot_problem& sp) {
    register_uploaders(sp, round_capacity);
    for (std::uint32_t row : active_viewers_) {
        if (peers_.join_time(row) > now) continue;
        append_viewer_row(sp, row, now, shadow_costs_);
    }
}

namespace {
// ORs `bit` into the ring mask of every chunk c in [c0, c1) set in `words`
// (buffer words from word c0 >> 6 on): bit j of masks[c & ring_mask] marks
// chunk c as available at segment neighbor j.
inline void scatter_range(std::uint32_t* masks, std::size_t ring_mask,
                          const std::uint64_t* words, std::size_t c0,
                          std::size_t c1, std::uint32_t bit) noexcept {
    const std::size_t w0 = c0 >> 6;
    const std::size_t w_last = (c1 - 1) >> 6;
    for (std::size_t w = w0; w <= w_last; ++w) {
        std::uint64_t word = words[w - w0];
        if (w == w0) word &= ~std::uint64_t{0} << (c0 & 63);
        if (w == w_last && (c1 & 63) != 0)
            word &= (std::uint64_t{1} << (c1 & 63)) - 1;
        while (word != 0) {
            masks[((w << 6) + static_cast<std::size_t>(std::countr_zero(word))) &
                  ring_mask] |= bit;
            word &= word - 1;
        }
    }
}
}  // namespace

void emulator::reserve_viewer_state() {
    const std::size_t have = delta_state_.size();
    if (have >= num_vslots_) return;
    if (have == 0) {
        // ttl ≥ 0, so an all-ones key (negative NaN) can never collide.
        val_keys_.assign(std::size_t{1} << 13, ~std::uint64_t{0});
        val_vals_.assign(std::size_t{1} << 13, 0.0);
        delta_up_scratch_.resize(delta_seg_cap);
        word_scratch_.resize((ring_ >> 6) + 2);
        seed_blk_up_.resize(delta_seg_cap);
        seed_blk_cost_.resize(delta_seg_cap);
    }
    // First build: exactly the minted slots (a static swarm never grows
    // again). Later growth — arrivals past the live high water — takes 1/8
    // headroom, so regrowth stays amortized without vector's 2x overshoot.
    const std::size_t n =
        have == 0 ? num_vslots_ : std::max<std::size_t>(num_vslots_, have + have / 8);
    delta_state_.reserve(n);
    delta_masks_.reserve(n * ring_);
    delta_segs_.reserve(n * seg_cap_);
    delta_draws_.reserve(n * seg_cap_);
    delta_state_.resize(n);
    delta_masks_.resize(n * ring_);
    delta_segs_.resize(n * seg_cap_);
    delta_draws_.resize(n * seg_cap_);
}

void emulator::index_gains() {
    gain_offsets_.clear();
    if (gain_log_.empty()) return;
    // Counting sort by row: counts land at [row + 2], the prefix sum turns
    // them into starts shifted by one, and the fill's post-increments shift
    // them back — leaving row r's chunks at [offsets[r], offsets[r + 1]).
    gain_offsets_.assign(peers_.rows() + 2, 0);
    for (const gain& g : gain_log_) ++gain_offsets_[g.row + 2];
    for (std::size_t r = 2; r < gain_offsets_.size(); ++r)
        gain_offsets_[r] += gain_offsets_[r - 1];
    gain_chunks_.resize(gain_log_.size());
    for (const gain& g : gain_log_) gain_chunks_[gain_offsets_[g.row + 1]++] = g.chunk;
    gain_log_.clear();
}

double emulator::deadline_value(double ttl) {
    const auto bits = std::bit_cast<std::uint64_t>(ttl);
    // Direct-mapped on the ttl's exact bit pattern: a hit returns the very
    // double value() computed for those bits, so caching is unobservable.
    const std::size_t cell = (bits * 0x9e3779b97f4a7c15ull) >> 51;  // 13 bits
    if (val_keys_[cell] == bits) return val_vals_[cell];
    const double v = assets_->valuation.value(ttl);
    val_keys_[cell] = bits;
    val_vals_[cell] = v;
    return v;
}

void emulator::build_problem_delta(double now,
                                   const std::vector<std::int32_t>& round_capacity) {
    slot_problem& sp = round_problem_;
    register_uploaders(sp, round_capacity);
    ++build_round_;
    if (active_viewers_.empty()) {
        gain_log_.clear();
        return;
    }
    index_gains();

    const auto& cfg = options_.config;
    const std::size_t n_chunks = cfg.chunks_per_video();
    const std::size_t ring_mask = ring_ - 1;
    std::uint64_t dirty = 0;
    std::uint64_t reused = 0;

    for (std::size_t i = 0; i < active_viewers_.size(); ++i) {
        const std::uint32_t row = active_viewers_[i];
        if (peers_.join_time(row) > now) continue;
        const double position = peers_.playback_position(row);
        const double playback_start = peers_.playback_start(row);
        const video_id video = peers_.video(row);
        const buffer_map& buffer = peers_.buffer(row);
        auto window_begin = static_cast<std::size_t>(std::ceil(position));
        std::size_t window_end = std::min(window_begin + cfg.prefetch_chunks, n_chunks);
        std::size_t idx = buffer.first_missing_in(window_begin, window_end);

        const std::size_t vslot = active_vslot_[i];
        delta_state& ds = delta_state_[vslot];
        const std::uint32_t* seg = delta_segs_.data() + vslot * seg_cap_;
        if (ds.fallback != 0) {
            if (idx >= window_end) continue;  // window fully buffered
            ++dirty;
            append_viewer_row(sp, row, now, neighbor_costs_);
            continue;
        }

        // --- mask maintenance. Invariant: for every chunk c in
        // [window_begin, ds.hi) this viewer lacks, masks[c & ring_mask] is
        // exact as of round ds.round. Chunks it holds are never emitted again
        // (buffers are monotone), so their entries are don't-care. ---
        std::uint32_t* masks = delta_masks_.data() + vslot * ring_;
        const bool fresh = ds.valid != 0 && ds.round + 1 == build_round_;
        ds.round = build_round_;
        ds.valid = 1;
        const std::size_t kept_end = fresh ? std::min<std::size_t>(ds.hi, window_end)
                                           : window_begin;
        ds.hi = static_cast<std::uint32_t>(window_end);
        // A fully buffered window needs no entries at all.
        if (idx >= window_end) continue;
        if (fresh) {
            // Retained chunks: OR in what each viewer-neighbor gained in the
            // previous round (the only buffer change since the last visit).
            if (window_begin < kept_end && !gain_offsets_.empty())
                for (std::uint32_t j = ds.seed_count; j < ds.seg_len; ++j) {
                    const std::uint32_t n_row = seg[j];
                    const std::uint32_t bit = 1u << j;
                    for (std::uint32_t g = gain_offsets_[n_row];
                         g < gain_offsets_[n_row + 1]; ++g) {
                        const std::uint32_t c = gain_chunks_[g];
                        if (c >= window_begin && c < kept_end)
                            masks[c & ring_mask] |= bit;
                    }
                }
            ++reused;
        } else {
            ++dirty;
        }
        // Entering chunks (the whole window after a reset): transpose each
        // viewer-neighbor's current buffer words. Seeds are exempt — their
        // full buffers are the constant seed_mask below.
        const std::size_t enter = std::max(kept_end, window_begin);
        if (enter < window_end) {
            for (std::size_t c = enter; c < window_end; ++c) masks[c & ring_mask] = 0;
            const std::size_t w0 = enter >> 6;
            const std::size_t n_words = ((window_end + 63) >> 6) - w0;
            for (std::uint32_t j = ds.seed_count; j < ds.seg_len; ++j) {
                peers_.buffer(seg[j]).copy_words(w0, n_words, word_scratch_.data());
                scatter_range(masks, ring_mask, word_scratch_.data(), enter,
                              window_end, 1u << j);
            }
        }

        // --- emission: the reference builder's candidate order, bit j of
        // (mask | seed_mask) & eligibility == gathered-candidate ordinal ---
        const double* seg_costs = neighbor_costs_.data() + ds.nbr_begin;
        std::uint32_t elig = 0;
        for (std::uint32_t j = 0; j < ds.seg_len; ++j) {
            const std::uint32_t up = sp.uploader_of_peer[seg[j]];
            delta_up_scratch_[j] = up;
            if (up != UINT32_MAX) elig |= 1u << j;
        }
        if (elig == 0) continue;
        const std::uint32_t seed_mask =
            ds.seed_count >= 32 ? 0xffffffffu : (1u << ds.seed_count) - 1u;
        // Seed buffers are full, so every eligible seed matches every chunk:
        // the row's leading candidates are identical across its requests.
        // Precompute that block once and bulk-copy it per request (the masks
        // never carry seed bits — seeds are exempt from the transpose).
        std::uint32_t n_seed = 0;
        for (std::uint32_t se = elig & seed_mask; se != 0; se &= se - 1) {
            const auto j = static_cast<std::uint32_t>(std::countr_zero(se));
            seed_blk_up_[n_seed] = delta_up_scratch_[j];
            seed_blk_cost_[n_seed] = seg_costs[j];
            ++n_seed;
        }
        const std::uint32_t viewer_elig = elig & ~seed_mask;
        for (; idx < window_end; idx = buffer.first_missing_in(idx + 1, window_end)) {
            const std::uint32_t mv = masks[idx & ring_mask] & viewer_elig;
            if (mv == 0 && n_seed == 0) continue;
            double deadline =
                now < playback_start
                    ? playback_start +
                          static_cast<double>(idx) / cfg.chunks_per_second()
                    : now + (static_cast<double>(idx) - position) /
                                cfg.chunks_per_second();
            double ttl = std::max(0.0, deadline - now);
            sp.problem.add_request(peers_.id(row),
                                   assets_->catalog.chunk_of(video, idx),
                                   deadline_value(ttl));
            sp.request_row.push_back(row);
            if (n_seed != 0)
                sp.problem.append_candidates_block(seed_blk_up_.data(),
                                                   seed_blk_cost_.data(), n_seed);
            if (mv != 0)
                sp.problem.append_candidates_masked(delta_up_scratch_.data(),
                                                    seg_costs, mv);
        }
    }
    counters_.inc(c_delta_dirty_, dirty);
    counters_.inc(c_delta_reused_, reused);
}

core::schedule emulator::dispatch(double round_start, double duration,
                                  std::size_t round, slot_metrics& metrics,
                                  std::vector<double>& slot_prices) {
    const slot_problem& sp = round_problem_;
    const core::problem_view view = sp.problem.view();
    counters_.inc(c_solver_rounds_);

    if (auction_ != nullptr) {
        // The distributed window applies to the synchronous auction only (the
        // Jacobi solver is a solver, not a protocol).
        bool distributed = serial_auction_ &&
                           round_start >= options_.distributed_from &&
                           round_start < options_.distributed_to;
        if (distributed) {
            runtime_options ro;
            ro.bidding = options_.auction.bidding;
            ro.duration = duration;
            ro.time_offset = round_start;
            ro.record_price_log = true;
            ro.initial_prices.resize(view.num_uploaders(), 0.0);
            for (std::size_t u = 0; u < view.num_uploaders(); ++u)
                ro.initial_prices[u] = slot_prices[sp.uploader_row[u]];
            ro.latency = [this](peer_id a, peer_id b) {
                return options_.latency_per_cost * costs_->cost(a, b);
            };
            auction_runtime runtime(view, std::move(ro));
            auto result = runtime.run();
            for (std::size_t u = 0; u < view.num_uploaders(); ++u)
                slot_prices[sp.uploader_row[u]] = result.auction.prices[u];
            for (const auto& ev : result.price_log)
                price_events_.push_back(
                    {view.uploader(ev.uploader).who, ev.time, ev.price});
            price_series_built_ = false;
            metrics.auction_bids += result.auction.bids_submitted;
            counters_.inc(c_solver_bids_, result.auction.bids_submitted);
            return std::move(result.auction.sched);
        }
        core::auction_result result;
        if (options_.warm_start_rounds) {
            // Thread the slot's λ through its bidding rounds (Sec. IV-C's
            // price cycle), exactly like the distributed path above.
            std::vector<double> initial(view.num_uploaders(), 0.0);
            for (std::size_t u = 0; u < view.num_uploaders(); ++u)
                initial[u] = slot_prices[sp.uploader_row[u]];
            result = auction_->run(view, initial);
            for (std::size_t u = 0; u < view.num_uploaders(); ++u)
                slot_prices[sp.uploader_row[u]] = result.prices[u];
        } else {
            result = auction_->run(view);
        }
        metrics.auction_bids += result.bids_submitted;
        counters_.inc(c_solver_bids_, result.bids_submitted);
        // Every auction solve runs as one phase at one ε.
        counters_.inc(c_solver_phases_, 1);
        return std::move(result.sched);
    }

    // Any other registered scheduler: re-key its randomness from (slot,
    // round) — deterministic per master seed, independent across rounds —
    // and solve on the shared view.
    scheduler_->reseed(rng_factory_.derived_seed(
        "dispatch/" + std::to_string(slots_.size()) + "/" + std::to_string(round)));
    return scheduler_->solve(view);
}

void emulator::apply_schedule(const core::schedule& sched, slot_metrics& metrics,
                              std::vector<std::int32_t>& remaining_capacity) {
    const slot_problem& sp = round_problem_;
    for (std::size_t r = 0; r < sp.problem.num_requests(); ++r) {
        std::ptrdiff_t choice = sched.choice[r];
        if (choice == core::no_candidate) continue;
        const auto& request = sp.problem.request(r);
        const auto cand = sp.problem.candidates(r)[static_cast<std::size_t>(choice)];

        const std::uint32_t downstream_row = sp.request_row[r];
        std::size_t idx = assets_->catalog.index_of(request.chunk);
        if (!peers_.buffer(downstream_row).set(idx)) continue;  // duplicate delivery guard
        gain_log_.push_back({downstream_row, static_cast<std::uint32_t>(idx)});
        ++peers_.lifetime(downstream_row).chunks_downloaded;
        const std::uint32_t seller_row = sp.uploader_row[cand.uploader];
        ++peers_.lifetime(seller_row).chunks_uploaded;
        --remaining_capacity[seller_row];

        ++metrics.transfers;
        metrics.social_welfare += request.valuation - cand.cost;
        const isp_id seller_isp = peers_.isp(seller_row);
        const isp_id downstream_isp = peers_.isp(downstream_row);
        if (seller_isp != downstream_isp) ++metrics.inter_isp_transfers;
        if (ledger_) {
            const double bytes = options_.config.chunk_size_kb * 1024.0;
            ledger_->record(seller_isp, downstream_isp, 1, bytes);
            const std::size_t n = options_.config.num_isps;
            const auto rel = static_cast<isp::relationship>(
                link_class_[static_cast<std::size_t>(seller_isp.value()) * n +
                            static_cast<std::size_t>(downstream_isp.value())]);
            switch (rel) {
                case isp::relationship::sibling:
                    counters_.add(g_bytes_sibling_, bytes);
                    break;
                case isp::relationship::peer:
                    counters_.add(g_bytes_peer_, bytes);
                    break;
                case isp::relationship::transit:
                    counters_.add(g_bytes_transit_, bytes);
                    break;
            }
        }
    }
    metrics.inter_isp_fraction =
        metrics.transfers == 0
            ? 0.0
            : static_cast<double>(metrics.inter_isp_transfers) /
                  static_cast<double>(metrics.transfers);
}

void emulator::advance_playback(double from, double to, slot_metrics& metrics) {
    const auto& cfg = options_.config;
    const auto n_chunks = static_cast<double>(cfg.chunks_per_video());
    for (std::uint32_t row : active_viewers_) {
        double play_from = std::max(from, peers_.playback_start(row));
        if (play_from >= to) continue;
        const double position = peers_.playback_position(row);
        double new_position =
            std::min(position + (to - play_from) * cfg.chunks_per_second(), n_chunks);
        // Chunks whose deadline passed this round: ceil(position) up to (but
        // excluding) new_position — end bound = ceil(new_position) whether or
        // not new_position is integral, matching the old per-chunk loop.
        const auto due_begin = static_cast<std::size_t>(std::ceil(position));
        const auto due_end = static_cast<std::size_t>(std::ceil(new_position));
        if (due_end > due_begin) {
            const std::size_t due = due_end - due_begin;
            const std::size_t missed =
                peers_.buffer(row).missing_in(due_begin, due_end);
            auto& life = peers_.lifetime(row);
            life.chunks_due += due;
            life.chunks_missed += missed;
            metrics.chunks_due += due;
            metrics.chunks_missed += missed;
        }
        peers_.set_playback_position(row, new_position);
        tracker_.update_position(row, new_position);
    }
    metrics.miss_rate = metrics.chunks_due == 0
                            ? 0.0
                            : static_cast<double>(metrics.chunks_missed) /
                                  static_cast<double>(metrics.chunks_due);
}

const slot_metrics& emulator::step() {
    const double slot_start = now_;
    const double slot_end = now_ + options_.config.slot_seconds;

    // Phase timing goes through the span recorder, and only when it is
    // enabled — a telemetry-off slot loop performs zero timestamp syscalls
    // (every entry point sits behind this one branch).
    const bool timed = spans_.enabled();
    if (timed) spans_.begin_slot(static_cast<std::uint32_t>(slots_.size()));
    process_arrivals(slot_start);
    if (timed) spans_.lap(obs::phase::arrivals);
    process_departures();
    if (timed) spans_.lap(obs::phase::departures);
    // Grow the viewer-indexed build state before this slot's arenas are
    // reserved, so its long-lived blocks are never allocated in between the
    // slot's transient ones.
    if (!active_viewers_.empty()) reserve_viewer_state();
    if (timed) spans_.lap(obs::phase::build);
    refresh_neighbors();
    if (timed) spans_.lap(obs::phase::neighbor_refresh);
    // Accounted to build: the link prefetch replaces the per-candidate cost
    // lookups the pre-refactor build loop performed.
    prefetch_link_costs();
    if (timed) spans_.lap(obs::phase::build);
    if (ledger_) ledger_->begin_slot(slot_start);

    slot_metrics metrics;
    metrics.time = slot_start;
    metrics.online_peers = online_viewers();

    bool distributed = serial_auction_ &&
                       slot_start >= options_.distributed_from &&
                       slot_start < options_.distributed_to;
    if (distributed) distributed_slot_starts_.push_back(slot_start);
    const std::size_t rounds = options_.bid_rounds_per_slot;
    const double round_length = options_.config.slot_seconds /
                                static_cast<double>(rounds);
    const std::size_t rows = peers_.rows();
    // Prices persist across the rounds of one slot and reset at slot
    // boundaries — the slot is the bidding cycle of Sec. IV-C.
    slot_prices_.assign(rows, 0.0);

    remaining_scratch_.assign(rows, 0);
    for (std::size_t row = 0; row < num_seeds_; ++row)
        remaining_scratch_[row] = peers_.upload_capacity(row);
    for (std::uint32_t row : active_viewers_)
        remaining_scratch_[row] = peers_.upload_capacity(row);

    for (std::size_t r = 0; r < rounds; ++r) {
        const double round_start = slot_start + static_cast<double>(r) * round_length;
        const double round_end = round_start + round_length;

        // Even share of the remaining slot budget over the remaining rounds,
        // so capacity unused early stays available to urgent late bids.
        round_capacity_scratch_.assign(rows, 0);
        auto rounds_left = static_cast<std::int32_t>(rounds - r);
        for (std::size_t row = 0; row < num_seeds_; ++row)
            round_capacity_scratch_[row] =
                (remaining_scratch_[row] + rounds_left - 1) / rounds_left;
        for (std::uint32_t row : active_viewers_)
            round_capacity_scratch_[row] =
                (remaining_scratch_[row] + rounds_left - 1) / rounds_left;

        if (timed) spans_.skip();
        build_problem(round_start, round_capacity_scratch_);
        if (timed) spans_.lap(obs::phase::build);
        metrics.requests += round_problem_.problem.num_requests();

        auto sched = dispatch(round_start, round_length, r, metrics, slot_prices_);
        if (timed) spans_.lap(obs::phase::solve);
        apply_schedule(sched, metrics, remaining_scratch_);
        if (timed) spans_.lap(obs::phase::apply);

        // Playback of this round is checked against the post-transfer buffer:
        // transfers complete within the bidding round.
        advance_playback(round_start, round_end, metrics);
        if (timed) spans_.lap(obs::phase::playback);
    }

    // Slot-end memory discipline: the problem arena and solver slabs are only
    // needed while this shard's slot is in flight — return them now so a
    // fleet's resident set scales with its thread count, not its swarm count.
    shed_slot_memory();
    if (timed) spans_.lap(obs::phase::shed);

    slots_.push_back(metrics);
    now_ = slot_end;
    // Epoch boundary: ISPs re-price off the slots metered since the last
    // close; the updated prices steer every subsequent slot's costs.
    const bool epoch_closed =
        price_controller_ &&
        slots_.size() % options_.config.economy.slots_per_epoch == 0;
    if (epoch_closed) price_controller_->end_epoch(*ledger_);

    // Telemetry records, outside the timed region: emission never perturbs
    // the phase profile, and a null sink costs one branch.
    if (options_.telemetry.sink != nullptr) {
        if (!header_emitted_) emit_header();
        if ((slots_.size() - 1) % options_.telemetry.every_slots == 0)
            emit_slot_record(slots_.back());
        if (epoch_closed) emit_epoch_record(price_controller_->history().back());
    }
    return slots_.back();
}

void emulator::shed_slot_memory() {
    for (slot_problem* sp : {&round_problem_, &shadow_problem_}) {
        sp->problem.shed();
        std::vector<std::uint32_t>().swap(sp->uploader_of_peer);
        std::vector<std::uint32_t>().swap(sp->uploader_row);
        std::vector<std::uint32_t>().swap(sp->request_row);
    }
    // The gain index is rebuilt every round; the log itself survives (the
    // next slot's first build consumes the last round's transfers) and keeps
    // its capacity, so it is not reallocated while the next slot's arenas
    // are live.
    std::vector<std::uint32_t>().swap(gain_offsets_);
    std::vector<std::uint32_t>().swap(gain_chunks_);
    std::vector<double>().swap(shadow_costs_);
    scheduler_->shed_memory();
    // Clean rows price their stored draws, so the link cache is only the
    // current slot's working set for changed segments and fallback rows.
    costs_->shed_cache();
    counters_.inc(c_shed_events_);
}

memory_breakdown emulator::memory_footprint() const {
    memory_breakdown mb;
    mb.peer_table = peers_.memory_bytes();
    mb.buffers = peers_.buffer_heap_bytes();
    mb.tracker = tracker_.memory_bytes();
    mb.neighbor_arena = neighbor_offsets_.capacity() * sizeof(std::uint32_t) +
                        neighbor_rows_.capacity() * sizeof(std::uint32_t) +
                        neighbor_costs_.capacity() * sizeof(double);
    mb.problem_arena = round_problem_.memory_bytes() +
                       shadow_problem_.memory_bytes() +
                       shadow_costs_.capacity() * sizeof(double) +
                       delta_state_.capacity() * sizeof(delta_state) +
                       delta_masks_.capacity() * sizeof(std::uint32_t) +
                       delta_segs_.capacity() * sizeof(std::uint32_t) +
                       delta_draws_.capacity() * sizeof(double);
    mb.solver = scheduler_->workspace_bytes();
    mb.cost_cache = costs_->cache_bytes();
    mb.ledger = ledger_ ? ledger_->memory_bytes() : 0;
    mb.scratch = slot_prices_.capacity() * sizeof(double) +
                 active_vslot_.capacity() * sizeof(std::uint32_t) +
                 free_vslots_.capacity() * sizeof(std::uint32_t) +
                 gain_log_.capacity() * sizeof(gain) +
                 gain_offsets_.capacity() * sizeof(std::uint32_t) +
                 gain_chunks_.capacity() * sizeof(std::uint32_t) +
                 remaining_scratch_.capacity() * sizeof(std::int32_t) +
                 round_capacity_scratch_.capacity() * sizeof(std::int32_t) +
                 batch_ids_.capacity() * sizeof(peer_id) +
                 cand_words_.capacity() * sizeof(std::uint64_t) +
                 cand_uploader_.capacity() * sizeof(std::uint32_t) +
                 cand_cost_.capacity() * sizeof(double) +
                 delta_up_scratch_.capacity() * sizeof(std::uint32_t) +
                 word_scratch_.capacity() * sizeof(std::uint64_t) +
                 seed_blk_up_.capacity() * sizeof(std::uint32_t) +
                 seed_blk_cost_.capacity() * sizeof(double) +
                 val_keys_.capacity() * sizeof(std::uint64_t) +
                 val_vals_.capacity() * sizeof(double);
    mb.shared = assets_->memory_bytes();
    return mb;
}

const isp::traffic_ledger& emulator::ledger() const {
    expects(ledger_.has_value(), "ledger() requires config.economy.enabled");
    return *ledger_;
}

const isp::peering_graph& emulator::peering() const {
    expects(peering_view_ != nullptr,
            "peering() requires config.economy.enabled");
    return *peering_view_;
}

const std::vector<isp::epoch_summary>& emulator::price_epochs() const {
    static const std::vector<isp::epoch_summary> none;
    return price_controller_ ? price_controller_->history() : none;
}

isp::billing_statement emulator::bill() const {
    expects(ledger_.has_value() && peering_view_ != nullptr,
            "bill() requires config.economy.enabled");
    return isp::bill(*ledger_, *peering_view_, options_.config.economy.billing);
}

void emulator::run() {
    expects(!has_run_ && slots_.empty(),
            "emulator::run may only be called once (and not after manual steps)");
    has_run_ = true;
    const std::size_t n = options_.config.num_slots();
    for (std::size_t k = 0; k < n; ++k) step();
}

const metrics::time_series& emulator::price_series() const {
    if (price_series_built_) return price_series_;
    price_series_.clear();
    // Representative = the uploader whose λ rose highest anywhere in the
    // window; with no λ movement at all, fall back to the default probe.
    probe_peer_ = default_probe_;
    double best = -1.0;
    for (const auto& ev : price_events_) {
        if (ev.price > best) {
            best = ev.price;
            probe_peer_ = ev.uploader;
        }
    }
    // The figure's per-slot restart: λ is 0 at every slot start...
    std::vector<logged_price_event> merged;
    for (double t : distributed_slot_starts_) merged.push_back({probe_peer_, t, 0.0});
    // ...then follows the representative peer's recorded changes.
    for (const auto& ev : price_events_)
        if (ev.uploader == probe_peer_) merged.push_back(ev);
    // stable: events sharing a timestamp keep their emission order, so the
    // per-slot staircase stays monotone.
    std::stable_sort(merged.begin(), merged.end(),
                     [](const logged_price_event& a, const logged_price_event& b) {
                         return a.time < b.time;
                     });
    for (const auto& ev : merged) price_series_.record(ev.time, ev.price);
    price_series_built_ = true;
    return price_series_;
}

peer_id emulator::probe_peer() const {
    (void)price_series();  // ensures the representative is chosen
    return probe_peer_;
}

std::size_t emulator::online_viewers() const {
    std::size_t n = 0;
    for (std::uint32_t row : active_viewers_)
        if (peers_.join_time(row) <= now_) ++n;
    return n;
}

double emulator::total_welfare() const {
    double total = 0.0;
    for (const auto& s : slots_) total += s.social_welfare;
    return total;
}

double emulator::overall_inter_isp_fraction() const {
    std::uint64_t inter = 0;
    std::uint64_t total = 0;
    for (const auto& s : slots_) {
        inter += s.inter_isp_transfers;
        total += s.transfers;
    }
    return total == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(total);
}

double emulator::overall_miss_rate() const {
    std::uint64_t missed = 0;
    std::uint64_t due = 0;
    for (const auto& s : slots_) {
        missed += s.chunks_missed;
        due += s.chunks_due;
    }
    return due == 0 ? 0.0 : static_cast<double>(missed) / static_cast<double>(due);
}

}  // namespace p2pcd::vod
