// Per-slot per-phase spans in a bounded ring buffer — the emulator's phase
// timing (per-phase run totals via total_seconds()).
//
// One recorder belongs to one emulator. When *disabled* (the default), every
// entry point is an inert branch on a bool: no clock is read, no span is
// stored — a telemetry-off slot loop performs zero timestamp syscalls
// (callers guard with `if (rec.enabled())` so even the argument evaluation
// is skipped). When enabled, the emulator drives it phase_clock-style:
//
//     spans.begin_slot(slot_index);   // stamps the slot's t0
//     ... arrivals ...
//     spans.lap(phase::arrivals);     // closes the open span, opens the next
//     ... departures ...
//     spans.lap(phase::departures);
//     spans.skip();                   // re-stamps t0 without recording
//
// Each lap() appends {slot, phase, start, duration} to a bounded ring
// (capacity fixed at construction; the oldest spans are overwritten and
// counted in dropped()) and *always* folds the duration into the per-phase
// totals — so total_seconds() stays exact over the whole run even after the
// ring wraps. Durations are wall-clock: they live in the telemetry's
// "wall" section, never in semantic fields or goldens.
//
// export_trace_json() writes the ring as a Chrome trace_event JSON document
// (load in chrome://tracing or Perfetto) with one complete ("ph":"X") event
// per span; the slot index rides in args.
#ifndef P2PCD_OBS_SPAN_RECORDER_H
#define P2PCD_OBS_SPAN_RECORDER_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace p2pcd::obs {

// The emulator's slot phases, in pipeline order. `count` sizes the totals
// array; keep phase_name() in sync.
enum class phase : std::uint8_t {
    arrivals,
    departures,
    playback,
    neighbor_refresh,
    build,
    solve,
    apply,
    shed,
    count
};

[[nodiscard]] const char* phase_name(phase p) noexcept;

struct span {
    std::uint32_t slot = 0;
    phase which = phase::arrivals;
    double start_s = 0.0;     // seconds since recorder construction
    double duration_s = 0.0;  // wall-clock
};

class span_recorder {
public:
    // A disabled recorder (capacity ignored) never touches the clock.
    explicit span_recorder(bool enabled = false, std::size_t ring_capacity = 8192);

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    // Stamps the slot's starting timestamp. Callers must not invoke any of
    // the timing entry points on a disabled recorder (they guard on
    // enabled() precisely so no clock is read).
    void begin_slot(std::uint32_t slot);
    // Closes the span opened by the previous begin_slot()/lap()/skip(),
    // attributing the elapsed time to `p`, and re-stamps.
    void lap(phase p);
    // Re-stamps without recording (elapsed time attributed to nothing).
    void skip();

    // Exact per-phase second totals over every lap() ever recorded —
    // unaffected by ring wrap-around.
    [[nodiscard]] double total_seconds(phase p) const noexcept {
        return totals_[static_cast<std::size_t>(p)];
    }

    // The ring's live contents, oldest first.
    [[nodiscard]] std::vector<span> spans() const;
    [[nodiscard]] std::size_t ring_capacity() const noexcept { return ring_.size(); }
    [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
    // Spans overwritten because the ring was full.
    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return recorded_ <= ring_.size() ? 0 : recorded_ - ring_.size();
    }

    // Chrome trace_event JSON ({"traceEvents":[...]}); ts/dur in microseconds
    // relative to the recorder's construction. No-op (empty document) when
    // disabled.
    void export_trace_json(std::ostream& out, std::uint32_t pid = 0) const;

    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return ring_.capacity() * sizeof(span);
    }

private:
    using clock = std::chrono::steady_clock;

    [[nodiscard]] double seconds_since_epoch(clock::time_point tp) const {
        return std::chrono::duration<double>(tp - epoch_).count();
    }

    bool enabled_ = false;
    clock::time_point epoch_;
    clock::time_point mark_;
    std::uint32_t current_slot_ = 0;
    double totals_[static_cast<std::size_t>(phase::count)] = {};
    std::vector<span> ring_;
    std::uint64_t recorded_ = 0;  // ring_[recorded_ % capacity] is next
};

}  // namespace p2pcd::obs

#endif  // P2PCD_OBS_SPAN_RECORDER_H
