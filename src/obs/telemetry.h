// Telemetry configuration shared by vod::emulator and engine::fleet.
//
// The default-constructed value is "telemetry off": no sink, no spans —
// the slot loop performs zero timestamp syscalls and no JSONL is built.
// Counters (obs::counter_registry) stay on unconditionally: they are pure
// integer/double bumps on the semantic path, deterministic by construction
// and cheap enough that gating them would cost more in branches than it
// saves.
#ifndef P2PCD_OBS_TELEMETRY_H
#define P2PCD_OBS_TELEMETRY_H

#include <cstddef>

namespace p2pcd::obs {

class jsonl_sink;

struct telemetry_options {
    // Destination for JSONL records; nullptr disables record emission.
    // Borrowed: the caller keeps the sink alive for the emulator/fleet's
    // lifetime. A fleet clears its shards' sink (the fleet emits the merged
    // stream itself) but forwards record_spans so per-shard traces work.
    jsonl_sink* sink = nullptr;

    // Emit a "slot"/"fleet_slot" record every N slots (1 = every slot; must
    // be positive — 0 is rejected at emulator/fleet construction).
    // Epoch records always go out when the economy closes an epoch.
    std::size_t every_slots = 1;

    // Enable the span recorder: per-phase wall-clock spans + trace export.
    // Off ⇒ the slot loop never reads the clock.
    bool record_spans = false;
    std::size_t span_capacity = 8192;
};

}  // namespace p2pcd::obs

#endif  // P2PCD_OBS_TELEMETRY_H
