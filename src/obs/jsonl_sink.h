// Streaming telemetry output: an append-only JSONL writer plus the line
// builder and schema helpers shared by everything that emits or checks
// telemetry.
//
// Line schema (version `jsonl_schema_version`): every line is one flat-ish
// JSON object with
//   "v"    — schema version (int), present on every line;
//   "kind" — "header" | "slot" | "epoch" | "fleet_slot";
//   semantic fields — pure functions of (config, seed): counters, volumes,
//     prices, welfare. Bit-identical across `--threads` and across runs.
//     Since v2 a coupled fleet's "fleet_slot" lines additionally carry the
//     flat semantic sub-objects "admission" (admitted/deferred/abandoned/
//     queued totals) and "link_saturation" (saturated pairs + utilization) —
//     additive: every v1 line is also a valid v2 line.
//   "wall" / "env" — flat sub-objects holding wall-clock durations and
//     environment facts (thread count, hardware_concurrency, span config).
//     These are the ONLY fields allowed to differ between two runs of the
//     same (config, seed); semantic_view() strips them for comparisons, and
//     they are kept *flat* (no nested objects inside) so the strip is a
//     single-regex / single-scan operation in CI as well.
//
// Doubles are serialized with %.17g so a round-trip through the text form
// reproduces the exact IEEE value — the determinism tests compare streams
// as strings.
//
// The sink buffers lines into one string and flushes to the underlying
// ostream whenever the buffer would exceed its bound (plus on flush() and
// destruction) — a multi-hour run writes O(buffer) memory, not O(run).
#ifndef P2PCD_OBS_JSONL_SINK_H
#define P2PCD_OBS_JSONL_SINK_H

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace p2pcd::obs {

// Bump when a line's field set or meaning changes incompatibly.
// v2 (cross-swarm coupling): adds the optional "admission"/"link_saturation"
// semantic sub-objects on fleet_slot lines and the admission counters to the
// metric schema — strictly additive, so v1 consumers still parse every line.
// v3: slot records lose the early-exit slot counter column (the cross-slot
// warm start it counted is gone).
inline constexpr int jsonl_schema_version = 3;

// Builds one JSON object line. Handles comma placement and one level of
// sub-object nesting ("wall"/"env"); keys are written verbatim (callers use
// literal names), string values are escaped.
class json_line {
public:
    json_line();

    json_line& field(std::string_view key, std::uint64_t v);
    json_line& field(std::string_view key, std::int64_t v);
    json_line& field(std::string_view key, int v) {
        return field(key, static_cast<std::int64_t>(v));
    }
    json_line& field(std::string_view key, double v);  // %.17g, exact round-trip
    json_line& field(std::string_view key, std::string_view v);  // escaped
    // Literals must not decay to the bool overload (a standard conversion
    // would beat string_view's user-defined one and turn "header" into true).
    json_line& field(std::string_view key, const char* v) {
        return field(key, std::string_view(v));
    }
    json_line& field(std::string_view key, bool v);

    // Opens / closes a flat sub-object (e.g. "wall"). No nesting deeper than
    // one level (enforced); nested objects would break semantic_view().
    json_line& begin_object(std::string_view key);
    json_line& end_object();

    // Closes the line ("}\n" appended) and returns it. The builder is spent.
    [[nodiscard]] std::string finish();

private:
    std::string buf_;
    bool need_comma_ = false;
    bool in_object_ = false;
    bool finished_ = false;
};

// Returns `line` with any flat "wall"/"env" sub-objects removed — the
// semantic projection two runs of the same (config, seed) must agree on
// byte-for-byte regardless of thread count or host speed.
[[nodiscard]] std::string semantic_view(std::string_view line);

class jsonl_sink {
public:
    // Borrowed stream: the caller keeps `out` alive for the sink's lifetime
    // (tests use an ostringstream; the bench uses one too).
    explicit jsonl_sink(std::ostream& out, std::size_t buffer_bytes = 64 * 1024);
    // Owned file, truncating. Throws contract_violation when it cannot open.
    explicit jsonl_sink(const std::string& path,
                        std::size_t buffer_bytes = 64 * 1024);
    ~jsonl_sink();

    jsonl_sink(const jsonl_sink&) = delete;
    jsonl_sink& operator=(const jsonl_sink&) = delete;

    // Appends one line (caller guarantees it is newline-terminated — the
    // json_line builder does). Flushes the buffer first when appending would
    // exceed the bound; a single line larger than the bound passes through.
    void write_line(std::string_view line);
    void flush();

    [[nodiscard]] std::uint64_t lines_written() const noexcept { return lines_; }
    [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }
    [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
    [[nodiscard]] std::size_t buffered_bytes() const noexcept {
        return buffer_.size();
    }

private:
    std::unique_ptr<std::ofstream> owned_;
    std::ostream* out_ = nullptr;
    std::string buffer_;
    std::size_t buffer_bytes_ = 0;
    std::uint64_t lines_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t flushes_ = 0;
};

}  // namespace p2pcd::obs

#endif  // P2PCD_OBS_JSONL_SINK_H
