#include "report.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <stdexcept>

namespace p2pcd::perfbench {

bool valid_metric_name(std::string_view name) {
    if (name.empty() || name.size() > 64) return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    };
    if (!alnum(name.front())) return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

double median(std::vector<double> values) {
    if (values.empty()) throw std::invalid_argument("median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<tail_stat> tail_percentile(std::vector<double> values) {
    static constexpr std::array<double, 6> levels{99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    static constexpr std::size_t min_beyond = 10;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    for (double level : levels) {
        // Nearest rank: the smallest rank covering `level` percent of samples.
        const auto rank = static_cast<std::size_t>(
            std::ceil(level / 100.0 * static_cast<double>(n) - 1e-9));
        if (rank == 0 || rank > n) continue;
        const std::size_t beyond = n - rank;
        if (beyond >= min_beyond) return tail_stat{level, values[rank - 1], beyond, n};
    }
    return std::nullopt;
}

void metric_set::add(std::string name, double value, std::string unit,
                     std::size_t samples, std::string note) {
    if (!valid_metric_name(name))
        throw std::invalid_argument("invalid metric name '" + name + "'");
    if (find(name) != nullptr)
        throw std::invalid_argument("metric '" + name + "' reported twice");
    if (unit.empty()) throw std::invalid_argument("metric '" + name + "' has no unit");
    if (!std::isfinite(value))
        throw std::invalid_argument("metric '" + name + "' is not finite");
    metrics_.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
}

const metric* metric_set::find(std::string_view name) const {
    for (const auto& m : metrics_)
        if (m.name == name) return &m;
    return nullptr;
}

void metric_set::print_table(std::ostream& out) const {
    std::size_t width = 6;
    for (const auto& m : metrics_) width = std::max(width, m.name.size());
    out << std::left << std::setw(static_cast<int>(width)) << "metric" << "  "
        << std::setw(26) << "value" << std::setw(12) << "unit" << std::setw(9)
        << "samples" << "note\n";
    for (const auto& m : metrics_) {
        out << std::setw(static_cast<int>(width)) << m.name << "  " << std::setw(26)
            << format_double(m.value) << std::setw(12) << m.unit << std::setw(9)
            << (m.samples > 0 ? std::to_string(m.samples) : "-") << m.note << '\n';
    }
    out << std::right;
}

std::string metric_set::json_object() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const metric& m = metrics_[i];
        if (i > 0) out += ", ";
        out += json_string(m.name) + ": {\"value\": " + format_double(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    return out + "}";
}

std::string format_double(double v) {
    if (!std::isfinite(v)) throw std::invalid_argument("non-finite value");
    std::array<char, 64> buf{};
    const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
    if (ec != std::errc()) throw std::runtime_error("to_chars failed");
    return std::string(buf.data(), end);
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char esc[8];
                    std::snprintf(esc, sizeof esc, "\\u%04x", c);
                    out += esc;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const metric_set& metrics) {
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + metrics.json_object() + "}";
}

}  // namespace p2pcd::perfbench
