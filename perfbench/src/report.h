// Reporting primitives of the benchmark: metric names and units, the
// sample statistics every timing is summarized with, and the one-line JSON
// result the benchmark ends its output with.
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace p2pcd::perfbench {

// Metric names are made of letters, digits, '_', '.' and '-', at most 64 of
// them, starting with a letter or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

[[nodiscard]] double median(std::vector<double> values);

// A tail percentile: the highest of the standard levels (50, 75, 90, 95, 99,
// 99.9) whose nearest-rank position leaves at least ten samples strictly
// beyond it.
struct tail_stat {
    double level = 0.0;  // percent
    double value = 0.0;
    std::size_t beyond = 0;
    std::size_t samples = 0;
};
// nullopt when even the median leaves fewer than ten samples beyond.
[[nodiscard]] std::optional<tail_stat> tail_percentile(std::vector<double> values);

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;  // 0: a single measured or computed quantity
    std::string note;
};

class metric_set {
public:
    // Throws std::invalid_argument on an invalid or repeated name, an empty
    // unit or a non-finite value.
    void add(std::string name, double value, std::string unit, std::size_t samples = 0,
             std::string note = {});

    [[nodiscard]] const std::vector<metric>& all() const noexcept { return metrics_; }
    [[nodiscard]] const metric* find(std::string_view name) const;

    // Aligned "name value unit samples note" table, one metric a line.
    void print_table(std::ostream& out) const;
    // {"name": {"value": v, "unit": u}, ...} with every digit of each value.
    [[nodiscard]] std::string json_object() const;

private:
    std::vector<metric> metrics_;
};

// Shortest text that reads back to exactly `v` (finite values only).
[[nodiscard]] std::string format_double(double v);
// `s` as a quoted JSON string.
[[nodiscard]] std::string json_string(std::string_view s);

// The benchmark's last output line:
// {"correct": c, "attempted": a, "failed": f, "metrics": {...}}
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const metric_set& metrics);

}  // namespace p2pcd::perfbench

#endif  // PERFBENCH_REPORT_H
