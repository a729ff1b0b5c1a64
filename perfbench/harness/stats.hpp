// Small measurement helpers shared by the benchmark harness: order
// statistics, the in-memory span log of a traced run, and the metric list
// printed as the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank q-quantile (0 < q <= 1) of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Samples strictly above the nearest-rank q-quantile: the tail a
/// percentile rests on.  p99 is only reported as resolved when this is at
/// least 10.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// One traced interval.  Spans of one request share `id` (the request's
/// position in the client's stream, or the sweep cell index); `parent`
/// names the span that caused it.
struct Span {
  std::uint64_t id{0};
  std::string layer;
  std::string parent;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// Spans stay in memory while the run measures and are written once at
/// the end, so tracing adds no I/O to the measured interval.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void add(std::uint64_t id, std::string layer, std::string parent, Clock::time_point start,
           Clock::time_point end);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// JSON lines, one span per line.  Returns false when the file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// The result line: {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
[[nodiscard]] std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench
