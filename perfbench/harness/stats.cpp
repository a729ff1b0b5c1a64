#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t idx = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

void SpanLog::add(std::uint64_t id, std::string layer, std::string parent,
                  Clock::time_point start, Clock::time_point end) {
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  };
  spans_.push_back(Span{id, std::move(layer), std::move(parent), ns(start), ns(end)});
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const Span& s : spans_) {
    os << "{\"id\":" << s.id << ",\"layer\":";
    lamps::write_json_string(os, s.layer);
    os << ",\"parent\":";
    lamps::write_json_string(os, s.parent);
    os << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(os);
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"metrics\":{";
  const char* sep = "";
  for (const Metric& m : metrics) {
    os << sep;
    lamps::write_json_string(os, m.name);
    os << ":{\"value\":";
    lamps::write_json_double(os, m.value);
    os << ",\"unit\":";
    lamps::write_json_string(os, m.unit);
    os << '}';
    sep = ",";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
