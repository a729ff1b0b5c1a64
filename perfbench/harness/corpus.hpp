// Request corpora of the serve workloads.  Every line and its expected
// result are built before anything is timed: the daemon only ever
// receives finished request lines, and the expected result of each line is
// net::result_json(core::run_service_request(...)) computed in-process
// from the same line, which is what every served "result" is
// byte-compared against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "power/dvs_ladder.hpp"
#include "power/power_model.hpp"

namespace perfbench {

enum class Workload { kServeHit, kServeBank, kServeCold, kPaperFig10 };

struct Request {
  /// The newline-terminated JSON request line is head + *stg + tail; the
  /// STG text is shared by every line that asks about the same graph.
  std::string head;
  std::shared_ptr<const std::string> stg;
  std::string tail;
  std::string id_json;   ///< the "id" token the response must echo
  std::string expected;  ///< canonical result payload computed in-process
  lamps::core::StrategyKind strategy{lamps::core::StrategyKind::kSns};

  [[nodiscard]] std::string line() const { return head + *stg + tail; }
};

/// The distinct lines of a workload, in stream order.  serve_hit's stream
/// repeats its few lines forever; every other stream sends each line once.
struct Corpus {
  std::vector<Request> requests;
  bool cycles{false};
  std::uint64_t stream_digest{0};  ///< FNV-1a over the lines, in order

  [[nodiscard]] const Request& at(std::size_t k) const {
    return requests[cycles ? k % requests.size() : k];
  }
  /// False once a non-cycling stream has sent every line.
  [[nodiscard]] bool has(std::size_t k) const { return cycles || k < requests.size(); }
};

/// The serve workloads' streams.  `count` is the number of distinct lines
/// for serve_bank / serve_cold (serve_hit always has 8); `tiny` shrinks the
/// graphs for the benchmark's self-test.  Same seed, same bytes.
[[nodiscard]] Corpus make_serve_corpus(Workload w, bool tiny, std::uint64_t seed,
                                       std::size_t count, const lamps::power::PowerModel& model,
                                       const lamps::power::DvsLadder& ladder,
                                       std::size_t threads);

/// Request lines for a sample of the Fig. 10 sweep's own cells (the first
/// graph of each random size group plus the three application graphs, at
/// the sweep's deadline factors, under all six strategies), so the traced
/// paper_fig10 run can time the serve layers on the paper's graphs.
[[nodiscard]] Corpus make_fig10_sample_corpus(bool tiny, const lamps::power::PowerModel& model,
                                              const lamps::power::DvsLadder& ladder,
                                              std::size_t threads);

}  // namespace perfbench
