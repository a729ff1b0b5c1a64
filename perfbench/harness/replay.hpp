// The traced run's per-layer replay.  After the daemon has stopped, the
// lines it served are pushed, one at a time and on one thread, through the
// public function at each layer boundary of the serve path, each call
// timed from outside: net (jsonv, request parse, serialize), stg (STG
// text), graph (scaling and critical path), core (digest, cold search,
// bank search), sched (one gap-only list-scheduling probe) and energy (the
// search's level sweep, via the registry counters).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "corpus.hpp"
#include "stats.hpp"

namespace perfbench {

struct ReplayResult {
  /// Per-layer call times in ms, keyed by metric name (net.jsonv_parse_ms, ...).
  std::map<std::string, std::vector<double>> layer_ms;
  /// Cold search time per strategy, each served graph re-asked under every
  /// strategy (the first `per_strategy_lines` lines only).
  std::map<lamps::core::StrategyKind, std::vector<double>> cell_ms;
  double bank_lease_hits{0.0};
  double bank_leases{0.0};
  std::size_t lines{0};
  std::size_t mismatches{0};  ///< replayed payloads that differ from the expected one
};

/// Replays `stream_ids` (positions in the corpus stream, each replayed
/// once, in the order given).  The schedule bank is fresh and sees the
/// lines in that order, as the daemon's did.
[[nodiscard]] ReplayResult replay_layers(const Corpus& corpus,
                                         const std::vector<std::size_t>& stream_ids,
                                         std::size_t per_strategy_lines,
                                         const lamps::power::PowerModel& model,
                                         const lamps::power::DvsLadder& ladder, SpanLog& spans);

}  // namespace perfbench
