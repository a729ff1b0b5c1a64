#include "replay.hpp"

#include <sstream>

#include "core/incremental.hpp"
#include "core/priority_keys.hpp"
#include "core/problem.hpp"
#include "core/request.hpp"
#include "graph/analysis.hpp"
#include "graph/transform.hpp"
#include "net/jsonv.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "sched/list_scheduler.hpp"
#include "stg/format.hpp"

namespace perfbench {

namespace {

/// Keeps timed results observable so no call is optimized away.
volatile std::uint64_t g_sink = 0;

}  // namespace

ReplayResult replay_layers(const Corpus& corpus, const std::vector<std::size_t>& stream_ids,
                           std::size_t per_strategy_lines,
                           const lamps::power::PowerModel& model,
                           const lamps::power::DvsLadder& ladder, SpanLog& spans) {
  namespace core = lamps::core;
  ReplayResult out;
  core::ScheduleBank bank;
  lamps::obs::Counter& lease_hit = lamps::obs::counter("schedule_bank.lease_hit");
  lamps::obs::Counter& lease_miss = lamps::obs::counter("schedule_bank.lease_miss");
  const std::uint64_t hit0 = lease_hit.value();
  const std::uint64_t miss0 = lease_miss.value();

  for (const std::size_t k : stream_ids) {
    const Request& req = corpus.at(k);
    const std::string line = req.line();
    Clock::time_point t0 = Clock::now();
    const auto lap = [&](const char* metric, const char* span) {
      const Clock::time_point t1 = Clock::now();
      out.layer_ms[metric].push_back(seconds_between(t0, t1) * 1e3);
      spans.add(k, span, "replay", t0, t1);
      t0 = Clock::now();
    };

    const lamps::net::JsonValue doc = lamps::net::JsonValue::parse(line);
    lap("net.jsonv_parse_ms", "net.jsonv_parse");

    std::istringstream stg_text(doc.get("stg")->as_string());
    lamps::stg::ParseOptions popts;
    popts.name = "inline";
    t0 = Clock::now();
    const lamps::graph::TaskGraph raw = lamps::stg::read_stg(stg_text, popts);
    lap("stg.read_stg_ms", "stg.read_stg");

    const auto unit =
        static_cast<lamps::Cycles>(doc.get_number("unit", 3'100'000.0));
    const lamps::graph::TaskGraph scaled = lamps::graph::scale_weights(raw, unit);
    g_sink = g_sink + static_cast<std::uint64_t>(lamps::graph::critical_path_length(scaled));
    lap("graph.scale_cpl_ms", "graph.scale_cpl");

    lamps::net::ParsedRequest parsed = lamps::net::parse_schedule_request(line, model);
    lap("net.parse_request_ms", "net.parse_request");

    g_sink = g_sink + core::service_request_digest(parsed.request);
    lap("core.digest_ms", "core.digest");

    const core::StrategyResult result = core::run_service_request(parsed.request, model, ladder);
    lap("core.search_cold_ms", "core.search_cold");
    const double cold_ms = out.layer_ms["core.search_cold_ms"].back();

    const core::StrategyResult banked =
        core::run_service_request(parsed.request, model, ladder, &bank);
    lap("core.search_bank_ms", "core.search_bank");

    const std::string payload = lamps::net::result_json(result, ladder);
    g_sink = g_sink + lamps::net::ok_response(parsed.id_json, payload, false, 1.0).size();
    lap("net.serialize_ms", "net.serialize");
    if (payload != req.expected || lamps::net::result_json(banked, ladder) != req.expected)
      ++out.mismatches;

    if (result.feasible && result.num_procs > 0) {
      // One warm gap-only probe at the served processor count: the unit of
      // work a configuration search repeats.
      core::Problem prob;
      prob.graph = &parsed.request.graph;
      prob.model = &model;
      prob.ladder = &ladder;
      prob.deadline = parsed.request.deadline;
      prob.policy = parsed.request.policy;
      const std::vector<std::int64_t> keys = core::problem_priority_keys(prob);
      lamps::sched::ListScheduleWorkspace ws;
      g_sink = g_sink + lamps::sched::list_schedule_gaps(*prob.graph, result.num_procs, keys, ws)
                            .makespan;
      t0 = Clock::now();
      g_sink = g_sink + lamps::sched::list_schedule_gaps(*prob.graph, result.num_procs, keys, ws)
                            .makespan;
      lap("sched.probe_ms", "sched.probe");
    }

    if (out.lines < per_strategy_lines) {
      for (const core::StrategyKind s : core::kAllStrategies) {
        if (s == req.strategy) {
          out.cell_ms[s].push_back(cold_ms);
          continue;
        }
        parsed.request.strategy = s;
        t0 = Clock::now();
        g_sink = g_sink + core::run_service_request(parsed.request, model, ladder).num_procs;
        const Clock::time_point t1 = Clock::now();
        out.cell_ms[s].push_back(seconds_between(t0, t1) * 1e3);
        spans.add(k, std::string("core.cell.") + std::string(core::to_string(s)), "replay", t0,
                  t1);
      }
    }
    ++out.lines;
  }
  out.bank_lease_hits = static_cast<double>(lease_hit.value() - hit0);
  out.bank_leases = out.bank_lease_hits + static_cast<double>(lease_miss.value() - miss0);
  return out;
}

}  // namespace perfbench
