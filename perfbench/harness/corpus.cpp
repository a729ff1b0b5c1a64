#include "corpus.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <iterator>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/incremental.hpp"
#include "core/request.hpp"
#include "net/protocol.hpp"
#include "stg/format.hpp"
#include "stg/random_gen.hpp"
#include "stg/suite.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using lamps::core::StrategyKind;

/// The four heuristics the serve workloads rotate through; the two LIMIT
/// bounds are not schedulers a caller would ask for.
constexpr StrategyKind kHeuristics[] = {StrategyKind::kSns, StrategyKind::kLamps,
                                        StrategyKind::kSnsPs, StrategyKind::kLampsPs};

using Stg = std::shared_ptr<const std::string>;

Stg stg_json(const lamps::graph::TaskGraph& g) {
  std::ostringstream text;
  lamps::stg::write_stg(g, text);
  std::ostringstream json;
  lamps::write_json_string(json, text.str());
  return std::make_shared<const std::string>(json.str());
}

Stg random_stg_json(std::size_t tasks, std::uint64_t seed) {
  lamps::stg::RandomGraphSpec spec;
  spec.name = "bench";
  spec.num_tasks = tasks;
  spec.seed = seed;
  return stg_json(lamps::stg::generate_random(spec));
}

/// `factor` is printed with fixed decimals so the line bytes do not depend
/// on how a double happens to round-trip.
Request make_request(std::size_t id, Stg stg, StrategyKind strategy, double factor,
                     bool with_unit) {
  char factor_text[32];
  std::snprintf(factor_text, sizeof factor_text, "%.6f", factor);
  Request r;
  r.id_json = std::to_string(id);
  r.strategy = strategy;
  r.head = "{\"id\":" + r.id_json + ",\"stg\":";
  r.stg = std::move(stg);
  std::ostringstream tail;
  if (with_unit) tail << ",\"unit\":" << lamps::stg::kCoarseGrainCyclesPerUnit;
  tail << ",\"strategy\":";
  lamps::write_json_string(tail, lamps::core::to_string(strategy));
  tail << ",\"deadline_factor\":" << factor_text << "}\n";
  r.tail = tail.str();
  return r;
}

/// Builds `count` requests on `threads` threads, each `make(k)` followed by
/// its expected payload through the same parse and search the daemon runs.
/// `bank` (may be null) serves the deadline sweeps of serve_bank, whose
/// cold searches would make set-up several times longer than the run.
std::vector<Request> build(std::size_t count, std::size_t threads,
                           const std::function<Request(std::size_t)>& make,
                           const lamps::power::PowerModel& model,
                           const lamps::power::DvsLadder& ladder,
                           lamps::core::ScheduleBank* bank = nullptr) {
  std::vector<Request> out(count);
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto work = [&] {
    try {
      for (std::size_t k = next++; k < count; k = next++) {
        Request r = make(k);
        const lamps::net::ParsedRequest parsed =
            lamps::net::parse_schedule_request(r.line(), model);
        r.expected = lamps::net::result_json(
            lamps::core::run_service_request(parsed.request, model, ladder, bank), ladder);
        out[k] = std::move(r);
      }
    } catch (...) {
      std::scoped_lock lock(error_mutex);
      if (!error) error = std::current_exception();
      next = count;
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return out;
}

Corpus finish(std::vector<Request> requests, bool cycles) {
  Corpus c;
  c.requests = std::move(requests);
  c.cycles = cycles;
  std::uint64_t h = 14695981039346656037ull;
  const auto hash = [&h](const std::string& bytes) {
    for (const char ch : bytes) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  };
  for (const Request& r : c.requests) {
    hash(r.head);
    hash(*r.stg);
    hash(r.tail);
  }
  c.stream_digest = h;
  return c;
}

}  // namespace

Corpus make_serve_corpus(Workload w, bool tiny, std::uint64_t seed, std::size_t count,
                         const lamps::power::PowerModel& model,
                         const lamps::power::DvsLadder& ladder, std::size_t threads) {
  switch (w) {
    case Workload::kServeHit: {
      // Eight 100-task requests with fixed ids, repeated byte for byte.
      const std::size_t tasks = tiny ? 20 : 100;
      return finish(build(8, threads,
                          [&](std::size_t k) {
                            return make_request(k, random_stg_json(tasks, lamps::child_seed(seed, k)),
                                                kHeuristics[k % 4], 2.0, false);
                          },
                          model, ladder),
                    true);
    }
    case Workload::kServeBank: {
      // A few large graphs, each asked at many deadline factors under the
      // four heuristics.  Line k asks graph k % G under heuristic (k / G) % 4
      // at the j = k / 4G-th point of a golden-ratio sequence over
      // [1.5, 8) x CPL, so no two lines share a digest (result cache
      // misses) while all lines on a graph share one bank store.
      const std::size_t graphs = tiny ? 2 : 12;
      const std::size_t tasks = tiny ? 150 : 2000;
      std::vector<Stg> stgs;
      for (std::size_t g = 0; g < graphs; ++g)
        stgs.push_back(random_stg_json(tasks, lamps::child_seed(seed, 1000 + g)));
      const double phase = lamps::child_rng(seed, 2000).uniform_real(0.0, 1.0);
      lamps::core::ScheduleBank bank;
      return finish(build(count, threads,
                          [&](std::size_t k) {
                            const std::size_t j = k / (4 * graphs);
                            double frac = phase + static_cast<double>(j) * 0.6180339887498949;
                            frac -= std::floor(frac);
                            return make_request(k, stgs[k % graphs],
                                                kHeuristics[(k / graphs) % 4], 1.5 + 6.5 * frac,
                                                false);
                          },
                          model, ladder, &bank),
                    false);
    }
    case Workload::kServeCold: {
      // A fresh graph per line: neither the result cache nor the bank can help.
      const std::size_t tasks = tiny ? 100 : 1000;
      return finish(build(count, threads,
                          [&](std::size_t k) {
                            return make_request(k, random_stg_json(tasks, lamps::child_seed(seed, k)),
                                                kHeuristics[k % 4], 2.0, false);
                          },
                          model, ladder),
                    false);
    }
    case Workload::kPaperFig10:
      break;
  }
  throw std::invalid_argument("make_serve_corpus: not a serve workload");
}

Corpus make_fig10_sample_corpus(bool tiny, const lamps::power::PowerModel& model,
                                const lamps::power::DvsLadder& ladder, std::size_t threads) {
  std::vector<Stg> stgs;
  for (const std::size_t size : lamps::stg::figure_group_sizes()) {
    if (tiny && size > 500) continue;
    stgs.push_back(stg_json(lamps::stg::generate_random(lamps::stg::random_group_specs(size, 12)[0])));
  }
  if (!tiny)
    for (const auto& g : lamps::stg::application_graphs()) stgs.push_back(stg_json(g));
  constexpr double kFactors[] = {1.5, 2.0, 4.0, 8.0};
  const std::size_t per_graph = std::size(kFactors) * lamps::core::kAllStrategies.size();
  return finish(build(stgs.size() * per_graph, threads,
                      [&](std::size_t k) {
                        const std::size_t cell = k % per_graph;
                        return make_request(k, stgs[k / per_graph],
                                            lamps::core::kAllStrategies[cell % 6],
                                            kFactors[cell / 6], true);
                      },
                      model, ladder),
                false);
}

}  // namespace perfbench
