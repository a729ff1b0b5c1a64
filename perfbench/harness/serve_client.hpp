// The serve side of the benchmark: a `lamps serve` child process, its
// admin lane (healthz / statsz), and a single-threaded closed-loop client
// that keeps a fixed number of connections busy, one request in flight on
// each, and byte-checks every response.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/types.h>

#include "corpus.hpp"
#include "stats.hpp"

namespace perfbench {

/// CPU seconds (user + system) a process has used so far, from /proc.
[[nodiscard]] double process_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) of a process in MiB, from /proc.
[[nodiscard]] double process_peak_rss_mb(pid_t pid);

/// Starts `argv` as a child process whose stdout is the returned pipe end
/// (`stdout_fd`) and whose stderr goes to /dev/null; the child is killed if
/// this process dies.  It uses vfork, so the cost of a spawn does not grow
/// with this process's memory.
[[nodiscard]] pid_t spawn_child(const std::vector<std::string>& argv, int& stdout_fd);

/// `lamps serve --port 0 --threads <threads>` as a child process.  The
/// constructor returns once healthz answers ok; the destructor drains it
/// with SIGTERM and reaps it (SIGKILL after a bound).
class Daemon {
 public:
  Daemon(const std::string& lamps_binary, std::size_t threads);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  Daemon(Daemon&&) = delete;
  Daemon& operator=(Daemon&&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }
  /// Spawn to first healthz ok.
  [[nodiscard]] double setup_seconds() const { return setup_s_; }

 private:
  void stop();
  pid_t pid_{-1};
  int stdout_fd_{-1};
  std::uint16_t port_{0};
  double setup_s_{0.0};
};

/// One admin-lane query over a fresh connection; returns the response line.
[[nodiscard]] std::string admin_query(std::uint16_t port, const std::string& line);

/// Counters and histograms of one statsz scrape, restricted to the names
/// the benchmark reads.
struct StatsSnapshot {
  std::map<std::string, double> counters;
  struct Hist {
    std::vector<double> le;  ///< bucket tops; the last is +inf
    std::vector<double> counts;
    double sum{0.0};
  };
  std::map<std::string, Hist> hists;
};

[[nodiscard]] StatsSnapshot scrape_statsz(std::uint16_t port);
/// The same counters from this process's own registry (the in-process sweep).
[[nodiscard]] StatsSnapshot registry_snapshot();
[[nodiscard]] double counter_delta(const StatsSnapshot& a, const StatsSnapshot& b,
                                   const std::string& name);
/// Median of the observations between two scrapes, interpolated linearly
/// inside the bucket that holds it; 0 when nothing was observed.
[[nodiscard]] double hist_delta_median(const StatsSnapshot& a, const StatsSnapshot& b,
                                       const std::string& name);
[[nodiscard]] double hist_delta_sum(const StatsSnapshot& a, const StatsSnapshot& b,
                                    const std::string& name);

struct LoadOptions {
  std::size_t first{0};  ///< stream position of the first request
  std::size_t connections{4};
  double warmup_s{1.0};
  double seconds{10.0};
  double response_timeout_s{30.0};
};

struct LoadResult {
  double window_s{0.0};          ///< measured interval (may end early: corpus exhausted)
  bool exhausted{false};
  std::size_t window_ok{0};      ///< OK responses completed inside the window
  std::vector<double> window_latency_ms;  ///< failures inside the window count as +inf
  std::size_t attempted{0};      ///< every request sent (warm-up included)
  std::size_t ok{0};
  std::size_t typed_errors{0};
  std::size_t mismatches{0};
  std::size_t gave_up{0};        ///< no response within the timeout, or connection lost
  double client_cpu_s{0.0};      ///< over the window
  double daemon_cpu_s{0.0};      ///< over the window
  std::vector<std::size_t> sent_stream_ids;  ///< stream position of every request sent
  std::size_t next{0};                       ///< stream position after the last one sent
  [[nodiscard]] std::size_t failed() const { return typed_errors + mismatches + gave_up; }
  /// Adds a later load on the same stream (the next daemon's window).
  void merge(const LoadResult& later);
};

/// Runs the closed loop against `daemon`.  With `spans`, every request
/// also records a client span keyed by its stream position.
[[nodiscard]] LoadResult run_closed_loop(const Daemon& daemon, const Corpus& corpus,
                                         const LoadOptions& opts, SpanLog* spans);

}  // namespace perfbench
