#include "serve_client.hpp"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "net/jsonv.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    fail_errno("connect 127.0.0.1:" + std::to_string(port));
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Blocks until `fd` is readable or `timeout_s` passes; false on timeout.
bool wait_readable(int fd, double timeout_s) {
  pollfd p{fd, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&p, 1, static_cast<int>(timeout_s * 1e3));
    if (r > 0) return true;
    if (r == 0) return false;
    if (errno != EINTR) fail_errno("poll");
  }
}

double cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

const char* const kCounters[] = {
    "serve.requests_total",        "serve.requests_ok",         "serve.requests_computed",
    "serve.cache_hits",            "serve.cache_misses",        "serve.singleflight_hits",
    "schedule_bank.lease_hit",     "schedule_bank.lease_miss",  "scheduler.runs_gaps",
    "scheduler.runs_full",         "scheduler.runs_makespan",   "energy.levels_evaluated",
    "search.graham_shortcircuit_upper", "search.graham_shortcircuit_lower",
    "search.probe_gap_only",       "search.probe_materialized"};
const char* const kHistograms[] = {"serve.request_seconds", "serve.queue_seconds",
                                   "serve.compute_seconds", "serve.write_seconds"};

}  // namespace

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const auto close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) throw std::runtime_error("cannot read /proc stat");
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after "(comm)" start at field 3 (state); utime and stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc status");
}

pid_t spawn_child(const std::vector<std::string>& argv, int& stdout_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) fail_errno("pipe");
  const pid_t pid = ::vfork();
  if (pid < 0) fail_errno("vfork");
  if (pid == 0) {
    // The child must not outlive the benchmark, even if the benchmark crashes.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  stdout_fd = fds[0];
  return pid;
}

Daemon::Daemon(const std::string& lamps_binary, std::size_t threads) {
  const auto t0 = Clock::now();
  pid_ = spawn_child({lamps_binary, "serve", "--port", "0", "--threads", std::to_string(threads)},
                     stdout_fd_);
  try {
    // "lamps serve: listening on 127.0.0.1:<port>" is the first stdout line.
    static constexpr std::string_view kListening = "listening on 127.0.0.1:";
    std::string out;
    for (;;) {
      const auto nl = out.find('\n');
      if (nl != std::string::npos) {
        const auto at = out.find(kListening);
        if (at == std::string::npos || at > nl)
          throw std::runtime_error("unexpected daemon output: " + out.substr(0, nl));
        port_ = static_cast<std::uint16_t>(std::stoul(out.substr(at + kListening.size())));
        break;
      }
      if (!wait_readable(stdout_fd_, 30.0))
        throw std::runtime_error("daemon did not report its port within 30 s");
      char buf[512];
      const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("daemon exited before listening: " + lamps_binary);
      out.append(buf, static_cast<std::size_t>(n));
    }
    while (admin_query(port_, "healthz").find("\"ok\":true") == std::string::npos) {
      if (seconds_between(t0, Clock::now()) > 30.0)
        throw std::runtime_error("daemon healthz not ok within 30 s");
    }
    setup_s_ = seconds_between(t0, Clock::now());
  } catch (...) {
    stop();
    throw;
  }
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  // Drain stdout until the daemon closes it on exit; SIGKILL if draining stalls.
  const auto t0 = Clock::now();
  char buf[512];
  for (;;) {
    const double left = 30.0 - seconds_between(t0, Clock::now());
    if (left <= 0.0 || !wait_readable(stdout_fd_, left)) {
      ::kill(pid_, SIGKILL);
      break;
    }
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n == 0 || (n < 0 && errno != EINTR)) break;
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  ::close(stdout_fd_);
  pid_ = -1;
  stdout_fd_ = -1;
}

std::string admin_query(std::uint16_t port, const std::string& line) {
  const int fd = connect_loopback(port);
  std::string in;
  try {
    const std::string out = line + "\n";
    if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(out.size()))
      fail_errno("admin send");
    while (in.find('\n') == std::string::npos) {
      if (!wait_readable(fd, 10.0)) throw std::runtime_error("admin query timed out: " + line);
      char buf[65536];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) throw std::runtime_error("admin connection closed: " + line);
      in.append(buf, static_cast<std::size_t>(n));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return in.substr(0, in.find('\n'));
}

StatsSnapshot scrape_statsz(std::uint16_t port) {
  const lamps::net::JsonValue doc = lamps::net::JsonValue::parse(admin_query(port, "statsz"));
  const lamps::net::JsonValue* metrics = doc.get("metrics");
  if (metrics == nullptr) throw std::runtime_error("statsz without metrics");
  StatsSnapshot s;
  if (const auto* counters = metrics->get("counters"); counters != nullptr)
    for (const char* name : kCounters)
      if (const auto* v = counters->get(name); v != nullptr) s.counters[name] = v->as_number();
  if (const auto* hists = metrics->get("histograms"); hists != nullptr)
    for (const char* name : kHistograms) {
      const auto* h = hists->get(name);
      if (h == nullptr) continue;
      StatsSnapshot::Hist hist;
      hist.sum = h->get_number("sum", 0.0);
      for (const auto& b : h->get("buckets")->items()) {
        const auto* le = b.get("le");
        hist.le.push_back(le->is_number() ? le->as_number()
                                          : std::numeric_limits<double>::infinity());
        hist.counts.push_back(b.get_number("count", 0.0));
      }
      s.hists[name] = std::move(hist);
    }
  return s;
}

StatsSnapshot registry_snapshot() {
  StatsSnapshot s;
  for (const char* name : kCounters)
    s.counters[name] =
        static_cast<double>(lamps::obs::Registry::global().counter_value(name));
  return s;
}

double counter_delta(const StatsSnapshot& a, const StatsSnapshot& b, const std::string& name) {
  const auto ia = a.counters.find(name);
  const auto ib = b.counters.find(name);
  const double va = ia == a.counters.end() ? 0.0 : ia->second;
  const double vb = ib == b.counters.end() ? 0.0 : ib->second;
  return vb - va;
}

double hist_delta_median(const StatsSnapshot& a, const StatsSnapshot& b,
                         const std::string& name) {
  const auto ia = a.hists.find(name);
  const auto ib = b.hists.find(name);
  if (ia == a.hists.end() || ib == b.hists.end()) return 0.0;
  const auto& ha = ia->second;
  const auto& hb = ib->second;
  std::vector<double> d(hb.counts.size());
  double total = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) total += d[i] = hb.counts[i] - ha.counts[i];
  if (total <= 0.0) return 0.0;
  const double target = total / 2.0;
  double cum = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] > 0.0 && cum + d[i] >= target) {
      const double lo = i == 0 ? 0.0 : hb.le[i - 1];
      const double hi = hb.le[i];
      if (!std::isfinite(hi)) return lo;
      return lo + (target - cum) / d[i] * (hi - lo);
    }
    cum += d[i];
  }
  return 0.0;
}

double hist_delta_sum(const StatsSnapshot& a, const StatsSnapshot& b, const std::string& name) {
  const auto ia = a.hists.find(name);
  const auto ib = b.hists.find(name);
  if (ia == a.hists.end() || ib == b.hists.end()) return 0.0;
  return ib->second.sum - ia->second.sum;
}

namespace {

struct Conn {
  int fd{-1};
  bool busy{false};
  std::size_t k{0};
  std::string out_buf;
  std::string_view out;  ///< the unsent rest of out_buf
  std::string in;
  Clock::time_point sent;
};

}  // namespace

void LoadResult::merge(const LoadResult& later) {
  window_s += later.window_s;
  exhausted = exhausted || later.exhausted;
  window_ok += later.window_ok;
  window_latency_ms.insert(window_latency_ms.end(), later.window_latency_ms.begin(),
                           later.window_latency_ms.end());
  attempted += later.attempted;
  ok += later.ok;
  typed_errors += later.typed_errors;
  mismatches += later.mismatches;
  gave_up += later.gave_up;
  client_cpu_s += later.client_cpu_s;
  daemon_cpu_s += later.daemon_cpu_s;
  sent_stream_ids.insert(sent_stream_ids.end(), later.sent_stream_ids.begin(),
                         later.sent_stream_ids.end());
  next = later.next;
}

LoadResult run_closed_loop(const Daemon& daemon, const Corpus& corpus, const LoadOptions& opts,
                           SpanLog* spans) {
  LoadResult r;
  std::vector<Conn> conns(opts.connections);
  for (Conn& c : conns) {
    c.fd = connect_loopback(daemon.port());
    if (::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK) != 0) fail_errno("fcntl");
  }

  const auto t_start = Clock::now();
  const auto window_start = t_start + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(opts.warmup_s));
  const auto window_end = window_start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(opts.seconds));
  bool measuring = false;
  bool window_closed = false;
  Clock::time_point measured_from{};
  Clock::time_point last_in_window{};
  double client_cpu0 = 0.0;
  double daemon_cpu0 = 0.0;
  std::size_t next_k = opts.first;

  const auto close_window = [&](Clock::time_point end) {
    window_closed = true;
    r.window_s = seconds_between(measured_from, end);
    r.client_cpu_s = cpu_now() - client_cpu0;
    r.daemon_cpu_s = process_cpu_seconds(daemon.pid()) - daemon_cpu0;
  };

  const auto pump_write = [&](Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      c.out.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  };

  const auto lose = [&](Conn& c) {
    ++r.gave_up;
    if (measuring && !window_closed) r.window_latency_ms.push_back(HUGE_VAL);
    ::close(c.fd);
    c.fd = -1;
    c.busy = false;
  };

  const auto complete = [&](Conn& c, std::string_view response, Clock::time_point now) {
    const Request& req = corpus.at(c.k);
    const bool in_window = measuring && !window_closed && now <= window_end;
    const bool id_ok = response.rfind("{\"id\":" + req.id_json + ",", 0) == 0;
    bool ok = false;
    if (!id_ok) {
      ++r.mismatches;
    } else if (response.find("\"ok\":true") == std::string_view::npos) {
      ++r.typed_errors;
    } else if (lamps::net::extract_result_json(std::string(response)) != req.expected) {
      ++r.mismatches;
    } else {
      ok = true;
      ++r.ok;
    }
    if (in_window) {
      r.window_latency_ms.push_back(ok ? seconds_between(c.sent, now) * 1e3 : HUGE_VAL);
      if (ok) ++r.window_ok;
      last_in_window = now;
    }
    if (spans != nullptr) spans->add(c.k, "client.request", "", c.sent, now);
    c.busy = false;
  };

  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;
  for (;;) {
    auto now = Clock::now();
    if (!measuring && now >= window_start) {
      measuring = true;
      measured_from = now;
      client_cpu0 = cpu_now();
      daemon_cpu0 = process_cpu_seconds(daemon.pid());
    }
    if (measuring && !window_closed && now > window_end) close_window(window_end);

    for (Conn& c : conns) {
      if (c.fd < 0 || c.busy) continue;
      if (window_closed || !corpus.has(next_k)) continue;
      c.busy = true;
      c.k = next_k++;
      c.out_buf = corpus.at(c.k).line();
      c.out = c.out_buf;
      c.in.clear();
      c.sent = Clock::now();
      r.sent_stream_ids.push_back(c.k);
      ++r.attempted;
      if (!pump_write(c)) lose(c);
    }

    pfds.clear();
    polled.clear();
    for (Conn& c : conns) {
      if (c.fd < 0 || !c.busy) continue;
      pfds.push_back(pollfd{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
      polled.push_back(&c);
    }
    if (pfds.empty()) {
      // Nothing in flight and nothing more to send: the window closed, or
      // the stream ran out before it did (possibly during the warm-up).
      if (!window_closed) {
        r.exhausted = true;
        if (measuring) close_window(r.window_ok > 0 ? last_in_window : Clock::now());
      }
      break;
    }
    const int n = ::poll(pfds.data(), pfds.size(), 20);
    if (n < 0 && errno != EINTR) fail_errno("poll");
    now = Clock::now();
    for (std::size_t i = 0; i < pfds.size() && n > 0; ++i) {
      Conn& c = *polled[i];
      if ((pfds[i].revents & POLLOUT) != 0 && !pump_write(c)) {
        lose(c);
        continue;
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[65536];
      const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
      if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (got <= 0) {
        lose(c);
        continue;
      }
      c.in.append(buf, static_cast<std::size_t>(got));
      const auto nl = c.in.find('\n');
      if (nl == std::string::npos) continue;
      if (nl + 1 != c.in.size()) ++r.mismatches;  // bytes beyond the one expected reply
      complete(c, std::string_view(c.in).substr(0, nl), now);
    }
    for (Conn& c : conns)
      if (c.busy && seconds_between(c.sent, now) > opts.response_timeout_s) lose(c);
  }
  for (Conn& c : conns)
    if (c.fd >= 0) ::close(c.fd);
  r.next = next_k;
  return r;
}

}  // namespace perfbench
