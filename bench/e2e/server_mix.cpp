// server_mix: open-loop traffic against a BidecServer child process. One
// generator thread drives a few loopback connections with seeded Poisson
// arrivals over a ladder of fixed offered rates; every request is timed
// from its due time, so a stall shows up in the requests queued behind it.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "engine/job_runner.h"
#include "inputs.h"
#include "replay.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workload.h"

namespace bidec::e2e {

namespace {

using Clock = std::chrono::steady_clock;

// --- the pinned shape of the workload ---------------------------------------

/// Offered rates (requests/s, ascending); latencies are reported at the
/// nominal step. Every step sends the same number of requests, enough for
/// the ladder to last the measurement time and never below the minimum.
struct MixShape {
  std::vector<double> ladder_rps;
  std::size_t nominal = 0;
  unsigned min_requests_per_step = 0;
  unsigned pinned_specs = 0;
  unsigned warmup_requests = 0;

  [[nodiscard]] unsigned requests_per_step(double seconds) const {
    double per_request_s = 0.0;
    for (const double r : ladder_rps) per_request_s += 1.0 / r;
    return std::max(min_requests_per_step, static_cast<unsigned>(seconds / per_request_s));
  }
};

MixShape mix_shape(bool smoke) {
  if (smoke) return {{100.0, 200.0}, 1, 60, 4, 8};
  // Doubling rates bracket the capacity (~600 requests/s on a 4-core x86
  // host) with a wide margin on both sides, so the highest step meeting the
  // SLO does not flip between runs. At the nominal step the server is about
  // a third busy, where latency is service time plus little queueing.
  // >= 1000 requests per step put >= 10 samples beyond the p99.
  return {{200.0, 400.0, 800.0}, 0, 1000, 16, 200};
}

// No request log stands behind the mix, the spec shape (server_spec), the
// rates or the SLO: they are assumptions. bench/e2e/README.md gives how the
// end-to-end metrics move with the pinned share.
constexpr double kPinnedShare = 0.7;  ///< requests repeating a pinned spec
/// Pinned spec k is server_spec(kPinnedSeed + k) on every run.
constexpr std::uint64_t kPinnedSeed = 1000;
constexpr double kSloMs = 200.0;      ///< p99 latency limit of a step
/// A step whose last tenth of requests waited longer than this (median)
/// built a backlog: its offered rate exceeds what the server sustains.
constexpr double kBacklogMs = 50.0;
constexpr double kMaxGenLagMs = 1.0;  ///< generator lateness p99 of a valid step
constexpr unsigned kServerWorkers = 3;
constexpr int kServerNice = 10;
constexpr unsigned kConnections = 4;  ///< generator connections, at most nproc
constexpr int kSetupReps = 3;
/// Responses still missing this long after a step's last due time fail.
constexpr auto kDrainLimit = std::chrono::seconds(20);

/// benchgen seed of a fresh spec: distinct per run seed and request, and
/// never one of the pinned seeds.
std::uint64_t fresh_seed(std::uint64_t run_seed, std::uint64_t request) {
  return (run_seed + 1) << 24 | request;
}

// --- the server child --------------------------------------------------------

BidecServer* g_server = nullptr;

void on_term(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// Fork/exec of `bidec_bench --serve`, reaped on destruction. The child
/// dies with its parent (PR_SET_PDEATHSIG), so no server outlives a run,
/// and runs at a lower priority than the generator, so the generator keeps
/// its schedule while server threads outnumber the cores, as a client on
/// another machine would.
class ServerProcess {
 public:
  ServerProcess() {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("fork() failed");
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(1);
      ::setpriority(PRIO_PROCESS, 0, kServerNice);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl("/proc/self/exe", "bidec_bench", "--serve", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
    std::string got;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (got.find('\n') == std::string::npos && Clock::now() < deadline) {
      pollfd p{out_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[64];
      const ssize_t n = ::read(out_, buf, sizeof buf);
      if (n <= 0) break;
      got.append(buf, static_cast<std::size_t>(n));
    }
    unsigned port = 0;
    if (std::sscanf(got.c_str(), "port %u", &port) != 1 || port == 0 || port > 0xffff) {
      terminate();
      throw std::runtime_error("server child did not announce a port");
    }
    port_ = static_cast<std::uint16_t>(port);
  }
  ~ServerProcess() { terminate(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// After a shutdown op: wait for the drain, then force it.
  void join() noexcept {
    if (pid_ > 0 && !wait_exit(std::chrono::seconds(10))) terminate();
    pid_ = -1;
  }

 private:
  bool wait_exit(std::chrono::milliseconds limit) noexcept {
    const auto deadline = Clock::now() + limit;
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }
  void terminate() noexcept {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      if (!wait_exit(std::chrono::seconds(5))) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
      }
      pid_ = -1;
    }
    if (out_ >= 0) ::close(out_);
    out_ = -1;
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
};

// --- client connections ------------------------------------------------------

using Line = std::pair<Clock::time_point, std::string>;

/// How a connection sets its socket up.
enum class Client {
  /// TCP_NODELAY, and TCP_QUICKACK after every read. The server leaves Nagle
  /// on, so a client that delays its ACKs has answers held for its ACK timer
  /// whenever two answers follow each other on one connection. Whether they
  /// do shifts from run to run: with default sockets the median latency at
  /// the nominal step read 2.3-13.4 ms over five seeds, against ~2 ms here.
  /// The ladder drives tuned clients, so its latencies measure the server.
  kTuned,
  /// Default socket options, as examples/bidec_client opens its socket.
  kDefault,
};

class Conn {
 public:
  Conn(std::uint16_t port, Client client) : tuned_(client == Client::kTuned) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    if (tuned_) ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the server child failed");
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  void send_line(const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send() to the server failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available without blocking; complete lines go to `out`
  /// stamped `now`. Returns false once the peer has closed.
  bool drain(Clock::time_point now, std::vector<Line>& out) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
      if (n == 0) return false;
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
      buf_.append(buf, static_cast<std::size_t>(n));
      // Linux leaves quick-ack mode again on its own, hence after every read.
      const int one = 1;
      if (tuned_) ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      std::size_t nl;
      while ((nl = buf_.find('\n')) != std::string::npos) {
        out.emplace_back(now, buf_.substr(0, nl));
        buf_.erase(0, nl + 1);
      }
    }
  }

  /// Closed-loop read of the next line; throws after `limit`.
  std::string read_line(std::chrono::milliseconds limit) {
    std::vector<Line> lines;
    const auto deadline = Clock::now() + limit;
    while (Clock::now() < deadline) {
      if (!pending_.empty()) {
        std::string line = std::move(pending_.front());
        pending_.erase(pending_.begin());
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      if (!drain(Clock::now(), lines)) break;
      for (Line& l : lines) pending_.push_back(std::move(l.second));
      lines.clear();
    }
    throw std::runtime_error("no answer from the server");
  }

 private:
  bool tuned_;
  int fd_ = -1;
  std::string buf_;
  std::vector<std::string> pending_;
};

using Conns = std::vector<std::unique_ptr<Conn>>;

Conns connect_all(std::uint16_t port, unsigned connections, Client client) {
  Conns conns;
  for (unsigned c = 0; c < connections; ++c) conns.push_back(std::make_unique<Conn>(port, client));
  return conns;
}

// --- requests ------------------------------------------------------------------

struct Outgoing {
  std::uint64_t id = 0;
  double offset_s = 0.0;  ///< due time after the step's start
  std::size_t conn = 0;
  int pinned = -1;        ///< pinned spec index; -1 = a fresh spec
  std::string line;
  Clock::time_point due, sent, recv;
  std::string response;
  bool refused = false;  ///< answered "rejected" by admission control
};

std::string synth_line(std::uint64_t id, const PlaFile& pla, const std::string& name) {
  return "{\"op\": \"synth\", \"id\": " + std::to_string(id) + ", \"pla\": \"" +
         json_escape(pla.write()) + "\", \"name\": \"" + name + "\", \"verify\": \"bdd\"}";
}

/// Everything the run sends, generated from the seed before any timing.
struct Traffic {
  std::vector<PlaFile> pinned;
  std::vector<Outgoing> priming;             ///< one closed-loop request per pinned spec
  std::vector<Outgoing> warmup;              ///< fresh specs, one per connection at a time
  std::vector<std::vector<Outgoing>> steps;  ///< one schedule per ladder rate
  /// The nominal rate once more, sent from default-socket connections.
  std::vector<Outgoing> default_client;
};

/// `default_client_requests` sizes Traffic::default_client (0: none).
Traffic make_traffic(const MixShape& shape, unsigned requests_per_step, unsigned connections,
                     unsigned default_client_requests, std::uint64_t seed) {
  Traffic t;
  for (unsigned k = 0; k < shape.pinned_specs; ++k) t.pinned.push_back(server_spec(kPinnedSeed + k));
  std::uint64_t id = 0;
  for (unsigned k = 0; k < shape.pinned_specs; ++k) {
    Outgoing r;
    r.id = ++id;
    r.pinned = static_cast<int>(k);
    r.line = synth_line(r.id, t.pinned[k], "pinned" + std::to_string(k));
    t.priming.push_back(std::move(r));
  }
  for (unsigned i = 0; i < shape.warmup_requests; ++i) {
    Outgoing r;
    r.id = ++id;
    r.conn = i % connections;
    r.line = synth_line(r.id, server_spec(fresh_seed(seed, r.id)), "warmup" + std::to_string(i));
    t.warmup.push_back(std::move(r));
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<unsigned> pick(0, shape.pinned_specs - 1);
  const auto schedule = [&](double rate, unsigned requests) {
    std::exponential_distribution<double> gap(rate);
    std::vector<Outgoing> step;
    double at = 0.0;
    for (unsigned i = 0; i < requests; ++i) {
      Outgoing r;
      r.id = ++id;
      at += gap(rng);
      r.offset_s = at;
      r.conn = i % connections;
      if (unit(rng) < kPinnedShare) {
        const unsigned k = pick(rng);
        r.pinned = static_cast<int>(k);
        r.line = synth_line(r.id, t.pinned[k], "pinned" + std::to_string(k));
      } else {
        r.line = synth_line(r.id, server_spec(fresh_seed(seed, r.id)),
                            "fresh" + std::to_string(r.id));
      }
      step.push_back(std::move(r));
    }
    return step;
  };
  for (const double rate : shape.ladder_rps) t.steps.push_back(schedule(rate, requests_per_step));
  t.default_client = schedule(shape.ladder_rps[shape.nominal], default_client_requests);
  return t;
}

/// The response without its leading request id, for byte comparison.
std::string without_id(const std::string& response) {
  const std::size_t comma = response.find(", ");
  return comma == std::string::npos ? response : response.substr(comma);
}

/// True when admission control turned the request away.
bool refused(const std::optional<JsonValue>& doc) {
  return doc && doc->get_string("status") == std::optional<std::string>("rejected");
}

/// Empty when `doc` is an ok synth answer with BDD verdict 1.
std::string response_problem(const std::optional<JsonValue>& doc) {
  if (!doc) return "unparseable response";
  const std::optional<std::string> status = doc->get_string("status");
  if (status != std::optional<std::string>("ok")) {
    return "status " + status.value_or("?") + " " + doc->get_string("error").value_or("");
  }
  const JsonValue* verify = doc->get("verify");
  if (verify == nullptr || verify->get_uint("bdd") != 1u) return "BDD verdict not 1";
  return {};
}

struct Quality {
  std::uint64_t gates = 0, exors = 0, levels = 0;
  bool operator==(const Quality&) const = default;
};

Quality quality_of(const JsonValue& doc) {
  Quality q;
  if (const JsonValue* n = doc.get("netlist")) {
    q.gates = n->get_uint("gates").value_or(0);
    q.exors = n->get_uint("exors").value_or(0);
    q.levels = n->get_uint("levels").value_or(0);
  }
  return q;
}

Quality quality_of(const JobReport& r) {
  return {r.gates, r.exors, r.levels};
}

/// Counters of the server's `stats` op that the metrics use.
struct ServerCounters {
  double lookups = 0, hits = 0, rejected = 0, refused = 0, leases = 0, warm = 0;
};

ServerCounters read_stats(Conn& c, std::uint64_t id) {
  c.send_line("{\"op\": \"stats\", \"id\": " + std::to_string(id) + "}");
  const std::optional<JsonValue> doc = JsonValue::parse(c.read_line(std::chrono::seconds(10)));
  if (!doc) throw std::runtime_error("unparseable stats answer");
  const auto u = [](const JsonValue* obj, const char* key) {
    return obj != nullptr ? static_cast<double>(obj->get_uint(key).value_or(0)) : 0.0;
  };
  const JsonValue* cache = doc->get("cache");
  const JsonValue* jobs = doc->get("jobs");
  const JsonValue* pool = doc->get("pool");
  return {u(cache, "lookups"), u(cache, "hits"), u(cache, "rejected"),
          u(jobs, "rejected_queue") + u(jobs, "rejected_client"), u(pool, "leases"),
          u(pool, "warm")};
}

/// A started server with its connections, primed with the pinned specs
/// (one at a time) and warmed up with fresh specs (one per connection at a
/// time), so the ladder starts on a server whose memory and component cache
/// are in use.
struct LiveServer {
  std::unique_ptr<ServerProcess> proc;
  Conns conns;                             ///< tuned
  std::vector<std::string> pinned_answer;  ///< priming responses without ids
  std::vector<Quality> pinned_quality;
};

LiveServer start_server(const Traffic& t, unsigned connections,
                        std::vector<std::string>& violations) {
  LiveServer s;
  s.proc = std::make_unique<ServerProcess>();
  s.conns = connect_all(s.proc->port(), connections, Client::kTuned);
  for (const Outgoing& r : t.priming) {
    s.conns[0]->send_line(r.line);
    const std::string answer = s.conns[0]->read_line(std::chrono::seconds(30));
    const std::optional<JsonValue> doc = JsonValue::parse(answer);
    const std::string problem = response_problem(doc);
    if (!problem.empty()) {
      violations.push_back("request " + std::to_string(r.id) + " (pinned" +
                           std::to_string(r.pinned) + ", priming): " + problem);
    }
    s.pinned_answer.push_back(without_id(answer));
    s.pinned_quality.push_back(doc ? quality_of(*doc) : Quality{});
  }
  // One request in flight per connection, so the warm-up keeps every worker
  // busy without reaching the per-client admission limit.
  for (std::size_t round = 0; round < t.warmup.size(); round += connections) {
    const std::size_t end = std::min(t.warmup.size(), round + connections);
    for (std::size_t i = round; i < end; ++i) s.conns[t.warmup[i].conn]->send_line(t.warmup[i].line);
    for (std::size_t i = round; i < end; ++i) {
      const Outgoing& r = t.warmup[i];
      const std::string answer = s.conns[r.conn]->read_line(std::chrono::seconds(30));
      const std::string problem = response_problem(JsonValue::parse(answer));
      if (!problem.empty()) violations.push_back("warm-up request " + std::to_string(r.id) +
                                                 ": " + problem);
    }
  }
  return s;
}

void stop_server(LiveServer& s) {
  s.conns[0]->send_line("{\"op\": \"shutdown\", \"id\": 0}");
  s.conns.clear();
  s.proc->join();
}

// --- one open-loop step --------------------------------------------------------

struct StepResult {
  double rate = 0.0;
  std::vector<double> latency_ms;  ///< per answered request, from its due time
  std::vector<double> lag_ms;      ///< generator lateness per send
  double last_tenth_p50_ms = 0.0;  ///< median latency of the last tenth sent
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;  ///< answered "rejected" by admission control
  /// Pinned answers whose bytes differ from the first answer, and those of
  /// them whose gate, EXOR or level count differs too.
  std::uint64_t pinned_drift = 0;
  std::uint64_t pinned_quality_drift = 0;
  double drain_ms = 0.0;  ///< last answer after the last due time
  ServerCounters delta;   ///< server stats over the step
  bool meets_slo = false;
  bool valid = false;  ///< generator kept its schedule
};

StepResult run_step(const LiveServer& s, Conns& conns, std::vector<Outgoing>& reqs,
                    double rate, std::vector<std::string>& violations, std::uint64_t stats_id) {
  StepResult out;
  out.rate = rate;
  const ServerCounters before = read_stats(*conns[0], stats_id);
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(reqs[i].offset_s));
    by_id[reqs[i].id] = i;
  }
  const Clock::time_point deadline = reqs.back().due + kDrainLimit;
  std::vector<pollfd> fds;
  for (const auto& c : conns) fds.push_back({c->fd(), POLLIN, 0});
  std::vector<Line> lines;
  lines.reserve(reqs.size());
  std::size_t next = 0;
  // The generator spins (poll with a zero timeout) instead of sleeping: on
  // a virtualized host, waking an idle CPU takes milliseconds, which would
  // show up as generator lag and as latency. It holds one core for the step.
  while (lines.size() < reqs.size()) {
    Clock::time_point now = Clock::now();
    while (next < reqs.size() && reqs[next].due <= now) {
      conns[reqs[next].conn]->send_line(reqs[next].line);
      reqs[next].sent = now = Clock::now();
      ++next;
    }
    if (now >= deadline) break;
    if (::poll(fds.data(), fds.size(), 0) <= 0) continue;
    const Clock::time_point got = Clock::now();
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].revents != 0 && !conns[c]->drain(got, lines)) {
        throw std::runtime_error("server closed a connection mid-step");
      }
    }
  }

  Clock::time_point last = reqs.back().due;
  for (Line& l : lines) {
    const std::optional<JsonValue> doc = JsonValue::parse(l.second);
    const auto it = doc ? by_id.find(doc->get_uint("id").value_or(0)) : by_id.end();
    if (it == by_id.end()) {
      ++out.failed;
      violations.push_back("unmatched response: " + l.second.substr(0, 80));
      continue;
    }
    Outgoing& r = reqs[it->second];
    r.recv = l.first;
    r.response = std::move(l.second);
    last = std::max(last, r.recv);
  }
  for (Outgoing& r : reqs) {
    out.lag_ms.push_back(std::chrono::duration<double, std::milli>(r.sent - r.due).count());
    std::string problem;
    if (r.response.empty()) {
      problem = "no response within the drain limit";
    } else {
      const std::optional<JsonValue> doc = JsonValue::parse(r.response);
      // Refused, not failed: the step misses the SLO, and the request has
      // no latency sample.
      if (refused(doc)) {
        r.refused = true;
        ++out.refused;
        continue;
      }
      problem = response_problem(doc);
      // What a pinned spec gets back depends on the cones the cross-job
      // cache holds when it runs, so a repeat may differ from the first
      // answer: counted, not failed.
      const std::size_t k = static_cast<std::size_t>(r.pinned);
      if (problem.empty() && r.pinned >= 0 && without_id(r.response) != s.pinned_answer[k]) {
        ++out.pinned_drift;
        if (quality_of(*doc) != s.pinned_quality[k]) ++out.pinned_quality_drift;
      }
    }
    if (!problem.empty()) {
      ++out.failed;
      violations.push_back("request " + std::to_string(r.id) +
                           (r.pinned >= 0 ? " (pinned" + std::to_string(r.pinned) + ")" : "") +
                           ": " + problem);
      continue;
    }
    out.latency_ms.push_back(std::chrono::duration<double, std::milli>(r.recv - r.due).count());
  }
  out.drain_ms = std::chrono::duration<double, std::milli>(last - reqs.back().due).count();
  std::vector<double> last_tenth;
  for (std::size_t i = reqs.size() - reqs.size() / 10; i < reqs.size(); ++i) {
    if (!reqs[i].response.empty()) {
      last_tenth.push_back(
          std::chrono::duration<double, std::milli>(reqs[i].recv - reqs[i].due).count());
    }
  }
  out.last_tenth_p50_ms = median(std::move(last_tenth));
  const ServerCounters after = read_stats(*conns[0], stats_id + 1);
  out.delta = {after.lookups - before.lookups, after.hits - before.hits,
               after.rejected - before.rejected, after.refused - before.refused,
               after.leases - before.leases, after.warm - before.warm};
  const std::optional<Percentile> tail = tail_percentile(out.latency_ms);
  const std::optional<Percentile> lag = percentile(out.lag_ms, 99);
  out.valid = !lag || lag->value <= kMaxGenLagMs;
  out.meets_slo = out.failed == 0 && out.refused == 0 && tail && tail->value <= kSloMs &&
                  out.last_tenth_p50_ms <= kBacklogMs;
  return out;
}

/// Median latency of each pinned spec over the answered requests of a step.
std::vector<double> pinned_medians(const std::vector<Outgoing>& reqs, unsigned pinned_specs) {
  std::vector<std::vector<double>> per_spec(pinned_specs);
  for (const Outgoing& r : reqs) {
    if (r.pinned >= 0 && !r.response.empty() && !r.refused) {
      per_spec[static_cast<std::size_t>(r.pinned)].push_back(
          std::chrono::duration<double, std::milli>(r.recv - r.due).count());
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& v : per_spec) medians.push_back(median(std::move(v)));
  return medians;
}

std::string percentile_row(const char* label, const std::vector<double>& samples) {
  const std::optional<Percentile> p = tail_percentile(samples);
  if (!p) return format("%s=none samples=%zu", label, samples.size());
  return format("%s=p%u:%.3f samples=%zu beyond=%zu", label, p->level, p->value,
                samples.size(), p->beyond);
}

std::string step_row(const char* client, const StepResult& st, const std::vector<Outgoing>& reqs,
                     unsigned pinned_specs) {
  return format(
      "step client=%s rate=%.0f requests=%zu p50_ms=%.3f %s %s pinned_geomean_ms=%.3f "
      "last_tenth_p50_ms=%.3f drain_ms=%.3f "
      "failed=%llu refused=%llu pinned_drift=%llu pinned_quality_drift=%llu "
      "cache_hit_ratio=%.4f meets_slo=%d",
      client, st.rate, reqs.size(), median(st.latency_ms),
      percentile_row("latency", st.latency_ms).c_str(),
      percentile_row("gen_lag", st.lag_ms).c_str(),
      geomean(pinned_medians(reqs, pinned_specs)), st.last_tenth_p50_ms, st.drain_ms,
      static_cast<unsigned long long>(st.failed), static_cast<unsigned long long>(st.refused),
      static_cast<unsigned long long>(st.pinned_drift),
      static_cast<unsigned long long>(st.pinned_quality_drift),
      ratio(st.delta.hits, st.delta.lookups), st.meets_slo ? 1 : 0);
}

// --- replays of the recorded lines ---------------------------------------------

/// Every line the server ran up to the end of the nominal step, in send
/// order, so the replayed component cache holds what the server's held.
std::vector<const Outgoing*> replay_lines(const Traffic& t, std::size_t nominal) {
  std::vector<const Outgoing*> lines;
  for (const Outgoing& r : t.priming) lines.push_back(&r);
  for (const Outgoing& r : t.warmup) lines.push_back(&r);
  for (std::size_t k = 0; k <= nominal; ++k) {
    for (const Outgoing& r : t.steps[k]) {
      if (!r.refused) lines.push_back(&r);
    }
  }
  return lines;
}

}  // namespace

int serve_main() {
  // Default options apart from the worker count, admission limits included:
  // a refused request is the server's answer to more load than it takes.
  ServerOptions o;
  o.num_workers = kServerWorkers;
  BidecServer server(o);
  g_server = &server;
  std::signal(SIGTERM, on_term);
  server.start();
  std::printf("port %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.wait();
  g_server = nullptr;
  return 0;
}

WorkloadResult run_server_mix(const RunOptions& opt) {
  WorkloadResult res;
  const MixShape shape = mix_shape(opt.smoke);
  const unsigned per_step = shape.requests_per_step(opt.seconds);
  const unsigned connections =
      std::min(kConnections, std::max(1u, std::thread::hardware_concurrency()));

  // Set-up: generate the traffic, start the server child, connect, prime.
  // Repeated; the last server stays up for the measurement.
  std::vector<double> setup_s;
  Traffic traffic;
  LiveServer live;
  for (int i = 0; i < kSetupReps; ++i) {
    if (live.proc) stop_server(live);
    const auto t0 = Clock::now();
    traffic = make_traffic(shape, per_step, connections,
                           opt.trace ? shape.min_requests_per_step : 0, opt.seed);
    live = start_server(traffic, connections, res.violations);
    setup_s.push_back(seconds_since(t0));
  }
  res.rows.push_back(format("setup server_workers=%u connections=%u pinned_specs=%u "
                            "requests_per_step=%u slo_ms=%.0f",
                            kServerWorkers, connections, shape.pinned_specs, per_step,
                            kSloMs));

  std::vector<StepResult> steps;
  double max_rps = 0.0;
  bool all_passed = true;
  for (std::size_t k = 0; k < shape.ladder_rps.size(); ++k) {
    if (!all_passed && k > shape.nominal) break;
    StepResult st = run_step(live, live.conns, traffic.steps[k], shape.ladder_rps[k],
                             res.violations, 1'000'000 + 2 * k);
    res.attempted += traffic.steps[k].size();
    res.failed += st.failed;
    if (!st.valid) {
      res.rows.push_back(format("warning step rate=%.0f: generator lag p99 above %.1f ms",
                                st.rate, kMaxGenLagMs));
    }
    if (all_passed && st.meets_slo && st.valid) {
      max_rps = st.rate;
    } else {
      all_passed = false;
    }
    res.rows.push_back(step_row("tuned", st, traffic.steps[k], shape.pinned_specs));
    steps.push_back(std::move(st));
  }
  // What a client with default sockets sees at the nominal rate; traced
  // runs only, as it feeds no end-to-end metric.
  std::optional<StepResult> default_client;
  if (!traffic.default_client.empty()) {
    Conns conns = connect_all(live.proc->port(), connections, Client::kDefault);
    default_client = run_step(live, conns, traffic.default_client,
                              shape.ladder_rps[shape.nominal], res.violations,
                              1'000'000 + 2 * shape.ladder_rps.size());
    res.attempted += traffic.default_client.size();
    res.failed += default_client->failed;
    res.rows.push_back(
        step_row("default", *default_client, traffic.default_client, shape.pinned_specs));
  }
  const double rss = peak_rss_mb(live.proc->pid());
  const ServerCounters life = read_stats(*live.conns[0], 999'999);
  stop_server(live);

  const StepResult& nominal = steps[shape.nominal];
  const std::vector<Outgoing>& nominal_reqs = traffic.steps[shape.nominal];
  const std::vector<double> spec_medians = pinned_medians(nominal_reqs, shape.pinned_specs);
  Quality total;
  for (unsigned k = 0; k < shape.pinned_specs; ++k) {
    const Quality& q = live.pinned_quality[k];
    total.gates += q.gates;
    total.exors += q.exors;
    total.levels += q.levels;
    res.rows.push_back(format("row input=pinned%u median_ms=%.3f gates=%llu exors=%llu "
                              "levels=%llu",
                              k, spec_medians[k], static_cast<unsigned long long>(q.gates),
                              static_cast<unsigned long long>(q.exors),
                              static_cast<unsigned long long>(q.levels)));
  }

  MetricValues& e2e = res.end_to_end;
  e2e["setup_s"] = median(setup_s);
  e2e["suite_s"] = std::accumulate(spec_medians.begin(), spec_medians.end(), 0.0) / 1e3;
  e2e["job_ms_geomean"] = geomean(spec_medians);
  e2e["latency_ms_p50"] = median(nominal.latency_ms);
  const std::optional<Percentile> tail = tail_percentile(nominal.latency_ms);
  e2e["latency_ms_tail"] = tail ? tail->value : 0.0;
  e2e["throughput_rps"] = max_rps;
  e2e["gates"] = static_cast<double>(total.gates);
  e2e["exors"] = static_cast<double>(total.exors);
  e2e["levels"] = static_cast<double>(total.levels);
  e2e["peak_rss_mb"] = rss;

  if (!opt.trace) return res;

  // Client spans: one per nominal request, from its due time to its answer.
  for (const Outgoing& r : nominal_reqs) {
    if (!r.response.empty() && !r.refused) res.tracer.add(r.id, 0, "client", r.due, r.recv);
  }

  // Each recorded line is replayed twice, one replay right after the
  // other, so host noise that drifts over the run affects both alike:
  // untraced through parse_request -> run_synthesis_job (a pooled manager
  // source held across jobs and a timed component cache, as a server
  // worker has) -> synth_response, which gives the service time; and
  // traced through the public calls, one span each.
  const std::vector<const Outgoing*> lines = replay_lines(traffic, shape.nominal);
  const std::uint64_t first_nominal = nominal_reqs.front().id;
  // A served netlist depends on which cones concurrent jobs had published
  // to the cross-job cache first; the serial replays cannot reproduce that
  // order, so netlists they build differently are counted, not failed.
  std::uint64_t untraced_drift = 0, traced_drift = 0;
  const auto compare_replay = [](const Outgoing& r, const JobReport& rep, std::uint64_t& drift) {
    const std::optional<JsonValue> served = JsonValue::parse(r.response);
    if (served && quality_of(*served) != quality_of(rep)) ++drift;
  };
  const auto parse = [](const Outgoing& r) {
    std::uint64_t id = 0;
    std::string error;
    std::optional<Request> req = parse_request(r.line, id, error);
    if (!req) throw std::runtime_error("replay: " + error);
    return std::move(*req);
  };
  std::unordered_map<std::uint64_t, double> service_ms;
  std::unordered_map<std::uint64_t, double> job_ms;
  std::vector<const Outgoing*> measured;
  double lookup_ms_nominal = 0.0;
  double attempts = 0.0;
  ManagerPool untraced_pool;
  PooledManagerSource untraced_source(untraced_pool);
  TimedComponentCache untraced_cache;
  ManagerPool traced_pool;
  PooledManagerSource traced_source(traced_pool);
  TimedComponentCache traced_cache;
  for (const Outgoing* r : lines) {
    const bool in_step = r->id >= first_nominal;
    const double lookup0 = untraced_cache.lookup_ms();
    const auto t0 = Clock::now();
    Request req = parse(*r);
    req.spec.flow.bidec.shared_cache = &untraced_cache;
    const auto j0 = Clock::now();
    const JobResult untraced = run_synthesis_job(req.spec, req.id, 0, untraced_source,
                                                 FaultPlan{}, /*allow_worker_death=*/false,
                                                 /*fresh_managers=*/false);
    const double jms = seconds_since(j0) * 1e3;
    (void)synth_response(untraced.report, untraced.netlist, req.want_netlist);
    const double sms = seconds_since(t0) * 1e3;

    JobResult traced;
    {
      ScopedSpan request(res.tracer, r->id, 0, "request");
      std::optional<Request> treq;
      {
        ScopedSpan s(res.tracer, r->id, request.id(), "server.parse");
        treq = parse(*r);
      }
      treq->spec.flow.bidec.shared_cache = &traced_cache;
      traced = replay_job(treq->spec, treq->id, traced_source, res.tracer, r->id, request.id());
      ScopedSpan s(res.tracer, r->id, request.id(), "server.respond");
      s.counters()["server.response_bytes"] = static_cast<double>(
          synth_response(traced.report, traced.netlist, treq->want_netlist).size());
    }
    if (!in_step) continue;
    service_ms[r->id] = sms;
    job_ms[r->id] = jms;
    lookup_ms_nominal += untraced_cache.lookup_ms() - lookup0;
    attempts += untraced.report.attempts;
    measured.push_back(r);
    ++res.attempted;
    const std::string problem = check_job(traced.report, VerifyEngine::kBdd, {});
    if (!problem.empty()) {
      ++res.failed;
      res.violations.push_back("request " + std::to_string(r->id) + " traced replay: " +
                               problem);
    }
    compare_replay(*r, untraced.report, untraced_drift);
    compare_replay(*r, traced.report, traced_drift);
  }
  res.rows.push_back(format("replay requests_built_differently untraced=%llu traced=%llu",
                            static_cast<unsigned long long>(untraced_drift),
                            static_cast<unsigned long long>(traced_drift)));

  const auto groups = res.tracer.by_trace();
  TraceSummary total_trace;
  std::vector<double> waits;
  double untraced_service = 0.0, traced_service = 0.0, overhead = 0.0;
  for (const Outgoing* r : measured) {
    TraceSummary s;
    const std::string err = summarize(groups.at(r->id), "request", s);
    if (!err.empty()) res.violations.push_back("request " + std::to_string(r->id) + " trace: " + err);
    TraceSummary job;
    (void)summarize(groups.at(r->id), "job", job);
    accumulate(total_trace, s);
    untraced_service += service_ms[r->id];
    traced_service += s.root_ms;
    overhead += job_ms[r->id] - module_ms(job);
    if (!r->response.empty()) {
      const double latency = std::chrono::duration<double, std::milli>(r->recv - r->due).count();
      waits.push_back(latency - service_ms[r->id]);
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(measured.size(), 1));
  scale(total_trace, 1.0 / n);
  res.rows.push_back(format("trace requests=%zu traced_ms=%.4f untraced_ms=%.4f deviation=%.4f",
                            measured.size(), traced_service / n, untraced_service / n,
                            ratio(traced_service - untraced_service, untraced_service)));

  res.per_layer = layer_metrics(total_trace);
  MetricValues& layer = res.per_layer;
  const auto self = [&](const char* span) {
    const auto it = total_trace.self_ms.find(span);
    return it != total_trace.self_ms.end() ? it->second : 0.0;
  };
  layer["engine.overhead_ms"] = overhead / n;
  layer["engine.attempts_per_job"] = attempts / n;
  layer["engine.pool_warm_ratio"] = ratio(life.warm, life.leases);
  layer["server.protocol_ms"] = self("server.parse") + self("server.respond");
  layer["server.wait_ms_p50"] = median(waits);
  layer["server.cache_lookup_ms"] = lookup_ms_nominal / n;
  layer["server.cache_hit_ratio"] = ratio(nominal.delta.hits, nominal.delta.lookups);
  layer["server.cache_reject_ratio"] = ratio(nominal.delta.rejected, nominal.delta.lookups);
  double refused = 0.0;
  for (const StepResult& st : steps) refused += st.delta.refused;
  layer["server.rejected"] = refused;
  layer["server.default_client_ms_p50"] = median(default_client->latency_ms);
  const std::optional<Percentile> lag = percentile(nominal.lag_ms, 99);
  layer["server.gen_lag_ms_p99"] = lag ? lag->value : 0.0;
  layer["trace.overhead_ratio"] = ratio(traced_service - untraced_service, untraced_service);
  return res;
}

}  // namespace bidec::e2e
