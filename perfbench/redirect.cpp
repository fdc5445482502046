// The redirector workloads: the hybrid plan of the paper scenario served by
// a model-mode redirectd::RedirectorDaemon over real loopback sockets.
//
//   redirect-steady  no faults.  An open loop offers kOpenRate requests/s
//                    for latency, each timed from its due send time; then a
//                    pipelined closed loop measures throughput.  Every
//                    answer must equal rank 1 of nearest_live_candidates
//                    computed in process for that request.
//   redirect-churn   the same closed loop while a wall-clock fault schedule
//                    takes one server at a time and the origins of
//                    well-replicated sites down, and the control socket
//                    reloads the placement every kReloadPeriod, alternating
//                    the replication and hybrid plans.
//
// The load comes from this process and this thread.  The daemon's event
// loop and the client take two of the `budget` (nproc) slots, data
// connections the rest, less one for churn's control connection.
// Placement runs only during set-up.

#include <poll.h>
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "src/fault/fault_schedule.h"
#include "src/fault/wall_clock.h"
#include "src/net/socket.h"
#include "src/obs/registry.h"
#include "src/placement/greedy_global.h"
#include "src/placement/hybrid_greedy.h"
#include "src/placement/placement_io.h"
#include "src/redirectd/daemon.h"
#include "src/redirectd/protocol.h"
#include "src/sim/latency_model.h"
#include "src/util/error.h"
#include "src/workload/request_stream.h"

namespace perfbench {
namespace {

using namespace cdn;
using redirectd::AnswerKind;

/// Set-up repeats: at least kSetups, and until kSetupSeconds have passed,
/// so setup_s is a median even where one set-up takes milliseconds.
constexpr int kSetups = 3;
constexpr double kSetupSeconds = 1.5;
/// Replayed prefix of the scenario's demand stream.
constexpr std::size_t kPoolSize = std::size_t{1} << 16;
/// Open-loop offered rate, far below the daemon's closed-loop throughput.
constexpr double kOpenRate = 3000.0;
/// Share of redirect-steady's budget spent in the open loop.
constexpr double kOpenShare = 0.3;
/// Requests written per connection before reading the answers.
constexpr std::size_t kDepth = 64;
/// Requests per timed closed-loop block (run_s).  A block spans about two
/// reload periods and a whole server-outage cycle, so on redirect-churn
/// every block serves both plans and the faults alike; shorter blocks fell
/// on one side or the other and their median jumped between runs.
constexpr std::size_t kBlock = 65536;
constexpr std::size_t kMinBlocks = 3;
/// The traced phase is a fixed amount of work, so the trace's self times
/// are comparable between runs: redirect-steady's open loop for this long
/// (a fixed request count at kOpenRate), then this many closed-loop blocks.
constexpr double kTracedOpenSeconds = 2.0;
constexpr std::size_t kTracedBlocks = 2;
/// Events per thread the tracer keeps: the daemon records one span per
/// request, and the traced phase must fit whole.
constexpr std::size_t kTraceEvents = std::size_t{1} << 18;
constexpr auto kReloadPeriod = std::chrono::milliseconds(200);
/// Fault-schedule units per wall second: one unit per millisecond.
constexpr double kFaultRate = 1000.0;
constexpr int kIoTimeoutMs = 5000;
constexpr std::uint64_t kPoolSalt = 0x706f6f6cULL;
constexpr std::uint64_t kFaultSalt = 0x6661756c74ULL;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Nearest-rank p-quantile.
double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(p * static_cast<double>(values.size()));
  return values[std::min(values.size() - 1, rank)];
}

/// A p-quantile is reported only when at least ten of its `n` samples lie
/// beyond it.
bool tail_resolved(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= 10.0;
}

/// Pins the calling thread to the `index`-th CPU it may run on, for as long
/// as the object lives.  The client and the daemon's event loop each get
/// their own CPU in every run: left to the scheduler, where the two landed
/// moved run_s by +-10% between identical runs.  No-op when the thread may
/// run on `index` CPUs or fewer.
class CpuPin {
 public:
  explicit CpuPin(std::size_t index) {
    if (pthread_getaffinity_np(pthread_self(), sizeof saved_, &saved_) != 0) {
      return;
    }
    std::size_t seen = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || seen++ != index) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
      return;
    }
  }
  ~CpuPin() {
    if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
  }

  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// A client connection that reads '\n'-terminated lines through its own
/// buffer (net::read_line spends one syscall per byte).
class LineClient {
 public:
  enum class Fill { kData, kTimeout, kClosed };

  explicit LineClient(std::uint16_t port) {
    net::ConnectStart conn = net::start_connect("127.0.0.1", port);
    CDN_EXPECT(conn.fd.valid(), "connect: " + net::errno_message(conn.error));
    if (conn.in_progress) {
      CDN_EXPECT(net::wait_writable(conn.fd.get(), kIoTimeoutMs) &&
                     net::finish_connect(conn.fd.get()) == 0,
                 "connect to port " + std::to_string(port) + " failed");
    }
    fd_ = std::move(conn.fd);
  }

  bool send(const std::string& data) {
    return net::write_all(fd_.get(), data.data(), data.size(), kIoTimeoutMs);
  }

  /// Moves the next buffered line into `line`; false when none is complete.
  bool next_line(std::string& line) {
    const std::size_t end = buf_.find('\n', pos_);
    if (end == std::string::npos) return false;
    line.assign(buf_, pos_, end + 1 - pos_);
    pos_ = end + 1;
    return true;
  }

  /// Waits up to `timeout` for input and buffers what arrived.
  Fill fill(std::chrono::nanoseconds timeout) {
    if (pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    } else if (pos_ > kChunk) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    pollfd pfd{fd_.get(), POLLIN, 0};
    const std::int64_t ns = std::max<std::int64_t>(0, timeout.count());
    const timespec wait{static_cast<time_t>(ns / 1'000'000'000),
                        static_cast<long>(ns % 1'000'000'000)};
    const int ready = ::ppoll(&pfd, 1, &wait, nullptr);
    if (ready == 0 || (ready < 0 && errno == EINTR)) return Fill::kTimeout;
    if (ready < 0) return Fill::kClosed;
    char chunk[kChunk];
    const net::IoResult r = net::read_some(fd_.get(), chunk, sizeof chunk);
    if (r.status == net::IoStatus::kOk) {
      buf_.append(chunk, r.bytes);
      return Fill::kData;
    }
    return r.status == net::IoStatus::kWouldBlock ? Fill::kTimeout
                                                  : Fill::kClosed;
  }

  /// Blocks, up to the I/O timeout, for the next line.
  bool read_line(std::string& line) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(kIoTimeoutMs);
    while (!next_line(line)) {
      const auto left = deadline - Clock::now();
      if (left <= Clock::duration::zero() || fill(left) == Fill::kClosed) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;
  net::Fd fd_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// The demand-stream prefix the client replays, and (redirect-steady) the
/// answer each request must get.
struct RequestPool {
  std::vector<redirectd::RedirectRequest> requests;
  std::vector<std::string> lines;
  std::vector<sys::NearestCopy> expected;
};

RequestPool make_pool(const core::Scenario& scenario, std::uint64_t seed) {
  RequestPool pool;
  workload::RequestStream stream(scenario.catalog(), scenario.demand(),
                                 derive_seed(seed, kPoolSalt));
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    const workload::Request r = stream.next();
    redirectd::RedirectRequest request;
    request.client_server = r.server;
    request.site = r.site;
    request.object = r.rank;
    pool.requests.push_back(request);
    pool.lines.push_back(redirectd::format_request(request));
  }
  return pool;
}

/// Ranks every pool request as the daemon does when every copy is live,
/// keeps rank 1 as the request's expected answer, and returns ns per call.
double rank_pool(RequestPool& pool, const placement::PlacementResult& plan,
                 std::size_t top_k, obs::SpanTracer* spans) {
  std::vector<std::vector<sys::ServerIndex>> holders(
      plan.placement.site_count());
  for (sys::SiteIndex j = 0; j < holders.size(); ++j) {
    holders[j] = plan.placement.replicators(j);
  }
  const std::vector<std::uint8_t> up(plan.placement.server_count(), 1);
  pool.expected.resize(pool.requests.size());
  obs::ScopedSpan span(spans, "cdn/rank", "cdn");
  const auto start = Clock::now();
  for (std::size_t k = 0; k < pool.requests.size(); ++k) {
    const redirectd::RedirectRequest& r = pool.requests[k];
    const std::vector<sys::NearestCopy> ranked =
        plan.nearest.nearest_live_candidates(r.client_server, r.site,
                                             holders[r.site], up, true, top_k);
    CDN_EXPECT(!ranked.empty(), "a live origin always ranks");
    pool.expected[k] = ranked.front();
  }
  return seconds_since(start) * 1e9 / static_cast<double>(pool.requests.size());
}

/// ns per parse_request over the pool's request lines, and per
/// format_answer over their expected answers.
std::pair<double, double> codec_cost(const RequestPool& pool,
                                     obs::SpanTracer* spans) {
  std::uint64_t sink = 0;
  auto start = Clock::now();
  {
    obs::ScopedSpan span(spans, "redirectd/parse_request", "redirectd");
    for (const std::string& line : pool.lines) {
      sink += redirectd::parse_request(line).site;
    }
  }
  const double parse_s = seconds_since(start);
  std::vector<redirectd::RedirectAnswer> answers(pool.expected.size());
  for (std::size_t k = 0; k < answers.size(); ++k) {
    const sys::NearestCopy& copy = pool.expected[k];
    answers[k].kind = copy.at_primary ? AnswerKind::kOrigin : AnswerKind::kReplica;
    answers[k].server = copy.server;
    answers[k].site = pool.requests[k].site;
    answers[k].cost = copy.cost;
    answers[k].winner_rank = 1;
  }
  start = Clock::now();
  {
    obs::ScopedSpan span(spans, "redirectd/format_answer", "redirectd");
    for (const redirectd::RedirectAnswer& a : answers) {
      sink += redirectd::format_answer(a).size();
    }
  }
  const double format_s = seconds_since(start);
  CDN_EXPECT(sink > 0, "codec replay produced nothing");
  const double n = static_cast<double>(pool.lines.size());
  return {parse_s * 1e9 / n, format_s * 1e9 / n};
}

/// Decides whether the answer to pool request k is right.
struct AnswerCheck {
  const RequestPool* pool = nullptr;
  /// redirect-churn: holds[server * sites + site] != 0 when either served
  /// plan replicates the site there.  Empty for redirect-steady, whose
  /// answers must equal the in-process rank 1 exactly.
  std::vector<std::uint8_t> holds;
  std::size_t sites = 0;

  bool operator()(std::size_t k, const redirectd::RedirectAnswer& a) const {
    const redirectd::RedirectRequest& r = pool->requests[k];
    if (holds.empty()) {
      const sys::NearestCopy& e = pool->expected[k];
      const bool same_copy =
          e.at_primary ? a.kind == AnswerKind::kOrigin && a.site == r.site
                       : a.kind == AnswerKind::kReplica && a.server == e.server;
      // The wire carries the cost with six significant digits.
      return same_copy &&
             std::abs(a.cost - e.cost) <= 1e-5 * std::max(1.0, std::abs(e.cost));
    }
    if (a.kind == AnswerKind::kOrigin) return a.site == r.site;
    const std::size_t cell = static_cast<std::size_t>(a.server) * sites + r.site;
    return cell < holds.size() && holds[cell] != 0;
  }
};

/// Client-side answer accounting; it must equal the daemon's Stats.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t replica = 0;
  std::uint64_t origin = 0;
  std::uint64_t no_live_copy = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t errors = 0;  // ERR and other unparsable answers
  std::uint64_t wrong = 0;   // answers AnswerCheck rejects
  double model_ms = 0.0;     // paper latency model over served answers

  std::uint64_t unanswered() const { return sent - answered; }
  std::uint64_t failed() const {
    return errors + no_live_copy + shed + deadline + unanswered();
  }

  void record(const AnswerCheck& check, std::size_t k, const std::string& line) {
    ++answered;
    redirectd::RedirectAnswer a;
    try {
      a = redirectd::parse_answer(line);
    } catch (const std::exception&) {
      ++errors;
      return;
    }
    switch (a.kind) {
      case AnswerKind::kReplica:
        ++replica;
        break;
      case AnswerKind::kOrigin:
        ++origin;
        break;
      case AnswerKind::kUnavailable:
        if (a.reason == redirectd::UnavailableReason::kShed) {
          ++shed;
        } else if (a.reason == redirectd::UnavailableReason::kDeadline) {
          ++deadline;
        } else {
          ++no_live_copy;
        }
        return;
    }
    model_ms += sim::LatencyModel{}.latency_ms(a.cost);
    if (!check(k, a)) ++wrong;
  }
};

/// A bound daemon; serve() runs its event loop on a thread until stop().
class DaemonRunner {
 public:
  explicit DaemonRunner(const redirectd::DaemonConfig& config)
      : daemon_(config) {
    daemon_.start();
  }
  ~DaemonRunner() { stop(); }

  DaemonRunner(const DaemonRunner&) = delete;
  DaemonRunner& operator=(const DaemonRunner&) = delete;

  void serve() {
    thread_ = std::thread([this] {
      const CpuPin pin(0);
      try {
        daemon_.run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }

  /// Drains the daemon and joins its thread; idempotent.
  void stop() {
    if (!thread_.joinable()) return;
    daemon_.request_stop();
    thread_.join();
  }

  /// CPU seconds the event-loop thread has used so far (while serving).
  double thread_cpu_s() {
    clockid_t clock = 0;
    timespec ts{};
    if (pthread_getcpuclockid(thread_.native_handle(), &clock) != 0 ||
        clock_gettime(clock, &ts) != 0) {
      return 0.0;
    }
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  redirectd::RedirectorDaemon& daemon() { return daemon_; }
  /// What run() threw, if anything; read after stop().
  const std::string& error() const { return error_; }

 private:
  redirectd::RedirectorDaemon daemon_;
  std::string error_;
  std::thread thread_;  // last: runs against daemon_ and error_
};

/// Set-up state the measured phases serve.
struct Env {
  std::unique_ptr<core::Scenario> scenario;
  std::optional<placement::PlacementResult> hybrid;
  std::optional<placement::PlacementResult> replication;  // churn
  fault::FaultSchedule faults;                            // churn
  std::array<std::string, 2> plan_paths;  // churn: replication, hybrid
};

/// A daemon with the wall-clock fault timeline it replays (churn).
struct Served {
  std::unique_ptr<fault::WallClockTimeline> timeline;
  std::unique_ptr<DaemonRunner> runner;  // destroyed before the timeline
};

Served make_served(const Env& env, const Args& args, bool churn,
                   obs::Registry* metrics, obs::SpanTracer* spans) {
  Served served;
  const sys::CdnSystem& system = env.scenario->system();
  if (churn) {
    served.timeline = std::make_unique<fault::WallClockTimeline>(
        env.faults, system.server_count(), system.site_count(), kFaultRate);
  }
  redirectd::DaemonConfig config;
  config.control = churn;
  config.seed = args.seed;
  config.system = &system;
  config.placement = &*env.hybrid;
  config.timeline = served.timeline.get();
  config.metrics = metrics;
  config.spans = spans;
  served.runner = std::make_unique<DaemonRunner>(config);
  return served;
}

/// One server at a time is down for 150 of every 250 ms, every server in
/// turn, and every 400 ms the origin of one site that both plans replicate
/// at least twice is down for 200 ms, so every request keeps a live copy
/// and no answer fails.  The servers go down in a fixed order: which
/// servers a short run happened to take down moved run_s by ~20% between
/// seeds.
fault::FaultSchedule churn_faults(const Env& env, const Args& args) {
  const std::size_t n = env.scenario->system().server_count();
  const std::size_t m = env.scenario->system().site_count();
  const auto horizon = static_cast<std::uint64_t>((args.seconds + 120.0) * 1000.0);
  util::Rng rng(derive_seed(args.seed, kFaultSalt));
  fault::FaultSchedule faults;
  for (std::uint64_t t = 0, k = 0; t + 250 <= horizon; t += 250, ++k) {
    faults.add_server_outage(static_cast<std::uint32_t>(k % n), t + 50, t + 200);
  }
  std::vector<std::uint32_t> sites;
  for (sys::SiteIndex j = 0; j < m; ++j) {
    if (env.hybrid->placement.replicas_of_site(j) >= 2 &&
        env.replication->placement.replicas_of_site(j) >= 2) {
      sites.push_back(j);
    }
  }
  CDN_EXPECT(!sites.empty(), "no site is replicated twice by both plans");
  for (std::uint64_t t = 0; t + 400 <= horizon; t += 400) {
    faults.add_origin_outage(sites[rng.uniform_index(sites.size())], t + 100,
                             t + 300);
  }
  faults.validate(n, m);
  return faults;
}

struct SetupTimes {
  double total_s = 0.0;
  double scenario_s = 0.0;
  double plan_s = 0.0;
};

/// Scenario, placement(s) and a bound daemon: everything before the first
/// measured request.
SetupTimes setup_once(const Args& args, bool churn, obs::SpanTracer* spans,
                      Env& env, Served& served) {
  served = Served{};  // the previous daemon points into the previous env
  SetupTimes times;
  const auto start = Clock::now();
  {
    obs::ScopedSpan span(spans, "core/scenario", "core");
    env.scenario = std::make_unique<core::Scenario>(paper_config(args.seed));
  }
  times.scenario_s = seconds_since(start);
  const sys::CdnSystem& system = env.scenario->system();
  const auto plan_start = Clock::now();
  {
    obs::ScopedSpan span(spans, "placement/hybrid_greedy", "placement");
    env.hybrid.emplace(placement::hybrid_greedy(system));
  }
  if (churn) {
    obs::ScopedSpan span(spans, "placement/greedy_global", "placement");
    env.replication.emplace(placement::greedy_global(system));
  }
  times.plan_s = seconds_since(plan_start);
  if (churn) {
    placement::save_placement(env.replication->placement, env.plan_paths[0]);
    placement::save_placement(env.hybrid->placement, env.plan_paths[1]);
    env.faults = churn_faults(env, args);
  }
  {
    obs::ScopedSpan span(spans, "redirectd/bind", "redirectd");
    served = make_served(env, args, churn, nullptr, nullptr);
  }
  times.total_s = seconds_since(start);
  return times;
}

/// Issues `RELOAD placement` on the control socket every kReloadPeriod,
/// alternating the two plan files, one command in flight at a time.
class ReloadDriver {
 public:
  ReloadDriver(std::uint16_t port, const std::array<std::string, 2>& paths)
      : conn_(port), paths_(paths), next_(Clock::now() + kReloadPeriod) {}

  void poll() {
    const auto now = Clock::now();
    if (in_flight_) {
      while (conn_.fill(std::chrono::nanoseconds(0)) ==
             LineClient::Fill::kData) {
      }
      std::string line;
      if (conn_.next_line(line)) finish_one(line, now);
    }
    if (!in_flight_ && now >= next_) {
      ++sent;
      if (!conn_.send("RELOAD placement " + paths_[which_] + "\n")) {
        ++failed;
        return;
      }
      sent_at_ = now;
      in_flight_ = true;
      which_ ^= 1;
      next_ = std::max(next_ + kReloadPeriod, now);
    }
  }

  /// Waits for the reply to the command in flight, if any.
  void finish() {
    if (!in_flight_) return;
    std::string line;
    if (conn_.read_line(line)) {
      finish_one(line, Clock::now());
    } else {
      in_flight_ = false;
      ++failed;
      last_error = "no reply to RELOAD";
    }
  }

  std::vector<double> latency_ms;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::string last_error;

 private:
  void finish_one(const std::string& line, Clock::time_point now) {
    in_flight_ = false;
    if (line.rfind("OK", 0) == 0) {
      ++ok;
      latency_ms.push_back(ms_between(sent_at_, now));
    } else {
      ++failed;
      last_error = line;
    }
  }

  LineClient conn_;
  std::array<std::string, 2> paths_;
  Clock::time_point next_;
  Clock::time_point sent_at_;
  bool in_flight_ = false;
  std::size_t which_ = 0;
};

/// What one measured phase against one daemon observed.
struct Phase {
  std::vector<double> open_ms;       // open loop, from each due send time
  std::vector<double> open_wire_us;  // open loop, from the actual send
  std::vector<double> late_ms;       // how late each open-loop send was
  std::vector<double> block_s;       // closed-loop blocks of kBlock requests
  std::uint64_t closed_requests = 0;
  double closed_s = 0.0;
  double closed_client_us = 0.0;  // mean closed-loop request latency
  double loop_busy = 0.0;         // daemon thread CPU / wall, closed loop
  std::vector<double> reload_ms;
  std::uint64_t reloads_sent = 0;
  std::uint64_t reloads_ok = 0;
  std::uint64_t reloads_failed = 0;
  std::string reload_error;
  Tally tally;
  redirectd::RedirectorDaemon::Stats stats;
  std::uint64_t generation = 0;
  std::uint64_t transitions = 0;
  std::string daemon_error;

  double rate() const {
    return closed_s > 0.0 ? static_cast<double>(closed_requests) / closed_s : 0.0;
  }
};

void open_loop(LineClient& conn, const RequestPool& pool,
               const AnswerCheck& check, std::size_t& cursor, double seconds,
               Phase& out) {
  const auto total = static_cast<std::size_t>(std::max(1.0, kOpenRate * seconds));
  const auto interval =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / kOpenRate));
  const auto start = Clock::now();
  const auto due = [&](std::size_t i) {
    return start + interval * static_cast<std::int64_t>(i);
  };
  std::vector<Clock::time_point> sent_at(total);
  std::size_t next_send = 0;
  std::size_t next_recv = 0;
  std::string batch;
  std::string line;
  while (next_recv < total) {
    const auto now = Clock::now();
    batch.clear();
    const std::size_t first = next_send;
    for (; next_send < total && due(next_send) <= now; ++next_send) {
      batch += pool.lines[(cursor + next_send) % kPoolSize];
      sent_at[next_send] = now;
      out.late_ms.push_back(ms_between(due(next_send), now));
    }
    if (!batch.empty()) {
      out.tally.sent += next_send - first;
      if (!conn.send(batch)) break;
    }
    const auto wait = next_send < total
                          ? std::chrono::nanoseconds(due(next_send) - Clock::now())
                          : std::chrono::nanoseconds(
                                std::chrono::milliseconds(kIoTimeoutMs));
    const LineClient::Fill fill = conn.fill(wait);
    if (fill == LineClient::Fill::kClosed) break;
    const auto arrived = Clock::now();
    while (next_recv < next_send && conn.next_line(line)) {
      out.tally.record(check, (cursor + next_recv) % kPoolSize, line);
      out.open_ms.push_back(ms_between(due(next_recv), arrived));
      out.open_wire_us.push_back(ms_between(sent_at[next_recv], arrived) * 1e3);
      ++next_recv;
    }
    if (fill == LineClient::Fill::kTimeout && next_send == total &&
        next_recv < total) {
      break;  // everything sent and nothing arrived within the I/O timeout
    }
  }
  cursor += next_send;
}

/// How long a phase runs: the open loop for `open_s` (redirect-steady),
/// then closed-loop blocks for `closed_s` and at least `min_blocks`.
struct Window {
  double open_s = 0.0;
  double closed_s = 0.0;
  std::size_t min_blocks = kMinBlocks;
};

void closed_loop(std::vector<std::unique_ptr<LineClient>>& conns,
                 const RequestPool& pool, const AnswerCheck& check,
                 std::size_t& cursor, const Window& window,
                 DaemonRunner& runner, ReloadDriver* reloads, Phase& out) {
  const auto start = Clock::now();
  const double cpu_start = runner.thread_cpu_s();
  std::vector<std::size_t> first(conns.size());
  std::string batch;
  std::string line;
  double client_ms = 0.0;
  bool broken = false;
  while (!broken && (out.block_s.size() < window.min_blocks ||
                     seconds_since(start) < window.closed_s)) {
    const auto block_start = Clock::now();
    for (std::size_t done = 0; done < kBlock && !broken;
         done += kDepth * conns.size()) {
      const auto sent = Clock::now();
      for (std::size_t c = 0; c < conns.size() && !broken; ++c) {
        first[c] = cursor;
        batch.clear();
        for (std::size_t d = 0; d < kDepth; ++d) {
          batch += pool.lines[cursor++ % kPoolSize];
        }
        out.tally.sent += kDepth;
        broken = !conns[c]->send(batch);
      }
      for (std::size_t c = 0; c < conns.size() && !broken; ++c) {
        for (std::size_t d = 0; d < kDepth; ++d) {
          if (!conns[c]->read_line(line)) {
            broken = true;
            break;
          }
          out.tally.record(check, (first[c] + d) % kPoolSize, line);
          client_ms += ms_between(sent, Clock::now());
          ++out.closed_requests;
        }
      }
      if (reloads != nullptr) reloads->poll();
    }
    if (!broken) out.block_s.push_back(seconds_since(block_start));
  }
  out.closed_s = seconds_since(start);
  out.loop_busy = (runner.thread_cpu_s() - cpu_start) / out.closed_s;
  out.closed_client_us =
      out.closed_requests > 0
          ? client_ms * 1e3 / static_cast<double>(out.closed_requests)
          : 0.0;
}

Phase run_phase(const Env& env, Served& served, const RequestPool& pool,
                const AnswerCheck& check, const Args& args, bool churn,
                const Window& window, obs::SpanTracer* spans) {
  Phase out;
  DaemonRunner& runner = *served.runner;
  runner.serve();
  const CpuPin pin(1);
  const std::size_t reserved = churn ? 3 : 2;
  const std::size_t data_conns =
      args.budget > reserved ? std::min<std::size_t>(args.budget - reserved, 4) : 1;
  {
    std::vector<std::unique_ptr<LineClient>> conns;
    for (std::size_t c = 0; c < data_conns; ++c) {
      conns.push_back(std::make_unique<LineClient>(runner.daemon().port()));
    }
    std::optional<ReloadDriver> reloads;
    if (churn) reloads.emplace(runner.daemon().control_port(), env.plan_paths);
    std::size_t cursor = 0;
    if (window.open_s > 0.0) {
      // Paced by the offered rate, so its length is no layer's cost.
      obs::ScopedSpan span(spans, "bench/open_loop", "bench");
      open_loop(*conns.front(), pool, check, cursor, window.open_s, out);
    }
    {
      obs::ScopedSpan span(spans, "net/closed_loop", "net");
      closed_loop(conns, pool, check, cursor, window, runner,
                  reloads ? &*reloads : nullptr, out);
    }
    if (reloads) {
      reloads->finish();
      out.reload_ms = reloads->latency_ms;
      out.reloads_sent = reloads->sent;
      out.reloads_ok = reloads->ok;
      out.reloads_failed = reloads->failed;
      out.reload_error = reloads->last_error;
    }
  }  // the client connections close before the drain
  runner.stop();
  out.stats = runner.daemon().stats();
  out.generation = runner.daemon().generation();
  out.daemon_error = runner.error();
  if (served.timeline) out.transitions = served.timeline->timeline().transitions();
  return out;
}

std::string tally_text(const Tally& t, const redirectd::RedirectorDaemon::Stats& s) {
  const auto pair = [](const char* name, std::uint64_t client, std::uint64_t daemon) {
    return std::string(name) + " " + std::to_string(client) + "/" +
           std::to_string(daemon);
  };
  return "client/daemon: " + pair("requests", t.sent, s.requests) + ", " +
         pair("replica", t.replica, s.replica_answers) + ", " +
         pair("origin", t.origin, s.origin_answers) + ", " +
         pair("no_live_copy", t.no_live_copy, s.unavailable_no_live_copy) +
         ", " + pair("shed", t.shed, s.unavailable_shed) + ", " +
         pair("deadline", t.deadline, s.unavailable_deadline);
}

void check_phase(const Phase& p, bool churn, const std::string& tag,
                 Result& result) {
  const Tally& t = p.tally;
  const redirectd::RedirectorDaemon::Stats& s = p.stats;
  result.check(tag + ".daemon_ran", p.daemon_error.empty(), p.daemon_error);
  result.check(tag + ".every_request_answered", t.unanswered() == 0,
               std::to_string(t.unanswered()) + " of " +
                   std::to_string(t.sent) + " unanswered");
  result.check(tag + ".no_error_answers", t.errors == 0 && s.parse_errors == 0,
               std::to_string(t.errors) + " ERR/unparsable answers, " +
                   std::to_string(s.parse_errors) + " daemon parse errors");
  result.check(tag + ".client_tallies_equal_daemon_stats",
               s.requests == t.sent && s.replica_answers == t.replica &&
                   s.origin_answers == t.origin &&
                   s.unavailable_no_live_copy == t.no_live_copy &&
                   s.unavailable_shed == t.shed &&
                   s.unavailable_deadline == t.deadline,
               tally_text(t, s));
  if (!churn) {
    result.check(tag + ".answers_equal_in_process_rank1", t.wrong == 0,
                 std::to_string(t.wrong) + " answers differ");
    return;
  }
  result.check(tag + ".replica_answers_hold_the_site", t.wrong == 0,
               std::to_string(t.wrong) + " answers name a server holding "
               "the site in neither plan");
  result.check(tag + ".generation_is_1_plus_reloads_applied",
               p.generation == 1 + s.reloads_applied,
               "generation " + std::to_string(p.generation) + ", " +
                   std::to_string(s.reloads_applied) + " reloads applied");
  result.check(tag + ".reload_replies_equal_daemon_counts",
               s.reloads_applied == p.reloads_ok &&
                   s.reloads_failed == p.reloads_failed &&
                   p.reloads_failed == 0,
               "client ok/failed " + std::to_string(p.reloads_ok) + "/" +
                   std::to_string(p.reloads_failed) + ", daemon " +
                   std::to_string(s.reloads_applied) + "/" +
                   std::to_string(s.reloads_failed) + " " + p.reload_error);
  result.check(tag + ".reloads_and_faults_ran",
               p.reloads_ok >= 2 && p.transitions > 0,
               std::to_string(p.reloads_ok) + " reloads, " +
                   std::to_string(p.transitions) + " fault transitions");
}

/// The untraced phase's numbers: the end-to-end metrics and the counts.
void report_phase(const Phase& p, bool churn, Result& result) {
  const Tally& t = p.tally;
  set_median(result, "run_s", p.block_s, "s");
  result.set("redirectd.redirects_per_s", p.rate(), "1/s", p.closed_requests);
  const std::uint64_t served = t.replica + t.origin;
  result.set("mean_latency_ms",
             served > 0 ? t.model_ms / static_cast<double>(served) : 0.0, "ms",
             served);
  const std::uint64_t attempted = t.sent + p.reloads_sent;
  const std::uint64_t failed = t.failed() + p.reloads_failed;
  result.set("redirectd.fail_frac",
             attempted > 0 ? static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                           : 0.0,
             "ratio", attempted);
  result.set("net.loop_busy_frac", p.loop_busy, "ratio", 1);
  if (!churn) {
    result.set("net.redirect_p50_ms", quantile(p.open_ms, 0.5), "ms",
               p.open_ms.size());
    if (tail_resolved(p.open_ms.size(), 0.99)) {
      result.set("net.redirect_p99_ms", quantile(p.open_ms, 0.99), "ms",
                 p.open_ms.size());
    }
    if (tail_resolved(p.late_ms.size(), 0.99)) {
      result.set("load.late_p99_ms", quantile(p.late_ms, 0.99), "ms",
                 p.late_ms.size());
    }
  } else {
    result.set("redirectd.reload_p50_ms", quantile(p.reload_ms, 0.5), "ms",
               p.reload_ms.size());
    result.set("redirectd.reloads_applied",
               static_cast<double>(p.stats.reloads_applied), "count");
    result.set("redirectd.reloads_failed",
               static_cast<double>(p.stats.reloads_failed), "count");
    result.set("redirectd.generation", static_cast<double>(p.generation),
               "count");
    result.set("fault.transitions", static_cast<double>(p.transitions),
               "count");
  }
  const redirectd::RedirectorDaemon::Stats& s = p.stats;
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"redirectd.replica", s.replica_answers},
      {"redirectd.origin", s.origin_answers},
      {"redirectd.no_live_copy", s.unavailable_no_live_copy},
      {"redirectd.shed", s.unavailable_shed},
      {"redirectd.deadline", s.unavailable_deadline},
      {"redirectd.parse_errors", s.parse_errors},
      {"redirectd.slow_reader_closes", s.slow_reader_closes}};
  for (const auto& [name, value] : counts) {
    result.set(name, static_cast<double>(value), "count");
  }
}

}  // namespace

void run_redirect(const Args& args, bool churn, Result& result) {
  std::optional<obs::SpanTracer> tracer;
  if (args.trace) tracer.emplace(kTraceEvents);
  obs::SpanTracer* const bench_spans = tracer ? &*tracer : nullptr;

  Env env;
  env.plan_paths = {args.out_dir + "/plan_replication.txt",
                    args.out_dir + "/plan_hybrid.txt"};
  Served served;
  std::vector<double> setup_s, scenario_s, plan_s;
  const auto setup_start = Clock::now();
  for (int k = 0; k < kSetups || seconds_since(setup_start) < kSetupSeconds;
       ++k) {
    const SetupTimes t = setup_once(args, churn, nullptr, env, served);
    setup_s.push_back(t.total_s);
    scenario_s.push_back(t.scenario_s);
    plan_s.push_back(t.plan_s);
  }
  set_median(result, "setup_s", setup_s, "s");
  set_median(result, "plan_s", plan_s, "s");
  set_median(result, "core.scenario_s", scenario_s, "s");

  RequestPool pool = make_pool(*env.scenario, args.seed);
  const double rank_ns =
      rank_pool(pool, *env.hybrid, redirectd::DaemonConfig{}.top_k, bench_spans);
  AnswerCheck check;
  check.pool = &pool;
  if (churn) {
    const std::size_t n = env.scenario->system().server_count();
    check.sites = env.scenario->system().site_count();
    check.holds.assign(n * check.sites, 0);
    for (sys::ServerIndex i = 0; i < n; ++i) {
      for (sys::SiteIndex j = 0; j < check.sites; ++j) {
        check.holds[i * check.sites + j] =
            env.hybrid->placement.is_replicated(i, j) ||
            env.replication->placement.is_replicated(i, j);
      }
    }
  }

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Window window;
  window.open_s = churn ? 0.0 : untraced_s * kOpenShare;
  window.closed_s = untraced_s - window.open_s;
  const Phase main =
      run_phase(env, served, pool, check, args, churn, window, nullptr);
  report_phase(main, churn, result);
  check_phase(main, churn, "untraced", result);
  result.attempted = main.tally.sent + main.reloads_sent;
  result.failed = main.tally.failed() + main.reloads_failed;
  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  if (args.trace) {
    served = Served{};
    obs::Registry metrics;
    Served traced_served = make_served(env, args, churn, &metrics, &*tracer);
    Window traced_window;
    traced_window.open_s = churn ? 0.0 : kTracedOpenSeconds;
    traced_window.min_blocks = kTracedBlocks;
    const Phase traced = run_phase(env, traced_served, pool, check, args, churn,
                                   traced_window, &*tracer);
    check_phase(traced, churn, "traced", result);
    result.attempted += traced.tally.sent + traced.reloads_sent;
    result.failed += traced.tally.failed() + traced.reloads_failed;

    result.set("cdn.rank_ns", rank_ns, "ns", pool.requests.size());
    const auto [parse_ns, format_ns] = codec_cost(pool, &*tracer);
    result.set("redirectd.parse_ns", parse_ns, "ns", pool.lines.size());
    result.set("redirectd.format_ns", format_ns, "ns", pool.lines.size());
    const obs::TimerStat* answer = metrics.find_timer("redirect/answer_latency");
    const std::uint64_t answers = answer != nullptr ? answer->count() : 0;
    const double server_us =
        answers > 0 ? static_cast<double>(answer->total_ns()) * 1e-3 /
                          static_cast<double>(answers)
                    : 0.0;
    result.set("redirectd.answer_mean_us", server_us, "us", answers);
    // Client-side mean from the actual send: the open loop's (steady), the
    // closed loop's (churn, which includes pipelining).
    const double client_us =
        churn ? traced.closed_client_us : mean(traced.open_wire_us);
    result.set("net.wire_mean_us", client_us - server_us, "us", answers);
    result.set("obs.trace_overhead_pct",
               (main.rate() / traced.rate() - 1.0) * 100.0, "%",
               traced.block_s.size());
    finish_trace(*tracer, args,
                 static_cast<double>(traced.tally.sent) / kBlock, result);
  }
}

}  // namespace perfbench
