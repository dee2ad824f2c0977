// perfbench: the repository benchmark.
//
//   perfbench --workload <mixed_uniform|summarize_hot|reload_under_load>
//             --seed N --seconds S --trace <0|1> --server <stmaker_cli>
//             --workdir <dir>
//
// Builds the seeded bench world and its `.stm` model (three times, to time
// set-up), serves it with the shipped `stmaker_cli serve --port 0`, drives
// it with the single-threaded open-loop generator, checks every answer
// against a direct in-process call on the same model, and prints one JSON
// result object as the last line of stdout.
//
// --trace 0 measures the end-to-end metrics (set-up time, cold start, the
// knee of the p99-vs-rate curve, CPU per request and ok share at the
// nominal rate, peak RSS, reload round trip). --trace 1 measures the per-layer
// metrics: it re-serves the model in this process behind a timing wrapper
// on the TcpServer handler seam, reads deltas of the server's own `stats`
// counters and histograms, and times direct calls into each module.

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "common/metrics.h"
#include "core/feature.h"
#include "core/model_manager.h"
#include "io/container.h"
#include "io/trajectory_io.h"
#include "loadgen.h"
#include "net/ndjson_service.h"
#include "net/server.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double MsSince(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

constexpr double kSloMs = 25;        // knee criterion: p99 within 25 ms
// The generator fell behind when it lags its schedule persistently: a
// median send lag above a quarter of a millisecond (p50 latencies are
// ~0.5 ms), or a p99 lag above 100 ms. Brief stalls of the whole host also
// delay some sends by a few ms; they hold up the server alike and the
// open-loop latency already charges them, so they do not void a phase.
constexpr double kMaxLateP50Ms = 0.25;
constexpr double kMaxLateP99Ms = 100;
// A knee probe hit by a host stall (send lag p99 above 5 ms) says nothing
// about the server's capacity: it is repeated, up to kProbeAttempts times.
constexpr double kProbeMaxLateP99Ms = 5;
constexpr int kProbeAttempts = 3;
constexpr int kPhaseAttempts = 3;    // tries of a phase the generator fell behind in
constexpr int kSetups = 3;           // set-up repeats (setup_s is the median)
constexpr int kReloadRepeats = 5;    // part-by-part reload timings (trace 1)
// The measured part of a --trace 0 run is kRounds rounds of: knee probe,
// nominal segment, knee probe, side check (a second server started cold
// and reloaded once). The host's speed drifts over tens of seconds, so
// every metric is sampled across the whole run and reported as a median.
constexpr int kRounds = 12;
constexpr int kKneeProbes = 2 * kRounds;
constexpr double kSideCheckS = 0.9;  // expected wall time of one side check
// Admission bound of the server under test. The serve default (64) holds
// only ~15 ms of queued work on two workers, so a brief host stall sheds
// long before the 25 ms SLO binds; 256 (~50 ms) lets the SLO decide the knee.
constexpr long kMaxInflight = 256;
constexpr double kBacklogSlackS = 0.005;  // arrivals a hiccup may leave queued

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
  std::string server;
  std::string workdir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--server") a->server = v;
    else if (k == "--workdir") a->workdir = v;
    else return false;
  }
  return !a->workload.empty() && !a->server.empty() && !a->workdir.empty() &&
         a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

// --- host fingerprint --------------------------------------------------------

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

struct Fingerprint {
  int nproc = 0;
  std::string cpu_model;
  uint64_t flags_digest = 0;
};

Fingerprint HostFingerprint() {
  Fingerprint f;
  f.nproc = UsableCpus();
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    auto value = [&] {
      size_t colon = line.find(':');
      return colon == std::string::npos ? std::string() : line.substr(colon + 2);
    };
    if (f.cpu_model.empty() && line.rfind("model name", 0) == 0) f.cpu_model = value();
    if (f.flags_digest == 0 && line.rfind("flags", 0) == 0) f.flags_digest = Fnv1a(value());
  }
  return f;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// --- the shipped server as a child process -----------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts `stmaker_cli serve --port 0` over the world in `dir` and waits
  /// until it answers a stats probe. `coldstart_ms`: exec to first ok. The
  /// server's stderr goes to `dir`/`log_name`.
  bool Start(const std::string& binary, const std::string& dir, int workers,
             double* coldstart_ms, std::string* error,
             const std::string& log_name = "server.log") {
    log_ = dir + "/" + log_name;
    ::unlink(log_.c_str());  // never read a previous server's port
    port_ = 0;
    const Clock::time_point t0 = Clock::now();
    pid_ = ::fork();
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      std::FILE* log = std::freopen(log_.c_str(), "w", stderr);
      (void)log;
      std::string threads = std::to_string(workers);
      std::string model = dir + "/model.stm";
      ::execl(binary.c_str(), binary.c_str(), "serve", "--dir", dir.c_str(),
              "--model", model.c_str(), "--port", "0", "--threads",
              threads.c_str(), "--listen_threads", "1", "--max_inflight",
              std::to_string(kMaxInflight).c_str(),
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    // The bound port is announced on stderr once the model is loaded.
    while (SecondsSince(t0) < 60) {
      std::ifstream in(log_);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      size_t at = text.find("listening on 127.0.0.1:");
      if (at != std::string::npos &&
          text.find('\n', at) != std::string::npos) {
        port_ = static_cast<uint16_t>(
            std::atoi(text.c_str() + at + std::strlen("listening on 127.0.0.1:")));
        break;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "server exited during start-up: " + text;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (port_ == 0) {
      *error = "server did not announce its port";
      return false;
    }
    LoadClient probe;
    if (!probe.Connect(port_, 1, error)) return false;
    std::string answer = probe.Call("\"stats\": 1", 10);
    if (answer.find("\"status\": \"ok\"") == std::string::npos) {
      *error = "server failed its first stats probe";
      return false;
    }
    *coldstart_ms = MsSince(t0);
    return true;
  }

  /// SIGTERM (graceful drain), then SIGKILL if it lingers; always reaped.
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (SecondsSince(t0) > 10) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

  uint16_t port() const { return port_; }

  /// user + system CPU of the whole process, in ms.
  double CpuMs() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t paren = text.rfind(')');
    if (paren == std::string::npos) return 0;
    std::istringstream fields(text.substr(paren + 2));
    std::string field;
    double utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state).
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i == 14) utime = std::atof(field.c_str());
      if (i == 15) stime = std::atof(field.c_str());
    }
    return (utime + stime) * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Peak resident set (VmHWM), in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  std::string log_;
};

// --- the same service composed in this process, with a timing wrapper --------

/// stmaker_cli's TCP serving stack (ModelManager -> NdjsonService ->
/// TcpServer), built from the library's public types, with the handler
/// seam wrapped to time each request from line arrival to response.
class TracedServer {
 public:
  struct Span {
    long id;
    double ms;
    size_t bytes;
  };

  bool Start(const std::string& dir, int workers, std::string* error) {
    stmaker::ModelManagerOptions mopts;
    mopts.data_dir = dir;
    mopts.model_prefix = dir + "/model.stm";
    mopts.maker.num_threads = workers;
    manager_ = std::make_unique<stmaker::ModelManager>(mopts);
    if (stmaker::Status st = manager_->Initialize(); !st.ok()) {
      *error = "traced server: " + st.ToString();
      return false;
    }
    stmaker::net::NdjsonServiceOptions sopts;
    sopts.threads = workers;
    sopts.max_inflight = kMaxInflight;
    service_ = std::make_unique<stmaker::net::NdjsonService>(manager_.get(), sopts);
    stmaker::net::TcpServerOptions topts;
    topts.num_loops = 1;
    server_ = std::make_unique<stmaker::net::TcpServer>(
        topts, [this](std::string line,
                      const stmaker::net::TcpServer::ResponseFn& respond) {
          const Clock::time_point t0 = Clock::now();
          long id = -1;
          ResponseId(line, &id);
          service_->HandleLine(line, [this, respond, t0, id](std::string out) {
            const double ms = MsSince(t0);
            {
              std::lock_guard<std::mutex> lock(spans_mu_);
              spans_.push_back(Span{id, ms, out.size()});
            }
            respond(std::move(out));
          });
        });
    if (stmaker::Status st = server_->Start(); !st.ok()) {
      *error = "traced server: " + st.ToString();
      return false;
    }
    return true;
  }

  ~TracedServer() { Stop(); }

  void Stop() {
    if (server_ != nullptr) {
      server_->SignalShutdown();
      (void)server_->Wait();
      manager_->WaitIdle();
      service_->Drain();
      server_.reset();
      service_.reset();
      manager_.reset();
    }
  }

  uint16_t port() const { return server_->port(); }

  std::map<long, Span> TakeSpans() {
    std::lock_guard<std::mutex> lock(spans_mu_);
    std::map<long, Span> out;
    for (const Span& s : spans_) out[s.id] = s;
    spans_.clear();
    return out;
  }

 private:
  std::unique_ptr<stmaker::ModelManager> manager_;
  std::unique_ptr<stmaker::net::NdjsonService> service_;
  std::mutex spans_mu_;
  std::vector<Span> spans_;
  std::unique_ptr<stmaker::net::TcpServer> server_;
};

// --- result bookkeeping --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Every request the generator sent that needs an answer check.
struct CheckItem {
  RequestKey key;
  const std::string* response;
};

/// Latency and correctness summary of one phase.
struct PhaseSummary {
  size_t sent = 0, ok = 0, shed = 0, failed = 0, unanswered = 0;
  std::vector<double> ok_latency_ms;  ///< from scheduled send time
  std::vector<double> late_ms;        ///< send lag behind the schedule
  std::vector<std::vector<double>> verb_ms = std::vector<std::vector<double>>(kNumVerbs);
  size_t misses() const { return shed + failed + unanswered; }
  double P(double q) const { return PercentileWithMisses(ok_latency_ms, misses(), q); }
  void Add(const PhaseSummary& o) {
    sent += o.sent;
    ok += o.ok;
    shed += o.shed;
    failed += o.failed;
    unanswered += o.unanswered;
    ok_latency_ms.insert(ok_latency_ms.end(), o.ok_latency_ms.begin(), o.ok_latency_ms.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    for (int v = 0; v < kNumVerbs; ++v) {
      verb_ms[v].insert(verb_ms[v].end(), o.verb_ms[v].begin(), o.verb_ms[v].end());
    }
  }
  double Late(double q) const { return late_ms.empty() ? 0 : PercentileWithMisses(late_ms, 0, q); }
  double LateP99() const { return Late(0.99); }
};

std::string StatusOf(const std::string& response) {
  static const char kKey[] = "\"status\": \"";
  size_t at = response.find(kKey);
  if (at == std::string::npos) return "";
  at += sizeof(kKey) - 1;
  size_t end = response.find('"', at);
  return end == std::string::npos ? "" : response.substr(at, end - at);
}

PhaseSummary Summarize(const Stream& stream, const PhaseResult& r,
                       std::vector<CheckItem>* checks) {
  PhaseSummary s;
  s.sent = stream.requests.size();
  for (size_t i = 0; i < s.sent; ++i) {
    const double due = stream.requests[i].due_s;
    if (!std::isnan(r.sent_s[i])) s.late_ms.push_back((r.sent_s[i] - due) * 1e3);
    if (std::isinf(r.done_s[i])) {
      ++s.unanswered;
      continue;
    }
    const std::string status = StatusOf(r.responses[i]);
    const double ms = (r.done_s[i] - due) * 1e3;
    if (status == "ok") {
      ++s.ok;
      s.ok_latency_ms.push_back(ms);
      s.verb_ms[static_cast<int>(stream.keys[i].verb)].push_back(ms);
      if (checks != nullptr) checks->push_back(CheckItem{stream.keys[i], &r.responses[i]});
    } else if (status == "resource_exhausted") {
      ++s.shed;
    } else {
      ++s.failed;
      std::fprintf(stderr, "perfbench: %s %u answered: %s\n",
                   VerbName(stream.keys[i].verb), stream.keys[i].index,
                   r.responses[i].substr(0, 200).c_str());
    }
  }
  return s;
}

std::vector<double> AdminRoundTripsMs(const PhaseResult& r, size_t* failures) {
  std::vector<double> out;
  for (size_t i = 0; i < r.admin_responses.size(); ++i) {
    if (StatusOf(r.admin_responses[i]) != "ok") {
      ++*failures;
      continue;
    }
    out.push_back((r.admin_done_s[i] - r.admin_sent_s[i]) * 1e3);
  }
  return out;
}

double Finite(double v) { return std::isfinite(v) ? v : 1e9; }

class Bench {
 public:
  explicit Bench(const Args& args) : args_(args) {}

  int Run();

 private:
  bool Setup();
  bool LoadOracle();
  void RunEndToEnd();
  void RunTraced();
  bool CheckAnswers();
  void Emit(bool correct);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  std::vector<ScheduledRequest> ReloadSchedule(double duration_s) const;
  PhaseSummary Measure(LoadClient* client, uint64_t stream_id, double qps,
                       double duration_s, bool with_reloads,
                       std::vector<double>* reload_ms,
                       PhaseResult** kept = nullptr, Stream** kept_stream = nullptr);
  /// Runs a scored phase. A phase in which the generator fell behind its
  /// schedule (a host stall) is invalid and is run again; after
  /// kPhaseAttempts invalid attempts the run is reported invalid.
  template <typename RunPhase>
  PhaseSummary Scored(RunPhase run_phase) {
    for (int attempt = 1;; ++attempt) {
      PhaseSummary p = run_phase();
      if (p.Late(0.5) <= kMaxLateP50Ms && p.LateP99() <= kMaxLateP99Ms) return p;
      notes_.push_back("phase attempt " + std::to_string(attempt) +
                       " invalid: generator late p50 " + std::to_string(p.Late(0.5)) +
                       " ms, p99 " + std::to_string(p.LateP99()) + " ms");
      if (attempt == kPhaseAttempts) {
        generator_valid_ = false;
        Fail("generator fell behind its schedule in every attempt: run invalid");
        return p;
      }
      // Host stalls come in spells; let this one pass.
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
  bool Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    errors_.push_back(why);
    return false;
  }

  Args args_;
  Fingerprint host_;
  int nproc_ = 1;
  int workers_ = 1;
  std::string world_;
  ServerProcess server_;
  uint64_t input_digest_ = 0;
  std::shared_ptr<const stmaker::ModelSnapshot> oracle_model_;
  std::unique_ptr<stmaker::ModelManager> oracle_manager_;
  Workload workload_;
  std::unique_ptr<Oracle> oracle_;

  // Everything sent, kept alive for the answer check.
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<std::unique_ptr<PhaseResult>> results_;
  std::vector<CheckItem> checks_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t wrong_ = 0;
  bool generator_valid_ = true;
  std::vector<std::string> errors_;
  std::vector<std::string> notes_;
  std::vector<Metric> metrics_;
  std::vector<double> coldstart_ms_;  ///< set-ups, then side checks
  std::string knee_trace_;
};

bool Bench::Setup() {
  world_ = args_.workdir + "/world";
  ::mkdir(args_.workdir.c_str(), 0755);
  ::mkdir(world_.c_str(), 0755);
  std::vector<double> setup_s;
  std::vector<double> ingest_s, hierarchy_s, save_s;
  uint64_t first_digest = 0;
  for (int i = 0; i < kSetups; ++i) {
    server_.Stop();
    const Clock::time_point t0 = Clock::now();
    BuildTimes times;
    uint64_t digest = 1469598103934665603ULL;
    std::string error;
    if (!BuildWorld(args_.seed, nproc_, world_, &times, &digest, &error)) {
      return Fail(error);
    }
    double cold = 0;
    if (!server_.Start(args_.server, world_, workers_, &cold, &error)) {
      return Fail(error);
    }
    setup_s.push_back(SecondsSince(t0));
    coldstart_ms_.push_back(cold);
    ingest_s.push_back(times.ingest_s);
    hierarchy_s.push_back(times.hierarchy_s);
    save_s.push_back(times.save_s);
    if (i == 0) first_digest = digest;
    if (digest != first_digest) {
      return Fail("set-up is not deterministic: the world or model differs "
                  "between two builds of the same seed");
    }
    std::fprintf(stderr,
                 "perfbench: setup %d: %.2f s (generate %.2f, write %.2f, "
                 "train %.2f, hierarchy %.2f, save %.2f, coldstart %.0f ms)\n",
                 i + 1, setup_s.back(), times.generate_s, times.write_s,
                 times.ingest_s, times.hierarchy_s, times.save_s, cold);
  }
  input_digest_ = first_digest;
  if (args_.trace == 0) {
    Add("setup_s", Median(setup_s), "s");
  } else {
    Add("train.ingest_s", Median(ingest_s), "s");
    Add("train.hierarchy_s", Median(hierarchy_s), "s");
    Add("train.write_s", Median(save_s), "s");
  }
  return true;
}

bool Bench::LoadOracle() {
  stmaker::ModelManagerOptions mopts;
  mopts.data_dir = world_;
  mopts.model_prefix = world_ + "/model.stm";
  mopts.maker.num_threads = workers_;
  oracle_manager_ = std::make_unique<stmaker::ModelManager>(mopts);
  if (stmaker::Status st = oracle_manager_->Initialize(); !st.ok()) {
    return Fail("loading the model in-process: " + st.ToString());
  }
  oracle_model_ = oracle_manager_->Current();
  if (!MakeWorkload(args_.workload, args_.seed, *oracle_model_, &workload_)) {
    return Fail("unknown workload '" + args_.workload + "'");
  }
  oracle_ = std::make_unique<Oracle>(oracle_model_, &workload_);
  // The request streams are part of the inputs.
  for (const QueryArgs& q : workload_.queries) input_digest_ = Fnv1a(q.bbox + q.window, input_digest_);
  for (const RouteArgs& r : workload_.routes) input_digest_ = Fnv1a(&r, sizeof(r), input_digest_);
  for (uint32_t t : workload_.trips) input_digest_ = Fnv1a(&t, sizeof(t), input_digest_);
  return true;
}

std::vector<ScheduledRequest> Bench::ReloadSchedule(double duration_s) const {
  std::vector<ScheduledRequest> admin;
  if (workload_.reload_every_s <= 0) return admin;
  // The first swap comes early so a short segment sees the requests after
  // it, which run on emptied caches.
  for (double t = 0.1; t < duration_s; t += workload_.reload_every_s) {
    admin.push_back(ScheduledRequest{t, "\"reload\": 1"});
  }
  return admin;
}

PhaseSummary Bench::Measure(LoadClient* client, uint64_t stream_id, double qps,
                            double duration_s, bool with_reloads,
                            std::vector<double>* reload_ms, PhaseResult** kept,
                            Stream** kept_stream) {
  streams_.push_back(std::make_unique<Stream>(
      MakeStream(workload_, args_.seed, stream_id, qps, duration_s)));
  Stream& stream = *streams_.back();
  std::vector<ScheduledRequest> admin;
  if (with_reloads) admin = ReloadSchedule(duration_s);
  results_.push_back(std::make_unique<PhaseResult>(
      client->Run(stream.requests, admin, /*grace_s=*/2.0)));
  PhaseResult& r = *results_.back();
  if (kept != nullptr) *kept = &r;
  if (kept_stream != nullptr) *kept_stream = &stream;
  if (reload_ms != nullptr) {
    size_t failures = 0;
    std::vector<double> rt = AdminRoundTripsMs(r, &failures);
    reload_ms->insert(reload_ms->end(), rt.begin(), rt.end());
    failed_ += failures;
    attempted_ += admin.size();
  }
  return Summarize(stream, r, &checks_);
}

void Bench::RunEndToEnd() {
  LoadClient client;
  std::string error;
  if (!client.Connect(server_.port(), 2, &error)) {
    Fail(error);
    return;
  }
  const double warm_s = 1.0;
  const bool reloads = workload_.reload_every_s > 0;
  // A round holds two knee probes of this length, a nominal segment of half
  // of it (CPU per request needs less time to settle than a p99), the
  // probes' quiet gaps and a side check.
  const double slice_s =
      std::max(0.3, ((args_.seconds - warm_s) / kRounds - 0.2 - kSideCheckS) / 2.5);

  // Reload round trips: under load where the workload reloads, otherwise
  // on the idle side server of each side check.
  std::vector<double> reload_ms;

  // Warm-up fills caches and lazy state; its answers are still checked.
  Measure(&client, 1, workload_.nominal_qps, warm_s, false, nullptr);

  // CPU per request is the median over the nominal segments.
  PhaseSummary nominal;
  std::vector<double> segment_p50, segment_cpu;
  auto nominal_segment = [&] {
    std::vector<double> segment_reloads;
    double cpu_ms = 0;
    PhaseSummary p = Scored([&] {
      segment_reloads.clear();
      const double cpu0 = server_.CpuMs();
      PhaseSummary attempt =
          Measure(&client, 2 + segment_p50.size(), workload_.nominal_qps, slice_s / 2,
                  reloads, reloads ? &segment_reloads : nullptr);
      cpu_ms = server_.CpuMs() - cpu0;
      return attempt;
    });
    segment_p50.push_back(Finite(p.P(0.5)));
    segment_cpu.push_back(p.ok > 0 ? cpu_ms / static_cast<double>(p.ok) : 0);
    reload_ms.insert(reload_ms.end(), segment_reloads.begin(), segment_reloads.end());
    nominal.Add(p);
  };
  // Side check: a second server over the same files is started cold and,
  // on workloads without reloads under load, reloaded once while idle.
  // It leaves the measured server (and its peak RSS) alone.
  auto side_check = [&] {
    ServerProcess side;
    double cold = 0;
    std::string why;
    if (!side.Start(args_.server, world_, workers_, &cold, &why, "side_server.log")) {
      Fail(why);
      return;
    }
    coldstart_ms_.push_back(cold);
    if (reloads) return;
    LoadClient admin;
    if (!admin.Connect(side.port(), 1, &why)) {
      Fail(why);
      return;
    }
    ++attempted_;
    const Clock::time_point t0 = Clock::now();
    const std::string answer = admin.Call("\"reload\": 1", 30);
    if (StatusOf(answer) != "ok") {
      ++failed_;
      Fail("an idle reload failed: " + answer.substr(0, 200));
      return;
    }
    reload_ms.push_back(MsSince(t0));
  };

  // Knee: highest grid rate whose probe meets the SLO.
  RateGrid grid;
  uint64_t probe_stream = 100;
  int probes_done = 0;
  std::ostringstream trace;
  KneeResult knee = FindKnee(
      grid,
      [&](double rate) {
        PhaseResult* r = nullptr;
        Stream* s = nullptr;
        PhaseSummary p;
        for (int attempt = 1; attempt <= kProbeAttempts; ++attempt) {
          p = Measure(&client, probe_stream++, rate, slice_s, false, nullptr, &r, &s);
          if (p.LateP99() <= kProbeMaxLateP99Ms) break;
          trace << (trace.tellp() > 0 ? ", " : "") << "[" << rate << ", \"stalled\", "
                << p.LateP99() << ", " << p.shed << "]";
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
        ProbeOutcome o;
        o.sent = p.sent;
        o.ok = p.ok;
        o.shed = p.shed;
        o.failed = p.failed;
        o.unanswered = p.unanswered;
        o.p99_ms = p.P(0.99);
        std::vector<double> due;
        for (const ScheduledRequest& q : s->requests) due.push_back(q.due_s);
        o.backlog_growing = BacklogGrowing(due, r->done_s, kBacklogSlackS);
        // Anything but ok or shed is a failure even while probing.
        failed_ += p.failed;
        attempted_ += p.sent;
        trace << (trace.tellp() > 0 ? ", " : "") << "[" << rate << ", "
              << (ProbePasses(o, kSloMs) ? "true" : "false") << ", "
              << Finite(o.p99_ms) << ", " << o.shed << "]";
        // Quiet gap so one probe's backlog never leaks into what follows.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (++probes_done % 2 == 1) {
          nominal_segment();
        } else {
          side_check();
        }
        return o;
      },
      kSloMs, kKneeProbes);
  knee_trace_ = trace.str();
  attempted_ += nominal.sent;
  failed_ += nominal.misses();
  const double late_p99 = nominal.LateP99();
  const double rss_mb = server_.PeakRssMb();
  if (!client.healthy()) Fail("a client connection broke");

  // Latency at the nominal rate follows the shared host's load: across ten
  // seeds its p50 spread by 27-51% of the median and its p99 by 2-3x, past
  // any usable bound. It is therefore not scored; p99 is the knee's
  // criterion, and the nominal percentiles stay in the record.
  notes_.push_back("nominal latency: p50 " + std::to_string(Median(segment_p50)) +
                   " ms (median of segments), p90 " + std::to_string(Finite(nominal.P(0.90))) +
                   " ms, p99 " + std::to_string(Finite(nominal.P(0.99))) + " ms");
  Add("coldstart_ms", Median(coldstart_ms_), "ms");
  Add("knee_qps", knee.rate, "1/s");
  Add("cpu_ms_per_req", Median(segment_cpu), "ms");
  Add("ok_rate", nominal.sent > 0 ? static_cast<double>(nominal.ok) / nominal.sent : 0, "ratio");
  Add("rss_mb", rss_mb, "MiB");
  Add("reload_ms", reload_ms.empty() ? 0 : Median(reload_ms), "ms");
  std::fprintf(stderr,
               "perfbench: nominal %.0f qps x %.1f s: sent %zu ok %zu shed %zu "
               "failed %zu unanswered %zu; late p99 %.3f ms; knee %.0f qps\n",
               workload_.nominal_qps, slice_s / 2 * kRounds, nominal.sent, nominal.ok,
               nominal.shed, nominal.failed, nominal.unanswered, late_p99,
               knee.rate);
}

void Bench::RunTraced() {
  const double warm_s = 1.0;
  const double phase_s = std::max(1.0, (args_.seconds - 2 * warm_s) / 2);
  const bool reloads = workload_.reload_every_s > 0;
  // 1. Untraced reference on the shipped server, same stream as the traced
  //    phase: the per-verb latencies and the baseline of trace.overhead_frac.
  PhaseSummary untraced;
  {
    LoadClient client;
    std::string error;
    if (!client.Connect(server_.port(), 2, &error)) {
      Fail(error);
      return;
    }
    Measure(&client, 1, workload_.nominal_qps, warm_s, false, nullptr);
    std::vector<double> unused;
    untraced = Scored([&] {
      return Measure(&client, 2, workload_.nominal_qps, phase_s, reloads,
                     reloads ? &unused : nullptr);
    });
    attempted_ += untraced.sent;
    failed_ += untraced.misses();
  }
  server_.Stop();

  // 2. Traced phase: the same serving stack in this process.
  TracedServer traced;
  std::string error;
  if (!traced.Start(world_, workers_, &error)) {
    Fail(error);
    return;
  }
  LoadClient client;
  if (!client.Connect(traced.port(), 2, &error)) {
    Fail(error);
    return;
  }
  Measure(&client, 1, workload_.nominal_qps, warm_s, false, nullptr);
  StatsSnapshot before, after;
  if (!ParseStatsResponse(client.Call("\"stats\": 1", 10), &before)) {
    Fail("stats probe failed before the traced phase");
    return;
  }
  traced.TakeSpans();
  std::vector<double> reload_ms;
  PhaseResult* r = nullptr;
  Stream* s = nullptr;
  PhaseSummary phase = Scored([&] {
    reload_ms.clear();
    traced.TakeSpans();
    return Measure(&client, 2, workload_.nominal_qps, phase_s, reloads,
                   reloads ? &reload_ms : nullptr, &r, &s);
  });
  attempted_ += phase.sent;
  failed_ += phase.misses();
  if (!ParseStatsResponse(client.Call("\"stats\": 1", 10), &after)) {
    Fail("stats probe failed after the traced phase");
    return;
  }
  std::map<long, TracedServer::Span> spans = traced.TakeSpans();
  traced.Stop();
  StatsDelta d(before, after);
  if (!d.consistent()) Fail("stats counters went backwards within one process");

  // Per-request handler spans joined with the generator's latencies.
  std::vector<double> span_ms, residual_ms;
  std::vector<std::vector<double>> verb_span(kNumVerbs);
  double resp_bytes = 0;
  std::vector<double> post_swap_ms;
  for (size_t i = 0; i < s->requests.size(); ++i) {
    auto it = spans.find(r->first_id + static_cast<long>(i));
    if (it == spans.end() || std::isinf(r->done_s[i])) continue;
    const double gen_ms = (r->done_s[i] - s->requests[i].due_s) * 1e3;
    span_ms.push_back(it->second.ms);
    residual_ms.push_back(gen_ms - it->second.ms);
    verb_span[static_cast<int>(s->keys[i].verb)].push_back(it->second.ms);
    resp_bytes += static_cast<double>(it->second.bytes);
    for (size_t a = 0; a < r->admin_done_s.size(); ++a) {
      const double swap = r->admin_done_s[a];
      if (s->requests[i].due_s >= swap && s->requests[i].due_s < swap + 0.2) {
        post_swap_ms.push_back(gen_ms);
      }
    }
  }
  const double queue_ms = d.HistMean("threadpool.queue_wait_ms");
  const double stage_total = d.HistMean("stmaker.stage.total_ms");

  // 3. Direct calls into each module, on the in-process model (the traced
  //    server is gone; nothing else runs).
  const stmaker::ModelSnapshot& m = *oracle_model_;
  std::vector<std::vector<double>> direct(kNumVerbs);
  std::vector<double> similar_candidates, query_candidates, query_precision;
  const size_t kDirect = 200;
  {
    size_t counts[kNumVerbs] = {0, 0, 0, 0};
    for (const RequestKey& key : s->keys) {
      const int v = static_cast<int>(key.verb);
      if (counts[v]++ >= kDirect) continue;
      direct[v].push_back(TimeDirectCall(m, workload_, key));
    }
    // Verbs the workload does not send are timed on its pools too, so
    // every per-layer metric exists on every workload.
    std::mt19937_64 rng(args_.seed);
    for (int v = 1; v < kNumVerbs; ++v) {
      while (direct[v].size() < kDirect / 2) {
        RequestKey key{static_cast<Verb>(v), 0};
        key.index = v == static_cast<int>(Verb::kSimilar)
                        ? workload_.trips[rng() % workload_.trips.size()]
                        : static_cast<uint32_t>(rng() % (v == static_cast<int>(Verb::kQuery)
                                                             ? workload_.queries.size()
                                                             : workload_.routes.size()));
        direct[v].push_back(TimeDirectCall(m, workload_, key));
      }
    }
    const stmaker::TrajectoryIndex* index = m.maker->trip_index();
    for (size_t i = 0; i < kDirect && index != nullptr; ++i) {
      uint32_t trip = workload_.trips[i % workload_.trips.size()];
      similar_candidates.push_back(static_cast<double>(
          index->SimilarCandidates(index->descriptors()[trip]).size()));
      const QueryArgs& q = workload_.queries[i % workload_.queries.size()];
      stmaker::BoundingBox box;
      box.Extend({q.x0, q.y0});
      box.Extend({q.x1, q.y1});
      auto cands = index->RegionCandidates(box, true, q.t0, q.t1, nullptr);
      auto hits = m.maker->QueryRegion(m.trajectories, box, std::make_pair(q.t0, q.t1));
      if (cands.ok() && hits.ok()) {
        query_candidates.push_back(static_cast<double>(cands->size()));
        if (!cands->empty()) {
          query_precision.push_back(static_cast<double>(hits->size()) /
                                    static_cast<double>(cands->size()));
        }
      }
    }
  }
  for (auto& times : direct) {
    if (std::any_of(times.begin(), times.end(), [](double t) { return t < 0; })) {
      Fail("a direct call failed");
    }
  }
  // Calibration without its cache: a second maker over the same world.
  std::vector<double> uncached_ms;
  {
    stmaker::STMakerOptions opts;
    opts.calibration.cache_size = 0;
    stmaker::STMaker uncached(&m.network, m.landmarks.get(),
                              stmaker::FeatureRegistry::BuiltIn(), opts);
    if (!uncached.LoadModelContainer(*m.container).ok()) {
      Fail("loading the uncached calibrator");
    }
    for (size_t i = 0; i < 100; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto cal = uncached.Calibrate(m.trajectories[workload_.trips[i % workload_.trips.size()]]);
      uncached_ms.push_back(MsSince(t0));
      (void)cal;
    }
  }
  // Request parsing, timed over the traced phase's own lines.
  double parse_us = 0;
  {
    std::vector<std::string> lines;
    for (size_t i = 0; i < s->requests.size() && i < 2000; ++i) {
      lines.push_back("{\"id\": " + std::to_string(i) + ", " + s->requests[i].body + "}");
    }
    std::vector<double> per_line;
    for (int rep = 0; rep < 5; ++rep) {
      const Clock::time_point t0 = Clock::now();
      size_t parsed = 0;
      for (const std::string& line : lines) {
        parsed += stmaker::net::NdjsonService::ParseFlatJson(line).ok();
      }
      per_line.push_back(MsSince(t0) * 1e3 / static_cast<double>(std::max<size_t>(1, parsed)));
    }
    parse_us = Median(per_line);
  }
  // Reload, part by part, then the whole serving reload right after it, so
  // that both see the same host; unattributed is their per-repeat gap.
  std::vector<double> open_ms, network_ms, landmarks_ms, corpus_ms, model_ms, release_ms;
  std::vector<double> total_ms, unattributed_ms;
  for (int rep = 0; rep < kReloadRepeats && errors_.empty(); ++rep) {
    Clock::time_point release_start;
    {
      Clock::time_point t0 = Clock::now();
      auto container = stmaker::MappedContainer::Open(world_ + "/model.stm");
      open_ms.push_back(MsSince(t0));
      if (!container.ok()) {
        Fail("MappedContainer::Open failed");
        break;
      }
      t0 = Clock::now();
      auto network = stmaker::LoadNetworkFromContainer(**container);
      network_ms.push_back(MsSince(t0));
      if (!network.ok()) {
        Fail("LoadNetworkFromContainer failed");
        break;
      }
      t0 = Clock::now();
      auto landmarks = stmaker::LoadLandmarksFromContainer(**container, *network);
      landmarks_ms.push_back(MsSince(t0));
      if (!landmarks.ok()) {
        Fail("LoadLandmarksFromContainer failed");
        break;
      }
      t0 = Clock::now();
      auto corpus = stmaker::ReadTrajectoriesCsv(world_ + "/trajectories.csv");
      corpus_ms.push_back(MsSince(t0));
      t0 = Clock::now();
      stmaker::STMaker maker(&*network, &*landmarks, stmaker::FeatureRegistry::BuiltIn());
      const bool loaded = maker.LoadModelContainer(**container).ok();
      model_ms.push_back(MsSince(t0));
      if (!corpus.ok() || !loaded) {
        Fail("reloading the corpus or model failed");
        break;
      }
      // A swap frees the replaced snapshot: time these parts' release.
      release_start = Clock::now();
    }
    release_ms.push_back(MsSince(release_start));
    const Clock::time_point t0 = Clock::now();
    if (!oracle_manager_->Reload().ok()) Fail("ModelManager::Reload failed");
    total_ms.push_back(MsSince(t0));
    unattributed_ms.push_back(total_ms.back() - open_ms.back() - network_ms.back() -
                              landmarks_ms.back() - corpus_ms.back() - model_ms.back() -
                              release_ms.back());
  }

  auto p50 = [](const std::vector<double>& v) { return v.empty() ? 0 : Median(v); };
  auto p99 = [](const std::vector<double>& v) {
    return v.empty() ? 0 : Finite(PercentileWithMisses(v, 0, 0.99));
  };
  const double gen_p50 = phase.P(0.5);
  Add("net.overhead_ms", p50(residual_ms), "ms");
  Add("net.parse_us", parse_us, "us");
  Add("net.resp_bytes", span_ms.empty() ? 0 : resp_bytes / span_ms.size(), "bytes");
  Add("net.faults", d.Counter("net.read_faults") + d.Counter("net.write_faults") +
                        d.Counter("net.accept_faults"), "count");
  // Share-weighted work per request: stage time for summaries, direct
  // call time for the other verbs (route runs on the event loop, unqueued).
  double work = 0, queued = 0, sent = 0;
  for (int v = 0; v < kNumVerbs; ++v) {
    const double n = static_cast<double>(phase.verb_ms[v].size());
    sent += n;
    work += n * (v == 0 ? stage_total : p50(direct[v]));
    if (v != static_cast<int>(Verb::kRoute)) queued += n * queue_ms;
  }
  work /= std::max(1.0, sent);
  queued /= std::max(1.0, sent);
  const double span_p50 = p50(span_ms);
  Add("service.span_ms", span_p50, "ms");
  Add("service.span_p99_ms", p99(span_ms), "ms");
  Add("service.unattributed_ms", span_p50 - queued - work, "ms");
  Add("pool.queue_wait_ms", queue_ms, "ms");
  Add("pool.rejected", d.Counter("threadpool.rejected"), "count");
  for (const char* stage : {"sanitize", "calibrate", "extract", "partition",
                            "select", "generate", "total"}) {
    Add(std::string("stage.") + stage + "_ms",
        d.HistMean(std::string("stmaker.stage.") + stage + "_ms"), "ms");
  }
  Add("summarize.direct_ms", p50(direct[0]), "ms");
  Add("calib.hit_ratio", d.Ratio("calibration.cache.hits", "calibration.cache.misses"), "ratio");
  Add("calib.uncached_ms", p50(uncached_ms), "ms");
  Add("popular_route.hit_ratio", d.Ratio("popular_route.cache.hits", "popular_route.cache.misses"), "ratio");
  Add("roadnet.map_match_ms", d.HistMean("roadnet.map_match_ms"), "ms");
  const double mm_calls = d.Counter("roadnet.map_match.calls");
  Add("roadnet.map_match_points", mm_calls > 0 ? d.Counter("roadnet.map_match.points") / mm_calls : 0, "count");
  Add("roadnet.ch_route_ms", d.HistMean("roadnet.ch.route_ms"), "ms");
  const double ch_searches = d.Counter("router.ch.searches");
  Add("roadnet.ch_expanded", ch_searches > 0 ? d.Counter("router.ch.nodes_expanded") / ch_searches : 0, "count");
  Add("route.direct_ms", p50(direct[3]), "ms");
  Add("similar.direct_ms", p50(direct[1]), "ms");
  Add("similar.candidates", p50(similar_candidates), "count");
  Add("query.direct_ms", p50(direct[2]), "ms");
  Add("query.candidates", p50(query_candidates), "count");
  Add("query.precision", p50(query_precision), "ratio");
  Add("reload.open_ms", p50(open_ms), "ms");
  Add("reload.network_ms", p50(network_ms), "ms");
  Add("reload.landmarks_ms", p50(landmarks_ms), "ms");
  Add("reload.corpus_ms", p50(corpus_ms), "ms");
  Add("reload.model_ms", p50(model_ms), "ms");
  Add("reload.release_ms", p50(release_ms), "ms");
  Add("reload.total_ms", p50(total_ms), "ms");
  Add("reload.unattributed_ms", p50(unattributed_ms), "ms");
  if (reloads) {
    Add("post_swap.p50_ms", p50(post_swap_ms), "ms");
    Add("model.reload_failures", d.Counter("model.reload_failures"), "count");
  }
  for (int v = 0; v < kNumVerbs; ++v) {
    const std::string name = std::string("verb.") + VerbName(static_cast<Verb>(v));
    Add(name + ".p50_ms", p50(untraced.verb_ms[v]), "ms");
    Add(name + ".p99_ms", p99(untraced.verb_ms[v]), "ms");
  }
  Add("loadgen.late_p99_ms", std::max(untraced.LateP99(), phase.LateP99()), "ms");
  const double untraced_p50 = untraced.P(0.5);
  Add("trace.overhead_frac", untraced_p50 > 0 ? gen_p50 / untraced_p50 - 1 : 0, "ratio");

  // Per-verb decomposition of the generator's p50 (printed, not scored):
  // net residual + queue wait + work + unattributed == generator p50.
  for (int v = 0; v < kNumVerbs; ++v) {
    if (phase.verb_ms[v].empty()) continue;
    const double g = p50(phase.verb_ms[v]);
    const double sp = p50(verb_span[v]);
    const double q = v == static_cast<int>(Verb::kRoute) ? 0 : queue_ms;
    const double w = v == 0 ? stage_total : p50(direct[v]);
    notes_.push_back(std::string("decomposition ") + VerbName(static_cast<Verb>(v)) +
                     ": generator p50 " + std::to_string(g) + " ms = net " +
                     std::to_string(g - sp) + " + queue " + std::to_string(q) +
                     " + work " + std::to_string(w) + " + unattributed " +
                     std::to_string(sp - q - w));
  }
  const double total = p50(total_ms);
  const double gap = p50(unattributed_ms);
  if (total > 0) {
    notes_.push_back("reload parts leave " + std::to_string(gap) + " ms of total " +
                     std::to_string(total) + " ms unattributed (" +
                     (std::fabs(gap) <= 0.1 * total ? "within" : "NOT within") + " a tenth)");
  }
}

bool Bench::CheckAnswers() {
  std::vector<RequestKey> keys;
  keys.reserve(checks_.size());
  for (const CheckItem& c : checks_) keys.push_back(c.key);
  const Clock::time_point t0 = Clock::now();
  oracle_->Prepare(keys, nproc_);
  std::map<std::pair<uint64_t, uint64_t>, bool> verdicts;
  for (const CheckItem& c : checks_) {
    // The id and model_version differ between otherwise equal answers.
    const std::string& line = *c.response;
    size_t body = line.find(", ");
    size_t version = line.rfind(", \"model_version\"");
    const uint64_t fp = Fnv1a(line.substr(body, version == std::string::npos ? std::string::npos : version - body));
    const uint64_t slot = (static_cast<uint64_t>(c.key.verb) << 32) | c.key.index;
    auto [it, fresh] = verdicts.try_emplace({slot, fp}, false);
    if (fresh) {
      FlatJsonDoc doc;
      std::string why = "malformed JSON";
      it->second = ParseJson(line, &doc) && oracle_->Matches(c.key, doc, &why);
      if (!it->second && wrong_ < 5) {
        Fail(std::string("wrong answer to ") + VerbName(c.key.verb) + " " +
             std::to_string(c.key.index) + ": " + why);
      }
    }
    if (!it->second) ++wrong_;
  }
  std::fprintf(stderr, "perfbench: checked %zu answers (%zu distinct) in %.2f s, %zu wrong\n",
               checks_.size(), verdicts.size(), SecondsSince(t0), wrong_);
  failed_ += wrong_;
  return wrong_ == 0;
}

void Bench::Emit(bool correct) {
  std::string metrics;
  for (const Metric& m : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + JsonString(m.name) +
               ": {\"value\": " + value + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(input_digest_));
  char flags[32];
  std::snprintf(flags, sizeof(flags), "%016llx", static_cast<unsigned long long>(host_.flags_digest));
  std::string notes;
  for (const std::string& n : notes_) notes += (notes.empty() ? "" : ", ") + JsonString(n);
  std::string errors;
  for (const std::string& e : errors_) errors += (errors.empty() ? "" : ", ") + JsonString(e);
  // The full record (inputs, host, knee probes, notes) for compare.py.
  const std::string record =
      "{\"workload\": " + JsonString(args_.workload) +
      ", \"seed\": " + std::to_string(args_.seed) +
      ", \"trace\": " + std::to_string(args_.trace) +
      ", \"seconds\": " + std::to_string(args_.seconds) +
      ", \"input_digest\": \"" + digest + "\"" +
      ", \"host\": {\"nproc\": " + std::to_string(host_.nproc) +
      ", \"cpu_model\": " + JsonString(host_.cpu_model) +
      ", \"cpu_flags_digest\": \"" + flags + "\"}" +
      ", \"threads\": {\"generator\": 1, \"server_loops\": 1, \"server_workers\": " +
      std::to_string(workers_) + ", \"load_connections\": 2}" +
      ", \"generator_valid\": " + (generator_valid_ ? "true" : "false") +
      ", \"knee_probes\": [" + knee_trace_ + "]" +
      ", \"notes\": [" + notes + "], \"errors\": [" + errors + "]" +
      ", \"metrics\": {" + metrics + "}}";
  std::ofstream(args_.workdir + "/record.json") << record << "\n";
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  std::printf("# record: %s\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<size_t>(1, attempted_), failed_,
              metrics.c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  host_ = HostFingerprint();
  nproc_ = host_.nproc;
  // Thread budget: 1 generator thread + 1 server event loop + workers
  // (+ the reloader thread while a reload runs) stays within the usable
  // CPUs.
  workers_ = std::max(1, nproc_ - 2 - (ReloadsUnderLoad(args_.workload) ? 1 : 0));
  if (!Setup() || !LoadOracle()) return 2;
  if (args_.trace == 0) {
    RunEndToEnd();
  } else {
    RunTraced();
  }
  server_.Stop();
  if (!errors_.empty() && metrics_.size() < 4) return 2;
  const bool answers_ok = CheckAnswers();
  const bool correct = answers_ok && generator_valid_ && errors_.empty();
  Emit(correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace "
                 "0|1 --server PATH --workdir DIR\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  // Wake-ups of the generator within microseconds of their deadline.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  return perfbench::Bench(args).Run();
}
