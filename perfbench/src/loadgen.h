#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

/// \file
/// Single-threaded open-loop NDJSON load generator. One thread drives
/// every connection through epoll: it sends each request at its scheduled
/// time whether or not earlier ones were answered (open loop), so a stall
/// in the server shows up as latency of the requests queued behind it.
/// Latency is measured from the *scheduled* send time, and the generator
/// records how late it actually sent (its own lag) so a run in which the
/// generator fell behind can be declared invalid.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One scheduled request. The generator prepends the request id:
/// the wire line is `{"id": <id>, <body>}`.
struct ScheduledRequest {
  double due_s = 0;  ///< Send time, seconds after the phase start.
  std::string body;  ///< JSON members after the id, e.g. `"trip": 7`.
};

/// What the generator observed for one phase. Vectors are indexed like
/// the request list; times are seconds after the phase start.
struct PhaseResult {
  std::vector<double> sent_s;   ///< Actual send time (NaN: never sent).
  std::vector<double> done_s;   ///< Answer time (+inf: unanswered).
  std::vector<std::string> responses;  ///< Raw answer line ("" if none).
  std::vector<double> admin_sent_s;
  std::vector<double> admin_done_s;
  std::vector<std::string> admin_responses;
  long first_id = 0;  ///< Wire id of request 0 (ids are consecutive).
};

/// A set of client connections to one server: `load_connections` carry the
/// scheduled traffic round-robin, one more carries admin verbs (reload,
/// stats) so they never queue behind load on the same socket.
class LoadClient {
 public:
  LoadClient() = default;
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Connects to 127.0.0.1:`port`. Returns false (with `error` set) on
  /// failure.
  bool Connect(uint16_t port, int load_connections, std::string* error);

  /// Runs one open-loop phase: `requests` (ascending due_s) go out on the
  /// load connections, `admin` on the admin connection, each at its due
  /// time. Returns when everything is answered or `grace_s` after the last
  /// due time, whichever comes first.
  PhaseResult Run(const std::vector<ScheduledRequest>& requests,
                  const std::vector<ScheduledRequest>& admin, double grace_s);

  /// Sends one admin request and waits up to `timeout_s` for its answer
  /// ("" on timeout or a broken connection).
  std::string Call(const std::string& body, double timeout_s);

  /// False once any connection broke (reset, EOF or write error).
  bool healthy() const { return healthy_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_pos = 0;
    std::string in;
  };
  bool Flush(Conn* conn);
  /// Reads what is available; appends complete lines to `lines`.
  bool Drain(Conn* conn, std::vector<std::string>* lines);

  std::vector<Conn> conns_;  ///< load connections, then the admin one
  int epoll_fd_ = -1;
  long next_id_ = 1;
  bool healthy_ = true;
};

/// Parses the leading `{"id": N` of a response line; false if absent.
bool ResponseId(const std::string& line, long* id);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
