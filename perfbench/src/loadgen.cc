#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string WireLine(long id, const std::string& body) {
  return "{\"id\": " + std::to_string(id) + ", " + body + "}\n";
}

}  // namespace

bool ResponseId(const std::string& line, long* id) {
  static const char kPrefix[] = "{\"id\": ";
  const size_t n = sizeof(kPrefix) - 1;
  if (line.compare(0, n, kPrefix) != 0) return false;
  char* end = nullptr;
  long value = std::strtol(line.c_str() + n, &end, 10);
  if (end == line.c_str() + n) return false;
  *id = value;
  return true;
}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool LoadClient::Connect(uint16_t port, int load_connections,
                         std::string* error) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    *error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  conns_.resize(static_cast<size_t>(load_connections) + 1);
  for (size_t i = 0; i < conns_.size(); ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    conns_[i].fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      return false;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = i;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      *error = std::string("epoll_ctl: ") + std::strerror(errno);
      return false;
    }
  }
  return true;
}

bool LoadClient::Flush(Conn* conn) {
  while (conn->out_pos < conn->out.size()) {
    ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_pos,
                       conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    healthy_ = false;
    return false;
  }
  conn->out.clear();
  conn->out_pos = 0;
  return true;
}

bool LoadClient::Drain(Conn* conn, std::vector<std::string>* lines) {
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    healthy_ = false;  // EOF or error
    break;
  }
  size_t start = 0;
  for (;;) {
    size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) break;
    lines->emplace_back(conn->in, start, nl - start);
    start = nl + 1;
  }
  conn->in.erase(0, start);
  return healthy_;
}

PhaseResult LoadClient::Run(const std::vector<ScheduledRequest>& requests,
                            const std::vector<ScheduledRequest>& admin,
                            double grace_s) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  PhaseResult r;
  const size_t n = requests.size();
  r.sent_s.assign(n, nan);
  r.done_s.assign(n, inf);
  r.responses.assign(n, "");
  r.admin_sent_s.assign(admin.size(), nan);
  r.admin_done_s.assign(admin.size(), inf);
  r.admin_responses.assign(admin.size(), "");
  r.first_id = next_id_;
  const long admin_first_id = next_id_ + static_cast<long>(n);
  next_id_ += static_cast<long>(n + admin.size());

  const size_t load_conns = conns_.size() - 1;
  Conn& admin_conn = conns_.back();
  double last_due = 0;
  for (const ScheduledRequest& q : requests) last_due = std::max(last_due, q.due_s);
  for (const ScheduledRequest& q : admin) last_due = std::max(last_due, q.due_s);

  size_t next = 0, next_admin = 0;
  size_t answered = 0, admin_answered = 0;
  std::vector<std::string> lines;
  epoll_event events[16];
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    double t = SecondsSince(t0);
    bool wrote = false;
    while (next < n && requests[next].due_s <= t) {
      Conn& c = conns_[next % load_conns];
      c.out += WireLine(r.first_id + static_cast<long>(next), requests[next].body);
      r.sent_s[next] = t;
      ++next;
      wrote = true;
    }
    while (next_admin < admin.size() && admin[next_admin].due_s <= t) {
      admin_conn.out += WireLine(admin_first_id + static_cast<long>(next_admin),
                                 admin[next_admin].body);
      r.admin_sent_s[next_admin] = t;
      ++next_admin;
      wrote = true;
    }
    if (wrote) {
      for (Conn& c : conns_) {
        if (!c.out.empty()) Flush(&c);
      }
    }
    if (answered == n && admin_answered == admin.size()) break;
    t = SecondsSince(t0);
    if (t > last_due + grace_s) break;
    double wait_s = last_due + grace_s - t;
    if (next < n) wait_s = std::min(wait_s, requests[next].due_s - t);
    if (next_admin < admin.size()) {
      wait_s = std::min(wait_s, admin[next_admin].due_s - t);
    }
    // Sleep until the next due time with nanosecond resolution (ppoll on
    // the epoll descriptor wakes on any readable connection too), then
    // collect the ready events without blocking.
    if (wait_s > 0) {
      pollfd pfd{epoll_fd_, POLLIN, 0};
      timespec ts{static_cast<time_t>(wait_s),
                  static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
      ::ppoll(&pfd, 1, &ts, nullptr);
    }
    int ready = ::epoll_wait(epoll_fd_, events, 16, 0);
    if (ready <= 0) continue;
    const double now = SecondsSince(t0);
    for (int e = 0; e < ready; ++e) {
      Conn& c = conns_[events[e].data.u64];
      if (events[e].events & EPOLLOUT) Flush(&c);
      if (!(events[e].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))) {
        continue;
      }
      lines.clear();
      Drain(&c, &lines);
      for (std::string& line : lines) {
        long id = 0;
        if (!ResponseId(line, &id)) continue;  // counted as unanswered
        if (id >= r.first_id && id < admin_first_id) {
          size_t i = static_cast<size_t>(id - r.first_id);
          if (std::isinf(r.done_s[i])) {
            r.done_s[i] = now;
            r.responses[i] = std::move(line);
            ++answered;
          }
        } else if (id >= admin_first_id &&
                   id < admin_first_id + static_cast<long>(admin.size())) {
          size_t i = static_cast<size_t>(id - admin_first_id);
          if (std::isinf(r.admin_done_s[i])) {
            r.admin_done_s[i] = now;
            r.admin_responses[i] = std::move(line);
            ++admin_answered;
          }
        }
      }
    }
    if (!healthy_ && next >= n) break;
  }
  return r;
}

std::string LoadClient::Call(const std::string& body, double timeout_s) {
  std::vector<ScheduledRequest> admin = {ScheduledRequest{0, body}};
  PhaseResult r = Run({}, admin, timeout_s);
  return r.admin_responses[0];
}

}  // namespace perfbench
