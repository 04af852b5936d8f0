#include "service/http_exporter.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace rtcc::service {

namespace {

void close_if(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

using Clock = std::chrono::steady_clock;

/// Budget for one client connection, request read and response write
/// together: a silent or stalled scraper must not hold the only serving
/// thread (or stop()) for longer than this.
constexpr auto kClientDeadline = std::chrono::seconds(1);

enum class Wait : std::uint8_t { kReady, kStop, kTimeout };

/// Polls `fd` for `events` together with the stop pipe until
/// `deadline`. Errors and hang-ups on `fd` count as ready: the next
/// recv/send reports them.
Wait wait_for(int fd, short events, int stop_fd, Clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return Wait::kTimeout;
    pollfd fds[2] = {{fd, events, 0}, {stop_fd, POLLIN, 0}};
    const int rc = ::poll(fds, 2, static_cast<int>(left));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return Wait::kTimeout;
    if ((fds[1].revents & POLLIN) != 0) return Wait::kStop;
    if (fds[0].revents != 0) return Wait::kReady;
  }
}

/// Full send of `data` on the non-blocking `fd` before `deadline`.
/// Best-effort: a peer that hangs up ends it, and MSG_NOSIGNAL keeps
/// that from raising SIGPIPE. Returns kStop when stop() fired.
Wait send_all(int fd, const std::string& data, int stop_fd,
              Clock::time_point deadline) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Wait::kReady;
    const Wait w = wait_for(fd, POLLOUT, stop_fd, deadline);
    if (w != Wait::kReady) return w;
  }
  return Wait::kReady;
}

std::string http_response(int status, const char* reason,
                          const std::string& body,
                          const char* content_type) {
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

HttpExporter::HttpExporter(const MetricsRegistry& registry,
                           std::function<bool()> healthy)
    : registry_(registry), healthy_(std::move(healthy)) {}

HttpExporter::~HttpExporter() { stop(); }

bool HttpExporter::start(std::uint16_t port, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr)
      *error = std::string(what) + ": " + std::strerror(errno);
    close_if(listen_fd_);
    close_if(stop_pipe_[0]);
    close_if(stop_pipe_[1]);
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    return fail("bind");
  if (::listen(listen_fd_, 16) != 0) return fail("listen");

  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return fail("getsockname");
  port_ = ntohs(addr.sin_port);

  if (::pipe(stop_pipe_) != 0) return fail("pipe");

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  return true;
}

void HttpExporter::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const char byte = 0;
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  close_if(listen_fd_);
  close_if(stop_pipe_[0]);
  close_if(stop_pipe_[1]);
  port_ = 0;
}

void HttpExporter::serve() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int client =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) continue;
    const bool stopped = !serve_client(client);
    ::close(client);
    if (stopped) return;
  }
}

bool HttpExporter::serve_client(int client) {
  const Clock::time_point deadline = Clock::now() + kClientDeadline;
  const Wait readable = wait_for(client, POLLIN, stop_pipe_[0], deadline);
  if (readable != Wait::kReady) return readable != Wait::kStop;
  // One short read covers any sane "GET <path> HTTP/1.x" request
  // line; this endpoint serves scrapers, not browsers.
  char buf[2048];
  const ssize_t n = ::recv(client, buf, sizeof buf - 1, 0);
  if (n <= 0) return true;
  buf[n] = '\0';
  std::string path;
  if (std::strncmp(buf, "GET ", 4) == 0) {
    const char* start = buf + 4;
    const char* end = std::strchr(start, ' ');
    if (end != nullptr) path.assign(start, end);
  }

  std::string response;
  if (path == "/metrics") {
    response = http_response(200, "OK", registry_.render(),
                             "text/plain; version=0.0.4");
  } else if (path == "/healthz") {
    const bool up = !healthy_ || healthy_();
    response = up ? http_response(200, "OK", "ok\n", "text/plain")
                  : http_response(503, "Service Unavailable", "draining\n",
                                  "text/plain");
  } else {
    response = http_response(404, "Not Found", "not found\n", "text/plain");
  }
  return send_all(client, response, stop_pipe_[0], deadline) != Wait::kStop;
}

}  // namespace rtcc::service
