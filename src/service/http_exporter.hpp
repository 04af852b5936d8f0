// Minimal HTTP/1.0 exposition endpoint (service layer, DESIGN.md §7a).
//
// Raw POSIX sockets, no frameworks: binds 127.0.0.1 (port 0 = OS-
// assigned ephemeral, reported by port() — how tests avoid collisions)
// and serves exactly two routes from a background thread:
//
//   GET /metrics  -> MetricsRegistry::render() (Prometheus text 0.0.4)
//   GET /healthz  -> the health callback's string (200) or 503
//
// Shutdown uses the self-pipe idiom: stop() writes one byte into a
// pipe the accept loop polls alongside the listen socket, so the
// thread wakes immediately without signals. Each client gets one fixed
// 1 s deadline for its request and response, polled together with the
// same pipe, so a silent or stalled scraper delays neither later
// scrapes nor stop() by more than that; responses are sent with
// MSG_NOSIGNAL, so a scraper hanging up mid-response cannot raise
// SIGPIPE in the daemon.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "service/metrics_registry.hpp"

namespace rtcc::service {

class HttpExporter {
 public:
  /// `healthy` is sampled per /healthz request from the server thread;
  /// it must be thread-safe (e.g. read an atomic).
  HttpExporter(const MetricsRegistry& registry,
               std::function<bool()> healthy);
  ~HttpExporter();
  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the serving
  /// thread. False with `*error` set on bind/listen failure.
  bool start(std::uint16_t port, std::string* error = nullptr);
  void stop();

  /// The bound port (after start); 0 when not running.
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve();
  /// Reads one request from the accepted non-blocking `client` and
  /// answers it within the client deadline. False when stop() fired
  /// while waiting on the client.
  bool serve_client(int client);

  const MetricsRegistry& registry_;
  std::function<bool()> healthy_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace rtcc::service
