#include "ledger.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>

#include "crypto/sha1.hpp"
#include "util/hex.hpp"
#include "util/json.hpp"

// ---- Allocation counting -------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
thread_local std::uint64_t t_allocs = 0;

void* counted_malloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ledger {

void count_allocs(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t thread_allocs() { return t_allocs; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- Memory ------------------------------------------------------------

namespace {

/// A "Vm...: N kB" line of /proc/self/status, in MB.
double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, len, field) == 0)
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
  return 0.0;
}

}  // namespace

double reset_peak_rss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS (Linux >= 4.0).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  return status_mb("VmRSS:");
}

double peak_rss_mb() { return status_mb("VmHWM:"); }

// ---- Spans -------------------------------------------------------------

std::uint64_t Tracer::add(const std::string& name, std::uint64_t parent,
                          const char* unit, std::uint64_t index,
                          const SpanSum& sum) {
  Span s;
  s.name = name;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.unit = unit;
  s.index = index;
  s.start_ns = ns_between(origin_, sum.first);
  s.end_ns = ns_between(origin_, sum.last);
  s.busy_ns = sum.busy_ns;
  s.calls = sum.calls;
  s.count = sum.count;
  s.allocs = sum.allocs;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

bool Tracer::write(const std::string& path) const {
  rtcc::util::JsonWriter w;
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("id").value(s.id);
    w.key("parent").value(s.parent);
    w.key("unit").value(s.unit);
    w.key("index").value(s.index);
    w.key("start_ns").value(static_cast<std::int64_t>(s.start_ns));
    w.key("end_ns").value(static_cast<std::int64_t>(s.end_ns));
    w.key("busy_ns").value(static_cast<std::int64_t>(s.busy_ns));
    w.key("calls").value(s.calls);
    w.key("count").value(s.count);
    w.key("allocs").value(s.allocs);
    w.end_object();
  }
  w.end_array();
  std::ofstream out(path, std::ios::binary);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

// ---- Results -----------------------------------------------------------

void Result::fail(const std::string& what, std::uint64_t n) {
  failed += n;
  if (errors.size() < 20) errors.push_back(what);
}

void Result::note(const std::string& key, double value) {
  rtcc::util::JsonWriter w;
  if (std::isfinite(value)) {
    w.value(value);
  } else {
    w.null();
  }
  info.emplace_back(key, w.str());
}

void Result::note(const std::string& key, const std::string& text) {
  rtcc::util::JsonWriter w;
  w.value(text);
  info.emplace_back(key, w.str());
}

// ---- Expected signature digests -----------------------------------------

std::string digest(const std::string& text) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(text.data());
  const auto sha = rtcc::crypto::sha1({p, text.size()});
  return rtcc::util::to_hex({sha.data(), sha.size()});
}

Expected::Expected(std::string dir, std::uint64_t seed)
    : path_(std::move(dir) + "/seed" + std::to_string(seed) + ".txt") {
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, item, sha;
    std::uint64_t frames = 0;
    if (fields >> workload >> item >> frames >> sha)
      entries_[workload + " " + item] = {frames, sha};
  }
}

bool Expected::contradicts(const std::string& workload,
                           const std::string& item, std::uint64_t frames,
                           const std::string& sha) const {
  const auto it = entries_.find(workload + " " + item);
  return it != entries_.end() && it->second != std::pair{frames, sha};
}

void Expected::record(const std::string& workload, const std::string& item,
                      std::uint64_t frames, const std::string& sha) {
  entries_[workload + " " + item] = {frames, sha};
}

bool Expected::save() const {
  std::ofstream out(path_);
  for (const auto& [key, entry] : entries_)
    out << key << ' ' << entry.first << ' ' << entry.second << '\n';
  return static_cast<bool>(out);
}

// ---- Sockets -----------------------------------------------------------

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

HttpReply http_get(std::uint16_t port, const char* path, int timeout_ms) {
  HttpReply reply;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(timeout_ms);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0) {
    const std::string request =
        std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
    if (write_all(fd, reinterpret_cast<const std::uint8_t*>(request.data()),
                  request.size())) {
      char buf[16384];
      for (;;) {
        const int left = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - Clock::now())
                .count());
        if (left <= 0) {
          response.clear();
          break;
        }
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, left) <= 0) continue;
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        response.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  reply.ms = ms_between(start, Clock::now());
  // "HTTP/1.0 200 OK": the status code follows the first space.
  const std::size_t sp = response.find(' ');
  if (response.compare(0, 5, "HTTP/") == 0 && sp != std::string::npos)
    reply.status = std::atoi(response.c_str() + sp + 1);
  return reply;
}

}  // namespace ledger
