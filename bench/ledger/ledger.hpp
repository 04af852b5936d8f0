// perf_ledger shared plumbing: clocks and sample statistics, the
// allocation counter, peak-RSS probes, the span recorder, the result a
// workload run prints, the checked-in signature digests, and the small
// socket helpers the service workloads use.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Linearly interpolated quantile (numpy's default method), q in
/// [0, 1]; NaN for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

// ---- Allocation counting -------------------------------------------------
// This binary replaces global operator new (ledger.cpp). While counting
// is on, every allocation increments a counter private to the calling
// thread, so a span's count covers exactly the work its thread did and
// repeats exactly on a serial path. Off by default; traced runs only.

void count_allocs(bool on);
/// Allocations the calling thread made while counting was on.
[[nodiscard]] std::uint64_t thread_allocs();

// ---- Memory ------------------------------------------------------------

/// Returns freed heap to the OS, then resets the kernel's peak-RSS mark
/// (VmHWM) to the current RSS. Returns that RSS in MB.
double reset_peak_rss();
/// VmHWM in MB.
[[nodiscard]] double peak_rss_mb();

// ---- Spans -------------------------------------------------------------

/// Calls into one layer, summed: one span per layer per capture (or per
/// epoch) instead of one per call, which would mean millions of spans.
struct SpanSum {
  Clock::time_point first{};
  Clock::time_point last{};
  std::int64_t busy_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t count = 0;   // units of work (frames, streams, ...)
  std::uint64_t allocs = 0;

  void add(Clock::time_point begin, Clock::time_point end, std::uint64_t n,
           std::uint64_t allocations = 0) {
    if (calls == 0) first = begin;
    last = end;
    busy_ns += ns_between(begin, end);
    ++calls;
    count += n;
    allocs += allocations;
  }
};

/// Spans stay in memory and are written once, at exit.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Records `sum` as span `name` under `parent` (0 = root) for work
  /// unit `unit`#`index`; returns the new span's id.
  std::uint64_t add(const std::string& name, std::uint64_t parent,
                    const char* unit, std::uint64_t index, const SpanSum& sum);

  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char* unit = "";
    std::uint64_t index = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t busy_ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t count = 0;
    std::uint64_t allocs = 0;
  };

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- Results -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. The last stdout line is
/// {"correct", "attempted", "failed", "metrics"}; `info` goes on the
/// line before it.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool valid = true;  // the load generator held its schedule
  std::vector<std::string> errors;  // the first few failures, for stderr
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // key, JSON value

  void fail(const std::string& what, std::uint64_t n = 1);
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& text);
  [[nodiscard]] bool correct() const { return valid && failed == 0; }
};

// ---- Expected signature digests -----------------------------------------

/// SHA-1 of `text`, hex.
[[nodiscard]] std::string digest(const std::string& text);

/// The checked-in digests for one seed (expected/seed<N>.txt), one line
/// per capture or service phase: "<workload> <item> <frames> <sha1>".
/// A seed without a file (a held-out seed) is checked by conservation
/// alone.
class Expected {
 public:
  Expected(std::string dir, std::uint64_t seed);

  /// Whether a checked-in entry for `item` disagrees with what a run
  /// saw; false when there is no entry.
  [[nodiscard]] bool contradicts(const std::string& workload,
                                 const std::string& item, std::uint64_t frames,
                                 const std::string& sha) const;
  void record(const std::string& workload, const std::string& item,
              std::uint64_t frames, const std::string& sha);
  /// Rewrites this seed's file with every entry recorded or loaded.
  [[nodiscard]] bool save() const;

 private:
  std::string path_;
  std::map<std::string, std::pair<std::uint64_t, std::string>> entries_;
};

// ---- Sockets -----------------------------------------------------------

/// Writes all `n` bytes (EINTR-safe, blocking fd); false on error.
bool write_all(int fd, const std::uint8_t* data, std::size_t n);

struct HttpReply {
  int status = 0;  // 0 = no reply within the timeout
  double ms = 0.0;
};

/// One HTTP/1.0 GET against 127.0.0.1:`port`, read to EOF.
[[nodiscard]] HttpReply http_get(std::uint16_t port, const char* path,
                                 int timeout_ms);

}  // namespace ledger
