// perf_ledger — one outside-in benchmark for offline analysis and
// rtccd (README.md).
//
//   perf_ledger --seed N [--workload W] [--seconds S] [--trace SPANS.json]
//   perf_ledger --smoke
//   perf_ledger --write-expected --seed N
//
// With --workload, runs that workload in this process: untraced it
// prints the end-to-end metrics, with --trace the per-layer ones (and
// writes the spans). The last stdout line is the result as JSON:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// Without --workload, runs every workload in its own child process, in
// a fixed order, untraced and (with --trace) traced, and prints the
// tracing overhead. --smoke does both on the shortest run (6 s; two
// 2 s repetitions per service phase) and checks every metric prints and
// every correctness check passes.
#include <fcntl.h>
#include <linux/perf_event.h>
#include <spawn.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace ledger {

namespace {

// ---- Child processes ------------------------------------------------------

/// Runs this binary with `args` and returns its stdout; nullopt if it
/// could not start. `exit_code` gets its exit status. stderr passes
/// through.
std::optional<std::string> run_self(const std::vector<std::string>& args,
                                    int& exit_code) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) return std::nullopt;
  std::vector<std::string> full = {"/proc/self/exe"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, pipefd[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(pipefd[1]);
  std::string out;
  if (rc == 0) {
    char buf[4096];
    for (ssize_t n; (n = ::read(pipefd[0], buf, sizeof buf)) != 0;) {
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(pipefd[0]);
  if (rc != 0) return std::nullopt;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  return out;
}

std::string last_line(const std::string& text) {
  std::size_t end = text.size();
  while (end > 0 && text[end - 1] == '\n') --end;
  const std::size_t start = text.rfind('\n', end == 0 ? 0 : end - 1);
  return text.substr(start == std::string::npos ? 0 : start + 1,
                     end - (start == std::string::npos ? 0 : start + 1));
}

/// The number after "key": {"value": in a result line; NaN if absent.
double metric_value(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\":{\"value\":";
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + pos + key.size(), nullptr);
}

// ---- Environment --------------------------------------------------------

std::string first_line_of(const char* command) {
  std::string out;
  if (std::FILE* p = ::popen(command, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, p) != nullptr) out = buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

/// Whether the kernel lets this process count instructions; recorded so
/// a missing instruction count is never silent.
std::string perf_event_status() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = ::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return std::string("unavailable: ") + std::strerror(errno);
  ::close(static_cast<int>(fd));
  return "available";
}

void note_environment(Result& res) {
  // Only the checkout's own history: a checkout without .git (an export)
  // may sit inside some other repository.
  const std::string root = LEDGER_SOURCE_DIR "/../..";
  std::string commit;
  if (std::filesystem::exists(root + "/.git"))
    commit = first_line_of(
        ("git -C '" + root + "' rev-parse --short=12 HEAD 2>/dev/null").c_str());
  res.note("commit", commit.empty() ? "unknown" : commit);
  res.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  res.note("cpu", cpu_model());
  res.note("perf_event_instructions", perf_event_status());
}

// ---- Output -------------------------------------------------------------

void print_result(const Result& res) {
  for (const Metric& m : res.metrics)
    std::printf("metric %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string info = "{";
  for (std::size_t i = 0; i < res.info.size(); ++i) {
    if (i > 0) info += ",";
    info += rtcc::util::JsonWriter().value(res.info[i].first).str() + ":" +
            res.info[i].second;
  }
  std::printf("info %s}\n", info.c_str());
  for (const std::string& e : res.errors)
    std::fprintf(stderr, "perf_ledger: %s\n", e.c_str());

  rtcc::util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(res.correct());
  w.key("attempted").value(std::max<std::uint64_t>(res.attempted, 1));
  w.key("failed").value(res.failed);
  w.key("metrics").begin_object();
  for (const Metric& m : res.metrics) {
    w.key(m.name).begin_object();
    if (std::isfinite(m.value)) {
      w.key("value").value(m.value);
    } else {
      w.key("value").null();
    }
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

// ---- Modes --------------------------------------------------------------

struct Args {
  RunConfig run;
  bool smoke = false;
  bool write_expected = false;
  std::string probe_capture;  // internal: one probe_capture run
  bool probe_daemon = false;   // internal: one probe_daemon run
  std::string base_workdir = ".perf_ledger";
};

int run_one(const Args& args) {
  RunConfig cfg = args.run;
  const std::filesystem::path dir =
      std::filesystem::path(args.base_workdir) / std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  cfg.workdir = dir.string();
  Result res;
  if (is_offline(cfg.workload)) {
    res = run_offline(cfg);
  } else {
    res = run_service(cfg);
  }
  std::filesystem::remove_all(dir);
  res.note("workload", cfg.workload);
  res.note("seed", static_cast<double>(cfg.seed));
  res.note("seconds", cfg.seconds);
  res.note("traced", cfg.trace ? "yes" : "no");
  note_environment(res);
  // Every metric of the run's kind prints, even one that could not be
  // measured (as null), and such a run fails.
  if (res.metrics.empty()) res.fail("no metrics measured");
  for (const Metric& m : res.metrics)
    if (!std::isfinite(m.value)) res.fail(m.name + " was not measured");
  print_result(res);
  return res.correct() ? 0 : 1;
}

/// Every workload in its own child process, untraced then (with
/// spans) traced; prints each result and the tracing overhead.
int run_all(const Args& args) {
  bool ok = true;
  const std::string seconds = std::to_string(args.run.seconds);
  const std::string seed = std::to_string(args.run.seed);
  for (const std::string& w : kWorkloads) {
    std::vector<std::string> base = {"--workload", w, "--seed", seed,
                                     "--seconds", seconds, "--workdir",
                                     args.base_workdir};
    int code = 0;
    const std::string plain = run_self(base, code).value_or("");
    std::printf("== %s (untraced, exit %d)\n%s", w.c_str(), code, plain.c_str());
    const std::string plain_line = last_line(plain);
    bool w_ok = code == 0;
    for (const std::string& m : kEndToEndMetrics)
      if (!std::isfinite(metric_value(plain_line, m))) {
        std::printf("missing end-to-end metric %s\n", m.c_str());
        w_ok = false;
      }

    if (!args.run.spans_path.empty() || args.smoke) {
      auto traced_args = base;
      traced_args.push_back("--trace");
      traced_args.push_back(args.run.spans_path.empty()
                                ? args.base_workdir + "/spans-" + w + ".json"
                                : args.run.spans_path + "." + w);
      const std::string traced = run_self(traced_args, code).value_or("");
      std::printf("== %s (traced, exit %d)\n%s", w.c_str(), code, traced.c_str());
      const std::string traced_line = last_line(traced);
      w_ok = w_ok && code == 0;
      for (const std::string& m : layer_metric_names())
        if (traced_line.find("\"" + m + "\":{") == std::string::npos) {
          std::printf("missing per-layer metric %s\n", m.c_str());
          w_ok = false;
        }
      // The traced run's own latency_ms_p50: the per-capture time
      // offline, the lo-phase verdict latency for the service.
      const double traced_ms = metric_value(traced_line, "trace.latency_ms_p50");
      const double untraced_ms = metric_value(plain_line, "latency_ms_p50");
      std::printf("tracing overhead %s: traced %.4g ms vs untraced %.4g ms (x%.3f)\n",
                  w.c_str(), traced_ms, untraced_ms, traced_ms / untraced_ms);
    }
    std::printf("== %s: %s\n", w.c_str(), w_ok ? "ok" : "FAILED");
    ok = ok && w_ok;
  }
  std::fflush(stdout);
  return ok ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--write-expected") {
      a.write_expected = true;
    } else if ((arg == "--workload") && (v = next())) {
      a.run.workload = v;
    } else if (arg == "--seed" && (v = next())) {
      a.run.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = next())) {
      a.run.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = next())) {
      a.run.trace = true;
      a.run.spans_path = v;
    } else if (arg == "--workdir" && (v = next())) {
      a.base_workdir = v;
    } else if (arg == "--probe-capture" && (v = next())) {
      a.probe_capture = v;
    } else if (arg == "--probe-daemon") {
      a.probe_daemon = true;
    } else {
      std::fprintf(stderr, "perf_ledger: bad argument %s\n", arg.c_str());
      return false;
    }
  }
  if (!a.run.workload.empty() &&
      std::find(kWorkloads.begin(), kWorkloads.end(), a.run.workload) ==
          kWorkloads.end()) {
    std::fprintf(stderr, "perf_ledger: unknown workload %s\n",
                 a.run.workload.c_str());
    return false;
  }
  return a.run.seconds > 0;
}

}  // namespace

std::vector<double> run_probe(const std::vector<std::string>& args) {
  std::vector<double> out;
  int code = 0;
  const auto text = run_self(args, code);
  if (!text || code != 0) return out;
  std::istringstream in(*text);
  for (double v = 0; in >> v;) out.push_back(v);
  return out;
}

double median_setup_s(const std::vector<std::string>& probe_args, Result& res) {
  std::vector<double> s;
  for (int i = 0; i < 25; ++i) {
    const auto probe = run_probe(probe_args);
    ++res.attempted;
    if (!probe.empty() && probe[0] > 0) {
      s.push_back(probe[0]);
    } else {
      res.fail("setup probe failed");
    }
  }
  return quantile(s, 0.5);
}

}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "RTCC_", 5) == 0) {
      std::fprintf(stderr,
                   "perf_ledger: refusing to run with %s set; the benchmark "
                   "measures the defaults\n",
                   *e);
      return 2;
    }
  // A peer that closes early (the daemon refusing a stream) must show as
  // a failed write, counted in `failed`, not kill the bench.
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  args.run.expected_dir = LEDGER_SOURCE_DIR "/expected";

  if (!args.probe_capture.empty()) {
    const auto [secs, peak_mb] = probe_capture(args.probe_capture);
    std::printf("%.9f %.6f\n", secs, peak_mb);
    return secs > 0 ? 0 : 1;
  }
  if (args.probe_daemon) {
    const double secs = probe_daemon(args.base_workdir);
    std::printf("%.9f\n", secs);
    return secs > 0 ? 0 : 1;
  }
  if (args.write_expected) {
    const std::filesystem::path dir =
        std::filesystem::path(args.base_workdir) / std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    args.run.workdir = dir.string();
    Expected expected(args.run.expected_dir, args.run.seed);
    const bool ok = write_expected_offline(args.run, expected) &&
                    write_expected_service(args.run, expected) &&
                    expected.save();
    std::filesystem::remove_all(dir);
    return ok ? 0 : 1;
  }
  // The shortest run: two cycles of 2 s service repetitions.
  if (args.smoke) args.run.seconds = 6.0;
  if (args.run.workload.empty()) return run_all(args);
  return run_one(args);
}
