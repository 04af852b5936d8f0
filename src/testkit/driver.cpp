#include "testkit/driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "testkit/mutators.hpp"
#include "testkit/oracles.hpp"
#include "testkit/seeds.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace rtcc::testkit {

namespace {

using rtcc::util::Bytes;
using rtcc::util::BytesView;
using rtcc::util::Rng;

using StreamOracle =
    std::function<std::optional<std::string>(const std::vector<Bytes>&)>;

std::uint64_t fnv1a64(const std::vector<Bytes>& datagrams) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  };
  for (const auto& d : datagrams) {
    for (const std::uint8_t b : d) mix(b);
    mix(0xFF);  // datagram separator so [ab],[c] != [a],[bc]
  }
  return h;
}

/// Greedy minimization: drop whole datagrams, then remove ever-smaller
/// chunks from each survivor, keeping any step that still violates the
/// oracle. Work is capped so a pathological reproducer cannot stall the
/// driver — the cap only costs minimization quality, never soundness.
std::vector<Bytes> minimize(std::vector<Bytes> datagrams,
                            const StreamOracle& violates_fn) {
  std::size_t evals = 0;
  constexpr std::size_t kMaxEvals = 3000;
  const auto violates = [&](const std::vector<Bytes>& trial) {
    ++evals;
    return violates_fn(trial).has_value();
  };

  bool dropped = true;
  while (dropped && datagrams.size() > 1 && evals < kMaxEvals) {
    dropped = false;
    for (std::size_t i = 0; i < datagrams.size() && evals < kMaxEvals; ++i) {
      std::vector<Bytes> trial = datagrams;
      trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
      if (violates(trial)) {
        datagrams = std::move(trial);
        dropped = true;
        break;
      }
    }
  }

  for (std::size_t d = 0; d < datagrams.size(); ++d) {
    for (std::size_t chunk = std::max<std::size_t>(datagrams[d].size() / 2, 1);
         chunk >= 1 && evals < kMaxEvals; chunk /= 2) {
      std::size_t pos = 0;
      while (pos + chunk <= datagrams[d].size() && evals < kMaxEvals) {
        std::vector<Bytes> trial = datagrams;
        trial[d].erase(trial[d].begin() + static_cast<std::ptrdiff_t>(pos),
                       trial[d].begin() +
                           static_cast<std::ptrdiff_t>(pos + chunk));
        if (violates(trial))
          datagrams = std::move(trial);
        else
          pos += chunk;
      }
      if (chunk == 1) break;
    }
  }
  return datagrams;
}

void record_finding(DriverStats& stats, const DriverOptions& opts,
                    std::set<std::string>& seen, std::uint64_t iteration,
                    const std::string& mutator, SeedFamily family,
                    std::vector<Bytes> datagrams, const StreamOracle& oracle,
                    bool shrink) {
  auto violation = oracle(datagrams);
  if (!violation) return;  // raced away during shrinking upstream
  if (!seen.insert(*violation).second) return;
  if (stats.findings.size() >= opts.max_findings) return;

  FuzzFinding f;
  if (shrink) {
    f.datagrams = minimize(std::move(datagrams), oracle);
    // Re-run on the minimized form: shrinking may surface a different
    // (earlier-firing) oracle; the saved description must match the
    // reproducer we keep.
    if (auto min_violation = oracle(f.datagrams)) violation = min_violation;
  } else {
    // Oracles with stream-level preconditions (strict subset asserts
    // over well-formed seed streams) stay unshrunk: removing bytes or
    // datagrams breaks the precondition, so every trial "violates" and
    // minimization would happily shrink the reproducer to nothing.
    f.datagrams = std::move(datagrams);
  }
  f.description = *violation;
  f.mutator = mutator;
  f.seed_family = to_string(family);
  f.iteration = iteration;
  if (!opts.corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.corpus_dir, ec);
    (void)save_corpus_file(
        (std::filesystem::path(opts.corpus_dir) / corpus_file_name(f))
            .string(),
        f);
  }
  stats.findings.push_back(std::move(f));
}

}  // namespace

DriverStats run_fuzz_driver(const DriverOptions& opts) {
  DriverStats stats;
  std::set<std::string> seen;
  Rng root(opts.seed);
  const auto& seed_families = all_seed_families();
  const auto& mutator_families = all_mutator_families();

  const StreamOracle buffer_oracle = [](const std::vector<Bytes>& dgs) {
    for (const auto& d : dgs)
      if (auto err = run_buffer_oracles(BytesView{d})) return err;
    return std::optional<std::string>{};
  };
  const StreamOracle stream_oracle = [&](const std::vector<Bytes>& dgs) {
    return run_stream_oracles(dgs);
  };

  for (std::uint64_t i = 0; i < opts.iters; ++i) {
    Rng rng = root.fork(i);
    // Cycle both family axes so the cross product is covered evenly;
    // everything below is deterministic in (opts.seed, i).
    const MutatorFamily mf =
        mutator_families[i % mutator_families.size()];
    const SeedFamily sf =
        seed_families[(i / mutator_families.size()) % seed_families.size()];
    ++stats.mutations_per_family[to_string(mf)];

    const Bytes seed = make_seed(sf, rng);
    const Bytes other = make_seed(
        seed_families[rng.below(seed_families.size())], rng);
    const Bytes mutated = mutate(mf, BytesView{seed}, BytesView{other}, rng);

    ++stats.buffer_checks;
    if (auto err = run_buffer_oracles(BytesView{mutated}))
      record_finding(stats, opts, seen, i, to_string(mf), sf, {mutated},
                     buffer_oracle, /*shrink=*/true);

    if (opts.stream_stride != 0 && i % opts.stream_stride == 0) {
      SeedStream stream = make_seed_stream(sf, rng, opts.stream_len);

      ++stats.strict_subset_checks;
      if (auto err = check_strict_subset(stream)) {
        const StreamOracle subset_oracle =
            [&stream](const std::vector<Bytes>& dgs) {
              SeedStream trial;
              trial.family = stream.family;
              trial.datagrams = dgs;
              return check_strict_subset(trial);
            };
        // The stream is clean at this point — no mutator is involved.
        record_finding(stats, opts, seen, i, "none (clean seed stream)", sf,
                       stream.datagrams, subset_oracle, /*shrink=*/false);
      }

      // Mutate a few datagrams in place and run the heavy differential
      // oracles on the damaged stream.
      const std::size_t hits = 1 + rng.below(3);
      for (std::size_t h = 0; h < hits && !stream.datagrams.empty(); ++h) {
        const std::size_t victim = rng.below(stream.datagrams.size());
        const MutatorFamily smf =
            mutator_families[rng.below(mutator_families.size())];
        ++stats.mutations_per_family[to_string(smf)];
        stream.datagrams[victim] =
            mutate(smf, BytesView{stream.datagrams[victim]},
                   BytesView{seed}, rng);
      }
      ++stats.stream_checks;
      if (auto err = run_stream_oracles(stream.datagrams))
        record_finding(stats, opts, seen, i, to_string(mf), sf,
                       stream.datagrams, stream_oracle, /*shrink=*/true);

      // Batch-boundary shaping: tile the (already mutated) stream to a
      // datagram count at the vector-size edges and assert the scan
      // and SIMD parity oracles right at the boundary — full, exactly
      // filled and one-over final vectors all extract identically. The
      // SIMD sweep is skipped on the largest counts to keep the
      // sanitized CI budget affordable; scan parity always runs.
      const auto& counts = batch_boundary_counts();
      const std::size_t count =
          counts[(i / opts.stream_stride) % counts.size()];
      const auto shaped = mutate_batch_boundary(stream.datagrams, count, rng);
      ++stats.mutations_per_family["batch_boundary"];
      const StreamOracle boundary_oracle =
          [](const std::vector<Bytes>& dgs) -> std::optional<std::string> {
        if (auto err = check_scan_equivalence(dgs))
          return "scan equivalence: " + *err;
        if (dgs.size() <= 512)
          if (auto err = check_simd_parity(dgs)) return err;
        return std::nullopt;
      };
      ++stats.stream_checks;
      if (auto err = boundary_oracle(shaped))
        record_finding(stats, opts, seen, i, "batch_boundary", sf, shaped,
                       boundary_oracle, /*shrink=*/true);

      // Chunk-boundary shaping: resize the stream's datagrams so their
      // pcap-encoded records end one byte before / exactly at / one
      // byte past the chunked reader's read boundaries, then assert
      // streaming/batch parity (whose internal sweep reads at exactly
      // these granularities) right on the straddle.
      const auto& csizes = stream_chunk_sizes();
      const std::size_t chunk =
          csizes[(i / opts.stream_stride) % csizes.size()];
      const auto cshaped =
          mutate_stream_chunk_boundary(stream.datagrams, chunk, rng);
      ++stats.mutations_per_family["stream_chunk_boundary"];
      const StreamOracle chunk_oracle = [](const std::vector<Bytes>& dgs) {
        return check_stream_parity(dgs);
      };
      ++stats.stream_checks;
      if (auto err = chunk_oracle(cshaped))
        record_finding(stats, opts, seen, i, "stream_chunk_boundary", sf,
                       cshaped, chunk_oracle, /*shrink=*/true);
    }
    ++stats.iterations;
  }
  return stats;
}

std::optional<std::vector<Bytes>> load_corpus_file(const std::string& path,
                                                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::vector<Bytes> out;
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    auto bytes = rtcc::util::from_hex(line);
    if (!bytes) {
      if (error) *error = "bad hex line in " + path + ": " + line;
      return std::nullopt;
    }
    out.push_back(std::move(*bytes));
  }
  return out;
}

bool save_corpus_file(const std::string& path, const FuzzFinding& finding) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# rtcc testkit regression corpus entry\n";
  out << "# oracle: " << finding.description << "\n";
  out << "# mutator: " << finding.mutator
      << "  seed-family: " << finding.seed_family
      << "  iteration: " << finding.iteration << "\n";
  for (const auto& d : finding.datagrams)
    out << rtcc::util::to_hex(BytesView{d}) << "\n";
  return static_cast<bool>(out);
}

std::string corpus_file_name(const FuzzFinding& finding) {
  std::ostringstream name;
  name << "min-" << std::hex << fnv1a64(finding.datagrams) << ".hex";
  return name.str();
}

std::vector<std::string> list_corpus_files(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".hex")
      out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::string> replay_corpus_entry(
    const std::vector<Bytes>& datagrams) {
  for (std::size_t i = 0; i < datagrams.size(); ++i)
    if (auto err = run_buffer_oracles(BytesView{datagrams[i]})) {
      std::ostringstream msg;
      msg << "datagram " << i << ": " << *err;
      return msg.str();
    }
  return run_stream_oracles(datagrams);
}

}  // namespace rtcc::testkit
