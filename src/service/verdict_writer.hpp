// Incremental JSONL verdict stream (service layer, DESIGN.md §7a).
//
// One line per record, two record types:
//
//   {"type":"epoch", "epoch":N, "clock_end":t, "frames":n, "bytes":n,
//    "final":b, "verdicts":n, <flow-ledger counters>}
//   {"type":"verdict", "epoch":N, "ordinal":n, "flow":"a:p<->b:q",
//    "transport":"udp", "first_ts":t, "last_ts":t, "packets":n,
//    "disposition":"kept", "final":b, "amends":b
//    [, "messages":n, "compliant":n]}
//
// The verdict lines carry the engine's exactly-once/amendment
// semantics (stream/engine.hpp FlowVerdict): reconciling the stream —
// last line per ordinal wins — reproduces the batch report's
// per-stream dispositions, and the epoch lines' frame/byte sums equal
// the pushed totals. messages/compliant appear on kept verdicts whose
// per-stream analysis was attached.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "stream/engine.hpp"

namespace rtcc::service {

class VerdictWriter {
 public:
  /// `path` "-" writes to stdout; anything else is opened for append.
  explicit VerdictWriter(const std::string& path);
  ~VerdictWriter();
  VerdictWriter(const VerdictWriter&) = delete;
  VerdictWriter& operator=(const VerdictWriter&) = delete;

  [[nodiscard]] bool ok() const { return fp_ != nullptr; }

  /// Writes the epoch summary line followed by one line per verdict,
  /// then flushes — a consumer tailing the file sees complete epochs.
  /// A failed write or flush (EPIPE from a departed reader, ENOSPC)
  /// counts one write error for the epoch; it never throws or aborts.
  void write_epoch(const rtcc::stream::EpochReport& ep);

  [[nodiscard]] std::uint64_t verdict_lines() const { return verdict_lines_; }
  [[nodiscard]] std::uint64_t epoch_lines() const { return epoch_lines_; }
  /// Epochs whose lines could not all be written.
  [[nodiscard]] std::uint64_t write_errors() const { return write_errors_; }

 private:
  void put_line(const std::string& line);

  std::FILE* fp_ = nullptr;
  bool owned_ = false;
  bool failed_ = false;  // a write of the current epoch failed
  std::uint64_t write_errors_ = 0;
  std::uint64_t verdict_lines_ = 0;
  std::uint64_t epoch_lines_ = 0;
};

}  // namespace rtcc::service
