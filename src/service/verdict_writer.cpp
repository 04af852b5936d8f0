#include "service/verdict_writer.hpp"

#include "filter/pipeline.hpp"
#include "net/headers.hpp"
#include "util/json.hpp"

namespace rtcc::service {

VerdictWriter::VerdictWriter(const std::string& path) {
  if (path == "-") {
    fp_ = stdout;
  } else {
    fp_ = std::fopen(path.c_str(), "ab");
    owned_ = true;
  }
}

VerdictWriter::~VerdictWriter() {
  if (fp_ != nullptr && owned_) std::fclose(fp_);
}

void VerdictWriter::write_epoch(const rtcc::stream::EpochReport& ep) {
  if (fp_ == nullptr) return;
  {
    rtcc::util::JsonWriter w;
    w.begin_object();
    w.key("type").value("epoch");
    w.key("epoch").value(ep.epoch);
    w.key("clock_end").value(ep.clock_end);
    w.key("frames").value(ep.frames);
    w.key("bytes").value(ep.bytes);
    w.key("final").value(ep.final_pass);
    w.key("verdicts").value(static_cast<std::uint64_t>(ep.verdicts.size()));
    w.key("flows_seen").value(ep.flows.flows_seen);
    w.key("flows_live_peak").value(ep.flows.flows_live);
    w.key("evictions").value(ep.flows.evictions);
    w.key("finalized").value(ep.flows.finalized);
    w.key("flows_rekeyed").value(ep.flows.flows_rekeyed);
    w.key("live_peak_bytes").value(ep.flows.live_peak_bytes);
    w.end_object();
    put_line(w.str());
    ++epoch_lines_;
  }
  for (const auto& v : ep.verdicts) {
    rtcc::util::JsonWriter w;
    w.begin_object();
    w.key("type").value("verdict");
    w.key("epoch").value(ep.epoch);
    w.key("ordinal").value(v.ordinal);
    w.key("flow").value(v.key.to_string());
    w.key("transport")
        .value(v.key.transport == rtcc::net::Transport::kUdp ? "udp" : "tcp");
    w.key("first_ts").value(v.first_ts);
    w.key("last_ts").value(v.last_ts);
    w.key("packets").value(v.packets);
    w.key("disposition").value(rtcc::filter::to_string(v.disposition));
    w.key("final").value(v.final_pass);
    w.key("amends").value(v.amends);
    if (v.partial != nullptr) {
      w.key("messages").value(v.partial->total_messages());
      w.key("compliant").value(v.partial->total_compliant());
    }
    w.end_object();
    put_line(w.str());
    ++verdict_lines_;
  }
  if (std::fflush(fp_) != 0) failed_ = true;
  if (failed_) {
    // EPIPE (the reader went away) or ENOSPC: count the epoch as lost
    // and clear the stream's error so a recovered sink resumes.
    ++write_errors_;
    failed_ = false;
    std::clearerr(fp_);
  }
}

void VerdictWriter::put_line(const std::string& line) {
  if (std::fputs(line.c_str(), fp_) == EOF || std::fputc('\n', fp_) == EOF)
    failed_ = true;
}

}  // namespace rtcc::service
