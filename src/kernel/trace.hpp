// TraceSyscalls: the observability layer of the interposition stack.
//
// Every call that passes through is recorded into a shared SyscallStats
// registry — per-operation call counts and errno histograms — and may
// optionally be echoed, strace(1)-style, to a Transcript. Builders stack one
// of these under fakeroot so that "fakeroot adds a layer of indirection"
// (§6.1-1) becomes a measured number: per-RUN-instruction syscall counts and
// the interposition depth the call traversed. The layer sees every op
// (after-mask = all), under its SysOp name, and overrides no Syscalls method.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "kernel/syscall_filter.hpp"

namespace minicon {
class Transcript;
}

namespace minicon::kernel {

// Thread-safe per-operation counters. One registry is typically shared by
// every trace layer a builder creates, so per-instruction deltas come from
// snapshotting totals() around each RUN.
class SyscallStats {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t errors = 0;
    std::map<Err, std::uint64_t> errnos;  // failed calls only
  };
  struct OpCounter {
    std::uint64_t calls = 0;
    std::uint64_t errors = 0;
    std::map<Err, std::uint64_t> errnos;
  };

  void record(const std::string& op, Err e);

  Totals totals() const;
  std::map<std::string, OpCounter> by_op() const;
  std::uint64_t calls(const std::string& op) const;
  std::uint64_t errno_count(Err e) const;
  void reset();

  // Renders the errno histogram delta between two snapshots, e.g.
  // "ENOSPC x3 EPERM x1"; empty when no new errors.
  static std::string errno_summary(const Totals& before, const Totals& after);

 private:
  mutable std::mutex mu_;
  std::map<std::string, OpCounter> ops_;
};

using SyscallStatsPtr = std::shared_ptr<SyscallStats>;

struct TraceOptions {
  // When set, each call appends one line: `op("path") = 0` or
  // `op("path") = -1 ENOENT`. Stats are always recorded.
  Transcript* transcript = nullptr;
  bool log_success = true;  // with a transcript: also log succeeding calls
};

class TraceSyscalls : public SyscallFilter {
 public:
  TraceSyscalls(std::shared_ptr<Syscalls> inner, SyscallStatsPtr stats = nullptr,
                TraceOptions options = {});

  const SyscallStatsPtr& stats() const { return stats_; }

 private:
  void after(SysOp op, Err e, const std::string& detail,
             Clock::time_point start) override;

  SyscallStatsPtr stats_;
  TraceOptions options_;
};

}  // namespace minicon::kernel
