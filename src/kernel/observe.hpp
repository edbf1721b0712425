// ObserveSyscalls: the metrics layer of the interposition stack.
//
// Where TraceSyscalls feeds a per-RUN SyscallStats registry and an optional
// strace-style transcript, ObserveSyscalls feeds the process-wide
// obs::MetricsRegistry: total and per-operation call/error counters, a
// per-errno breakdown, and a call-latency histogram. It changes no
// semantics — builders stack it *innermost* (directly above the runtime's
// syscalls, below any caller-supplied layers), so counts here are organic
// kernel behavior: a fault injected by an outer FaultInjectSyscalls never
// traverses this layer and is accounted separately as
// `syscall.fault_injected` (see FaultInjectSyscalls::set_metrics).
//
// Metric names: `syscall.calls`, `syscall.errors`, `syscall.<op>.calls`,
// `syscall.<op>.errors`, `syscall.errno.<ERRNAME>`, and the histogram
// `syscall.latency_us`. Per-op counters are pre-registered at construction,
// one slot per SysOp, so the hot path touches only relaxed atomics. The
// layer sees every op (after-mask = all) and overrides no Syscalls method.
#pragma once

#include <array>
#include <string>

#include "kernel/syscall_filter.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"

namespace minicon::kernel {

class ObserveSyscalls : public SyscallFilter {
 public:
  // null metrics = obs::global_metrics(); null recorder =
  // obs::global_flight_recorder(). Organic errors additionally land in the
  // flight recorder as `syscall-error` events ("op ERRNAME path", stamped
  // with the current trace context) — the error path is already cold, so
  // forensics ride along for free.
  explicit ObserveSyscalls(std::shared_ptr<Syscalls> inner,
                           obs::MetricsRegistry* metrics = nullptr,
                           obs::FlightRecorder* recorder = nullptr);

  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct OpCounters {
    obs::Counter* calls = nullptr;
    obs::Counter* errors = nullptr;
  };

  void after(SysOp op, Err e, const std::string& detail,
             Clock::time_point start) override;

  obs::MetricsRegistry* metrics_;
  obs::FlightRecorder* recorder_;
  obs::Counter* calls_;
  obs::Counter* errors_;
  obs::Histogram* latency_;
  // Immutable after construction: lock-free per-op lookup on the hot path.
  std::array<OpCounters, kSysOpCount> ops_;
};

}  // namespace minicon::kernel
