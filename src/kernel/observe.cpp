#include "kernel/observe.hpp"

namespace minicon::kernel {

ObserveSyscalls::ObserveSyscalls(std::shared_ptr<Syscalls> inner,
                                 obs::MetricsRegistry* metrics,
                                 obs::FlightRecorder* recorder)
    : SyscallFilter(std::move(inner), OpMask{}, OpMask{}.set()),
      metrics_(metrics != nullptr ? metrics : &obs::global_metrics()),
      recorder_(recorder != nullptr ? recorder
                                    : &obs::global_flight_recorder()),
      calls_(&metrics_->counter("syscall.calls")),
      errors_(&metrics_->counter("syscall.errors")),
      latency_(&metrics_->histogram("syscall.latency_us")) {
  // Ops sharing a name (the three /proc writes, ...) share its counters.
  for (std::size_t i = 0; i < kSysOpCount; ++i) {
    const std::string name(kSysOpNames[i]);
    ops_[i].calls = &metrics_->counter("syscall." + name + ".calls");
    ops_[i].errors = &metrics_->counter("syscall." + name + ".errors");
  }
}

void ObserveSyscalls::after(SysOp op, Err e, const std::string& detail,
                            Clock::time_point start) {
  const auto elapsed = Clock::now() - start;
  calls_->add();
  latency_->observe(
      std::chrono::duration<double, std::micro>(elapsed).count());
  const OpCounters& c = ops_[static_cast<std::size_t>(op)];
  c.calls->add();
  if (e != Err::none) {
    errors_->add();
    c.errors->add();
    // Error paths are cold; the shard-locked lookup is fine here.
    metrics_->counter("syscall.errno." + std::string(err_name(e))).add();
    if (recorder_->enabled()) {
      recorder_->record_error(obs::FlightKind::kSyscallError, sysop_name(op),
                              err_name(e), detail, err_value(e));
    }
  }
}

}  // namespace minicon::kernel
