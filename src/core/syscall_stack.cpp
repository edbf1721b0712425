#include "core/syscall_stack.hpp"

#include "fakeroot/fakeroot.hpp"
#include "kernel/observe.hpp"

namespace minicon::core {

std::shared_ptr<kernel::Syscalls> assemble_syscall_stack(
    std::shared_ptr<kernel::Syscalls> sys, const SyscallStackSinks& sinks) {
  if (sinks.observe) {
    sys = std::make_shared<kernel::ObserveSyscalls>(sys, sinks.metrics,
                                                    sinks.recorder);
  }
  if (sinks.zc_stats != nullptr) {
    sys = std::make_shared<kernel::ZeroConsistencySyscalls>(
        sys, sinks.zc_stats, sinks.metrics, sinks.recorder);
  }
  if (sinks.layers != nullptr) {
    for (const auto& layer : *sinks.layers) {
      if (layer) sys = layer(sys);
    }
  }
  if (sinks.trace_stats != nullptr) {
    sys = std::make_shared<kernel::TraceSyscalls>(sys, sinks.trace_stats);
  }
  if (sinks.embedded_db != nullptr) {
    sys = std::make_shared<fakeroot::FakerootSyscalls>(
        sys, sinks.embedded_db, fakeroot::FakerootOptions{});
  }
  return sys;
}

}  // namespace minicon::core
