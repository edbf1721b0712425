// The RUN-container syscall stack both builders install.
#pragma once

#include <memory>
#include <vector>

#include "fakeroot/fakedb.hpp"
#include "kernel/syscall_filter.hpp"
#include "kernel/trace.hpp"
#include "kernel/zeroconsistency.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"

namespace minicon::core {

// The sinks a builder has already resolved from its options. A null sink
// (or observe = false) leaves its layer out.
struct SyscallStackSinks {
  bool observe = false;                      // ObserveSyscalls
  obs::MetricsRegistry* metrics = nullptr;   // null = global metrics
  obs::FlightRecorder* recorder = nullptr;   // null = global recorder
  kernel::ZeroConsistencyStatsPtr zc_stats;  // --force=seccomp
  const std::vector<kernel::SyscallLayerFn>* layers = nullptr;  // caller's
  kernel::SyscallStatsPtr trace_stats;       // TraceSyscalls
  fakeroot::FakeDbPtr embedded_db;           // in-builder fakeroot (§6.2.2-3)
};

// Stacks the layers over `sys`, innermost first:
//
//   observe <- zero-consistency <- caller layers <- trace <- fakeroot
//
// ObserveSyscalls sits below the caller layers so an injected fault
// short-circuits above it and never skews the organic syscall.errno.*
// counters (the fault layer counts it as syscall.fault_injected instead).
// The same reasoning places ZeroConsistencySyscalls directly above Observe:
// faked ops never reach the organic counters (they are
// syscall.zeroconsistency.* instead), while an injected EPERM fires in the
// fault layer *before* the filter could fake it and so still propagates — a
// seccomp filter models the kernel's edge, not the C library's.
//
// Tracing sits above the caller layers so injected errnos are counted, and
// fakeroot goes outermost so the lies database sees the build's view of
// every faked operation.
std::shared_ptr<kernel::Syscalls> assemble_syscall_stack(
    std::shared_ptr<kernel::Syscalls> sys, const SyscallStackSinks& sinks);

}  // namespace minicon::core
