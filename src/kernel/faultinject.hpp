// FaultInjectSyscalls: deterministic fault injection for robustness tests.
//
// A filter that fails matching calls with a chosen errno (EIO, ENOSPC,
// EPERM, ...) before they reach the layer below. Matching is by operation
// name and path substring; firing is driven by a seeded xorshift generator,
// so the same seed over the same workload fails at exactly the same point —
// tests can assert that a mid-build ENOSPC yields a coherent diagnostic
// rather than a crash, and replay the identical failure while debugging.
//
// The layer is a before-hook over kFaultableOps: the path-taking file,
// xattr-read/write and mount ops. chdir, identity calls, list/remove
// xattr, unshare, umount and the /proc map writes are never intercepted and
// do not advance the call sequence.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "kernel/syscall_filter.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"

namespace minicon::kernel {

struct FaultSpec {
  // Exact operation name from kSysOpNames ("write", "chown"); empty = any.
  // The layer constructor rejects any other name with std::invalid_argument.
  std::string op;
  std::string path_substr;  // substring of the path argument; empty = any
  Err error = Err::eio;
  double probability = 1.0;        // per matching call, via the seeded PRNG
  std::uint64_t skip = 0;          // let the first N matching calls through
  std::uint64_t max_failures = ~std::uint64_t{0};
};

inline constexpr OpMask kFaultableOps = op_mask({
    SysOp::kStat,     SysOp::kLstat,    SysOp::kReadFile, SysOp::kWriteFile,
    SysOp::kReaddir,  SysOp::kReadlink, SysOp::kMkdir,    SysOp::kMknod,
    SysOp::kSymlink,  SysOp::kLink,     SysOp::kUnlink,   SysOp::kRmdir,
    SysOp::kRename,   SysOp::kChown,    SysOp::kChmod,    SysOp::kAccess,
    SysOp::kSetXattr, SysOp::kGetXattr, SysOp::kMount,    SysOp::kBindMount,
});

struct InjectedFault {
  std::uint64_t seq = 0;  // global intercepted-call sequence number
  std::string op;
  std::string path;
  Err error = Err::none;
};

class FaultInjectSyscalls : public SyscallFilter {
 public:
  FaultInjectSyscalls(std::shared_ptr<Syscalls> inner, std::uint64_t seed,
                      std::vector<FaultSpec> specs);

  // Convenience: one spec.
  FaultInjectSyscalls(std::shared_ptr<Syscalls> inner, std::uint64_t seed,
                      FaultSpec spec)
      : FaultInjectSyscalls(std::move(inner), seed,
                            std::vector<FaultSpec>{std::move(spec)}) {}

  // Log of every fault fired, in order. Deterministic for a given seed.
  std::vector<InjectedFault> injected() const;
  std::uint64_t calls_seen() const;

  // Mirror fired faults into a MetricsRegistry as `syscall.fault_injected`
  // (plus `syscall.fault_injected.<ERRNAME>`). Injected faults never reach
  // the ObserveSyscalls layer below, so these counters are the only place
  // they appear — robustness experiments separate them from organic errnos
  // by construction. Null detaches.
  void set_metrics(obs::MetricsRegistry* metrics);

  // Every fired fault is also recorded to the flight recorder as a
  // `fault-injected` event ("op ERRNAME path", stamped with the current
  // trace context) — the forensic trail a post-mortem orders against the
  // downstream damage. Defaults to obs::global_flight_recorder(); this
  // redirects it (tests use a private recorder). Null restores the global.
  void set_flight_recorder(obs::FlightRecorder* recorder);

 private:
  // Err::none = let the call through; anything else = inject that errno.
  Err before(SysOp op, const std::string& path) override;
  std::uint64_t next_random();  // xorshift64*, seeded

  mutable std::mutex mu_;
  obs::MetricsRegistry* metrics_ = nullptr;   // guarded by mu_
  obs::FlightRecorder* recorder_ = nullptr;   // guarded by mu_; null = global
  std::vector<FaultSpec> specs_;
  std::vector<std::uint64_t> matched_;  // per-spec matching-call counts
  std::vector<std::uint64_t> fired_;    // per-spec injected-fault counts
  std::vector<InjectedFault> log_;
  std::uint64_t rng_state_;
  std::uint64_t seq_ = 0;
};

}  // namespace minicon::kernel
