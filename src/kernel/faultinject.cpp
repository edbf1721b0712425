#include "kernel/faultinject.hpp"

#include <stdexcept>

#include "support/strings.hpp"

namespace minicon::kernel {

FaultInjectSyscalls::FaultInjectSyscalls(std::shared_ptr<Syscalls> inner,
                                         std::uint64_t seed,
                                         std::vector<FaultSpec> specs)
    : SyscallFilter(std::move(inner), kFaultableOps, OpMask{}),
      specs_(std::move(specs)),
      matched_(specs_.size(), 0),
      fired_(specs_.size(), 0),
      rng_state_(seed == 0 ? 0x9e3779b97f4a7c15ull : seed) {
  // A misspelt op would match nothing and the fault would silently never
  // fire; refuse it up front.
  for (const FaultSpec& s : specs_) {
    if (!s.op.empty() && !is_sysop_name(s.op)) {
      throw std::invalid_argument("FaultSpec: unknown op \"" + s.op + "\"");
    }
  }
}

std::vector<InjectedFault> FaultInjectSyscalls::injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

std::uint64_t FaultInjectSyscalls::calls_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

void FaultInjectSyscalls::set_metrics(obs::MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
}

void FaultInjectSyscalls::set_flight_recorder(obs::FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mu_);
  recorder_ = recorder;
}

std::uint64_t FaultInjectSyscalls::next_random() {
  // xorshift64*: deterministic, state advances only on a spec match so
  // unrelated traffic cannot shift the failure point.
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  return rng_state_ * 0x2545f4914f6cdd1dull;
}

Err FaultInjectSyscalls::before(SysOp sysop, const std::string& path) {
  const char* op = sysop_name(sysop);
  std::lock_guard<std::mutex> lock(mu_);
  ++seq_;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& s = specs_[i];
    if (!s.op.empty() && s.op != op) continue;
    if (!s.path_substr.empty() && !contains(path, s.path_substr)) continue;
    const std::uint64_t match_no = matched_[i]++;
    if (match_no < s.skip) continue;
    if (fired_[i] >= s.max_failures) continue;
    if (s.probability < 1.0) {
      const double draw =
          static_cast<double>(next_random() >> 11) / 9007199254740992.0;
      if (draw >= s.probability) continue;
    }
    ++fired_[i];
    log_.push_back({seq_, op, path, s.error});
    if (metrics_ != nullptr) {
      metrics_->counter("syscall.fault_injected").add();
      metrics_->counter("syscall.fault_injected." +
                        std::string(err_name(s.error)))
          .add();
    }
    obs::FlightRecorder* rec =
        recorder_ != nullptr ? recorder_ : &obs::global_flight_recorder();
    if (rec->enabled()) {
      rec->record(obs::FlightKind::kFaultInjected,
                  obs::flight_detail(op, err_name(s.error), path),
                  err_value(s.error));
    }
    return s.error;
  }
  return Err::none;
}

}  // namespace minicon::kernel
