#include "kernel/trace.hpp"

#include "support/transcript.hpp"

namespace minicon::kernel {

void SyscallStats::record(const std::string& op, Err e) {
  std::lock_guard<std::mutex> lock(mu_);
  OpCounter& c = ops_[op];
  ++c.calls;
  if (e != Err::none) {
    ++c.errors;
    ++c.errnos[e];
  }
}

SyscallStats::Totals SyscallStats::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  Totals t;
  for (const auto& [op, c] : ops_) {
    t.calls += c.calls;
    t.errors += c.errors;
    for (const auto& [e, n] : c.errnos) t.errnos[e] += n;
  }
  return t;
}

std::map<std::string, SyscallStats::OpCounter> SyscallStats::by_op() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

std::uint64_t SyscallStats::calls(const std::string& op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ops_.find(op);
  return it == ops_.end() ? 0 : it->second.calls;
}

std::uint64_t SyscallStats::errno_count(Err e) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [op, c] : ops_) {
    auto it = c.errnos.find(e);
    if (it != c.errnos.end()) n += it->second;
  }
  return n;
}

void SyscallStats::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ops_.clear();
}

std::string SyscallStats::errno_summary(const Totals& before,
                                        const Totals& after) {
  std::string out;
  for (const auto& [e, n] : after.errnos) {
    std::uint64_t prev = 0;
    if (auto it = before.errnos.find(e); it != before.errnos.end()) {
      prev = it->second;
    }
    if (n <= prev) continue;
    if (!out.empty()) out += ' ';
    out += std::string(err_name(e)) + " x" + std::to_string(n - prev);
  }
  return out;
}

TraceSyscalls::TraceSyscalls(std::shared_ptr<Syscalls> inner,
                             SyscallStatsPtr stats, TraceOptions options)
    : SyscallFilter(std::move(inner), OpMask{}, OpMask{}.set()),
      stats_(std::move(stats)),
      options_(options) {
  if (stats_ == nullptr) stats_ = std::make_shared<SyscallStats>();
}

void TraceSyscalls::after(SysOp op, Err e, const std::string& detail,
                          Clock::time_point /*start*/) {
  const char* name = sysop_name(op);
  stats_->record(name, e);
  if (options_.transcript == nullptr) return;
  if (e == Err::none && !options_.log_success) return;
  std::string line = std::string(name) + "(\"" + detail + "\")";
  line += e == Err::none ? " = 0" : " = -1 " + std::string(err_name(e));
  options_.transcript->line(std::move(line));
}

}  // namespace minicon::kernel
