#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "bench.hpp"

namespace perfbench {

std::string Rng::bytes(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; i += 8) {
    std::uint64_t v = next();
    for (std::size_t k = 0; k < 8 && i + k < n; ++k) {
      out[i + k] = static_cast<char>(v >> (8 * k));
    }
  }
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double proc_status(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t len = std::strlen(field);
  char line[256];
  double value = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      value = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return value;
}

// VmHWM, the high-water mark of this process image's resident set.
// getrusage's ru_maxrss is not used: it carries over the peak of the process
// before exec, here the Python launcher (about 14 MiB), which would hide
// any workload that stays below it.
double peak_rss_mib() { return proc_status("VmHWM") / 1024.0; }

CpuRotation::CpuRotation() {
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) cpus_.clear();
}

CpuRotation::~CpuRotation() {
  if (moves_ > 0) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::step() {
  if (cpus_.empty() || (moves_ > 0 && ms_since(since_) < kDwellMs)) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[moves_ % cpus_.size()], &one);
  if (sched_setaffinity(0, sizeof one, &one) == 0) {
    ++moves_;
    since_ = Clock::now();
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

CounterWindow::Totals CounterWindow::take() const {
  Totals t;
  for (const auto* reg : registries_) {
    const obs::MetricsSnapshot snap = reg->snapshot();
    for (const auto& [name, v] : snap.counters) {
      t.counters[name] += static_cast<double>(v);
    }
    for (const auto& [name, h] : snap.histograms) {
      auto& [sum, n] = t.histograms[name];
      sum += h.sum;
      n += static_cast<double>(h.count);
    }
  }
  return t;
}

void CounterWindow::close() {
  const Totals after = take();
  for (const auto& [name, v] : after.counters) {
    const auto it = before_.counters.find(name);
    sum_.counters[name] += v - (it == before_.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, h] : after.histograms) {
    const auto it = before_.histograms.find(name);
    auto& [sum, n] = sum_.histograms[name];
    sum += h.first - (it == before_.histograms.end() ? 0 : it->second.first);
    n += h.second - (it == before_.histograms.end() ? 0 : it->second.second);
  }
}

double CounterWindow::counter(const std::string& name) const {
  const auto it = sum_.counters.find(name);
  return it == sum_.counters.end() ? 0 : it->second;
}

double CounterWindow::histogram_mean(const std::string& name) const {
  const auto it = sum_.histograms.find(name);
  if (it == sum_.histograms.end() || it->second.second == 0) return 0;
  return it->second.first / it->second.second;
}

}  // namespace perfbench
