// Fig 6 end-to-end benchmark: types shared by the entry point (main.cpp), the
// statistics and span analysis (stats.cpp, spans.cpp) and the three
// workloads (workloads.cpp).
//
// Every workload is a closed loop with one client: the next op starts only
// after the previous one finished. Inputs are a pure function of the seed.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "image/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace image = minicon::image;
namespace obs = minicon::obs;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// splitmix64. The benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  std::string bytes(std::size_t n);

 private:
  std::uint64_t s_;
};

// An independent stream per (seed, purpose, index).
inline Rng stream(std::uint64_t seed, std::uint64_t purpose,
                  std::uint64_t index = 0) {
  return Rng(Rng(seed ^ (purpose << 56)).next() ^
             (index * 0xd1b54a32d192ed03ull));
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Width of every pool the benchmark passes in: min(nproc, 4).
  int width = 1;
  // Self-test only: a seeded ~1/N of the ops run with a fault-injecting
  // syscall layer (0 = never). Only privilege_matrix supports it.
  int fault_every = 0;
};

struct OpResult {
  bool ok = false;
  double ms = 0;      // the timed part of the op (the calls into the system)
  std::string error;  // why the op or its output check failed
};

// What a workload reports beyond spans and registry counters.
struct OpExtras {
  std::size_t peak_in_flight = 0;  // stage scheduler, max over builds
  std::vector<double> parse_us;    // bench-timed parse_dockerfile calls
};

// Counter and histogram deltas of a set of metrics registries, summed over
// the windows between open() and close() (the timed parts of traced ops).
class CounterWindow {
 public:
  explicit CounterWindow(std::vector<const obs::MetricsRegistry*> registries)
      : registries_(std::move(registries)) {}
  void open() { before_ = take(); }
  void close();
  double counter(const std::string& name) const;
  // Mean observed value of a histogram over the windows (0 when empty).
  double histogram_mean(const std::string& name) const;

 private:
  struct Totals {
    std::map<std::string, double> counters;
    std::map<std::string, std::pair<double, double>> histograms;  // sum, n
  };
  Totals take() const;

  std::vector<const obs::MetricsRegistry*> registries_;
  Totals before_;
  Totals sum_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Points the builders, the registry and the cluster at this phase's
  // tracer (null for an untraced phase).
  virtual void begin_phase(std::shared_ptr<obs::Tracer> tracer) {
    tracer_ = std::move(tracer);
  }
  // One op. `inject_fault` arms the self-test fault layer for this op.
  virtual OpResult run_op(std::uint64_t index, bool inject_fault) = 0;
  virtual image::Registry& registry() = 0;

  // The private registry every component of the workload reports into.
  obs::MetricsRegistry& metrics() { return metrics_; }
  OpExtras& extras() { return extras_; }
  // Counter window the timed part of each op is accumulated in (traced
  // phases only; null otherwise).
  void set_window(CounterWindow* window) { window_ = window; }

 protected:
  obs::MetricsRegistry metrics_;
  std::shared_ptr<obs::Tracer> tracer_;
  CounterWindow* window_ = nullptr;
  OpExtras extras_;
};

// Performs the workload's set-up (cluster, base images, context files,
// pre-pushes). Throws std::runtime_error when set-up fails.
std::unique_ptr<Workload> make_workload(const Config& cfg);
bool known_workload(const std::string& name);
// Ops per second of --seconds: about the rate a 4-core x86-64 host reaches,
// including the untimed output checks.
double nominal_ops_per_s(const std::string& workload);

// --- statistics (stats.cpp) ------------------------------------------------

// Linear-interpolated quantile of a sample (q in [0,1]); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
// A numeric field of /proc/self/status (e.g. "Threads"); 0 when absent.
double proc_status(const char* field);
double peak_rss_mib();

// Moves the calling thread to the next allowed CPU, in turn, each time
// step() is called at least kDwellMs after the last move; the destructor
// restores the thread's original CPU set. Under a hypervisor each vCPU
// can run about 30 % slower than the others for seconds to minutes, so a
// client that stays where the scheduler put it measures one vCPU's luck; a
// client that visits them all measures their average. Threads started
// while the caller is pinned inherit the single-CPU set, so only call
// step() once every pool exists.
class CpuRotation {
 public:
  static constexpr double kDwellMs = 500;
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void step();
  std::size_t cpus() const { return cpus_.size(); }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;  // empty: a single CPU, nothing to rotate
  std::size_t moves_ = 0;
  Clock::time_point since_;
};

// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
std::string json_escape(const std::string& s);
std::string json_number(double v);
std::string metrics_json(const std::vector<Metric>& metrics);

// --- span analysis (spans.cpp) ---------------------------------------------

// Per-layer sums over the traced ops, accumulated one op at a time from the
// tracer's span records (the program's spans plus the benchmark's own
// `bench.*` spans around each call into a layer).
struct SpanTotals {
  std::uint64_t ops = 0;
  // Summed durations (ms) by program span name: syscall-batch, cache.lookup,
  // cache.store, snapshot, snapshot.sync, chunk.put.
  std::map<std::string, double> by_name_ms;
  // Bench-timed calls: name -> per-call durations (ms).
  std::map<std::string, std::vector<double>> calls_ms;
  // Self time of `build` and `stage` spans (ms).
  double unattributed_ms = 0;
  // Leaf-span coverage of the bench.op windows.
  double covered_ms = 0;
  double op_window_ms = 0;
  // Swarm phase wall times and post-exchange materialization, per launch.
  std::vector<double> plan_ms, seed_ms, exchange_ms, materialize_ms;
  // Timer/span agreement: each bench call span must contain exactly one
  // program root span (`build` or `cluster.launch`).
  std::uint64_t matched_calls = 0;
  std::uint64_t unmatched_calls = 0;
  std::uint64_t escaped_spans = 0;  // program root span outside its timer
  double matched_bench_ms = 0;
  double matched_span_ms = 0;
  std::vector<double> span_over_timer;  // per matched call

  void add_op(const std::vector<obs::SpanRecord>& spans);
};

}  // namespace perfbench
