// Fig 6 end-to-end benchmark: entry point.
//
//   fig6_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--fault-every <n>]
//
// --seconds sets a fixed number of measured ops per workload (see
// op_budget), so a run measures about --seconds on a 4-core host.
// --trace 0 sets the workload up several times (reporting the median
// set-up time), then runs one untraced closed-loop phase and prints the
// end-to-end metrics.
// --trace 1 sets the workload up once, runs an untraced reference phase and
// a traced phase of half the budget each and prints the per-layer metrics;
// the ratio of their op_ms.p50 is the tracing overhead.
// During measured ops the client thread visits every allowed CPU in turn
// (CpuRotation, bench.hpp).
//
// Every stdout line but the last is a JSON report (provenance, sample
// counts, metrics that are reported but not gated); the last line is the
// result: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <thread>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

// An untraced run sets the workload up at least kMinSetupReps times and
// until kMinSetupSeconds of set-up time have passed (at most kMaxSetupReps
// times), and reports the median.
constexpr std::size_t kMinSetupReps = 21;
constexpr std::size_t kMaxSetupReps = 1000;
constexpr double kMinSetupSeconds = 2.0;
constexpr int kWarmupOps = 3;
// Enough ops that op_ms.p90 has at least ten samples beyond it.
constexpr std::size_t kMinOps = 100;
// Each call's root span must cover this share of the bench timer around
// it. Up to kMaxShortCalls of the calls may fall short: a preemption
// between the timer's and the span's start or end lands in the gap.
constexpr double kMinSpanOverTimer = 0.9;
constexpr double kMaxShortCalls = 0.01;
constexpr double kMiB = 1 << 20;
constexpr std::uint64_t kSeedFaults = 9;

struct Phase {
  std::vector<double> op_ms;  // measured (non-warm-up) ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;           // warm-up and measured ops
  std::uint64_t measured_failed = 0;  // measured ops only
  std::uint64_t faulted = 0;  // ops the self-test armed
  std::vector<std::string> errors;
  std::size_t client_cpus = 0;  // CPUs the client rotated over (0: none)
  bool pinned_threads = false;  // a thread inherited a pinned CPU set
  double served_bytes = 0;
  double stored_bytes = 0;
};

bool armed(const Config& cfg, std::uint64_t index) {
  return cfg.fault_every > 0 &&
         stream(cfg.seed, kSeedFaults, index)
                 .below(static_cast<std::uint64_t>(cfg.fault_every)) == 0;
}

// The measured ops of a phase that stands for `seconds` of --seconds. The
// count is fixed rather than timed: every pushed version stays in the
// registry, so peak RSS and the latency of late ops grow with the op count,
// which must therefore not depend on how fast the host is.
std::size_t op_budget(const Config& cfg, double seconds) {
  const double ops = std::round(nominal_ops_per_s(cfg.workload) * seconds);
  return std::max(kMinOps, static_cast<std::size_t>(ops));
}

// One closed-loop phase: warm-up ops (checked, not timed), then `ops`
// measured ops. Traced phases fold each op's spans into `spans` and its
// counter deltas into `window`.
Phase run_phase(Workload& wl, const Config& cfg, std::size_t ops,
                const std::shared_ptr<obs::Tracer>& tracer, SpanTotals* spans,
                CounterWindow* window, std::uint64_t& next_index) {
  Phase ph;
  auto one = [&](bool measured) {
    const std::uint64_t index = next_index++;
    const bool fault = armed(cfg, index);
    const OpResult r = wl.run_op(index, fault);
    ++ph.attempted;
    ph.faulted += fault ? 1 : 0;
    if (!r.ok) {
      ++ph.failed;
      ph.measured_failed += measured ? 1 : 0;
      if (ph.errors.size() < 5) {
        ph.errors.push_back("op " + std::to_string(index) + ": " + r.error);
      }
    }
    if (measured) ph.op_ms.push_back(r.ms);
    if (tracer != nullptr) {
      if (measured) spans->add_op(tracer->spans());
      tracer->clear();
    }
  };
  wl.begin_phase(tracer);
  // Warm-up also starts every lazily created pool (the cluster's launch
  // pool), so no thread is born while the client is pinned.
  for (int i = 0; i < kWarmupOps; ++i) one(false);
  wl.extras() = OpExtras{};
  wl.set_window(window);
  image::Registry& reg = wl.registry();
  const double served0 = static_cast<double>(reg.bytes_served());
  const double stored0 = static_cast<double>(reg.chunks().unique_bytes());
  const double threads0 = proc_status("Threads");
  {
    CpuRotation rotation;
    ph.client_cpus = rotation.cpus();
    for (std::size_t i = 0; i < ops; ++i) {
      rotation.step();
      one(true);
    }
  }
  if (proc_status("Threads") != threads0) {
    ph.pinned_threads = true;
    ph.errors.push_back("threads were started while the client was pinned");
  }
  wl.set_window(nullptr);
  ph.served_bytes = static_cast<double>(reg.bytes_served()) - served0;
  ph.stored_bytes =
      static_cast<double>(reg.chunks().unique_bytes()) - stored0;
  return ph;
}

std::string json_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + json_escape(v[i]) + "\"";
  }
  return out + "]";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_number(v[i]);
  }
  return out + "]";
}

std::string provenance_json(const Config& cfg, const Phase& ph,
                            std::size_t setup_reps) {
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"pool_widths\": {\"stage_pool\": " + std::to_string(cfg.width) +
         ", \"digest_pool\": " + std::to_string(cfg.width) +
         ", \"launch_width\": " + std::to_string(cfg.width) +
         "}, \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\", \"compiler\": \"" PERFBENCH_COMPILER "\", \"seed\": " +
         std::to_string(cfg.seed) + ", \"seconds\": " +
         json_number(cfg.seconds) + ", \"ops\": " +
         std::to_string(ph.op_ms.size()) + ", \"warmup_ops\": " +
         std::to_string(kWarmupOps) + ", \"setup_reps\": " +
         std::to_string(setup_reps) + ", \"client_cpus\": " +
         std::to_string(ph.client_cpus) + ", \"client_dwell_ms\": " +
         json_number(CpuRotation::kDwellMs) +
         ", \"load\": \"closed loop, 1 client\"}";
}

// End-to-end metrics of an untraced phase. The first five are gated; the
// rest can legitimately be 0 on some workload, so they are reported only.
std::vector<Metric> end_to_end(const Phase& ph, double setup_s) {
  const double ops = static_cast<double>(ph.op_ms.size());
  double timed_ms = 0;
  for (double ms : ph.op_ms) timed_ms += ms;
  const double completed = ops - static_cast<double>(ph.measured_failed);
  return {
      {"setup_s", setup_s, "s"},
      {"op_ms.p50", quantile(ph.op_ms, 0.5), "ms"},
      {"op_ms.p90", quantile(ph.op_ms, 0.9), "ms"},
      {"ops_per_s", timed_ms > 0 ? completed * 1000.0 / timed_ms : 0, "1/s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"fail_frac",
       static_cast<double>(ph.failed) / static_cast<double>(ph.attempted),
       "ratio"},
      {"registry_served_mib_per_op", ph.served_bytes / kMiB / ops, "MiB"},
      {"registry_stored_mib_per_op", ph.stored_bytes / kMiB / ops, "MiB"},
  };
}

struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<std::string> idle;  // n/a: the layer did no work here
  void add(const std::string& name, double value, const std::string& unit,
           bool active) {
    metrics.push_back({name, active ? value : 0, unit});
    if (!active) idle.push_back(name);
  }
};

LayerReport per_layer(const SpanTotals& st, const CounterWindow& w,
                      const OpExtras& ex, double untraced_p50,
                      double traced_p50) {
  LayerReport r;
  const double ops = static_cast<double>(st.ops);
  auto calls = [&](const std::string& name) -> const std::vector<double>& {
    static const std::vector<double> kNone;
    const auto it = st.calls_ms.find(name);
    return it == st.calls_ms.end() ? kNone : it->second;
  };
  auto call_mean = [&](const std::string& metric, const std::string& call) {
    r.add(metric, mean(calls(call)), "ms", !calls(call).empty());
  };
  auto span_ms = [&](const std::string& metric, const std::string& span) {
    const auto it = st.by_name_ms.find(span);
    r.add(metric, it == st.by_name_ms.end() ? 0 : it->second / ops, "ms",
          it != st.by_name_ms.end());
  };
  auto c = [&](const std::string& name) { return w.counter(name); };

  r.add("buildfile.parse_us", mean(ex.parse_us), "us", !ex.parse_us.empty());

  call_mean("core.chimage.build_ms.fakeroot", "chimage.build.fakeroot");
  call_mean("core.chimage.build_ms.seccomp", "chimage.build.seccomp");
  call_mean("core.podman.build_ms", "podman.build");
  call_mean("core.chimage.build_ms", "chimage.build");
  call_mean("core.chimage.push_ms", "chimage.push");
  call_mean("core.cluster.launch_ms", "cluster.launch");
  r.add("core.launch.materialize_ms", mean(st.materialize_ms), "ms",
        !st.materialize_ms.empty());
  const bool builds = st.by_name_ms.count("syscall-batch") > 0;
  r.add("core.build.unattributed_ms", st.unattributed_ms / ops, "ms", builds);

  const bool kernel = c("syscall.calls") > 0;
  r.add("kernel.syscalls_per_op", c("syscall.calls") / ops, "count/op",
        kernel);
  r.add("kernel.syscall_errors_per_op", c("syscall.errors") / ops, "count/op",
        kernel);
  span_ms("kernel.syscall_batch_ms", "syscall-batch");
  r.add("kernel.zeroconsistency.faked_per_op",
        c("syscall.zeroconsistency.faked") / ops, "count/op",
        c("syscall.zeroconsistency.faked") > 0);

  const double hits = c("cache.hits");
  const double misses = c("cache.misses");
  const bool cache = hits + misses > 0;
  r.add("buildgraph.cache.hits_per_op", hits / ops, "count/op", cache);
  r.add("buildgraph.cache.misses_per_op", misses / ops, "count/op", cache);
  r.add("buildgraph.cache.hit_ratio", cache ? hits / (hits + misses) : 0,
        "ratio", cache);
  span_ms("buildgraph.cache.lookup_ms", "cache.lookup");
  span_ms("buildgraph.cache.store_ms", "cache.store");
  r.add("buildgraph.cache.evictions", c("cache.evictions"), "count", cache);
  r.add("buildgraph.sched.peak_in_flight",
        static_cast<double>(ex.peak_in_flight), "count",
        ex.peak_in_flight > 0);

  const double built = c("snapshot.nodes_built");
  const double reused = c("snapshot.nodes_reused");
  const bool snaps = st.by_name_ms.count("snapshot") > 0;
  span_ms("vfs.snapshot_ms", "snapshot");
  r.add("vfs.snapshot.nodes_built_per_op", built / ops, "count/op", snaps);
  r.add("vfs.snapshot.reuse_ratio",
        built + reused > 0 ? reused / (built + reused) : 0, "ratio",
        built + reused > 0);
  span_ms("vfs.sync_ms", "snapshot.sync");
  r.add("vfs.snapshot.base_reuses", c("snapshot.base_reuses") / ops,
        "count/op", builds);

  const double puts = c("chunk.puts");
  span_ms("image.chunk.put_ms", "chunk.put");
  r.add("image.registry.bytes_pushed_per_op", c("registry.bytes_pushed") / ops,
        "B", c("registry.pushes") > 0);
  r.add("image.chunk.dedup_ratio", puts > 0 ? c("chunk.dedup_hits") / puts : 0,
        "ratio", puts > 0);
  r.add("image.registry.served_mib_per_op",
        c("registry.bytes_served") / kMiB / ops, "MiB",
        c("registry.bytes_served") > 0);
  r.add("image.chunk.stored_mib_per_op", c("chunk.bytes_stored") / kMiB / ops,
        "MiB", puts > 0);
  const bool swarm = !st.plan_ms.empty();
  r.add("image.swarm.plan_ms", mean(st.plan_ms), "ms", swarm);
  r.add("image.swarm.seed_phase_ms", mean(st.seed_ms), "ms", swarm);
  r.add("image.swarm.exchange_phase_ms", mean(st.exchange_ms), "ms", swarm);
  r.add("image.swarm.peer_mib_per_op",
        c("swarm.peer_bytes") / kMiB / ops, "MiB", swarm);
  r.add("image.swarm.registry_fallbacks", c("swarm.registry_fallbacks"),
        "count", swarm);

  const bool pool = w.histogram_mean("pool.task_run_us") > 0;
  r.add("support.pool.task_wait_us", w.histogram_mean("pool.task_wait_us"),
        "us", pool);
  r.add("support.pool.task_run_us", w.histogram_mean("pool.task_run_us"),
        "us", pool);

  r.add("obs.span_coverage",
        st.op_window_ms > 0 ? st.covered_ms / st.op_window_ms : 0, "ratio",
        st.op_window_ms > 0);
  r.add("obs.trace_overhead_frac",
        untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0, "ratio",
        untraced_p50 > 0);
  r.add("obs.span_timer_ratio",
        st.matched_bench_ms > 0 ? st.matched_span_ms / st.matched_bench_ms : 0,
        "ratio", st.matched_calls > 0);
  return r;
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "fig6_bench: " << why
            << "\nusage: fig6_bench --workload privilege_matrix|"
               "edit_rebuild_push|cold_launch_p2p --seed N --seconds S "
               "--trace 0|1 [--fault-every N]\n";
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
      continue;
    }
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || v < 0) {
      usage(("bad value for " + flag).c_str());
    }
    if (flag == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(v);
    } else if (flag == "--seconds") {
      cfg.seconds = v;
    } else if (flag == "--trace") {
      cfg.trace = v != 0;
    } else if (flag == "--fault-every") {
      cfg.fault_every = static_cast<int>(v);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !known_workload(cfg.workload)) {
    usage("unknown or missing --workload");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.width = static_cast<int>(std::clamp(hw, 1u, 4u));
  return cfg;
}

int run(const Config& cfg) {
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Workload> wl;
  // Only untraced runs report setup_s, so only they repeat the set-up.
  do {
    wl.reset();
    const auto t0 = Clock::now();
    wl = make_workload(cfg);
    setup_s.push_back(ms_since(t0) / 1000.0);
    setup_total_s += setup_s.back();
  } while (!cfg.trace && setup_s.size() < kMaxSetupReps &&
           (setup_s.size() < kMinSetupReps ||
            setup_total_s < kMinSetupSeconds));

  std::uint64_t next_index = 0;
  const std::string head = "{\"report\": {\"workload\": \"" + cfg.workload +
                           "\", \"trace\": " + (cfg.trace ? "1" : "0");
  if (!cfg.trace) {
    const Phase ph = run_phase(*wl, cfg, op_budget(cfg, cfg.seconds),
                               nullptr, nullptr, nullptr, next_index);
    const auto all = end_to_end(ph, median(setup_s));
    std::cout << head << ", \"provenance\": "
              << provenance_json(cfg, ph, setup_s.size())
              << ", \"samples\": {\"setup_s\": " << json_list(setup_s)
              << ", \"op_ms\": " << ph.op_ms.size()
              << "}, \"faulted_ops\": " << ph.faulted
              << ", \"end_to_end\": " << metrics_json(all)
              << ", \"errors\": " << json_list(ph.errors) << "}}\n";
    const std::vector<Metric> gated(all.begin(), all.begin() + 5);
    const bool correct = ph.failed == 0 && !ph.pinned_threads;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << ph.attempted
              << ", \"failed\": " << ph.failed
              << ", \"metrics\": " << metrics_json(gated) << "}" << std::endl;
    return 0;
  }

  const std::size_t half = op_budget(cfg, cfg.seconds / 2);
  const Phase ref =
      run_phase(*wl, cfg, half, nullptr, nullptr, nullptr, next_index);
  auto tracer = std::make_shared<obs::Tracer>();
  SpanTotals spans;
  CounterWindow window({&wl->metrics(), &obs::global_metrics()});
  const Phase traced =
      run_phase(*wl, cfg, half, tracer, &spans, &window, next_index);
  const LayerReport layers =
      per_layer(spans, window, wl->extras(), quantile(ref.op_ms, 0.5),
                quantile(traced.op_ms, 0.5));
  // The benchmark's timers and the program's spans must tell one story:
  // every build/launch root span sits inside the timer around its call, and
  // accounts for nearly all of that call.
  const double agreement = spans.matched_bench_ms > 0
                               ? spans.matched_span_ms / spans.matched_bench_ms
                               : 1;
  const auto short_calls = static_cast<double>(
      std::count_if(spans.span_over_timer.begin(), spans.span_over_timer.end(),
                    [](double r) { return r < kMinSpanOverTimer; }));
  const bool agree =
      spans.unmatched_calls == 0 && spans.escaped_spans == 0 &&
      short_calls <= kMaxShortCalls * static_cast<double>(spans.matched_calls);
  const std::uint64_t attempted = ref.attempted + traced.attempted;
  const std::uint64_t failed = ref.failed + traced.failed;
  std::vector<std::string> errors = ref.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  std::cout << head << ", \"provenance\": "
            << provenance_json(cfg, traced, setup_s.size())
            << ", \"samples\": {\"untraced_op_ms\": " << ref.op_ms.size()
            << ", \"traced_op_ms\": " << traced.op_ms.size()
            << "}, \"faulted_ops\": " << ref.faulted + traced.faulted
            << ", \"timer_span_agreement\": {\"matched_calls\": "
            << spans.matched_calls
            << ", \"unmatched_calls\": " << spans.unmatched_calls
            << ", \"escaped_spans\": " << spans.escaped_spans
            << ", \"span_over_timer\": " << json_number(agreement)
            << ", \"min_call_span_over_timer\": "
            << json_number(quantile(spans.span_over_timer, 0))
            << ", \"short_calls\": " << short_calls
            << "}, \"n/a\": " << json_list(layers.idle)
            << ", \"errors\": " << json_list(errors) << "}}\n";
  const bool correct = failed == 0 && agree && !ref.pinned_threads &&
                       !traced.pinned_threads;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(layers.metrics) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Config cfg = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "fig6_bench: " << e.what() << "\n";
    return 1;
  }
}
