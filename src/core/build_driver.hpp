// The Dockerfile build driver behind both builders.
//
// ch-image (Type III, §5) and rootless Podman (Type II, §4) run the same
// Dockerfiles and differ in privilege and storage, not in what a build is.
// BuildDriver owns the whole build: parse and lower to a
// buildgraph::BuildGraph, the trace context and `build` span, the
// buildgraph::StageScheduler and the machine mutex, the cache-key chain,
// cache lookup/restore and the off-lock store, the RUN attempt loop
// (syscall-batch span, syscall and zero-consistency deltas, off-lock retry
// backoff) and the config instructions (ENV ARG LABEL CMD ENTRYPOINT
// WORKDIR). A builder derives from it and supplies only what differs,
// through the protected hooks: materializing a stage's base, preparing a
// RUN, entering a container, snapshotting a stage for the cache and
// restoring it, COPY and USER, and the lines that end a build.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "buildfile/dockerfile.hpp"
#include "buildgraph/cache.hpp"
#include "buildgraph/graph.hpp"
#include "buildgraph/scheduler.hpp"
#include "core/force.hpp"
#include "core/machine.hpp"
#include "fakeroot/fakedb.hpp"
#include "image/registry.hpp"
#include "kernel/syscall_filter.hpp"
#include "kernel/trace.hpp"
#include "kernel/zeroconsistency.hpp"
#include "obs/context.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/transcript.hpp"
#include "vfs/filesystem.hpp"

namespace minicon::support {
class ThreadPool;
}

namespace minicon::core {

// The options both builders take.
struct BuildOptions {
  // Which root emulator --force selects. kSeccomp stacks the
  // zero-consistency filter under every container the build enters.
  ForceMode force_mode = ForceMode::kNone;

  // Build cache shared with other builders (implies the builder's
  // build_cache). When null and build_cache is set, the builder creates a
  // private cache backed by the registry's chunk store.
  buildgraph::BuildCachePtr shared_cache;

  // Multi-stage scheduling: independent stages run concurrently on
  // stage_pool (null = support::shared_pool()). parallel_stages=false
  // forces serial execution; transcripts are identical either way.
  bool parallel_stages = true;
  std::shared_ptr<support::ThreadPool> stage_pool;

  // Retry for RUN instructions that fail transiently (fault injection);
  // default is one attempt, i.e. no retry.
  buildgraph::RetryPolicy run_retry;

  // Worker pool for the pipelined push path (chunk digest + upload overlap
  // with serialization). Null selects the process-wide shared pool.
  std::shared_ptr<support::ThreadPool> digest_pool;

  // Syscall interposition stack. With tracing on, every container gets a
  // TraceSyscalls layer and the build transcript reports per-RUN syscall
  // counts, error deltas, and interposition depth.
  bool trace_syscalls = false;
  kernel::SyscallStatsPtr syscall_stats;  // shared sink; created if null
  // Extra layers (e.g. fault injection) stacked above the runtime's syscall
  // table, innermost first; trace and fakeroot wrap outside these.
  std::vector<kernel::SyscallLayerFn> syscall_layers;

  // Unified telemetry (`build --trace`): span tracing across the whole
  // build — build → stage → instruction → syscall-batch — plus an
  // ObserveSyscalls metrics layer stacked innermost in every container. A
  // Tracer is created when `tracer` is null; read it back via tracer().
  bool trace = false;
  std::shared_ptr<obs::Tracer> tracer;
  // ObserveSyscalls without full span tracing (implied by `trace`).
  bool observe_syscalls = false;
  // Registry the build reports into; null = obs::global_metrics(). Also
  // re-points the build cache's mirrored counters.
  obs::MetricsRegistry* metrics = nullptr;
};

class BuildDriver {
 public:
  BuildDriver(const BuildDriver&) = delete;
  BuildDriver& operator=(const BuildDriver&) = delete;
  virtual ~BuildDriver() = default;

  // `build -t tag -f dockerfile .` — returns the exit status and writes the
  // builder's transcript.
  int build(const std::string& tag, const std::string& dockerfile_text,
            Transcript& t);

  // Build-cache counters (zero when caching is off). With a shared cache
  // the counters aggregate every builder attached to it.
  std::size_t cache_hits() const { return cache_stats().hits; }
  std::size_t cache_misses() const { return cache_stats().misses; }
  buildgraph::CacheStats cache_stats() const {
    return cache_ != nullptr ? cache_->stats() : buildgraph::CacheStats{};
  }
  const buildgraph::BuildCachePtr& build_cache() const { return cache_; }
  // Stage-scheduling stats for the most recent build.
  const buildgraph::ScheduleStats& schedule_stats() const {
    return sched_stats_;
  }

  // Faked-op counts for --force=seccomp (null in the other modes).
  const kernel::ZeroConsistencyStatsPtr& zeroconsistency_stats() const {
    return zc_stats_;
  }

  // Aggregate syscall counters across every container entered (null unless
  // tracing is enabled) and the interposition depth of the last container.
  const kernel::SyscallStatsPtr& syscall_stats() const { return stats_; }
  int last_interposition_depth() const { return last_depth_; }

  // The span tracer (null unless options.trace / options.tracer) and the
  // metrics registry this builder reports into (never null).
  const std::shared_ptr<obs::Tracer>& tracer() const { return tracer_; }
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 protected:
  // Transcript dialect: ch-image's `N RUN ['/bin/sh', '-c', ...]` lines
  // and exit status 1, or Podman's `STEP n/N: RUN ...` lines and 125.
  enum class Style { kChImage, kPodman };

  // Per-stage build state, indexed by stage index; a builder derives from
  // it to add its storage handle. Written only by the stage's own executor;
  // read by dependent stages after the scheduler's happens-before edge.
  struct StageBuild {
    StageBuild() = default;
    StageBuild(const StageBuild&) = default;
    StageBuild(StageBuild&&) = default;
    StageBuild& operator=(const StageBuild&) = default;
    StageBuild& operator=(StageBuild&&) = default;
    virtual ~StageBuild() = default;
    image::ImageConfig cfg;
    std::string key;  // build-cache chain after the last instruction
  };
  using Stages = std::vector<std::unique_ptr<StageBuild>>;

  // Resolves the sinks from `options`; a null `recorder` selects
  // obs::global_flight_recorder().
  BuildDriver(Machine& m, kernel::Process invoker, image::Registry* registry,
              const BuildOptions& options, bool build_cache,
              obs::FlightRecorder* recorder, Style style);

  // --- hooks -----------------------------------------------------------------
  virtual const BuildOptions& build_options() const = 0;
  virtual std::unique_ptr<StageBuild> new_stage() const = 0;
  // Seeds the key chain of a stage built on a registry image, so two
  // storage formats never share an entry.
  virtual std::string key_seed() const = 0;
  // FROM: materializes the stage's base — a registry image or the earlier
  // stage sb[s.base_stage] — into `o` and sets o.cfg. Returns an exit
  // status, having written its own diagnostics.
  virtual int materialize(const std::string& tag,
                          const buildgraph::BuildGraph& g,
                          const buildgraph::Stage& s, const Stages& sb,
                          StageBuild& o, Transcript& t,
                          obs::SpanId stage_span) = 0;
  // Readies `o` for a RUN that missed the cache; may rewrite argv.
  virtual int prepare_run(StageBuild& o, const build::Instruction& ins,
                          std::vector<std::string>& argv, Transcript& t) = 0;
  // Enters a container over the stage's tree with the build's syscall
  // stack (see interpose()); on failure appends a diagnostic line to `why`.
  virtual Result<kernel::Process> enter(StageBuild& o,
                                        const image::ImageConfig& cfg,
                                        std::string& why) = 0;
  // The cache value for the stage's current state, and its restoration.
  virtual Result<vfs::SnapNodePtr> snapshot(StageBuild& o,
                                            obs::SpanId parent) = 0;
  virtual bool restore(StageBuild& o, const vfs::SnapNodePtr& snap,
                       obs::SpanId parent) = 0;
  // COPY/ADD `src` to `dst`; returns the source's content digest for the
  // cache key, or an error after writing its diagnostic.
  virtual Result<std::string> copy(StageBuild& o, const Stages& sb,
                                   const buildgraph::StageInstr& si,
                                   const std::string& src, std::string dst,
                                   Transcript& t) = 0;
  virtual void user(StageBuild& o, const std::string& name, Transcript& t) = 0;
  // Called first when a RUN fails, for a backend-specific hint.
  virtual void run_failed(const StageBuild&, Transcript&) {}
  // Ends every build: records the image on success and writes the closing
  // lines. `zc0` is the zero-consistency baseline from the build's start.
  virtual int finish(const std::string& tag, const buildgraph::BuildGraph& g,
                     Stages& sb, int rc,
                     const kernel::ZeroConsistencyStats::Totals& zc0,
                     Transcript& t) = 0;

  // --- helpers for the hooks -------------------------------------------------
  // Stacks the build's syscall layers over a container just entered (order
  // and rationale in build_driver.cpp) and starts it in cfg.workdir.
  void interpose(kernel::Process& c, const image::ImageConfig& cfg,
                 fakeroot::FakeDbPtr embedded_db = nullptr);
  support::ThreadPool& digest_pool() const;

  Machine& m_;
  kernel::Process invoker_;
  image::Registry* registry_;

 private:
  int build_stage(const std::string& tag, const buildgraph::BuildGraph& g,
                  const buildgraph::Stage& s, Stages& sb, Transcript& t,
                  obs::SpanId stage_span);
  int run(StageBuild& o, const build::Instruction& ins,
          std::vector<std::string> argv, int number, std::size_t total,
          const std::map<std::string, std::string>& build_args,
          obs::Span& span, std::unique_lock<std::mutex>& lock, Transcript& t);
  // "3 " or "STEP 3/5: ": what precedes an instruction in the transcript.
  std::string step(int number, std::size_t total) const;
  int fail_status() const { return style_ == Style::kPodman ? 125 : 1; }

  const Style style_;
  buildgraph::BuildCachePtr cache_;  // null when caching is off
  buildgraph::ScheduleStats sched_stats_;
  // One simulated machine, one kernel: stage bodies serialize behind this.
  std::mutex machine_mu_;
  kernel::ZeroConsistencyStatsPtr zc_stats_;  // null unless --force=seccomp
  kernel::SyscallStatsPtr stats_;  // null unless tracing is enabled
  int last_depth_ = 0;
  bool observe_ = false;                 // ObserveSyscalls innermost
  std::shared_ptr<obs::Tracer> tracer_;  // null unless span tracing is on
  // The running build's trace context: established in build() (inherited
  // from the caller when one is active), re-installed in build_stage() on
  // whichever pool worker runs the stage, so syscall errors and injected
  // faults inside any stage carry the build's trace id.
  obs::TraceContext trace_ctx_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
};

// Renders ['a', 'b', 'c'] the way ch-image transcripts do.
std::string format_argv(const std::vector<std::string>& argv);

}  // namespace minicon::core
