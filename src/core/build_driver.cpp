#include "core/build_driver.hpp"

#include <chrono>
#include <thread>

#include "fakeroot/fakeroot.hpp"
#include "kernel/observe.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"

namespace minicon::core {

std::string format_argv(const std::vector<std::string>& argv) {
  std::string out = "[";
  for (std::size_t i = 0; i < argv.size(); ++i) {
    if (i > 0) out += ", ";
    out += "'" + argv[i] + "'";
  }
  out += "]";
  return out;
}

BuildDriver::BuildDriver(Machine& m, kernel::Process invoker,
                         image::Registry* registry,
                         const BuildOptions& options, bool build_cache,
                         obs::FlightRecorder* recorder, Style style)
    : m_(m),
      invoker_(std::move(invoker)),
      registry_(registry),
      style_(style) {
  if (options.force_mode == ForceMode::kSeccomp) {
    zc_stats_ = std::make_shared<kernel::ZeroConsistencyStats>();
  }
  if (options.shared_cache != nullptr) {
    cache_ = options.shared_cache;
  } else if (build_cache) {
    // A private cache dedups its snapshot chunks against registry blobs.
    cache_ = std::make_shared<buildgraph::BuildCache>(
        registry_ != nullptr ? &registry_->chunk_store() : nullptr);
  }
  if (options.trace_syscalls || options.syscall_stats != nullptr) {
    stats_ = options.syscall_stats != nullptr
                 ? options.syscall_stats
                 : std::make_shared<kernel::SyscallStats>();
  }
  metrics_ = options.metrics != nullptr ? options.metrics
                                        : &obs::global_metrics();
  recorder_ = recorder != nullptr ? recorder : &obs::global_flight_recorder();
  // A supplied tracer implies tracing.
  if (options.tracer != nullptr) {
    tracer_ = options.tracer;
  } else if (options.trace) {
    tracer_ = std::make_shared<obs::Tracer>();
  }
  observe_ = tracer_ != nullptr || options.observe_syscalls;
  if (cache_ != nullptr) {
    // Leave a shared cache's wiring alone unless we have something to add:
    // another builder (or the caller) may already have pointed it somewhere.
    if (options.metrics != nullptr) cache_->set_metrics(options.metrics);
    if (tracer_ != nullptr) cache_->set_tracer(tracer_);
  }
}

// The stack, innermost first:
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
void BuildDriver::interpose(kernel::Process& c, const image::ImageConfig& cfg,
                            fakeroot::FakeDbPtr embedded_db) {
  std::shared_ptr<kernel::Syscalls>& sys = c.sys;
  if (observe_) {
    sys = std::make_shared<kernel::ObserveSyscalls>(sys, metrics_, recorder_);
  }
  if (zc_stats_ != nullptr) {
    sys = std::make_shared<kernel::ZeroConsistencySyscalls>(
        sys, zc_stats_, metrics_, recorder_);
  }
  for (const auto& layer : build_options().syscall_layers) {
    if (layer) sys = layer(sys);
  }
  if (stats_ != nullptr) {
    sys = std::make_shared<kernel::TraceSyscalls>(sys, stats_);
  }
  if (embedded_db != nullptr) {
    sys = std::make_shared<fakeroot::FakerootSyscalls>(
        sys, std::move(embedded_db), fakeroot::FakerootOptions{});
  }
  last_depth_ = kernel::interposition_depth(sys.get());
  c.cwd = cfg.workdir.empty() ? "/" : cfg.workdir;
}

support::ThreadPool& BuildDriver::digest_pool() const {
  const auto& pool = build_options().digest_pool;
  return pool != nullptr ? *pool : support::shared_pool();
}

std::string BuildDriver::step(int number, std::size_t total) const {
  return style_ == Style::kPodman
             ? "STEP " + std::to_string(number) + "/" + std::to_string(total) +
                   ": "
             : std::to_string(number) + " ";
}

int BuildDriver::build(const std::string& tag,
                       const std::string& dockerfile_text, Transcript& t) {
  const auto syntax_error = [&](const build::DockerfileError& err) {
    t.line(std::string(style_ == Style::kPodman ? "Error: dockerfile"
                                                : "error: Dockerfile") +
           " line " + std::to_string(err.line) + ": " + err.message);
    return fail_status();
  };
  auto parsed = build::parse_dockerfile(dockerfile_text);
  if (const auto* err = std::get_if<build::DockerfileError>(&parsed)) {
    return syntax_error(*err);
  }
  auto lowered = buildgraph::lower(std::get<build::Dockerfile>(parsed));
  if (const auto* err = std::get_if<build::DockerfileError>(&lowered)) {
    return syntax_error(*err);
  }
  const auto& g = std::get<buildgraph::BuildGraph>(lowered);

  // Baseline for the per-build faked-op delta (the sink is builder-lifetime
  // and a builder can run many builds).
  const kernel::ZeroConsistencyStats::Totals zc0 =
      zc_stats_ != nullptr ? zc_stats_->totals()
                           : kernel::ZeroConsistencyStats::Totals{};
  Stages sb;
  for (std::size_t i = 0; i < g.stages().size(); ++i) {
    sb.push_back(new_stage());
  }
  const char* builder = style_ == Style::kPodman ? "podman" : "ch-image";
  // Adopt the caller's trace context (a cluster launch, a test harness) or
  // mint one: either way every span and flight event below carries it.
  trace_ctx_ = obs::current_trace().active() ? obs::current_trace()
                                             : obs::TraceContext::fresh();
  obs::TraceScope trace_scope(trace_ctx_);
  obs::Span build_span(tracer_.get(), "build");
  build_span.annotate("builder", builder);
  build_span.annotate("tag", tag);
  build_span.annotate("trace_id", trace_ctx_.hex());
  const BuildOptions& opts = build_options();
  buildgraph::StageScheduler::Options sopts;
  sopts.pool = opts.stage_pool.get();
  sopts.parallel = opts.parallel_stages;
  sopts.tracer = tracer_;
  sopts.parent_span = build_span.id();
  sopts.metrics = metrics_;
  buildgraph::StageScheduler sched(g, sopts);
  const int rc = sched.run(
      [&](const buildgraph::Stage& s, Transcript& st) {
        return build_stage(tag, g, s, sb, st, sched.stage_span(s.index));
      },
      t);
  sched_stats_ = sched.stats();
  build_span.annotate("status", std::to_string(rc));
  if (rc != 0 && recorder_->enabled()) {
    // Failure forensics: the post-mortem anchor event. Whatever syscall
    // errors / injected faults led here share this trace id — dump the
    // recorder filtered by it to read the causal chain.
    recorder_->record(obs::FlightKind::kBuildFailed,
                      obs::flight_detail(builder, "", tag), rc);
  }
  return finish(tag, g, sb, rc, zc0, t);
}

int BuildDriver::build_stage(const std::string& tag,
                             const buildgraph::BuildGraph& g,
                             const buildgraph::Stage& s, Stages& sb,
                             Transcript& t, obs::SpanId stage_span) {
  // Stages migrate across pool workers; re-establish the build's context on
  // whichever thread actually runs this stage.
  obs::TraceScope trace_scope(trace_ctx_);
  std::unique_lock lock(machine_mu_);
  StageBuild& o = *sb[static_cast<std::size_t>(s.index)];
  const std::size_t total = g.instruction_count();
  t.line(step(s.from_number, total) + "FROM " + s.from->text);
  if (const int rc = materialize(tag, g, s, sb, o, t, stage_span); rc != 0) {
    return rc;
  }
  // The cache key is a chain over every instruction, as Docker's is: the
  // FROM seeds it from the base stage's key or the backend's seed, and each
  // instruction below folds in its kind and text (and a COPY its source
  // digest). The stage's config is a function of that chain, so a cache
  // entry's stored config always equals the config of the stage that hits
  // it.
  o.key = buildgraph::BuildCache::chain(
      s.base_stage >= 0 ? sb[static_cast<std::size_t>(s.base_stage)]->key
                        : key_seed(),
      "FROM|" + s.from->text, {o.cfg.arch});

  // ARG values exist only during the build and are stage-scoped (Docker
  // semantics); they overlay the environment for RUN instructions.
  std::map<std::string, std::string> build_args;

  for (const auto& si : s.instrs) {
    const build::Instruction& ins = *si.ins;
    obs::Span ins_span(tracer_.get(), "instruction", stage_span);
    ins_span.annotate("number", std::to_string(si.number));
    ins_span.annotate("kind", build::instr_name(ins.kind));
    const std::vector<std::string> argv =
        ins.is_exec_form()
            ? ins.exec_form
            : std::vector<std::string>{"/bin/sh", "-c", ins.text};
    std::string shown = build::instr_name(ins.kind) + " " + ins.text;
    if (ins.kind == build::InstrKind::kAdd) {
      shown = "COPY " + ins.text;
    } else if (ins.kind == build::InstrKind::kRun &&
               (style_ == Style::kChImage || ins.is_exec_form())) {
      shown = "RUN " + format_argv(argv);
    }
    t.line(step(si.number, total) + shown);

    // COPY executes before the key is chained: its source digest is part
    // of its key.
    std::string context;
    if (ins.kind == build::InstrKind::kCopy ||
        ins.kind == build::InstrKind::kAdd) {
      const auto fields = split_ws(si.copy_args);
      if (fields.size() < 2) {
        t.line(std::string(style_ == Style::kPodman ? "Error: " : "error: ") +
               "COPY requires source and destination");
        return fail_status();
      }
      auto digest = copy(o, sb, si, fields[0], fields.back(), t);
      if (!digest.ok()) return fail_status();
      context = std::move(*digest);
    }
    o.key = buildgraph::BuildCache::chain(
        o.key, build::instr_name(ins.kind) + "|" + ins.text, {context});

    switch (ins.kind) {
      case build::InstrKind::kRun:
        if (const int rc = run(o, ins, argv, si.number, total, build_args,
                               ins_span, lock, t);
            rc != 0) {
          return rc;
        }
        break;
      case build::InstrKind::kEnv:
        for (const auto& [k, v] : build::parse_kv(ins.text)) o.cfg.env[k] = v;
        break;
      case build::InstrKind::kArg: {
        // A declaration without a default is declared empty.
        const auto eq = ins.text.find('=');
        build_args[ins.text.substr(0, eq)] =
            eq == std::string::npos ? "" : ins.text.substr(eq + 1);
        break;
      }
      case build::InstrKind::kLabel:
        for (const auto& [k, v] : build::parse_kv(ins.text)) {
          o.cfg.labels[k] = v;
        }
        break;
      case build::InstrKind::kWorkdir: {
        o.cfg.workdir = ins.text;
        std::string out, err;
        if (auto container = enter(o, o.cfg, err); container.ok()) {
          (void)m_.shell().run(*container, "mkdir -p " + ins.text, out, err);
        }
        break;
      }
      case build::InstrKind::kCmd:
        o.cfg.cmd = argv;
        break;
      case build::InstrKind::kEntrypoint:
        o.cfg.entrypoint = argv;
        break;
      case build::InstrKind::kUser:
        user(o, ins.text, t);
        break;
      case build::InstrKind::kFrom:  // opens a stage, never in a body
      case build::InstrKind::kCopy:  // done above
      case build::InstrKind::kAdd:
      case build::InstrKind::kShell:
        break;
    }
  }
  return 0;
}

int BuildDriver::run(StageBuild& o, const build::Instruction& ins,
                     std::vector<std::string> argv, int number,
                     std::size_t total,
                     const std::map<std::string, std::string>& build_args,
                     obs::Span& span, std::unique_lock<std::mutex>& lock,
                     Transcript& t) {
  const bool podman = style_ == Style::kPodman;
  const std::string n = std::to_string(number);
  const std::string noun = podman ? "step " : "instruction ";
  if (cache_ != nullptr) {
    auto hit = cache_->lookup(o.key, span.id());
    if (hit && restore(o, hit->snapshot, span.id())) {
      span.annotate("cached", "true");
      t.line(podman ? "--> Using cache " +
                          Sha256::hex_digest(o.key).substr(0, 12)
                    : "cached: using existing layer for step " + n);
      return 0;
    }
  }
  if (const int rc = prepare_run(o, ins, argv, t); rc != 0) return rc;

  const buildgraph::RetryPolicy& retry = build_options().run_retry;
  image::ImageConfig run_cfg = o.cfg;
  for (const auto& [k, v] : build_args) run_cfg.env[k] = v;
  int status = 0;
  std::string errno_sum;
  for (int attempt = 1;; ++attempt) {
    std::string out, err;
    const kernel::SyscallStats::Totals before =
        stats_ != nullptr ? stats_->totals() : kernel::SyscallStats::Totals{};
    const kernel::ZeroConsistencyStats::Totals zc_before =
        zc_stats_ != nullptr ? zc_stats_->totals()
                             : kernel::ZeroConsistencyStats::Totals{};
    // One syscall-batch span per attempt: deltas of the shared syscall.*
    // counters are exact because the machine mutex is held across the
    // container run.
    obs::Span batch(tracer_.get(), "syscall-batch", span.id());
    batch.annotate("attempt", std::to_string(attempt));
    obs::Counter& calls = metrics_->counter("syscall.calls");
    obs::Counter& errors = metrics_->counter("syscall.errors");
    const std::uint64_t calls0 = calls.value();
    const std::uint64_t errors0 = errors.value();
    auto container = enter(o, run_cfg, err);
    status = container.ok() ? m_.shell().run_argv(*container, argv, out, err)
                            : fail_status();
    batch.annotate("calls", std::to_string(calls.value() - calls0));
    batch.annotate("errors", std::to_string(errors.value() - errors0));
    batch.annotate("status", std::to_string(status));
    batch.end();
    t.block(out);
    t.block(err);
    errno_sum.clear();
    if (stats_ != nullptr) {
      const auto after = stats_->totals();
      errno_sum = kernel::SyscallStats::errno_summary(before, after);
      std::string line = "syscalls: " + noun + n + ": " +
                         std::to_string(after.calls - before.calls) +
                         " calls, " +
                         std::to_string(after.errors - before.errors) +
                         " errors";
      if (!errno_sum.empty()) line += " (" + errno_sum + ")";
      line += ", depth " + std::to_string(last_depth_);
      t.line(line);
    }
    if (zc_stats_ != nullptr) {
      const auto zc_after = zc_stats_->totals();
      if (zc_after.total() > zc_before.total()) {
        t.line("seccomp: " + noun + n + ": faked " +
               std::to_string(zc_after.total() - zc_before.total()) +
               " privileged syscalls");
      }
    }
    if (status == 0 || attempt >= retry.max_attempts) break;
    const int delay = retry.backoff_ms(attempt + 1);
    t.line("retry: RUN instruction " + n + " exited " +
           std::to_string(status) + "; attempt " +
           std::to_string(attempt + 1) + "/" +
           std::to_string(retry.max_attempts) + " in " +
           std::to_string(delay) + " ms");
    // Back off without holding the machine: other stages keep going.
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    lock.lock();
  }
  if (status != 0) {
    run_failed(o, t);
    const std::string code = std::to_string(status);
    if (stats_ != nullptr) {
      t.line(std::string(podman ? "Error: " : "error: ") + "RUN instruction " +
             n + " failed with exit status " + code +
             (errno_sum.empty() ? "" : " (syscall errors: " + errno_sum + ")"));
    }
    const std::string where = step(number, total);
    t.line(podman ? "Error: building at " + where.substr(0, where.size() - 2) +
                        ": while running runtime: exit status " + code
                  : "error: build failed: RUN command exited with " + code);
    return status;
  }
  if (cache_ != nullptr) {
    if (auto snap = snapshot(o, span.id()); snap.ok()) {
      // Chunking new subtrees happens outside the machine lock; this is the
      // work independent stages genuinely overlap.
      lock.unlock();
      cache_->store(o.key, *snap, o.cfg, span.id());
      lock.lock();
    }
  }
  return 0;
}

}  // namespace minicon::core
