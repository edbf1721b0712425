#include "core/podman.hpp"

#include <chrono>
#include <thread>

#include "buildfile/dockerfile.hpp"
#include "core/chimage.hpp"  // format_argv
#include "core/syscall_stack.hpp"
#include "image/tar.hpp"
#include "kernel/syscalls.hpp"
#include "kernel/userdb.hpp"
#include "support/path.hpp"
#include "support/sha256.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"
#include "vfs/overlayfs.hpp"

namespace minicon::core {

Podman::Podman(Machine& m, kernel::Process invoker, image::Registry* registry,
               PodmanOptions options)
    : m_(m),
      invoker_(std::move(invoker)),
      registry_(registry),
      options_(std::move(options)) {
  if (options_.graphroot_backing == nullptr) {
    // "/tmp or local disk can be used for container storage" (§4.2).
    options_.graphroot_backing = std::make_shared<vfs::MemFs>(0755);
  }
  if (options_.driver == PodmanOptions::Driver::kVfs) {
    driver_ = std::make_unique<VfsDriver>(
        options_.graphroot_backing, "containers/storage/vfs",
        invoker_.cred.euid, invoker_.cred.egid);
  } else {
    driver_ = std::make_unique<OverlayDriver>(options_.graphroot_backing);
  }
  if (options_.shared_cache != nullptr) {
    cache_ = options_.shared_cache;
    options_.build_cache = true;
  } else if (options_.build_cache) {
    // A private cache dedups its diff-tar chunks against registry blobs.
    cache_ = std::make_shared<buildgraph::BuildCache>(
        registry_ != nullptr ? &registry_->chunk_store() : nullptr);
  }
  if (options_.trace_syscalls || options_.syscall_stats != nullptr) {
    stats_ = options_.syscall_stats != nullptr
                 ? options_.syscall_stats
                 : std::make_shared<kernel::SyscallStats>();
  }
  if (options_.force_mode == ForceMode::kFakeroot) {
    options_.force_mode = ForceMode::kNone;  // not a podman mode
  }
  if (options_.force_mode == ForceMode::kSeccomp) {
    zc_stats_ = std::make_shared<kernel::ZeroConsistencyStats>();
  }
  metrics_ = options_.metrics != nullptr ? options_.metrics
                                         : &obs::global_metrics();
  if (options_.tracer != nullptr) {
    tracer_ = options_.tracer;
    options_.trace = true;  // a supplied tracer implies tracing
  } else if (options_.trace) {
    tracer_ = std::make_shared<obs::Tracer>();
  }
  if (cache_ != nullptr) {
    // Leave a shared cache's wiring alone unless we have something to add:
    // another builder (or the caller) may already have pointed it somewhere.
    if (options_.metrics != nullptr) cache_->set_metrics(options_.metrics);
    if (tracer_ != nullptr) cache_->set_tracer(tracer_);
  }
  load_id_maps();
}

void Podman::load_id_maps() {
  // The same subuid/subgid view the helpers enforce; used for the id maps
  // shown by `podman unshare` and for push-time translation.
  std::vector<kernel::IdMapEntry> uids{{0, invoker_.cred.euid, 1}};
  std::vector<kernel::IdMapEntry> gids{{0, invoker_.cred.egid, 1}};
  if (options_.rootless_helpers) {
    kernel::Process reader = invoker_.clone();
    reader.sys = m_.kernel().syscalls();
    const std::string user = invoker_.env_get("USER");
    auto read_db = [&](const std::string& path) {
      auto text = reader.sys->read_file(reader, path);
      return kernel::SubidDb::parse(text.ok() ? *text : "");
    };
    for (const auto& r : read_db(options_.helper_config.subuid_path)
                             .ranges_for(user, invoker_.cred.ruid)) {
      uids.push_back({1, r.start, r.count});
      break;
    }
    for (const auto& r : read_db(options_.helper_config.subgid_path)
                             .ranges_for(user, invoker_.cred.ruid)) {
      gids.push_back({1, r.start, r.count});
      break;
    }
  }
  uid_map_ = kernel::IdMap{uids};
  gid_map_ = kernel::IdMap{gids};
}

vfs::Uid Podman::uid_to_container(vfs::Uid kuid) const {
  return uid_map_.to_inside(kuid).value_or(vfs::kOverflowUid);
}

vfs::Gid Podman::gid_to_container(vfs::Gid kgid) const {
  return gid_map_.to_inside(kgid).value_or(vfs::kOverflowGid);
}

Result<kernel::Process> Podman::enter(const Layer& layer,
                                      const image::ImageConfig& cfg) {
  RootFs rootfs;
  rootfs.fs = layer.fs;
  rootfs.root = layer.root;
  rootfs.owner_ns = nullptr;
  TypeIIOptions opts;
  opts.use_helpers = options_.rootless_helpers;
  opts.ignore_chown_errors = options_.ignore_chown_errors;
  opts.helper_config = options_.helper_config;
  // fuse-overlayfs mounts belong to the container namespace; plain vfs
  // directories remain part of the host mount.
  opts.container_owned_storage =
      options_.driver == PodmanOptions::Driver::kOverlay;
  opts.env = cfg.env;
  MINICON_TRY_ASSIGN(c, enter_type2(m_, invoker_, rootfs, opts));
  SyscallStackSinks sinks;
  sinks.observe = options_.trace || options_.observe_syscalls;
  sinks.metrics = metrics_;
  sinks.zc_stats = zc_stats_;
  sinks.layers = &options_.syscall_layers;
  sinks.trace_stats = stats_;
  c.sys = assemble_syscall_stack(c.sys, sinks);
  last_depth_ = kernel::interposition_depth(c.sys.get());
  c.cwd = cfg.workdir.empty() ? "/" : cfg.workdir;
  // USER instruction: switch to the image-defined user — possible in a
  // Type II container because the image's users are all mapped (§2.1.2).
  if (!cfg.user.empty() && cfg.user != "root") {
    vfs::Uid uid = 0;
    vfs::Gid gid = 0;
    if (parse_u32(cfg.user, uid)) {
      gid = uid;
    } else if (auto passwd = c.sys->read_file(c, "/etc/passwd"); passwd.ok()) {
      if (auto entry = kernel::PasswdDb::parse(*passwd).by_name(cfg.user)) {
        uid = entry->uid;
        gid = entry->gid;
      } else {
        return Err::enoent;  // unknown USER
      }
    }
    MINICON_TRY(c.sys->setgid(c, gid));
    MINICON_TRY(c.sys->setuid(c, uid));
  }
  return c;
}

Result<std::string> Podman::read_from_layer(const Layer& layer,
                                            const std::string& path) const {
  vfs::InodeNum cur = layer.root;
  for (const auto& comp : path_components(path)) {
    MINICON_TRY_ASSIGN(child, layer.fs->lookup(cur, comp));
    cur = child;
  }
  return layer.fs->read(cur);
}

bool Podman::restore_layer(const Layer& layer,
                           const vfs::SnapNodePtr& snapshot) {
  if (snapshot == nullptr) return false;
  // Diff entries carry host-side IDs (how the storage layer keeps them),
  // so they replay verbatim.
  const auto entries = image::snapshot_to_entries(snapshot);
  vfs::OpCtx ctx;
  ctx.host_uid = invoker_.cred.euid;
  ctx.host_gid = invoker_.cred.egid;
  ctx.host_privileged = invoker_.cred.euid == 0;
  return image::entries_to_tree(entries, *layer.fs, layer.root, ctx).ok();
}

int Podman::build(const std::string& tag, const std::string& dockerfile_text,
                  Transcript& t) {
  auto parsed = build::parse_dockerfile(dockerfile_text);
  if (const auto* err = std::get_if<build::DockerfileError>(&parsed)) {
    t.line("Error: dockerfile line " + std::to_string(err->line) + ": " +
           err->message);
    return 125;
  }
  const auto& df = std::get<build::Dockerfile>(parsed);
  auto lowered = buildgraph::lower(df);
  if (const auto* err = std::get_if<build::DockerfileError>(&lowered)) {
    t.line("Error: dockerfile line " + std::to_string(err->line) + ": " +
           err->message);
    return 125;
  }
  const auto& g = std::get<buildgraph::BuildGraph>(lowered);

  const kernel::ZeroConsistencyStats::Totals zc0 =
      zc_stats_ != nullptr ? zc_stats_->totals()
                           : kernel::ZeroConsistencyStats::Totals{};
  std::vector<StageBuild> sb(g.stages().size());
  obs::Span build_span(tracer_.get(), "build");
  build_span.annotate("builder", "podman");
  build_span.annotate("tag", tag);
  buildgraph::StageScheduler::Options sopts;
  sopts.pool =
      options_.stage_pool != nullptr ? options_.stage_pool.get() : nullptr;
  sopts.parallel = options_.parallel_stages;
  sopts.tracer = tracer_;
  sopts.parent_span = build_span.id();
  sopts.metrics = options_.metrics;
  buildgraph::StageScheduler sched(g, sopts);
  const int rc = sched.run(
      [&](const buildgraph::Stage& s, Transcript& st) {
        return build_stage(g, s, sb, st, sched.stage_span(s.index));
      },
      t);
  sched_stats_ = sched.stats();
  build_span.annotate("status", std::to_string(rc));
  if (rc != 0) return rc;

  StageBuild& fin = sb[static_cast<std::size_t>(g.target())];
  BuiltImage img;
  img.base_digests = std::move(fin.base_digests);
  img.run_layers = std::move(fin.run_layers);
  img.top = fin.current;
  img.config = std::move(fin.cfg);
  images_[tag] = std::move(img);
  if (zc_stats_ != nullptr) {
    const auto zc = zc_stats_->totals();
    if (zc.total() > zc0.total()) {
      t.line("seccomp: faked " + std::to_string(zc.total() - zc0.total()) +
             " privileged syscalls (zero-consistency mode)");
    }
  }
  t.line("COMMIT " + tag);
  return 0;
}

int Podman::build_stage(const buildgraph::BuildGraph& g,
                        const buildgraph::Stage& s,
                        std::vector<StageBuild>& sb, Transcript& t,
                        obs::SpanId stage_span) {
  std::unique_lock lock(machine_mu_);
  StageBuild& o = sb[static_cast<std::size_t>(s.index)];
  const std::string total = std::to_string(g.instruction_count());
  const auto prefix = [&total](int number) {
    return "STEP " + std::to_string(number) + "/" + total + ": ";
  };
  t.line(prefix(s.from_number) + "FROM " + s.from->text);
  if (s.base_stage >= 0) {
    // Base is an earlier stage: a fresh layer on top of its top layer.
    const StageBuild& dep = sb[static_cast<std::size_t>(s.base_stage)];
    auto layer = driver_->create_layer(dep.current);
    if (!layer.ok()) {
      t.line("Error: storage driver " + driver_->name() + ": " +
             std::string(err_message(layer.error())));
      return 125;
    }
    o.current = *layer;
    o.cfg = dep.cfg;
    o.base_digests = dep.base_digests;
    o.run_layers = dep.run_layers;
    o.key = buildgraph::BuildCache::chain(dep.key, "FROM-STAGE");
  } else {
    auto manifest = registry_->get_manifest(s.base_ref, m_.arch());
    if (!manifest) manifest = registry_->get_manifest(s.base_ref);
    if (!manifest) {
      t.line("Error: initializing source: " + s.base_ref + ": not found");
      return 125;
    }
    std::vector<std::vector<image::TarEntry>> layer_entries;
    for (const auto& digest : manifest->layers) {
      // Tree layers walk the shared snapshot; blob layers parse straight
      // out of the registry's buffer (zero-copy).
      auto entries = image::registry_layer_entries(*registry_, digest);
      if (!entries.ok()) {
        t.line(entries.error() == Err::enoent
                   ? "Error: missing blob " + digest
                   : "Error: corrupt layer " + digest);
        return 125;
      }
      // Storage keeps *host-side* IDs: the archive's container IDs are
      // translated through the user-namespace map (what fuse-overlayfs
      // and podman's storage layer do on pull). Unmapped IDs fail the
      // pull unless --ignore-chown-errors squashes them (§4.1.1).
      for (auto& e : *entries) {
        auto kuid = uid_map_.to_outside(e.uid);
        auto kgid = gid_map_.to_outside(e.gid);
        if ((!kuid || !kgid) && !options_.ignore_chown_errors) {
          t.line("Error: payload contains unmapped IDs (uid " +
                 std::to_string(e.uid) + "); consider "
                 "--ignore-chown-errors or wider subuid ranges");
          return 125;
        }
        e.uid = kuid.value_or(invoker_.cred.euid);
        e.gid = kgid.value_or(invoker_.cred.egid);
      }
      layer_entries.push_back(std::move(*entries));
    }
    auto base = driver_->base_layer(layer_entries);
    if (!base.ok()) {
      t.line("Error: storage driver " + driver_->name() +
             ": " + std::string(err_message(base.error())) +
             " (is the graphroot on a shared filesystem without user "
             "xattrs?)");
      return 125;
    }
    o.current = *base;
    // The image's root directory itself is container-root-owned too.
    {
      vfs::OpCtx ctx;
      ctx.host_uid = invoker_.cred.euid;
      ctx.host_gid = invoker_.cred.egid;
      (void)o.current.fs->set_owner(ctx, o.current.root,
                                    uid_map_.to_outside(0).value_or(
                                        invoker_.cred.euid),
                                    gid_map_.to_outside(0).value_or(
                                        invoker_.cred.egid));
    }
    o.base_digests = manifest->layers;
    o.cfg = manifest->config;
    o.cfg.arch = m_.arch();
    o.key = buildgraph::BuildCache::chain(
        "podman|" + std::string(driver_->name()), "FROM|" + s.from->text);
  }

  // ARG values exist only during the build and are stage-scoped.
  std::map<std::string, std::string> build_args;

  for (const auto& si : s.instrs) {
    const build::Instruction& ins = *si.ins;
    const std::string step_str = std::to_string(si.number);
    const std::string pfx = prefix(si.number);
    obs::Span ins_span(tracer_.get(), "instruction", stage_span);
    ins_span.annotate("number", step_str);
    ins_span.annotate("kind", build::instr_name(ins.kind));
    switch (ins.kind) {
      case build::InstrKind::kFrom:
        break;  // unreachable: FROM opens a stage, never appears in a body
      case build::InstrKind::kRun: {
        std::vector<std::string> argv =
            ins.is_exec_form()
                ? ins.exec_form
                : std::vector<std::string>{"/bin/sh", "-c", ins.text};
        t.line(pfx + "RUN " + (ins.is_exec_form() ? format_argv(argv)
                                                  : ins.text));
        o.key = buildgraph::BuildCache::chain(o.key,
                                              "RUN|" + join(argv, "\x1f"));
        if (cache_ != nullptr) {
          auto hit = cache_->lookup(o.key, ins_span.id());
          if (hit) {
            auto layer = driver_->create_layer(o.current);
            if (layer.ok() && restore_layer(*layer, hit->snapshot)) {
              ins_span.annotate("cached", "true");
              t.line("--> Using cache " +
                     Sha256::hex_digest(o.key).substr(0, 12));
              o.current = *layer;
              o.cfg = hit->config;
              o.run_layers.push_back(o.current);
              break;
            }
          }
        }
        auto layer = driver_->create_layer(o.current);
        if (!layer.ok()) {
          t.line("Error: storage driver " + driver_->name() + ": " +
                 std::string(err_message(layer.error())));
          return 125;
        }
        image::ImageConfig run_cfg = o.cfg;
        for (const auto& [k, v] : build_args) run_cfg.env[k] = v;
        int status = 0;
        std::string errno_sum;
        for (int attempt = 1;; ++attempt) {
          auto container = enter(*layer, run_cfg);
          if (!container.ok()) {
            t.line("Error: cannot configure rootless user namespace: " +
                   std::string(err_message(container.error())) +
                   " (are subuid/subgid ranges configured?)");
            return 125;
          }
          std::string out, err;
          const kernel::SyscallStats::Totals before =
              stats_ != nullptr ? stats_->totals()
                                : kernel::SyscallStats::Totals{};
          // One syscall-batch span per attempt: deltas of the shared
          // syscall.* counters are exact because the machine mutex is held
          // across the container run.
          obs::Span batch(tracer_.get(), "syscall-batch", ins_span.id());
          batch.annotate("attempt", std::to_string(attempt));
          const std::uint64_t calls0 =
              metrics_->counter("syscall.calls").value();
          const std::uint64_t errors0 =
              metrics_->counter("syscall.errors").value();
          status = m_.shell().run_argv(*container, argv, out, err);
          batch.annotate(
              "calls", std::to_string(
                           metrics_->counter("syscall.calls").value() - calls0));
          batch.annotate("errors",
                         std::to_string(
                             metrics_->counter("syscall.errors").value() -
                             errors0));
          batch.annotate("status", std::to_string(status));
          batch.end();
          t.block(out);
          t.block(err);
          errno_sum.clear();
          if (stats_ != nullptr) {
            const auto after = stats_->totals();
            errno_sum = kernel::SyscallStats::errno_summary(before, after);
            std::string line = "syscalls: step " + step_str + ": " +
                               std::to_string(after.calls - before.calls) +
                               " calls, " +
                               std::to_string(after.errors - before.errors) +
                               " errors";
            if (!errno_sum.empty()) line += " (" + errno_sum + ")";
            line += ", depth " + std::to_string(last_depth_);
            t.line(line);
          }
          if (status == 0 || attempt >= options_.run_retry.max_attempts) {
            break;
          }
          const int delay = options_.run_retry.backoff_ms(attempt + 1);
          t.line("retry: RUN instruction " + step_str + " exited " +
                 std::to_string(status) + "; attempt " +
                 std::to_string(attempt + 1) + "/" +
                 std::to_string(options_.run_retry.max_attempts) + " in " +
                 std::to_string(delay) + " ms");
          // Back off without holding the machine: other stages keep going.
          lock.unlock();
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
          lock.lock();
        }
        if (status != 0) {
          if (stats_ != nullptr) {
            t.line("Error: RUN instruction " + step_str +
                   " failed with exit status " + std::to_string(status) +
                   (errno_sum.empty()
                        ? ""
                        : " (syscall errors: " + errno_sum + ")"));
          }
          t.line("Error: building at " + pfx.substr(0, pfx.size() - 2) +
                 ": while running runtime: exit status " +
                 std::to_string(status));
          return status;
        }
        o.current = *layer;
        o.run_layers.push_back(o.current);
        if (cache_ != nullptr) {
          auto diff = driver_->diff(o.current);
          if (diff.ok()) {
            auto snap = image::entries_to_snapshot(*diff);
            // Chunking new subtrees happens outside the machine lock; this
            // is the work independent stages genuinely overlap.
            lock.unlock();
            cache_->store(o.key, snap, o.cfg, ins_span.id());
            lock.lock();
          }
        }
        break;
      }
      case build::InstrKind::kEnv: {
        t.line(pfx + "ENV " + ins.text);
        for (const auto& [k, v] : build::parse_kv(ins.text)) {
          o.cfg.env[k] = v;
        }
        o.key = buildgraph::BuildCache::chain(o.key, "ENV|" + ins.text);
        break;
      }
      case build::InstrKind::kWorkdir: {
        t.line(pfx + "WORKDIR " + ins.text);
        o.cfg.workdir = ins.text;
        if (auto container = enter(o.current, o.cfg); container.ok()) {
          std::string out, err;
          (void)m_.shell().run(*container, "mkdir -p " + ins.text, out, err);
        }
        break;
      }
      case build::InstrKind::kCopy:
      case build::InstrKind::kAdd: {
        t.line(pfx + "COPY " + ins.text);
        const auto fields = split_ws(si.copy_args);
        if (fields.size() < 2) {
          t.line("Error: COPY requires source and destination");
          return 125;
        }
        Result<std::string> data = Err::enoent;
        if (si.copy_from >= 0) {
          // Source is an earlier stage's top layer (already built).
          data = read_from_layer(
              sb[static_cast<std::size_t>(si.copy_from)].current, fields[0]);
        } else {
          data = invoker_.sys->read_file(invoker_, fields[0]);
        }
        if (!data.ok()) {
          t.line("Error: COPY: " + fields[0] + ": no such file");
          return 125;
        }
        auto layer = driver_->create_layer(o.current);
        if (!layer.ok()) return 125;
        auto container = enter(*layer, o.cfg);
        if (!container.ok()) return 125;
        std::string dst = fields.back();
        if (dst.ends_with("/")) dst += fields[0];
        if (auto rc = container->sys->write_file(*container, dst, *data,
                                                 false, 0644);
            !rc.ok()) {
          t.line("Error: COPY: cannot write " + dst);
          return 125;
        }
        o.current = *layer;
        o.run_layers.push_back(o.current);
        o.key = buildgraph::BuildCache::chain(o.key, "COPY|" + ins.text,
                                              {Sha256::hex_digest(*data)});
        break;
      }
      case build::InstrKind::kCmd:
        t.line(pfx + "CMD " + ins.text);
        o.cfg.cmd = ins.is_exec_form()
                        ? ins.exec_form
                        : std::vector<std::string>{"/bin/sh", "-c", ins.text};
        break;
      case build::InstrKind::kEntrypoint:
        t.line(pfx + "ENTRYPOINT " + ins.text);
        o.cfg.entrypoint =
            ins.is_exec_form()
                ? ins.exec_form
                : std::vector<std::string>{"/bin/sh", "-c", ins.text};
        break;
      case build::InstrKind::kLabel:
        t.line(pfx + "LABEL " + ins.text);
        for (const auto& [k, v] : build::parse_kv(ins.text)) {
          o.cfg.labels[k] = v;
        }
        break;
      case build::InstrKind::kArg: {
        t.line(pfx + "ARG " + ins.text);
        const auto eq = ins.text.find('=');
        if (eq != std::string::npos) {
          build_args[ins.text.substr(0, eq)] = ins.text.substr(eq + 1);
        }
        break;
      }
      case build::InstrKind::kUser:
        t.line(pfx + "USER " + ins.text);
        // Type II has real multiple users: record it for later RUNs/runs.
        o.cfg.user = ins.text;
        break;
      default:
        t.line(pfx + build::instr_name(ins.kind) + " " + ins.text);
        break;
    }
  }
  return 0;
}

int Podman::push(const std::string& tag, const std::string& dest_ref,
                 Transcript& t) {
  auto it = images_.find(tag);
  if (it == images_.end()) {
    t.line("Error: " + tag + ": image not known");
    return 125;
  }
  const BuiltImage& img = it->second;
  image::Manifest manifest;
  manifest.reference = dest_ref;
  manifest.config = img.config;
  manifest.layers = img.base_digests;  // base blobs are shared by digest

  // §6.2.5: images may be marked to require ownership flattening.
  const bool must_flatten = img.config.flatten_policy() == "require";
  for (const auto& layer : img.run_layers) {
    auto entries = driver_->diff(layer);
    if (!entries.ok()) {
      t.line("Error: cannot export layer");
      return 125;
    }
    // "Provided image archives are also created within the container", the
    // image keeps correct ownership (§6.1): record container-namespace IDs.
    for (auto& e : *entries) {
      e.uid = uid_to_container(e.uid);
      e.gid = gid_to_container(e.gid);
    }
    if (must_flatten) *entries = image::flatten_ownership(std::move(*entries));
    // Merkle-tree push: unchanged subtrees of a previously pushed layer are
    // skipped wholesale (the registry already holds their nodes); file
    // contents dedup at chunk granularity underneath.
    support::ThreadPool* pool = options_.digest_pool != nullptr
                                    ? options_.digest_pool.get()
                                    : &support::shared_pool();
    auto res = registry_->put_tree(image::entries_to_snapshot(*entries), pool);
    manifest.layers.push_back(res.digest);
  }
  if (must_flatten) {
    t.line("Note: image marked " +
           std::string(image::ImageConfig::kFlattenLabel) +
           "=require; layers pushed ownership-flattened");
  }
  registry_->put_manifest(manifest);
  t.line("Copying " + std::to_string(manifest.layers.size()) + " layers to " +
         registry_->name() + "/" + dest_ref);
  t.line("Writing manifest " + manifest.digest());
  return 0;
}

int Podman::run_in_image(const std::string& tag,
                         const std::vector<std::string>& argv, Transcript& t) {
  auto it = images_.find(tag);
  if (it == images_.end()) {
    t.line("Error: " + tag + ": image not known");
    return 125;
  }
  auto container = enter(it->second.top, it->second.config);
  if (!container.ok()) {
    t.line("Error: cannot start container: " +
           std::string(err_message(container.error())));
    return 125;
  }
  std::string out, err;
  const int status = m_.shell().run_argv(*container, argv, out, err);
  t.block(out);
  t.block(err);
  return status;
}

int Podman::show_id_maps(Transcript& t) {
  // `podman unshare cat /proc/self/uid_map`
  kernel::Process c = invoker_.clone();
  c.sys = m_.kernel().syscalls();
  if (auto rc = c.sys->unshare_userns(c); !rc.ok()) {
    t.line("Error: cannot create user namespace");
    return 125;
  }
  if (options_.rootless_helpers) {
    kernel::Process helper_invoker = invoker_.clone();
    helper_invoker.sys = m_.kernel().syscalls();
    std::vector<kernel::IdMapEntry> uids(uid_map_.entries());
    std::vector<kernel::IdMapEntry> gids(gid_map_.entries());
    if (uids.size() < 2 ||
        !kernel::newuidmap(m_.kernel(), helper_invoker, c.userns, uids,
                           options_.helper_config)
             .ok() ||
        !kernel::newgidmap(m_.kernel(), helper_invoker, c.userns, gids,
                           options_.helper_config)
             .ok()) {
      t.line("Error: helpers could not install the requested ID maps");
      return 125;
    }
  } else {
    (void)c.sys->write_setgroups(
        c, c.userns, kernel::UserNamespace::SetgroupsPolicy::kDeny);
    (void)c.sys->write_uid_map(c, c.userns,
                               kernel::IdMap::single(0, invoker_.cred.euid));
    (void)c.sys->write_gid_map(c, c.userns,
                               kernel::IdMap::single(0, invoker_.cred.egid));
  }
  auto uid_map = c.sys->read_file(c, "/proc/self/uid_map");
  t.line("$ podman unshare cat /proc/self/uid_map");
  if (uid_map.ok()) t.block(*uid_map);
  return 0;
}

const image::ImageConfig* Podman::config(const std::string& tag) const {
  auto it = images_.find(tag);
  return it == images_.end() ? nullptr : &it->second.config;
}

}  // namespace minicon::core
