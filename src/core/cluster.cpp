#include "core/cluster.hpp"

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>

#include "core/chimage.hpp"
#include "core/runtime.hpp"
#include "distro/distro.hpp"
#include "fakeroot/fakeroot.hpp"
#include "image/tar.hpp"
#include "kernel/syscalls.hpp"
#include "obs/flightrec.hpp"
#include "pkg/managers.hpp"
#include "support/path.hpp"
#include "vfs/snapshot.hpp"

namespace minicon::core {

std::shared_ptr<shell::CommandRegistry> make_full_registry(
    const pkg::RepoUniversePtr& universe) {
  auto reg = std::make_shared<shell::CommandRegistry>();
  shell::register_standard_commands(*reg);
  fakeroot::register_fakeroot_commands(*reg);
  pkg::register_pkg_commands(*reg, universe);
  image::register_tar_command(*reg);
  distro::register_toolchain_commands(*reg);
  return reg;
}

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      universe_(std::make_shared<pkg::RepoUniverse>()),
      registry_("registry." + options_.name + ".example.com") {
  distro::populate_repos(*universe_);
  distro::publish_base_images(registry_, {"x86_64", "aarch64"});
  command_registry_ = make_full_registry(universe_);
  shared_fs_ = std::make_shared<vfs::SharedFs>(options_.shared_fs);

  auto make_node = [&](const std::string& hostname) {
    MachineOptions mo;
    mo.hostname = hostname;
    mo.arch = options_.arch;
    mo.registry = command_registry_;
    mo.shared_fs = shared_fs_;
    mo.shared_mountpoint = "/lustre";
    auto node = std::make_unique<Machine>(mo);
    (void)node->add_user(options_.user, options_.user_uid);
    return node;
  };
  login_ = make_node(options_.name + "-login1");
  for (int i = 0; i < options_.compute_nodes; ++i) {
    compute_.push_back(make_node(options_.name + "-cn" + std::to_string(i)));
    node_caches_.push_back(std::make_unique<image::ChunkCache>());
  }

  // Shared home on the parallel filesystem.
  vfs::OpCtx ctx;
  ctx.host_privileged = true;
  vfs::CreateArgs args;
  args.type = vfs::FileType::Directory;
  args.mode = 0755;
  if (auto home = shared_fs_->create(ctx, shared_fs_->root(), "home", args);
      home.ok()) {
    // The server provisions the user's directory under the user's own
    // authenticated identity (root squash would refuse anything else).
    vfs::OpCtx user_ctx;
    user_ctx.host_uid = options_.user_uid;
    user_ctx.host_gid = options_.user_uid;
    user_ctx.host_privileged = false;
    vfs::CreateArgs user_args = args;
    user_args.uid = options_.user_uid;
    user_args.gid = options_.user_uid;
    user_args.mode = 0700;
    (void)shared_fs_->create(user_ctx, *home, options_.user, user_args);
  }
}

Result<kernel::Process> Cluster::user_on(Machine& node) {
  return node.login(options_.user);
}

image::ChunkCache& Cluster::node_cache(int i) {
  if (i < 0 || static_cast<std::size_t>(i) >= node_caches_.size()) {
    throw std::out_of_range(
        "Cluster::node_cache: node index " + std::to_string(i) +
        " out of range [0, " + std::to_string(node_caches_.size()) + ")");
  }
  return *node_caches_[static_cast<std::size_t>(i)];
}

support::ThreadPool& Cluster::launch_pool(std::size_t width) {
  auto& slot = launch_pools_[width];
  if (slot == nullptr) {
    slot = std::make_unique<support::ThreadPool>(width);
  }
  return *slot;
}

namespace {

// Stacks a node's extra syscall layers (fault injection in tests) onto a
// launch process, innermost first.
void stack_node_layers(kernel::Process& p, int node,
                       const Cluster::LaunchOptions& options) {
  auto it = options.node_syscall_layers.find(node);
  if (it == options.node_syscall_layers.end()) return;
  for (const auto& layer : it->second) p.sys = layer(p.sys);
}

// mkdir -p through the process's syscall stack (so injected faults bite).
bool make_dirs(kernel::Process& p, const std::string& path) {
  std::string cur = "/";
  for (const auto& comp : path_components(path)) {
    cur = cur == "/" ? "/" + comp : cur + "/" + comp;
    if (!p.sys->stat(p, cur).ok() && !p.sys->mkdir(p, cur, 0755).ok()) {
      return false;
    }
  }
  return true;
}

// Resolves every layer of `m` into one merged snapshot owned by the launch
// user — the tree a Type III extraction on the node would produce. Metadata
// access only: content bytes are accounted at chunk granularity by the
// swarm, so this uses the registry's peek/meta accessors.
vfs::SnapNodePtr resolve_launch_tree(image::Registry& registry,
                                     const image::Manifest& m, vfs::Uid uid,
                                     vfs::Gid gid) {
  std::vector<image::TarEntry> all;
  for (const auto& digest : m.layers) {
    std::vector<image::TarEntry> entries;
    if (image::Registry::is_tree_digest(digest)) {
      auto tree = registry.get_tree_meta(digest);
      if (tree == nullptr) return nullptr;
      entries = image::snapshot_to_entries(tree);
    } else {
      auto blob = registry.peek_blob_ref(digest);
      if (blob == nullptr) return nullptr;
      auto parsed = image::tar_parse(*blob);
      if (!parsed.ok()) return nullptr;
      entries = std::move(*parsed);
    }
    all.insert(all.end(), std::make_move_iterator(entries.begin()),
               std::make_move_iterator(entries.end()));
  }
  // Extract-as-user semantics (§5.2): ownership squashes to the single
  // available ID, setuid/setgid bits clear, device nodes drop.
  all = image::flatten_ownership(std::move(all));
  for (auto& e : all) {
    e.uid = uid;
    e.gid = gid;
  }
  auto tree = image::entries_to_snapshot(all);
  if (tree == nullptr) return nullptr;
  // entries_to_snapshot's root defaults to root:root; re-own it too so an
  // unprivileged sync never has to chown toward root.
  vfs::SnapNode root = *tree;
  root.uid = uid;
  root.gid = gid;
  return vfs::freeze_snap_node(std::move(root));
}

}  // namespace

struct Cluster::NodeLaunch {
  std::optional<kernel::Process> user;
  bool dead = false;
};

Cluster::LaunchResult Cluster::parallel_launch(
    const std::string& image_ref, const std::vector<std::string>& argv,
    const LaunchOptions& options) {
  // One trace id for the whole launch: explicit > inherited > fresh. The
  // scope installs it on this thread; fan-out bodies re-install a per-node
  // copy on whichever pool worker runs them.
  obs::TraceContext ctx =
      options.trace.active() ? options.trace : obs::current_trace();
  if (!ctx.active()) ctx = obs::TraceContext::fresh();
  obs::TraceScope trace_scope(ctx);
  obs::Span launch_span(options.tracer.get(), "cluster.launch");
  launch_span.annotate("trace_id", ctx.hex());
  launch_span.annotate("nodes", std::to_string(compute_.size()));
  // Every exit path stamps the trace id and, on any node failure, snapshots
  // the launch's flight-recorder post-mortem while the evidence is fresh.
  auto finish = [&](LaunchResult& r) -> LaunchResult {
    r.trace_id = ctx.trace_id;
    if (r.nodes_failed > 0) {
      r.post_mortem = obs::global_flight_recorder().dump_text(r.trace_id);
    }
    return std::move(r);
  };
  const std::uint64_t served_before = registry_.bytes_served();
  LaunchResult result;
  if (options.mode == LaunchMode::kP2P) {
    launch_span.annotate("mode", "p2p");
    result = launch_p2p(image_ref, argv, options);
    result.registry_bytes = registry_.bytes_served() - served_before;
    return finish(result);
  }
  launch_span.annotate(
      "mode", options.mode == LaunchMode::kSharedFs ? "sharedfs" : "pull");
  result.outputs.resize(compute_.size());

  // Shared-filesystem mode: extract the flat image once, every node enters
  // the same tree (the ch-run model the paper recommends for launch).
  std::string shared_image_dir;
  if (options.mode == LaunchMode::kSharedFs) {
    auto manifest = registry_.get_manifest(image_ref, options_.arch);
    if (!manifest) manifest = registry_.get_manifest(image_ref);
    if (!manifest) {
      result.nodes_failed = compute_count();
      return finish(result);
    }
    auto user = user_on(login());
    if (!user.ok()) {
      result.nodes_failed = compute_count();
      return finish(result);
    }
    shared_image_dir = "/lustre/home/" + options_.user + "/images/" +
                       std::to_string(manifest->layers.size());
    std::string cur = "/";
    for (const auto& comp : path_components(shared_image_dir)) {
      cur = cur == "/" ? "/" + comp : cur + "/" + comp;
      if (!user->sys->stat(*user, cur).ok()) {
        (void)user->sys->mkdir(*user, cur, 0755);
      }
    }
    ChImageOptions ch_opts;
    ch_opts.storage_dir = "/lustre/home/" + options_.user + "/.chimage";
    ChImage ch(login(), *user, &registry_, ch_opts);
    Transcript t;
    if (ch.pull(image_ref, "launch", t) != 0) {
      result.nodes_failed = compute_count();
      return finish(result);
    }
    shared_image_dir =
        "/lustre/home/" + options_.user + "/.chimage/img/launch";
  }

  // Pooled fan-out: node jobs share a fixed-width worker pool instead of a
  // std::thread each, so a 64-node launch does not spawn 64 OS threads.
  const std::size_t pool_width =
      options.width > 0 ? static_cast<std::size_t>(options.width)
                        : static_cast<std::size_t>(options_.launch_width);
  support::ThreadPool& pool = launch_pool(pool_width);
  std::atomic<int> nodes_ok{0};
  std::atomic<int> nodes_failed{0};
  if (obs::FlightRecorder& rec = obs::global_flight_recorder();
      rec.enabled()) {
    rec.record(obs::FlightKind::kLaunchPhase,
               options.mode == LaunchMode::kSharedFs ? "launch sharedfs"
                                                     : "launch pull-per-node",
               0, compute_.size());
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<void>> jobs;
  jobs.reserve(compute_.size());
  for (std::size_t i = 0; i < compute_.size(); ++i) {
    jobs.push_back(pool.submit([&, i] {
      obs::TraceContext node_ctx = ctx;
      node_ctx.node = static_cast<int>(i);
      obs::TraceScope node_scope(node_ctx);
      Machine& node = *compute_[i];
      auto user = node.login(options_.user);
      if (!user.ok()) {
        ++nodes_failed;
        return;
      }
      stack_node_layers(*user, static_cast<int>(i), options);
      int status = 1;
      std::string output;
      if (options.mode == LaunchMode::kSharedFs) {
        // Every node sees the same image directory through /lustre.
        auto loc = user->sys->resolve(*user, shared_image_dir, true);
        if (loc.ok()) {
          RootFs rootfs{loc->mnt->fs, loc->ino, loc->mnt->owner_ns};
          auto container = enter_type3(node, *user, rootfs, {});
          if (container.ok()) {
            std::string err;
            status = node.shell().run_argv(*container, argv, output, err);
            output += err;
          }
        }
      } else {
        // Pull to node-local storage, then run (the registry round-trip).
        ChImage ch(node, *user, &registry_, {});
        Transcript t;
        if (ch.pull(image_ref, "job", t) == 0) {
          Transcript rt;
          status = ch.run_in_image("job", argv, rt);
          output = rt.text();
        }
      }
      if (status == 0) {
        ++nodes_ok;
      } else {
        ++nodes_failed;
      }
      // Each job owns its slot; no lock needed.
      result.outputs[i] = std::move(output);
    }));
  }
  for (auto& j : jobs) j.get();
  result.nodes_ok = nodes_ok.load();
  result.nodes_failed = nodes_failed.load();
  const auto end = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.registry_bytes = registry_.bytes_served() - served_before;
  return finish(result);
}

Cluster::LaunchResult Cluster::launch_p2p(
    const std::string& image_ref, const std::vector<std::string>& argv,
    const LaunchOptions& options) {
  // parallel_launch installed the launch's context on this thread; phases
  // below re-install a node-stamped copy on every pool worker.
  const obs::TraceContext ctx = obs::current_trace();
  auto phase_mark = [&](const char* name) {
    obs::FlightRecorder& rec = obs::global_flight_recorder();
    if (rec.enabled()) {
      rec.record(obs::FlightKind::kLaunchPhase, name, 0, compute_.size());
    }
  };
  LaunchResult result;
  result.outputs.resize(compute_.size());

  auto manifest = registry_.get_manifest(image_ref, options_.arch);
  if (!manifest) manifest = registry_.get_manifest(image_ref);
  if (!manifest) {
    result.nodes_failed = compute_count();
    return result;
  }
  if (compute_.empty()) return result;

  const auto start = std::chrono::steady_clock::now();

  // The swarm borrows the cluster's persistent node caches: a warm
  // relaunch of the same image transfers only what is missing.
  std::vector<image::ChunkCache*> caches;
  caches.reserve(node_caches_.size());
  for (const auto& c : node_caches_) caches.push_back(c.get());
  image::Swarm swarm(&registry_, std::move(caches),
                     image::SwarmOptions{nullptr, options.tracer});
  if (auto rc = swarm.prepare(*manifest); !rc.ok()) {
    result.nodes_failed = compute_count();
    return result;
  }
  result.image_bytes = swarm.plan().manifest.total_bytes;

  obs::Span resolve_span(options.tracer.get(), "cluster.resolve_tree");
  auto target = resolve_launch_tree(registry_, *manifest, options_.user_uid,
                                    options_.user_uid);
  resolve_span.end();
  if (target == nullptr) {
    result.nodes_failed = compute_count();
    return result;
  }

  const std::size_t pool_width =
      options.width > 0 ? static_cast<std::size_t>(options.width)
                        : static_cast<std::size_t>(options_.launch_width);
  support::ThreadPool& pool = launch_pool(pool_width);
  std::vector<NodeLaunch> nodes(compute_.size());
  const std::string spool_dir = "/home/" + options_.user + "/.swarm";

  // A staging receipt committed through the node's (possibly faulted)
  // syscall stack: a node that cannot write node-local storage is dead —
  // it seeds nobody, and peers re-route its shard to the registry.
  auto write_receipt = [&](kernel::Process& user, const std::string& name,
                           const std::string& body) {
    return user.sys
        ->write_file(user, spool_dir + "/" + name, body, /*append=*/false,
                     0644)
        .ok();
  };

  auto fan_out = [&](auto&& body) {
    std::vector<std::future<void>> jobs;
    jobs.reserve(compute_.size());
    for (std::size_t i = 0; i < compute_.size(); ++i) {
      jobs.push_back(pool.submit([&body, &ctx, i] {
        obs::TraceContext node_ctx = ctx;
        node_ctx.node = static_cast<int>(i);
        obs::TraceScope node_scope(node_ctx);
        body(i);
      }));
    }
    for (auto& j : jobs) j.get();
  };

  // Phase 1 — seed: every node logs in, stages its rendezvous-assigned
  // shard from the registry, and commits a receipt to node-local storage.
  phase_mark("p2p seed");
  fan_out([&](std::size_t i) {
    const int node = static_cast<int>(i);
    auto user = compute_[i]->login(options_.user);
    if (!user.ok()) {
      nodes[i].dead = true;
      swarm.mark_failed(node);
      return;
    }
    stack_node_layers(*user, node, options);
    nodes[i].user = std::move(*user);
    if (!make_dirs(*nodes[i].user, spool_dir)) {
      nodes[i].dead = true;
      swarm.mark_failed(node);
      return;
    }
    auto stats = swarm.seed(node);
    if (stats.chunks_missing > 0 ||
        !write_receipt(*nodes[i].user, "seed",
                       std::to_string(stats.chunks_from_registry))) {
      nodes[i].dead = true;
      swarm.mark_failed(node);
    }
  });

  // Phase 2 — exchange: obtain every remaining chunk from its seeder's
  // cache; seeders that died in phase 1 fall back to the registry.
  phase_mark("p2p exchange");
  fan_out([&](std::size_t i) {
    const int node = static_cast<int>(i);
    if (nodes[i].dead) return;
    auto stats = swarm.exchange(node);
    if (stats.chunks_missing > 0 || !swarm.complete(node) ||
        !write_receipt(*nodes[i].user, "exchange",
                       std::to_string(stats.chunks_from_peers))) {
      nodes[i].dead = true;
      swarm.mark_failed(node);
    }
  });

  // Phase 3 — materialize the staged image into node-local storage and run.
  phase_mark("p2p materialize");
  std::atomic<int> nodes_ok{0};
  std::atomic<int> nodes_failed{0};
  fan_out([&](std::size_t i) {
    if (nodes[i].dead) {
      ++nodes_failed;
      return;
    }
    obs::Span span(options.tracer.get(), "launch.materialize");
    Machine& node = *compute_[i];
    kernel::Process& user = *nodes[i].user;
    const std::string img_dir = spool_dir + "/img";
    int status = 1;
    std::string output;
    if (make_dirs(user, img_dir)) {
      if (auto loc = user.sys->resolve(user, img_dir, true); loc.ok()) {
        vfs::OpCtx ctx;
        ctx.host_uid = user.cred.euid;
        ctx.host_gid = user.cred.egid;
        ctx.host_privileged = user.cred.euid == 0;
        if (vfs::sync_tree(*loc->mnt->fs, loc->ino, target, ctx).ok()) {
          RootFs rootfs{loc->mnt->fs, loc->ino, loc->mnt->owner_ns};
          auto container = enter_type3(node, user, rootfs, {});
          if (container.ok()) {
            std::string err;
            status = node.shell().run_argv(*container, argv, output, err);
            output += err;
          }
        }
      }
    }
    if (options.tracer != nullptr) {
      span.annotate("node", std::to_string(i));
      span.annotate("status", std::to_string(status));
      if (const obs::TraceContext node_ctx = obs::current_trace();
          node_ctx.active()) {
        span.annotate("trace_id", node_ctx.hex());
      }
    }
    span.end();
    if (status == 0) {
      ++nodes_ok;
    } else {
      ++nodes_failed;
    }
    result.outputs[i] = std::move(output);
  });

  result.nodes_ok = nodes_ok.load();
  result.nodes_failed = nodes_failed.load();
  result.peer_bytes = swarm.peer_bytes();
  const auto end = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return result;
}

}  // namespace minicon::core
