// The three Fig 6 workloads. Each drives only the public API of
// core::ChImage, core::Podman and core::Cluster, times the calls into the
// system, and checks every op's output.
#include <stdexcept>

#include "bench.hpp"
#include "buildfile/dockerfile.hpp"
#include "buildgraph/cache.hpp"
#include "core/chimage.hpp"
#include "core/cluster.hpp"
#include "core/podman.hpp"
#include "kernel/faultinject.hpp"
#include "support/threadpool.hpp"
#include "vfs/snapshot.hpp"

namespace perfbench {
namespace {

namespace core = minicon::core;
namespace kernel = minicon::kernel;
namespace support = minicon::support;
namespace vfs = minicon::vfs;
using minicon::Transcript;

// Seed streams, one per purpose.
enum : std::uint64_t {
  kSeedOps = 1,
  kSeedContext = 2,
  kSeedStages = 3,
  kSeedPayload = 4,
  kSeedEdits = 5
};

constexpr std::size_t kMiB = 1 << 20;
constexpr std::size_t kRegion = 64 << 10;  // one registry chunk

// Packages that build under all three privilege modes. Left out on purpose:
// openssh-server (its %pre reads /proc/1/environ and fails under both
// ch-image modes), iputils (setcap fails under --force=fakeroot),
// initscripts-static (statically linked chown escapes fakeroot), makedev
// and ownership-audit (read back faked results under --force=seccomp).
const std::vector<std::string> kCentosPackages = {
    "fipscheck", "openssh", "epel-release", "polkit",         "fuse",
    "gcc",       "make",    "openmpi-devel", "intel-compiler", "spack"};
const std::vector<std::string> kDebianPackages = {
    "libxext6",    "xauth",        "openssh-client", "pseudo",
    "fakeroot",    "fakeroot-ng",  "iputils-ping",   "hello"};

std::string join(const std::vector<std::string>& v, const std::string& sep) {
  std::string out;
  for (const auto& s : v) out += (out.empty() ? "" : sep) + s;
  return out;
}

// k distinct packages, k in [1, max_k].
std::vector<std::string> draw(Rng& r, const std::vector<std::string>& from,
                              std::size_t max_k) {
  std::vector<std::string> pool = from;
  const std::size_t k = 1 + r.below(max_k);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = r.below(pool.size());
    out.push_back(pool[j]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
  }
  return out;
}

// Every file path the named packages install, looked up in the synthetic
// distro repos the cluster was populated with.
std::vector<std::string> package_files(const core::Cluster& cluster,
                                       const std::vector<std::string>& repos,
                                       const std::vector<std::string>& names) {
  std::vector<std::string> paths;
  for (const auto& name : names) {
    const minicon::pkg::Package* found = nullptr;
    for (const auto& id : repos) {
      const auto* repo = cluster.universe()->find(id);
      if (repo != nullptr && (found = repo->find(name)) != nullptr) break;
    }
    if (found == nullptr) throw std::runtime_error("no package " + name);
    for (const auto& f : found->files) paths.push_back(f.path);
  }
  return paths;
}

core::ClusterOptions cluster_options(int compute_nodes, int width) {
  core::ClusterOptions o;
  o.arch = "x86_64";
  o.compute_nodes = compute_nodes;
  o.launch_width = width;
  return o;
}

kernel::Process login_user(core::Cluster& cluster) {
  auto user = cluster.user_on(cluster.login());
  if (!user.ok()) throw std::runtime_error("cannot log in on the login node");
  return *user;
}

void write_home_file(kernel::Process& user, const std::string& path,
                     std::string data) {
  if (!user.sys->write_file(user, path, std::move(data), false, 0644).ok()) {
    throw std::runtime_error("cannot write " + path);
  }
}

// Walks `path` in a snapshot tree; null when absent.
vfs::SnapNodePtr find_node(vfs::SnapNodePtr node, const std::string& path) {
  std::size_t pos = 1;
  while (node != nullptr && pos < path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::string name = path.substr(pos, slash - pos);
    auto it = node->children.find(name);
    node = it == node->children.end() ? nullptr : it->second;
    pos = slash == std::string::npos ? path.size() : slash + 1;
  }
  return node;
}

// The benchmark's own timer around one call into a layer, as a `bench.*`
// span (inert when untraced).
template <typename F>
auto timed_call(obs::Tracer* tracer, const char* name, obs::SpanId op,
                F&& call) {
  obs::Span span(tracer, name, op);
  return call();
}

class WorkloadBase : public Workload {
 public:
  WorkloadBase(const Config& cfg, int compute_nodes)
      : cfg_(cfg),
        cluster_(cluster_options(compute_nodes, cfg.width)),
        user_(login_user(cluster_)),
        stage_pool_(std::make_shared<support::ThreadPool>(
            static_cast<std::size_t>(cfg.width), &metrics_)),
        digest_pool_(std::make_shared<support::ThreadPool>(
            static_cast<std::size_t>(cfg.width), &metrics_)) {
    cluster_.registry().set_observability(&metrics_);
  }

  void begin_phase(std::shared_ptr<obs::Tracer> tracer) override {
    Workload::begin_phase(std::move(tracer));
    cluster_.registry().set_observability(&metrics_, tracer_);
  }
  image::Registry& registry() override { return cluster_.registry(); }

 protected:
  core::ChImageOptions chimage_options(core::ForceMode mode) {
    core::ChImageOptions o;
    o.force = true;
    o.force_mode = mode;
    o.stage_pool = stage_pool_;
    o.digest_pool = digest_pool_;
    o.metrics = &metrics_;
    o.tracer = tracer_;
    o.trace = tracer_ != nullptr;
    return o;
  }

  // Traced phases time the buildfile layer on its own: one extra
  // build::parse_dockerfile call per Dockerfile, outside the op timer.
  bool timed_parse(const std::string& dockerfile) {
    if (tracer_ == nullptr) return true;
    const auto t0 = Clock::now();
    const auto parsed = minicon::build::parse_dockerfile(dockerfile);
    extras_.parse_us.push_back(ms_since(t0) * 1000.0);
    return std::holds_alternative<minicon::build::Dockerfile>(parsed);
  }

  // The timed part of one op: the `bench.op` span and the op timer, inside
  // the counter window of a traced phase.
  class Timed {
   public:
    explicit Timed(WorkloadBase& w) : w_(w) {
      if (w_.window_ != nullptr) w_.window_->open();
      span_ = obs::Span(w_.tracer_.get(), "bench.op");
      t0_ = Clock::now();
    }
    obs::SpanId id() const { return span_.id(); }
    double finish() {
      const double ms = ms_since(t0_);
      span_.end();
      if (w_.window_ != nullptr) w_.window_->close();
      return ms;
    }

   private:
    WorkloadBase& w_;
    obs::Span span_;
    Clock::time_point t0_;
  };

  Config cfg_;
  core::Cluster cluster_;
  kernel::Process user_;
  std::shared_ptr<support::ThreadPool> stage_pool_;
  std::shared_ptr<support::ThreadPool> digest_pool_;
};

// --- privilege_matrix --------------------------------------------------------
//
// Each op builds a seeded CentOS 7 `yum install` Dockerfile and a seeded
// Debian 10 `apt-get update && apt-get install` Dockerfile under
// ch-image --force=fakeroot, ch-image --force=seccomp and rootless Podman
// with helpers; build cache off, no build context.
class PrivilegeMatrix : public WorkloadBase {
 public:
  explicit PrivilegeMatrix(const Config& cfg) : WorkloadBase(cfg, 0) {}

  OpResult run_op(std::uint64_t index, bool inject_fault) override {
    Rng r = stream(cfg_.seed, kSeedOps, index);
    const auto centos = draw(r, kCentosPackages, 3);
    const auto debian = draw(r, kDebianPackages, 3);
    const std::string centos_df =
        "FROM centos:7\nRUN yum install -y " + join(centos, " ") + "\n";
    const std::string debian_df =
        "FROM debian:buster\nRUN apt-get update && apt-get install -y " +
        join(debian, " ") + "\n";
    if (!timed_parse(centos_df) || !timed_parse(debian_df)) {
      return {false, 0, "Dockerfile does not parse"};
    }

    // One CLI invocation per build: fresh builders, persistent storage.
    std::vector<kernel::SyscallLayerFn> layers;
    if (inject_fault) {
      const std::uint64_t seed = cfg_.seed;
      layers.push_back([seed](std::shared_ptr<kernel::Syscalls> inner) {
        kernel::FaultSpec spec;
        spec.op = "write";
        spec.error = minicon::Err::eio;
        return std::make_shared<kernel::FaultInjectSyscalls>(std::move(inner),
                                                             seed, spec);
      });
    }
    auto fr_opts = chimage_options(core::ForceMode::kFakeroot);
    auto sc_opts = chimage_options(core::ForceMode::kSeccomp);
    core::PodmanOptions pm_opts;
    pm_opts.build_cache = false;
    pm_opts.stage_pool = stage_pool_;
    pm_opts.digest_pool = digest_pool_;
    pm_opts.metrics = &metrics_;
    pm_opts.tracer = tracer_;
    pm_opts.trace = tracer_ != nullptr;
    fr_opts.syscall_layers = sc_opts.syscall_layers = pm_opts.syscall_layers =
        layers;
    core::ChImage fakeroot(cluster_.login(), user_, &registry(), fr_opts);
    core::ChImage seccomp(cluster_.login(), user_, &registry(), sc_opts);
    core::Podman podman(cluster_.login(), user_, &registry(), pm_opts);

    struct Build {
      const char* timer;
      const char* tag;
      const std::string* dockerfile;
      int rc = -1;
    };
    Build builds[] = {
        {"bench.chimage.build.fakeroot", "pm-centos-fakeroot", &centos_df},
        {"bench.chimage.build.fakeroot", "pm-debian-fakeroot", &debian_df},
        {"bench.chimage.build.seccomp", "pm-centos-seccomp", &centos_df},
        {"bench.chimage.build.seccomp", "pm-debian-seccomp", &debian_df},
        {"bench.podman.build", "pm-centos-podman", &centos_df},
        {"bench.podman.build", "pm-debian-podman", &debian_df},
    };
    auto builder_of = [&](std::size_t i) -> auto& {
      return i < 2 ? fakeroot : seccomp;
    };
    OpResult res;
    Timed timed(*this);
    for (std::size_t i = 0; i < 6; ++i) {
      Build& b = builds[i];
      Transcript t;
      b.rc = timed_call(tracer_.get(), b.timer, timed.id(), [&] {
        return i < 4 ? builder_of(i).build(b.tag, *b.dockerfile, t)
                     : podman.build(b.tag, *b.dockerfile, t);
      });
    }
    res.ms = timed.finish();
    for (auto* b : {&fakeroot, &seccomp}) {
      extras_.peak_in_flight =
          std::max(extras_.peak_in_flight, b->schedule_stats().peak_in_flight);
    }
    extras_.peak_in_flight = std::max(extras_.peak_in_flight,
                                      podman.schedule_stats().peak_in_flight);

    // Output check: every image holds every file of its seeded packages.
    const std::string centos_test =
        "test -e " +
        join(package_files(cluster_, {"centos7-base", "centos7-hpc"}, centos),
             " && test -e ");
    const std::string debian_test =
        "test -e " +
        join(package_files(cluster_, {"debian10-main"}, debian),
             " && test -e ");
    for (std::size_t i = 0; i < 6; ++i) {
      const Build& b = builds[i];
      if (b.rc != 0) {
        res.error = std::string(b.tag) + ": build exited " +
                    std::to_string(b.rc);
        return res;
      }
      const std::vector<std::string> argv = {
          "/bin/sh", "-c", i % 2 == 0 ? centos_test : debian_test};
      Transcript t;
      const int rc = i < 4 ? builder_of(i).run_in_image(b.tag, argv, t)
                           : podman.run_in_image(b.tag, argv, t);
      if (rc != 0) {
        res.error = std::string(b.tag) + ": package files missing";
        return res;
      }
    }
    res.ok = true;
    return res;
  }
};

// --- edit_rebuild_push -------------------------------------------------------
//
// The developer inner loop on a five-stage Dockerfile under ch-image
// --force=seccomp with the build cache on: four independent `yum install`
// stages and a final stage that COPYs a ~1 MiB context file from the user's
// home on the login node and `COPY --from`s each stage. Each op applies one
// seeded edit, rebuilds, and pushes to a new tag.
class EditRebuildPush : public WorkloadBase {
 public:
  static constexpr int kStages = 4;

  explicit EditRebuildPush(const Config& cfg)
      : WorkloadBase(cfg, 0),
        cache_(std::make_shared<minicon::buildgraph::BuildCache>(
            &cluster_.registry().chunk_store())) {
    cache_->set_metrics(&metrics_);
    Rng stages = stream(cfg.seed, kSeedStages);
    for (auto& p : packages_) p = draw(stages, kCentosPackages, 2);
    Rng ctx = stream(cfg.seed, kSeedContext);
    context_ = ctx.bytes(kMiB);
    write_home_file(user_, kContextPath, context_);
    // Warm the cache with the unedited image, as a developer's first build.
    begin_phase(nullptr);
    Transcript t;
    if (builder_->build(kTag, dockerfile(), t) != 0 ||
        builder_->push(kTag, "fig6/app:0", t) != 0) {
      throw std::runtime_error("edit_rebuild_push: initial build failed:\n" +
                               t.text());
    }
  }

  void begin_phase(std::shared_ptr<obs::Tracer> tracer) override {
    WorkloadBase::begin_phase(tracer);
    cache_->set_tracer(tracer_);
    auto opts = chimage_options(core::ForceMode::kSeccomp);
    opts.build_cache = true;
    opts.shared_cache = cache_;
    builder_ = std::make_unique<core::ChImage>(cluster_.login(), user_,
                                               &registry(), opts);
  }

  OpResult run_op(std::uint64_t index, bool) override {
    Rng r = stream(cfg_.seed, kSeedOps, index);
    const std::uint64_t kind = edit_kind(index);
    int edited_stage = -1;
    if (kind < 6) {
      const std::size_t region = r.below(kMiB / kRegion);
      context_.replace(region * kRegion, kRegion, r.bytes(kRegion));
      write_home_file(user_, kContextPath, context_);
    } else if (kind < 9) {
      edited_stage = static_cast<int>(r.below(kStages));
      ++versions_[edited_stage];
    }
    const std::string df = dockerfile();
    if (!timed_parse(df)) return {false, 0, "Dockerfile does not parse"};
    const std::string ref = "fig6/app:" + std::to_string(++pushes_);
    const auto before = cache_->stats();

    OpResult res;
    Transcript t;
    int build_rc = -1;
    int push_rc = -1;
    Timed timed(*this);
    build_rc = timed_call(tracer_.get(), "bench.chimage.build", timed.id(),
                          [&] { return builder_->build(kTag, df, t); });
    if (build_rc == 0) {
      push_rc = timed_call(tracer_.get(), "bench.chimage.push", timed.id(),
                           [&] { return builder_->push(kTag, ref, t); });
    }
    res.ms = timed.finish();
    extras_.peak_in_flight = std::max(
        extras_.peak_in_flight, builder_->schedule_stats().peak_in_flight);
    if (build_rc != 0 || push_rc != 0) {
      res.error = "build or push failed:\n" + t.text();
      return res;
    }

    // Output check 1: the cache misses exactly the RUNs the edit touched.
    const auto after = cache_->stats();
    const std::uint64_t want_misses = edited_stage >= 0 ? 1 : 0;
    if (after.misses - before.misses != want_misses ||
        after.hits - before.hits != kStages - want_misses) {
      res.error = "cache: " + std::to_string(after.misses - before.misses) +
                  " misses, " + std::to_string(after.hits - before.hits) +
                  " hits; edit implies " + std::to_string(want_misses) +
                  " misses";
      return res;
    }
    // Output check 2: the pushed tag resolves to the tree just built, and
    // that tree holds the edited context and every stage's version.
    auto rootfs = builder_->image_rootfs(kTag);
    auto manifest = registry().get_manifest(ref);
    if (!rootfs.ok() || !manifest || manifest->layers.size() != 1) {
      res.error = "pushed tag " + ref + " has no single layer";
      return res;
    }
    auto snap = rootfs->fs->snapshot(rootfs->root);
    if (!snap.ok() ||
        manifest->layers[0] != "tree:" + vfs::flatten_snapshot(*snap)->digest) {
      res.error = "pushed tag " + ref + " does not resolve to the built tree";
      return res;
    }
    auto ctx = find_node(*snap, "/opt/app/ctx.bin");
    if (ctx == nullptr || ctx->content_view() != context_) {
      res.error = "built image does not hold the edited context file";
      return res;
    }
    for (int k = 0; k < kStages; ++k) {
      auto v = find_node(*snap, "/opt/stages/s" + std::to_string(k));
      if (v == nullptr ||
          v->content_view() != std::to_string(versions_[k]) + "\n") {
        res.error = "stage " + std::to_string(k) + " output is stale";
        return res;
      }
    }
    res.ok = true;
    return res;
  }

 private:
  static constexpr const char* kContextPath = "/home/alice/ctx.bin";

  // Every block of ten consecutive ops holds exactly six context edits
  // (kinds 0-5), three RUN edits (6-8) and one unchanged rebuild (9), in a
  // seeded order, so the edit mix of a run does not vary with the seed.
  std::uint64_t edit_kind(std::uint64_t index) const {
    Rng r = stream(cfg_.seed, kSeedEdits, index / 10);
    std::uint64_t deck[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (std::uint64_t i = 9; i > 0; --i) std::swap(deck[i], deck[r.below(i + 1)]);
    return deck[index % 10];
  }
  static constexpr const char* kTag = "fig6-app";

  std::string dockerfile() const {
    std::string df;
    for (int k = 0; k < kStages; ++k) {
      df += "FROM centos:7 AS s" + std::to_string(k) + "\n";
      df += "RUN yum install -y " + join(packages_[k], " ") + " && echo " +
            std::to_string(versions_[k]) + " > /etc/stage.version\n";
    }
    df += "FROM centos:7\n";
    for (int k = 0; k < kStages; ++k) {
      df += "COPY --from=s" + std::to_string(k) +
            " /etc/stage.version /opt/stages/s" + std::to_string(k) + "\n";
    }
    df += std::string("COPY ") + kContextPath + " /opt/app/ctx.bin\n";
    return df;
  }

  minicon::buildgraph::BuildCachePtr cache_;
  std::unique_ptr<core::ChImage> builder_;
  std::string context_;
  std::vector<std::string> packages_[kStages];
  std::uint64_t versions_[kStages] = {};
  std::uint64_t pushes_ = 0;
};

// --- cold_launch_p2p ---------------------------------------------------------
//
// The Fig 6 final stage on 64 compute nodes. Set-up builds and pushes two
// images whose ~1 MiB seeded payloads share no chunks; each op clears every
// node's chunk cache (a fresh allocation) and launches the other image
// peer-to-peer, running the app on every node.
class ColdLaunchP2P : public WorkloadBase {
 public:
  static constexpr int kNodes = 64;

  explicit ColdLaunchP2P(const Config& cfg) : WorkloadBase(cfg, kNodes) {
    core::ChImage ch(cluster_.login(), user_, &registry(),
                     chimage_options(core::ForceMode::kSeccomp));
    for (int i = 0; i < 2; ++i) {
      const std::string name = i == 0 ? "a" : "b";
      Rng payload = stream(cfg.seed, kSeedPayload, static_cast<std::uint64_t>(i));
      const std::string stamp = std::to_string(payload.next());
      write_home_file(user_, "/home/alice/payload-" + name + ".bin",
                      payload.bytes(kMiB));
      write_home_file(user_, "/home/alice/app-" + name,
                      "#!/bin/sh\necho fig6-app " + name + " " + stamp +
                          "\n");
      const std::string df =
          "FROM centos:7\n"
          "COPY /home/alice/payload-" + name + ".bin /opt/app/payload.bin\n"
          "COPY /home/alice/app-" + name + " /usr/bin/fig6-app\n"
          "RUN chmod 755 /usr/bin/fig6-app\n";
      Transcript t;
      refs_[i] = "fig6/launch-" + name;
      if (ch.build("launch-" + name, df, t) != 0 ||
          ch.push("launch-" + name, refs_[i], t) != 0) {
        throw std::runtime_error("cold_launch_p2p: image set-up failed:\n" +
                                 t.text());
      }
      Transcript rt;
      if (ch.run_in_image("launch-" + name, {"/usr/bin/fig6-app"}, rt) != 0) {
        throw std::runtime_error("cold_launch_p2p: app does not run:\n" +
                                 rt.text());
      }
      expected_[i] = rt.text();
    }
  }

  OpResult run_op(std::uint64_t index, bool) override {
    const std::size_t which = index % 2;
    for (int n = 0; n < kNodes; ++n) cluster_.node_cache(n).clear();
    core::Cluster::LaunchOptions lo;
    lo.mode = core::Cluster::LaunchMode::kP2P;
    lo.width = cfg_.width;
    lo.tracer = tracer_;

    OpResult res;
    Timed timed(*this);
    const auto launch =
        timed_call(tracer_.get(), "bench.cluster.launch", timed.id(), [&] {
          return cluster_.parallel_launch(refs_[which], {"/usr/bin/fig6-app"},
                                          lo);
        });
    res.ms = timed.finish();

    // Output check: every node ran the app and printed the expected lines.
    if (launch.nodes_ok != kNodes || launch.nodes_failed != 0) {
      res.error = std::to_string(launch.nodes_ok) + " of " +
                  std::to_string(kNodes) + " nodes ok";
      return res;
    }
    for (int n = 0; n < kNodes; ++n) {
      if (launch.outputs[static_cast<std::size_t>(n)] != expected_[which]) {
        res.error = "node " + std::to_string(n) + " printed " +
                    launch.outputs[static_cast<std::size_t>(n)];
        return res;
      }
    }
    res.ok = true;
    return res;
  }

 private:
  std::string refs_[2];
  std::string expected_[2];
};

}  // namespace

bool known_workload(const std::string& name) {
  return name == "privilege_matrix" || name == "edit_rebuild_push" ||
         name == "cold_launch_p2p";
}

double nominal_ops_per_s(const std::string& workload) {
  if (workload == "privilege_matrix") return 300;
  if (workload == "edit_rebuild_push") return 25;
  return 5.5;  // cold_launch_p2p
}

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "privilege_matrix") {
    return std::make_unique<PrivilegeMatrix>(cfg);
  }
  if (cfg.workload == "edit_rebuild_push") {
    return std::make_unique<EditRebuildPush>(cfg);
  }
  if (cfg.workload == "cold_launch_p2p") {
    return std::make_unique<ColdLaunchP2P>(cfg);
  }
  throw std::runtime_error("unknown workload " + cfg.workload);
}

}  // namespace perfbench
